import math
import sys
import threading

import numpy as np
import pytest

import oracles
from entrocut import (
    SpectrumFileError,
    SpectrumModel,
    extend_model,
    fit_growth_constants,
    model_dims,
    parse_spectrum_file,
    spectra,
)


def test_partition_recurrence_matches_enumeration_to_35():
    p = model_dims("u1", 35).dims
    for n in range(36):
        assert p[n] == oracles.count_partitions_enumerated(n)


def test_partition_recurrence_matches_coin_change_to_500():
    assert model_dims("u1", 500).dims == oracles.partition_counts_table(500)


def test_partition_table_grown_in_odd_steps_matches_coin_change_to_3000(cold_tables):
    # each step restarts the recurrence with its own list of pentagonal offsets
    for n in (1, 2, 7, 58, 333, 1001, 2999, 3000):
        model_dims("u1", n)
    assert spectra._TABLES[("u1", 1)].dims == oracles.partition_counts_table(3000)


def test_partition_known_values():
    p = model_dims("u1", 100).dims
    assert p[0] == 1 and p[1] == 1 and p[5] == 7 and p[10] == 42
    assert p[100] == 190569292


def test_u1_dims_are_partition_numbers():
    m = model_dims("u1", 25)
    assert m.dims == oracles.partition_counts_table(25)
    assert m.label == "u1"


def test_virasoro_dims_count_no_ones_partitions():
    m = model_dims("virasoro", 200)
    assert m.dims == oracles.partition_counts_table(200, min_part=2)
    assert m.dims[:7] == [1, 0, 1, 1, 2, 2, 4]


def test_tensor_power_matches_generating_function_product():
    base = model_dims("u1", 20).dims
    cube = oracles.convolve_exact(oracles.convolve_exact(base, base, 20), base, 20)
    assert model_dims("u1", 20, power=3).dims == cube
    assert model_dims("u1", 20, power=3).label == "u1^3"


def test_extend_model_preserves_prefix():
    m = model_dims("virasoro", 10)
    big = extend_model(m, 50)
    assert big.dims[:11] == m.dims
    assert big.n_max == 50


def test_custom_dim_beyond_range_is_zero(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0 1\n3 5\n")
    m = model_dims("custom", 10, path=str(path))
    assert m.dims == [1, 0, 0, 5]
    assert m.dims_upto(7)[7] == 0


def test_builtin_dim_beyond_range_raises():
    m = model_dims("u1", 5)
    assert m.dims_upto(6)[6] == 11       # past n_max a built-in reads its table
    with pytest.raises(ValueError):
        m.dims_upto(-1)


def test_custom_model_reads_zero_past_its_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0 1\n3 5\n")
    m = model_dims("custom", 10, path=str(path))
    assert m.dims_upto(4)[4] == 0 and m.dims_upto(1000)[1000] == 0
    assert m.dims_upto(6) == [1, 0, 0, 5, 0, 0, 0]
    assert m.log_dims(2, 5).tolist() == [-math.inf, math.log(5), -math.inf, -math.inf]
    assert m.n_max == 3


def test_spectrum_file_comments_blanks_and_gaps(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n0 1\n\n2 7   # inline\n5 3\n")
    assert parse_spectrum_file(str(path)) == [1, 0, 7, 0, 0, 3]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\nbroken\n", "expected 'N d_N'"),
        ("0 1\n1 x\n", "non-integer"),
        ("0 1\n2 3\n1 4\n", "strictly increasing"),
        ("0 2\n", "d_0 must be 1"),
        ("0 1\n-1 2\n", "nonnegative"),
        ("# nothing\n", "no spectrum rows"),
    ],
)
def test_spectrum_file_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(SpectrumFileError) as exc:
        parse_spectrum_file(str(path))
    assert fragment in str(exc.value)


def test_spectrum_file_not_utf8_names_path_and_line(tmp_path):
    # the decoder's own message once named neither the file nor the line
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 2\n# caf\xe9\n2 3\n")
    with pytest.raises(SpectrumFileError) as exc:
        parse_spectrum_file(str(path))
    assert exc.value.line_no == 3
    assert str(exc.value) == f"line 3: {path} is not UTF-8 text"


@pytest.mark.parametrize("top", [10**18, 10**19], ids=["1e18", "1e19"])
def test_spectrum_file_past_memory_names_the_line(tmp_path, top):
    # the dense list of 10^18 levels is refused at once, 10^19 lies past the
    # index range; they once raised MemoryError and OverflowError
    path = tmp_path / "huge.txt"
    path.write_text(f"0 1\n# the last level\n{top} 2\n# end\n")
    with pytest.raises(SpectrumFileError) as exc:
        parse_spectrum_file(str(path))
    assert exc.value.line_no == 3
    assert str(exc.value) == f"line 3: N = {top} is more levels than memory holds"


def test_spectrum_file_missing_path_raises():
    with pytest.raises(SpectrumFileError) as exc:
        parse_spectrum_file("/nonexistent/spectrum.txt")
    assert "cannot read" in str(exc.value)


def test_growth_fit_certifies_inequality_on_range(u1_3000, u1_fit):
    # the closed form covers every N, the model's 3000 and the levels past them
    fit = u1_fit
    assert fit.log_C == pytest.approx(19.0795, abs=1e-4)
    for n, ld in enumerate(u1_3000.log_dims(0, 6000).tolist()):
        assert ld <= fit.log_C + float(n) ** fit.kappa, n


@pytest.mark.parametrize("kind", ["u1", "virasoro"])
def test_growth_constant_of_a_power_covers_the_levels_past_a_scan(kind):
    # a scan of u1^2 to N = 3000 at kappa = 0.6 gave log C = 64.49, and every
    # N from 3001 to 12000 broke d_N <= C e^{N^kappa}; the closed form gives
    # 152.64, whose maximum lies near N = 63,700
    model = model_dims(kind, 3000, power=2)
    fit = fit_growth_constants(model, 0.6)
    assert fit.log_C == pytest.approx(152.64, abs=0.01)
    logs = model.log_dims(3001, 6000).tolist()
    assert all(ld <= fit.log_C + float(n) ** 0.6 for n, ld in enumerate(logs, start=3001))
    assert max(ld - float(n) ** 0.6 for n, ld in enumerate(logs, start=3001)) > 64.49


@pytest.mark.parametrize("kind", ["u1", "virasoro"])
def test_growth_constant_is_the_larger_of_scan_and_closed_form(kind):
    # a hand-built model keeps its own levels: the scan of them wins where
    # they pass the closed form, which covers every level past them
    proven = fit_growth_constants(model_dims(kind, 12), 0.7).log_C
    model = SpectrumModel(kind=kind, dims=[1, 0, 10 ** 20])
    assert fit_growth_constants(model, 0.7).log_C == pytest.approx(
        math.log(10 ** 20) - 2.0 ** 0.7, rel=1e-15)
    assert fit_growth_constants(SpectrumModel(kind=kind, dims=[1]), 0.7).log_C == proven


@pytest.mark.parametrize("kappa", [0.5, 0.45, 0.1])
def test_growth_constant_of_a_builtin_needs_kappa_above_one_half(kappa):
    # log d_N grows as pi sqrt(2N/3), which no N^kappa with kappa <= 1/2 outgrows
    with pytest.raises(ValueError, match=f"kappa = {kappa:g} is at or below 1/2"):
        fit_growth_constants(model_dims("virasoro", 12, power=3), kappa)
    # a custom file is finite, so any kappa has its C
    custom = SpectrumModel(kind="custom", dims=[1, 2, 5])
    assert fit_growth_constants(custom, kappa).log_C == pytest.approx(
        max(0.0, math.log(2.0) - 1.0, math.log(5.0) - 2.0 ** kappa), rel=1e-15)


def test_growth_fit_rejects_bad_kappa(u1_small):
    with pytest.raises(ValueError):
        fit_growth_constants(u1_small, 1.0)


def test_log_dim_handles_zero_dims():
    m = model_dims("virasoro", 5)
    assert m.log_dims(1, 1).tolist() == [-math.inf]
    assert m.log_dims(4, 4).tolist() == [math.log(2)]


def test_negative_hi_raises():
    # log_dims once read a negative hi as a Python index from the end, and a
    # fit then certified the range (0, -3); a fit now reads no n_max
    model = model_dims("u1", 12)
    with pytest.raises(ValueError, match="hi must be >= 0"):
        model.log_dims(0, -3)
    assert fit_growth_constants(model, 0.6, n_max=-3) == fit_growth_constants(model, 0.6)


def test_partition_log_asymptotic_within_two_percent_at_1000():
    exact = math.log(model_dims("u1", 1000).dims[1000])
    # the leading Hardy-Ramanujan term p(n) ~ e^{pi sqrt(2n/3)} / (4 sqrt(3) n)
    approx = math.pi * math.sqrt(2000.0 / 3.0) - math.log(4.0 * math.sqrt(3.0) * 1000)
    assert abs(approx - exact) / exact < 0.02


def test_model_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        model_dims("u1", -1)
    with pytest.raises(ValueError):
        model_dims("nosuch", 5)
    with pytest.raises(ValueError):
        model_dims("custom", 5)  # path required


@pytest.fixture(scope="module")
def tables_2000():
    p = oracles.partition_counts_table(2000)
    vir = oracles.partition_counts_table(2000, min_part=2)
    return {
        ("u1", 1): p,
        ("virasoro", 1): vir,
        ("u1", 2): oracles.convolve_exact(p, p, 2000),
        ("u1", 5): oracles.power_kronecker(p, 5, _lemma_bound(5, 2000)),
        ("virasoro", 3): oracles.power_kronecker(vir, 3, _lemma_bound(3, 2000)),
    }


@pytest.mark.parametrize("kind,power", [("u1", 1), ("virasoro", 1), ("u1", 2), ("u1", 5),
                                        ("virasoro", 3)])
def test_table_grown_in_steps_equals_one_call(cold_tables, tables_2000, kind, power):
    stepped = model_dims(kind, 12, power=power)
    for n in (100, 2000):
        stepped = extend_model(stepped, n)
    spectra._TABLES.clear()
    whole = model_dims(kind, 2000, power=power)
    assert stepped.dims == whole.dims == tables_2000[(kind, power)]
    assert stepped.log_dims(0, 2000).tolist() == whole.log_dims(0, 2000).tolist()


def test_mutating_returned_lists_leaves_the_tables_alone():
    model = model_dims("u1", 50)
    model.dims[10] = 0
    model.dims.append(5)
    p = model_dims("u1", 60).dims
    p[20] = -1
    del p[30:]
    assert model_dims("u1", 50).dims == oracles.partition_counts_table(50)
    assert model_dims("u1", 60).dims == oracles.partition_counts_table(60)


def test_log_column_is_math_log_bit_for_bit():
    model = model_dims("u1", 5000)
    assert [x.hex() for x in model.log_dims(0, 5000)] == \
        [math.log(d).hex() for d in model.dims]


def test_log_dims_stay_inside_the_model():
    # a read past n_max leaves the model as it was built
    model = model_dims("u1", 5)
    wide = model_dims("u1", 40)
    assert [x.hex() for x in model.log_dims(0, 40)] == [x.hex() for x in wide.log_dims(0, 40)]
    assert model.n_max == 5 and model.dims == [1, 1, 2, 3, 5, 7]
    assert model.log_dims(5, 5).tolist() == [math.log(7)]
    hand = spectra.SpectrumModel(kind="u1", dims=[1, 0, 0])   # its own data up to n_max
    assert hand.log_dims(1, 4).tolist() == [-math.inf, -math.inf, math.log(3), math.log(5)]


def _reads_bits(model, lo, hi, want):
    """`log_dims` of lo..hi is a float64 array carrying exactly want's bits."""
    column = model.log_dims(lo, hi)
    assert isinstance(column, np.ndarray) and column.dtype == np.float64
    assert [x.hex() for x in column.tolist()] == [x.hex() for x in want]


def _logs(dims):
    return [math.log(d) if d else -math.inf for d in dims]


def test_log_column_equals_log_dims_bit_for_bit(cold_tables, tmp_path):
    # a built-in table grown in odd steps, read across its steps and past them
    want = _logs(oracles.partition_counts_table(2002, min_part=2))
    model = model_dims("virasoro", 7)
    for n in (7, 40, 41, 333, 1001):
        extend_model(model, n)
        _reads_bits(model, 0, n + 5, want[: n + 6])
        _reads_bits(model, 3, 2 * n, want[3: 2 * n + 1])
    # a model built by hand reads its own prefix, then the table
    hand = spectra.SpectrumModel(kind="u1", dims=[1, 0, 4, 0])
    _reads_bits(hand, 0, 9, _logs([1, 0, 4, 0] + oracles.partition_counts_table(9)[4:]))
    _reads_bits(hand, 2, 3, _logs([4, 0]))
    # a custom model reads -inf past its file
    path = tmp_path / "spec.txt"
    path.write_text("0 1\n2 6\n")
    custom = model_dims("custom", 10, path=str(path))
    _reads_bits(custom, 0, 6, _logs([1, 0, 6, 0, 0, 0, 0]))
    _reads_bits(custom, 4, 6, _logs([0, 0, 0]))


def test_log_column_is_taken_on_the_first_log_read_and_shared(cold_tables):
    # reads of d_N alone take no log, so they need no numpy; every model of a
    # built-in then reads the one shared column, grown in place of a copy
    model = model_dims("u1", 12)
    assert model.dims_upto(40) == oracles.partition_counts_table(40)
    assert spectra._TABLES[("u1", 1)].logs is None
    own = model.log_dims(0, 12)
    table = spectra._TABLES[("u1", 1)]
    assert len(table.logs) == len(table.dims) == 41
    assert np.shares_memory(own, table.logs)
    past = model_dims("u1", 5).log_dims(30, 60)
    assert len(table.logs) == len(table.dims) == 61
    assert np.shares_memory(past, table.logs)
    assert np.shares_memory(model_dims("u1", 60).log_dims(0, 60), table.logs)
    assert own.tolist() == [math.log(d) for d in oracles.partition_counts_table(12)]


def test_lists_past_memory_are_refused_before_allocating(cold_tables, tmp_path, monkeypatch):
    # 8 bytes a list slot, the bytes of C(m + N - 1, N) for d_N of u1^m, and
    # a custom tensor power's packed int are lower bounds on what a growth
    # takes; past the physical memory (64 KB here) it raises at once and
    # leaves the tables as they were
    monkeypatch.setattr(spectra, "_memory_bytes", lambda: 1 << 16)
    assert model_dims("u1", 5000).n_max == 5000
    with pytest.raises(MemoryError, match="the u1\\^1 table to N = 20000 needs at least 120000 bytes"):
        model_dims("u1", 20_000)
    assert len(spectra._TABLES[("u1", 1)].dims) == 5001
    # a built-in power's d_N >= C(m + N - 1, N), about 1.3e6 nats of ints here
    m = 10 ** 30
    for kind in ("u1", "virasoro"):
        with pytest.raises(MemoryError, match=f"the u1\\^{m} table to N = 200 needs at least"):
            model_dims(kind, 200, power=m)
    assert spectra._TABLES[("u1", m)].dims == [1]
    assert model_dims("virasoro", 12, power=m).dims[:3] == [1, 0, m]
    with pytest.raises(MemoryError, match="tensor power 3 of 20001 levels needs at least"):
        spectra._convolve_power([1] * 20_001, 3)
    path = tmp_path / "spec.txt"
    path.write_text("0 1\n2 3\n")
    with pytest.raises(MemoryError, match="a list of 20000 levels needs at least"):
        model_dims("custom", 2, path=str(path)).dims_upto(20_002)
    path.write_text("0 1\n20000 3\n")
    with pytest.raises(SpectrumFileError, match="N = 20000 is more levels than memory holds"):
        parse_spectrum_file(str(path))


def test_log_column_is_read_only():
    model = model_dims("u1", 20)
    with pytest.raises(ValueError):
        model.log_dims(0, 20)[3] = 0.0
    with pytest.raises(ValueError):
        model.log_dims(30, 40)[0] = 0.0
    assert model.log_dims(3, 3).tolist() == [math.log(3)]


@pytest.mark.parametrize("kind,power", [("u1", 1), ("virasoro", 1), ("u1", 2)])
def test_grown_log_dims_reads_the_extended_model(kind, power):
    model = model_dims(kind, 12, power=power)
    ext = extend_model(model, 900)
    assert model.log_dims(0, 12).tolist() == ext.log_dims(0, 12).tolist()
    assert model.log_dims(300, 900).tolist() == ext.log_dims(300, 900).tolist()
    assert model.log_dims(5, 20).tolist() == ext.log_dims(5, 20).tolist()
    assert model.n_max == 12
    # models built by hand keep their checks
    with pytest.raises(ValueError):
        spectra.SpectrumModel(kind=kind, dims=[1, -2], power=power)


def test_concurrent_growth_gives_exact_tables(cold_tables):
    p = oracles.partition_counts_table(1500)
    expected = {
        ("u1", 1, 1500): p,
        ("u1", 1, 700): p[:701],
        ("virasoro", 1, 1200): oracles.partition_counts_table(1200, min_part=2),
        ("u1", 2, 600): oracles.convolve_exact(p[:601], p[:601], 600),
    }
    barrier = threading.Barrier(len(expected))
    seen = {}

    def grow(kind, power, n_max):
        barrier.wait(timeout=60)
        try:
            seen[kind, power, n_max] = model_dims(kind, n_max, power=power).dims
        except Exception as exc:       # surfaced by the assertion below
            seen[kind, power, n_max] = exc

    threads = [threading.Thread(target=grow, args=key) for key in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)          # switch threads often, so growths interleave
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == expected


def _power(base, m):
    out = base
    for _ in range(m - 1):
        out = oracles.convolve_exact(out, base, len(base) - 1)
    return out


@pytest.mark.parametrize("kind,power", [("u1", 2), ("u1", 3), ("virasoro", 2), ("custom", 2),
                                        ("u1", 4), ("u1", 5), ("u1", 7), ("u1", 8),
                                        ("virasoro", 5), ("custom", 7)])
def test_tensor_power_matches_convolution_to_300(tmp_path, kind, power):
    path = None
    if kind == "custom":
        path = tmp_path / "s.txt"
        path.write_text("0 1\n2 7\n5 1000000000000000000000000000000\n9 3\n300 2\n")
        path = str(path)
    base = model_dims(kind, 300, path=path).dims
    assert len(base) == 301
    assert model_dims(kind, 300, power=power, path=path).dims == _power(base, power)


def test_u1_square_matches_convolution_to_3000():
    base = model_dims("u1", 3000).dims
    assert model_dims("u1", 3000, power=2).dims == oracles.convolve_exact(base, base, 3000)


def _lemma_bound(power, n_max):
    # log d_N <= beta N + m pi^2/(6 beta) for u1^m, the partition lemma, is
    # pi sqrt(2 m N/3) at its best beta; virasoro^m's d_N are no larger
    return math.pi * math.sqrt(2 * power * n_max / 3) + 1.0


@pytest.mark.parametrize("power,n_max", [(2, 3000), (3, 3000), (5, 3000), (8, 3000),
                                         (16, 600), (32, 600)])
def test_builtin_powers_match_kronecker(cold_tables, power, n_max):
    # Miller's recurrence, and virasoro^m by differencing u1^m, against
    # Kronecker substitution on each kind's own base column
    for kind in ("u1", "virasoro"):
        base = model_dims(kind, n_max).dims
        want = oracles.power_kronecker(base, power, _lemma_bound(power, n_max))
        assert model_dims(kind, n_max, power=power).dims == want
