import math
import sys
import threading

import pytest

import oracles
from entrocut import (
    SpectrumFileError,
    exponential_cap,
    extend_model,
    fit_growth_constants,
    log_dim,
    model_dims,
    parse_spectrum_file,
    partition_log_asymptotic,
    partition_numbers,
    spectra,
)


def test_partition_recurrence_matches_enumeration_to_35():
    p = partition_numbers(35)
    for n in range(36):
        assert p[n] == oracles.count_partitions_enumerated(n)


def test_partition_recurrence_matches_coin_change_to_500():
    assert partition_numbers(500) == oracles.partition_counts_table(500)


def test_partition_known_values():
    p = partition_numbers(100)
    assert p[0] == 1 and p[1] == 1 and p[5] == 7 and p[10] == 42
    assert p[100] == 190569292


def test_u1_dims_are_partition_numbers():
    m = model_dims("u1", 25)
    assert m.dims == partition_numbers(25)
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
    assert m.dim(7) == 0


def test_builtin_dim_beyond_range_raises():
    m = model_dims("u1", 5)
    assert m.dim(6) == 11                # past n_max a built-in reads its table
    with pytest.raises(ValueError):
        m.dim(-1)


def test_custom_model_reads_zero_past_its_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("0 1\n3 5\n")
    m = model_dims("custom", 10, path=str(path))
    assert m.dim(4) == 0 and m.dim(1000) == 0
    assert m.dims_upto(6) == [1, 0, 0, 5, 0, 0, 0]
    assert m.log_dims(2, 5) == [-math.inf, math.log(5), -math.inf, -math.inf]
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


def test_spectrum_file_missing_path_raises():
    with pytest.raises(SpectrumFileError) as exc:
        parse_spectrum_file("/nonexistent/spectrum.txt")
    assert "cannot read" in str(exc.value)


def test_growth_fit_certifies_inequality_on_range(u1_3000, u1_fit):
    fit = u1_fit
    lo, hi = fit.certified_range
    assert (lo, hi) == (0, 3000)
    for n in range(hi + 1):
        d = u1_3000.dims[n]
        if d:
            assert math.log(d) <= fit.log_C + float(n) ** fit.kappa + 1e-12
    # the ratio turns over inside the scan, so extrapolation is meaningful
    assert fit.plateau
    assert 0 < fit.argmax_n < hi


def test_growth_fit_flags_maximizer_at_range_end(u1_3000):
    # kappa = 0.5 matches the true sqrt-N growth of log p(N), so the ratio
    # climbs through the whole range
    fit = fit_growth_constants(u1_3000, 0.5)
    assert not fit.plateau


def test_growth_fit_rejects_bad_kappa(u1_small):
    with pytest.raises(ValueError):
        fit_growth_constants(u1_small, 1.0)


def test_exponential_cap_bounds_dims(u1_small):
    cap = exponential_cap(u1_small)
    for n, d in enumerate(u1_small.dims):
        assert d <= cap * math.exp(n) * (1.0 + 1e-12)


def test_log_dim_handles_zero_dims():
    m = model_dims("virasoro", 5)
    assert log_dim(m, 1) == -math.inf
    assert log_dim(m, 4) == math.log(2)


def test_partition_log_asymptotic_within_two_percent_at_1000():
    exact = math.log(partition_numbers(1000)[1000])
    approx = partition_log_asymptotic(1000)
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
    return {
        ("u1", 1): p,
        ("virasoro", 1): oracles.partition_counts_table(2000, min_part=2),
        ("u1", 2): oracles.convolve_exact(p, p, 2000),
    }


@pytest.mark.parametrize("kind,power", [("u1", 1), ("virasoro", 1), ("u1", 2)])
def test_table_grown_in_steps_equals_one_call(cold_tables, tables_2000, kind, power):
    stepped = model_dims(kind, 12, power=power)
    for n in (100, 2000):
        stepped = extend_model(stepped, n)
    spectra._TABLES.clear()
    whole = model_dims(kind, 2000, power=power)
    assert stepped.dims == whole.dims == tables_2000[(kind, power)]
    assert stepped.log_dims(0, 2000) == whole.log_dims(0, 2000)


def test_mutating_returned_lists_leaves_the_tables_alone():
    model = model_dims("u1", 50)
    model.dims[10] = 0
    model.dims.append(5)
    p = partition_numbers(60)
    p[20] = -1
    del p[30:]
    assert model_dims("u1", 50).dims == oracles.partition_counts_table(50)
    assert partition_numbers(60) == oracles.partition_counts_table(60)


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
    assert log_dim(model, 5) == math.log(7)
    hand = spectra.SpectrumModel(kind="u1", dims=[1, 0, 0])   # its own data up to n_max
    assert hand.log_dims(1, 4) == [-math.inf, -math.inf, math.log(3), math.log(5)]


@pytest.mark.parametrize("kind,power", [("u1", 1), ("virasoro", 1), ("u1", 2)])
def test_grown_log_dims_reads_the_extended_model(kind, power):
    model = model_dims(kind, 12, power=power)
    ext = extend_model(model, 900)
    assert model.log_dims(0, 12) == ext.log_dims(0, 12)
    assert model.log_dims(300, 900) == ext.log_dims(300, 900)
    assert model.log_dims(5, 20) == ext.log_dims(5, 20)
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


@pytest.mark.parametrize("kind,power", [("u1", 2), ("u1", 3), ("virasoro", 2), ("custom", 2)])
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
    base = partition_numbers(3000)
    assert model_dims("u1", 3000, power=2).dims == oracles.convolve_exact(base, base, 3000)
