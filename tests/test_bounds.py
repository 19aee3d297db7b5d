import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

import oracles
from entrocut import (
    BoundReport,
    DivergenceError,
    SpectrumModel,
    TailConfig,
    cutoff_bound,
    distance_regularized_bound,
    fit_growth_constants,
    model_dims,
    spectra,
    trace_bound_constants,
    trace_partition,
    verify_trace_bound,
)
from entrocut import bounds
from entrocut.bounds import eta
from entrocut.energy import build_energy_function, f_delta_batch, window


def _custom(dims):
    return SpectrumModel(kind="custom", dims=list(dims), label="custom-test")


def test_distance_bound_custom_matches_scalar_loop(ef075):
    model = _custom([1, 2, 1, 0, 3, 5, 2])
    rep = distance_regularized_bound(model, ef075, 0.8)
    c = s = 0.0
    for n, d in enumerate(model.dims):
        up = float(window(ef075, [0.8 * n])[1][0])
        c += 2.0 * d * up
        if n > 0:
            s += 4.0 * d * eta(up / 2.0)
    assert abs(rep.C_delta - c) <= 1e-12 * c
    assert abs(rep.S_delta - s) <= 1e-12 * s
    assert rep.H_delta_bound == pytest.approx(c * math.log(c) + s, rel=1e-12)
    assert rep.tail_estimate == 0.0
    assert rep.n_max_used == model.n_max


def _loop_stop(small, consec, finite_support):
    """The stop rule term by term, as the series once ran it."""
    for i, flag in enumerate(small):
        consec = consec + 1 if flag else 0
        if consec >= bounds._CONSECUTIVE and not finite_support:
            return i, consec
    return None, consec


@pytest.mark.parametrize("finite_support", [False, True])
def test_series_stop_matches_the_loop(finite_support):
    rng = np.random.default_rng(12)
    crossed = 0                      # stops whose run began in an earlier block
    for _ in range(300):
        # runs of small terms of every length around the rule's 10, cut into
        # blocks at random places so that runs cross block boundaries
        p_small = rng.choice([0.5, 0.8, 0.9, 0.95])
        small = rng.random(int(rng.integers(1, 400))) < p_small
        cuts = np.sort(rng.choice(np.arange(1, len(small) + 1), size=min(4, len(small)),
                                  replace=False))
        consec = 0
        start = 0
        for end in cuts:
            block = small[start:end]
            stop, carried = bounds._series_stop(block, consec, finite_support)
            assert stop == _loop_stop(block, consec, finite_support)[0]
            if stop is not None:
                crossed += stop < bounds._CONSECUTIVE - 1
                break
            assert carried == _loop_stop(block, consec, finite_support)[1]
            consec, start = carried, end
    assert crossed > 0 or finite_support


def test_finite_support_sums_past_long_runs_of_zeros(ef075):
    # 2100 zero levels: the stop rule would fire on the 10th, and the run
    # crosses the first block of 2048 into the second, but a finitely
    # supported spectrum is summed in full
    assert bounds._BLOCK < 2101
    model = _custom([1] + [0] * 2100 + [3])
    rep = distance_regularized_bound(model, ef075, 0.3)
    up = window(ef075, [0.0, 0.3 * 2101])[1]
    assert rep.n_max_used == 2101
    assert rep.C_delta == pytest.approx(2.0 * up[0] + 6.0 * up[1], rel=1e-12)
    assert rep.S_delta == pytest.approx(12.0 * eta(up[1] / 2.0), rel=1e-12)


def test_distance_bound_builtin_terminates(u1_3000, u1_fit, ef075):
    rep = distance_regularized_bound(u1_3000, ef075, 1.0, TailConfig(fit=u1_fit))
    assert rep.n_max_used == 3202
    assert rep.envelope_used
    assert rep.C_delta == pytest.approx(6.303445e10, rel=1e-5)
    assert rep.S_delta == pytest.approx(2.227212e12, rel=1e-5)
    # reported totals include the analytic tail
    assert rep.tail_estimate < 1e-9 * rep.C_delta


def test_distance_bound_stable_under_cap_doubling(u1_3000, u1_fit, ef075, monkeypatch):
    r1 = distance_regularized_bound(u1_3000, ef075, 1.0, TailConfig(fit=u1_fit))
    monkeypatch.setattr(bounds, "_N_CAP", 40000)
    r2 = distance_regularized_bound(u1_3000, ef075, 1.0, TailConfig(fit=u1_fit))
    assert r1.C_delta == pytest.approx(r2.C_delta, rel=1e-9)
    assert r1.H_delta_bound == pytest.approx(r2.H_delta_bound, rel=1e-9)


def test_distance_bound_divergence_gate(u1_3000, ef075):
    from entrocut import fit_growth_constants
    hot = fit_growth_constants(u1_3000, 0.8)
    with pytest.raises(DivergenceError) as exc:
        distance_regularized_bound(u1_3000, ef075, 1.0, TailConfig(fit=hot))
    assert "0.8" in str(exc.value) and "0.75" in str(exc.value)


def test_distance_bound_requires_fit(u1_3000, ef075):
    with pytest.raises(ValueError):
        distance_regularized_bound(u1_3000, ef075, 1.0)


def test_distance_bound_cap_too_small_messages(u1_3000, u1_fit, ef075, monkeypatch):
    monkeypatch.setattr(bounds, "_N_CAP", 500)
    with pytest.raises(DivergenceError) as exc:
        distance_regularized_bound(u1_3000, ef075, 0.5, TailConfig(fit=u1_fit))
    assert "still growing at N = 500" in str(exc.value)
    monkeypatch.setattr(bounds, "_N_CAP", 5000)
    with pytest.raises(DivergenceError) as exc:
        distance_regularized_bound(u1_3000, ef075, 0.5, TailConfig(fit=u1_fit))
    assert "decays too slowly to meet the termination rule by N = 5000" in str(exc.value)


def test_distance_bound_rejects_bad_delta(u1_3000, u1_fit, ef075):
    with pytest.raises(ValueError):
        distance_regularized_bound(u1_3000, ef075, 0.0, TailConfig(fit=u1_fit))


def test_cutoff_bound_pinned_u1_e2(u1_small, ef075):
    rep = cutoff_bound(u1_small, ef075, 0.5, 2)
    assert rep.C_E == pytest.approx(4.0, abs=1e-9)
    assert rep.S_E == pytest.approx(3.0 * 4.0 * ef075.sup_eta, abs=1e-12)
    assert rep.HE_bound == pytest.approx(rep.C_E * math.log(rep.C_E) + rep.S_E, rel=1e-12)
    assert rep.cutoff_bound == pytest.approx(
        math.log(rep.c_deltaE) + rep.S_deltaE / rep.c_deltaE, rel=1e-12)


def test_cutoff_caps_manual_formula(u1_small, ef075):
    rep = cutoff_bound(u1_small, ef075, 0.3, 5)
    total = sum(u1_small.dims[:6])
    assert rep.C_E == pytest.approx(2.0 * ef075.sup_f * total, rel=1e-14)
    assert rep.S_E == pytest.approx(4.0 * ef075.sup_eta * (total - 1), rel=1e-14)


def test_cutoff_bound_delta_independent_caps(u1_small, ef075):
    reps = [cutoff_bound(u1_small, ef075, d, 4) for d in (0.05, 0.5, 5.0)]
    assert len({(r.C_E, r.S_E, r.HE_bound) for r in reps}) == 1
    for r in reps:
        assert r.c_deltaE <= r.C_E + 1e-9
        assert r.S_deltaE <= r.S_E + 1e-9


def test_cutoff_bound_vacuum_cut(u1_small, ef075):
    rep = cutoff_bound(u1_small, ef075, 1.0, 0)
    assert rep.S_E == 0.0 and rep.S_deltaE == 0.0
    assert rep.c_deltaE == 1.0
    assert abs(rep.HE_bound) <= 1e-11
    assert rep.cutoff_bound == 0.0


def test_cutoff_bound_rejects_bad_input(u1_small, ef075):
    with pytest.raises(ValueError):
        cutoff_bound(u1_small, ef075, -1.0, 2)
    with pytest.raises(ValueError):
        cutoff_bound(u1_small, ef075, 1.0, -1)


def test_cutoff_bound_grows_a_power_table_once(cold_tables, ef075, monkeypatch):
    # every level past n_max comes from one growth of the u1^2 table, not one per level
    model = model_dims("u1", 12, power=2)
    calls = []
    real = spectra._extend_u1_power

    def counted(w, m, n_max):
        calls.append((m, len(w), n_max))
        real(w, m, n_max)

    monkeypatch.setattr(spectra, "_extend_u1_power", counted)
    rep = cutoff_bound(model, ef075, 0.5, 300)
    assert calls == [(2, 13, 300)]
    assert rep.C_E == 2.0 * ef075.sup_f * float(sum(model_dims("u1", 300, power=2).dims))


def test_cutoff_bound_past_the_float_range_raises_divergence(ef075):
    # a level past 1.8e308 has no float: the caps diverge, named by E
    model = SpectrumModel(kind="u1", dims=[1, 10**400])
    with pytest.raises(DivergenceError, match="E = 1 "):
        cutoff_bound(model, ef075, 1.0, 1)


def test_bound_report_validate_rejects_chain_violations():
    with pytest.raises(DivergenceError):
        BoundReport(model_label="m", alpha=0.75, c_deltaE=5.0, C_E=4.0).validate()
    with pytest.raises(DivergenceError):
        BoundReport(model_label="m", alpha=0.75, C_delta=math.inf).validate()


def test_trace_partition_matches_direct_sum(u1_small):
    model = _custom([1, 4, 0, 2, 9])
    for beta in (0.5, 2.0):
        value = trace_partition(model, beta)
        assert value == pytest.approx(oracles.trace_direct(model.dims, beta), rel=1e-14)


def test_trace_partition_tail_covers_remainder(u1_3000):
    # the closed form covers the table's 3000 levels and every level past
    # them, whose share of the trace is about e^{-30} at beta = 0.01
    for beta in (0.01, 0.1, 1.0):
        partial = oracles.trace_direct(u1_3000.dims, beta)
        assert trace_partition(u1_3000, beta) >= partial, beta


def test_trace_partition_diverges_at_tiny_beta(u1_3000):
    # log Z is about pi^2/(6 beta) + log(beta/(2 pi))/2: e^16443.8 and e^1.6e300
    with pytest.raises(DivergenceError, match=r"trace at beta = 0\.0001 is e\^16443\.8,"):
        trace_partition(u1_3000, 1e-4)
    with pytest.raises(DivergenceError, match=r"trace at beta = 1e-300 is e\^1\.6449"):
        trace_partition(u1_3000, 1e-300)


@pytest.mark.parametrize("dims,beta", [
    ([1, 10**320], 0.001),                   # the term e^{log d_1 - beta} overflows
    ([1, 10**308, 10**308], 1e-9),           # two finite terms add up to inf
])
def test_trace_partition_past_the_float_range_raises_divergence(dims, beta):
    # an OverflowError traceback once, or an inf partial sum in the trace column
    model = _custom(dims)
    with pytest.raises(DivergenceError, match=f"trace partial sum at beta = {beta:g} is e\\^7"):
        trace_partition(model, beta)


def test_trace_constant_past_the_float_range_names_log_c():
    # log C = log(10^320) - 2^0.01 = 735.82 is past the float range, so C
    # reads inf; the fit once ended in an OverflowError traceback
    model = _custom([1, 0, 10**320])
    fit = fit_growth_constants(model, 0.01)
    assert fit.C == math.inf and fit.log_C == pytest.approx(735.82, abs=0.01)
    with pytest.raises(DivergenceError, match=r"with log C = 735\.82, is e\^"):
        verify_trace_bound(model, fit, [1.0])


_EXACT_BETAS = (0.01, 0.03, 0.05, 0.1, 0.5, 2.0)
# 1e-3 to 50 in 60 steps, with both sides of the eta switch at beta = 1
_TRACE_BETAS = tuple(1e-3 * 50000.0 ** (i / 59) for i in range(60)) + (
    math.nextafter(bounds._ETA_SWITCH, 0.0), bounds._ETA_SWITCH)


@pytest.mark.parametrize("kind,power", [("u1", 1), ("u1", 2), ("u1", 32), ("virasoro", 1),
                                        ("virasoro", 2), ("virasoro", 32)])
def test_trace_partition_covers_the_exact_trace(kind, power):
    # the table's partial sum and its Chernoff tail once printed e^3.2 times
    # the exact trace of u1 at beta = 0.01; the closed form is an upper value
    # within its stated margin, and past the float range it raises
    model = model_dims(kind, 12, power=power)
    for beta in _TRACE_BETAS:
        log_exact = oracles.log_trace_exact_mp(beta, kind, power)
        margin = 2.0**-44 * power * (math.pi ** 2 / (6.0 * beta) + 2.0 * abs(math.log(beta)) + 3.0)
        if log_exact + margin > bounds._LOG_FLOAT_MAX:
            with pytest.raises(DivergenceError, match=f"trace at beta = {beta:g} is e\\^"):
                trace_partition(model, beta)
            assert log_exact > bounds._LOG_FLOAT_MAX - 1e-9, beta
            continue
        with mp.workdps(60):
            excess = mp.log(trace_partition(model, beta)) - log_exact
        assert 0 <= excess <= margin + 2.0**-51, (beta, float(excess))


@pytest.mark.parametrize("kind,power", [("u1", 1), ("u1", 3), ("virasoro", 1), ("virasoro", 2)])
def test_partition_lemma_bounds_the_exact_trace(kind, power):
    b = spectra.log_trace_coefficient(model_dims(kind, 12, power=power))
    assert b == power * math.pi ** 2 / 6.0
    for beta in (*_EXACT_BETAS, 1e-3, 10.0):
        assert b / beta >= oracles.log_trace_exact(beta, kind, power), beta
    with pytest.raises(ValueError, match="built-in spectra only"):
        spectra.log_trace_coefficient(_custom([1, 2]))


def test_custom_spectrum_is_read_whole():
    # one level past the fit's scan: it once left both the sum and C
    dims = [1, 1] + [0] * 4998 + [10 ** 300]
    model = _custom(dims)
    value = trace_partition(model, 0.1)
    # e^{log d_N - beta N} at log d_N = 690.8 carries about 1e-13 of rounding
    assert value == pytest.approx(oracles.trace_direct(dims, 0.1), rel=1e-12)
    fit = fit_growth_constants(model, 0.5, n_max=3000)
    assert fit.log_C == pytest.approx(math.log(10 ** 300) - math.sqrt(5000.0), rel=1e-15)


def test_trace_constants_half_kappa_closed_form():
    # kappa = 1/2: b1 = 1, c0 = 2, c1 = 1, so c = 2 and log a2 = 1 + 1^2 = 2
    tc = trace_bound_constants(0.5, math.log(10.0))
    assert tc.b == 1.0 and tc.c == 2.0
    assert tc.a == pytest.approx(10.0 * bounds._sum_exp_neg_power(0.5) + math.exp(2.0), rel=1e-12)
    assert tc.bound(2.0) == pytest.approx(tc.a * math.exp(0.25), rel=1e-12)


def test_trace_caps_beyond_float_range_raise_divergence():
    tc = trace_bound_constants(0.6, math.log(10.0))
    for beta in (0.05, 1e-300):              # at 1e-300, beta^{-c} alone overflows
        with pytest.raises(DivergenceError, match=f"beta = {beta:g}"):
            tc.bound(beta)
    assert math.isfinite(tc.bound(0.3))


def _bits(x):
    return np.float64(x).tobytes()


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp
    rng = np.random.default_rng(11)
    for k in range(600):
        size = int(rng.choice([1, 2, 3, 17, 128, 4096, 5000]))
        a = rng.normal(size=size) * rng.choice([0.1, 1.0, 40.0, 600.0]) \
            + rng.uniform(-800.0, 800.0)
        if k % 3 == 0:                      # ties at the maximum
            a[rng.integers(0, size, size=1 + size // 4)] = a.max()
        assert _bits(bounds._logsumexp(a)) == _bits(logsumexp(a)), (k, size)


def test_logsumexp_matches_scipy_on_series_tail_chunks(u1_3000, u1_fit, ef075, monkeypatch):
    from scipy.special import logsumexp
    seen = []
    logsumexp_np = bounds._logsumexp

    def record(a):
        seen.append(a.copy())
        return logsumexp_np(a)

    monkeypatch.setattr(bounds, "_logsumexp", record)
    streamed = [distance_regularized_bound(u1_3000, ef075, delta,
                                           TailConfig(fit=u1_fit)).n_max_used + 1
                for delta in (1.0, 2.0)]
    # each run sums its streamed C and S terms in one call each, then the
    # tail sums its chunks; the S stream opens with the vacuum's -inf
    lengths = [len(a) for a in seen]
    assert all(lengths.count(n) == 2 for n in streamed)
    assert set(lengths) - set(streamed) == {bounds._TAIL_CHUNK}
    for a in seen:
        assert _bits(logsumexp_np(a)) == _bits(logsumexp(a))


@pytest.mark.parametrize("kappa", [0.006, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.31, 0.3199,
                                   0.32, 0.45, 0.5, 0.6, 0.9])
def test_sum_exp_neg_power_matches_the_incomplete_gamma_tail(kappa):
    # the result is the partial sum + scipy's tail, never under it and over
    # it by at most the lift of both to upper values, 2^-45, and rounding
    # (the cancelling series once put it 15 ulps under, at kappa = 0.31)
    from scipy.special import gammaincc
    m = 200_000
    partial = float(np.sum(np.exp(-np.arange(m, dtype=float) ** kappa)))
    s = 1.0 / kappa
    want = partial + float(math.gamma(s) * gammaincc(s, (m - 1.0) ** kappa) / kappa)
    got = bounds._sum_exp_neg_power(kappa)
    assert want <= got <= want * (1.0 + 2.0**-44)


@pytest.mark.parametrize("kappa", sorted(oracles.SUM_EXP_NEG_POWER))
def test_sum_exp_neg_power_is_an_upper_value(kappa):
    # the rounded pairwise partial sum once lay under the exact sum of its
    # terms plus the tail, by 0.23 ulp at kappa = 0.31 and 0.75 ulp at 0.6
    want = mp.mpf(oracles.SUM_EXP_NEG_POWER[kappa])
    got = bounds._sum_exp_neg_power(kappa)
    assert want <= got <= want * (1 + mp.mpf(2.0**-44)), kappa


def test_gamma_upper_is_an_upper_value_within_1e_13():
    # the (s, x) the trace constant passes on its kappa grid, through both
    # routes: the continued fraction where x > s + 1, the series below
    m = 200_000
    kappas = [0.006 + (0.3199 - 0.006) * i / 199 for i in range(200)]
    routes = set()
    with mp.workdps(30):
        for kappa in kappas:
            s = 1.0 / kappa
            x = (m - 1.0) ** kappa
            routes.add(x > s + 1.0)
            got = bounds._gamma_upper(s, x)
            want = mp.gammainc(mp.mpf(s), mp.mpf(x))
            assert want <= got <= want * (1 + mp.mpf("1e-13")), kappa
    assert routes == {True, False}


def test_sum_exp_neg_power_peaks_under_two_and_a_half_megabytes():
    # its 200,000 terms are one 1.6 MB array, built in place
    tracemalloc.start()
    try:
        bounds._sum_exp_neg_power(0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_trace_constants_reject_bad_input():
    with pytest.raises(ValueError):
        trace_bound_constants(1.0, math.log(5.0))
    with pytest.raises(ValueError):
        trace_bound_constants(0.5, -math.inf)       # C = 0


def test_trace_chain_u1(u1_3000, u1_fit):
    rows = verify_trace_bound(u1_3000, u1_fit, (0.5, 1.0, 2.0, 4.0))
    assert all(r.ok for r in rows)
    assert all(r.ratio < 1e-3 for r in rows)


def test_trace_chain_virasoro():
    from entrocut import fit_growth_constants, model_dims
    model = model_dims("virasoro", 3000)
    fit = fit_growth_constants(model, 0.6)
    rows = verify_trace_bound(model, fit, (0.5, 1.0, 2.0, 4.0))
    assert all(r.ok for r in rows)


def test_nu_p_substitution_identity(u1_3000, u1_fit):
    # the damping map e^{-beta L0} has singular values e^{-beta N}, d_N times
    # each, so its p-sum is the trace at p * beta: p = 0.5 at beta = 2 is
    # p = 1 at beta = 1
    rows = verify_trace_bound(u1_3000, u1_fit, [0.5 * 2.0, 1.0 * 1.0])
    a, b = (r.trace_value for r in rows)
    assert a == b == trace_partition(u1_3000, 1.0)
    p_sum = math.fsum(d * math.exp(-2.0 * n) ** 0.5 for n, d in enumerate(u1_3000.dims))
    assert a == pytest.approx(p_sum, rel=1e-12)


def test_nu_p_cap_dominates(u1_3000, u1_fit):
    # the p-sum cap a exp((b/p^c) beta^{-c}) is the trace bound at p * beta
    tc = trace_bound_constants(u1_fit.kappa, u1_fit.log_C)
    grid = [(p, beta) for p in (0.3, 0.5, 1.0) for beta in (0.5, 1.0, 2.0)]
    rows = verify_trace_bound(u1_3000, u1_fit, [p * beta for p, beta in grid])
    assert all(r.ok for r in rows)
    for (p, beta), r in zip(grid, rows):
        assert r.trace_value <= r.bound
        assert r.bound == pytest.approx(
            tc.a * math.exp((tc.b / p ** tc.c) * beta ** (-tc.c)), rel=1e-12)


def test_schatten_p_diagonal_and_unitary_invariance():
    # the p-sum oracle the property tests of tests/test_properties.py read
    d = np.diag([3.0, 1.0, 0.25])
    psum = oracles.schatten_sum_direct
    assert psum(d, 0.5) == pytest.approx(3.0**0.5 + 1.0 + 0.25**0.5, rel=1e-12)
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert psum(q @ d @ q.conj().T, 0.5) == pytest.approx(psum(d, 0.5), rel=1e-10)


def test_schatten_p_ignores_rank_noise():
    rng = np.random.default_rng(19)
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    m = np.outer(u, v)          # exact rank one, numerically rank ~5
    sigma = float(np.linalg.norm(u) * np.linalg.norm(v))
    assert oracles.schatten_sum_direct(m, 0.3) == pytest.approx(sigma**0.3, rel=1e-10)


def _he_scaling(model, ef, top=30):
    """(max over E = 1..top of H_E/(E e^E), the constant the caps imply).

    With d_N <= c e^N on the range, C_E <= A e^E for A = 2 sup|f| c e/(e-1),
    so H_E/(E e^E) <= A (1 + max(log A, 0)) + B with B = 4 sup_eta c e/(e-1).
    """
    cap_c = max(d * math.exp(-n) for n, d in enumerate(model.dims_upto(top)))
    geom = math.e / (math.e - 1.0)
    a_const = 2.0 * ef.sup_f * cap_c * geom
    derived = a_const * (1.0 + max(math.log(a_const), 0.0)) + 4.0 * ef.sup_eta * cap_c * geom
    ratio = max(cutoff_bound(model, ef, 1.0, e).HE_bound / (e * math.exp(e))
                for e in range(1, top + 1))
    return ratio, derived


def test_growth_scaling_u1(u1_small, ef075):
    max_ratio, derived = _he_scaling(u1_small, ef075)
    assert max_ratio <= derived
    assert 0.9 < max_ratio < 1.2
    assert 4.0 < derived < 5.0


def test_growth_scaling_doubling_spectrum(ef075):
    model = _custom([2**n for n in range(31)])
    max_ratio, derived = _he_scaling(model, ef075)
    assert max_ratio < derived


@pytest.mark.parametrize("kind", ["u1", "virasoro"])
def test_series_and_trace_do_not_depend_on_the_table_state(ef075, kind):
    fit = fit_growth_constants(model_dims(kind, 3000), 0.6)
    spectra._TABLES.clear()           # the first run grows every table it reads

    def run():
        reps = [distance_regularized_bound(model_dims(kind, 12), ef075, delta, TailConfig(fit=fit))
                for delta in (0.5, 0.8, 1.3, 2.0)]
        traces = [trace_partition(model_dims(kind, 12), beta) for beta in (0.5, 1.0, 2.0)]
        return reps, traces

    cold = run()
    # past the last block the series reads at delta 0.5 (it stops near N = 10400)
    model_dims(kind, 20000)
    assert run() == cold


# C_delta, S_delta, H_delta and n_max_used of the series, re-taken when a
# built-in's growth constant became the partition lemma's closed form
# (log C 19.08 for both kinds at kappa 0.6, where a 3000-level scan gave 9.63
# for u1 and 6.17 for virasoro): the analytic tail rose with it, C_delta by
# 3.6e-15 to 7.3e-6 relative and S_delta by 1.1e-14 to 2.3e-5 (virasoro at
# delta 0.5 the most), and no n_max_used moved
_SERIES_BITS = {
    ("u1", 0.5): ("0x1.ad16f7c32c0bap+82", "0x1.092b23e378c11p+89", "0x1.c96fa454394dbp+89", 10369),
    ("u1", 0.55): ("0x1.c45925c3d41acp+73", "0x1.f4447a0a102b0p+79", "0x1.aef6ab43f5b4ap+80", 8773),
    ("u1", 0.8): ("0x1.04b28b6f1b9c6p+47", "0x1.74884e0b2dacdp+52", "0x1.3f0b084511310p+53", 4626),
    ("u1", 1.0): ("0x1.d5a4aa8b10da9p+35", "0x1.034815e9ec1cap+41", "0x1.b9c2757c2a48ep+41", 3202),
    ("u1", 1.3): ("0x1.f528d5599798bp+25", "0x1.a34d8e64541afp+30", "0x1.5e9b1e126f1dap+31", 2106),
    ("u1", 1.7): ("0x1.387f669850ad9p+18", "0x1.a963b27d20842p+22", "0x1.507bc87f98f3bp+23", 1396),
    ("u1", 2.0): ("0x1.5871c76e8ec03p+14", "0x1.b052936d652bep+18", "0x1.43cf17990109cp+19", 1099),
    ("virasoro", 0.5): ("0x1.43c2f42ce8673p+77", "0x1.8978dc3640a79p+83", "0x1.4c544e166ffa2p+84", 10286),
    ("virasoro", 0.55): ("0x1.7d1545d0ad60fp+68", "0x1.9d96267fe5935p+74", "0x1.5c4e3e38bcb7dp+75", 8698),
    ("virasoro", 0.8): ("0x1.5250b0eee8442p+42", "0x1.d59365e77a722p+47", "0x1.86275cee907b1p+48", 4574),
    ("virasoro", 1.0): ("0x1.88ba0d9beb14fp+31", "0x1.a22f5dc0c1c80p+36", "0x1.5792e5675ab3ap+37", 3160),
    ("virasoro", 1.3): ("0x1.13cff39230581p+22", "0x1.bc61171a07d26p+26", "0x1.624471e6d4a09p+27", 2074),
    ("virasoro", 1.7): ("0x1.afb4ac2c445f3p+14", "0x1.1d57a3d913b0ep+19", "0x1.a74eca6c01500p+19", 1373),
    ("virasoro", 2.0): ("0x1.0a8c678e95c7ep+11", "0x1.465b994930b8dp+15", "0x1.c60d174ddaba2p+15", 1081),
}


@pytest.fixture(scope="module")
def series_fits():
    return {kind: fit_growth_constants(model_dims(kind, 3000), 0.6) for kind in ("u1", "virasoro")}


@pytest.mark.parametrize("kind,delta", sorted(_SERIES_BITS))
def test_series_keeps_its_bits(ef075, series_fits, kind, delta):
    # the block size, the array reads and the tail's chunk skipping are all
    # free to change, as long as not one bit of the sums moves
    rep = distance_regularized_bound(model_dims(kind, 12), ef075, delta,
                                     TailConfig(fit=series_fits[kind]))
    got = (rep.C_delta.hex(), rep.S_delta.hex(), rep.H_delta_bound.hex(), rep.n_max_used)
    assert got == _SERIES_BITS[(kind, delta)]


@pytest.mark.parametrize("block", [512, 8192])
def test_series_bits_do_not_depend_on_the_block_size(ef075, series_fits, monkeypatch, block):
    monkeypatch.setattr(bounds, "_BLOCK", block)
    for (kind, delta), want in _SERIES_BITS.items():
        rep = distance_regularized_bound(model_dims(kind, 12), ef075, delta,
                                         TailConfig(fit=series_fits[kind]))
        got = (rep.C_delta.hex(), rep.S_delta.hex(), rep.H_delta_bound.hex(), rep.n_max_used)
        assert got == want, (kind, delta)


def test_streamed_sums_match_fsum(ef075, series_fits, monkeypatch):
    # with no tail, C_delta and S_delta are the sums of the streamed terms
    # alone; a sequential logaddexp fold drifted from their correctly
    # rounded sum by up to 5.9e-13 relative (S, u1 at delta 0.5)
    monkeypatch.setattr(bounds, "_series_tail", lambda *args: (-math.inf, -math.inf))
    for (kind, delta), (_, _, _, n_stop) in _SERIES_BITS.items():
        model = model_dims(kind, 12)
        rep = distance_regularized_bound(model, ef075, delta, TailConfig(fit=series_fits[kind]))
        assert rep.n_max_used == n_stop
        up = f_delta_batch(ef075, delta, 0, n_stop)[1]
        ld = model.log_dims(0, n_stop)
        c_terms = np.exp(math.log(2.0) + ld + bounds._log0(up))
        s_terms = np.exp(math.log(4.0) + ld[1:] + bounds._log0(bounds._eta_upper(up[1:] / 2.0)))
        for got, terms in ((rep.C_delta, c_terms), (rep.S_delta, s_terms)):
            want = math.fsum(terms)
            assert abs(got - want) <= 1e-14 * want, (kind, delta)


# the parent's bits: a logaddexp fold of one or two finite terms among -inf
@pytest.mark.parametrize("dims,c_hex,s_hex", [
    ([1], "0x1.000000000232fp+0", "0x0.0p+0"),
    ([1] + [0] * 5000 + [3], "0x1.000000000232fp+0", "0x1.b4a24dea63bf5p-109"),
])
def test_series_with_all_minus_inf_terms_warns_nothing(ef075, dims, c_hex, s_hex):
    # [1] has no S term but the vacuum's -inf; 5000 zero levels fill whole
    # blocks with -inf terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = distance_regularized_bound(_custom(dims), ef075, 0.3)
        assert bounds._logsumexp(np.full(3, -np.inf)) == -np.inf
    assert (rep.C_delta.hex(), rep.S_delta.hex(), rep.n_max_used) == (c_hex, s_hex, len(dims) - 1)


def _tail_every_chunk(ef, delta, fit, n_start):
    """The analytic tail as it ran before chunks could be skipped."""
    n = n_start
    total_c = total_s = -np.inf
    while True:
        ns = np.arange(n, n + bounds._TAIL_CHUNK, dtype=float)
        log_env = -ef.envelope_c * (delta * ns) ** ef.beta_prime
        log_dims = fit.log_C + ns ** fit.kappa
        chunk_c = bounds._logsumexp(math.log(2.0) + log_dims + log_env)
        x_log = log_env - math.log(2.0)
        log_eta = np.where(-x_log > 1.0, x_log + np.log(np.maximum(-x_log, 1.0)), -1.0)
        chunk_s = bounds._logsumexp(math.log(4.0) + log_dims + log_eta)
        total_c = np.logaddexp(total_c, chunk_c)
        total_s = np.logaddexp(total_s, chunk_s)
        if chunk_c < total_c + math.log(1e-18) and chunk_s < total_s + math.log(1e-18):
            return float(total_c), float(total_s)
        n += bounds._TAIL_CHUNK


@pytest.mark.parametrize("delta", [0.3, 0.5, 0.9, 1.4, 2.0, 3.5])
def test_tail_chunk_skip_keeps_the_bits(ef075, series_fits, delta):
    # starts before and after the peak of the tail's terms, which lies near
    # N = 3300 at delta = 0.5 and moves down as delta grows
    for kind, fit in series_fits.items():
        for n_start in (40, 1100, 3203, 10370):
            got = bounds._series_tail(ef075, delta, fit, n_start)
            want = _tail_every_chunk(ef075, delta, fit, n_start)
            assert [x.hex() for x in got] == [x.hex() for x in want], (kind, n_start)


def test_series_beyond_the_float_range_raises_divergence():
    # u1^2 at alpha 0.85, kappa 0.7 sums to about e^783 at delta 0.6: a
    # DivergenceError, where math.exp once raised OverflowError
    ef = build_energy_function(0.85)
    fit = fit_growth_constants(model_dims("u1", 3000, power=2), 0.7)
    with pytest.raises(DivergenceError, match="floating range"):
        distance_regularized_bound(model_dims("u1", 12, power=2), ef, 0.6, TailConfig(fit=fit))
