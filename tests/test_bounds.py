import math

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
    growth_scaling_report,
    model_dims,
    nu_p_damping_bound,
    nu_p_damping_cap,
    quasinorm_property_check,
    schatten_p,
    spectra,
    trace_bound_constants,
    trace_partition,
    verify_trace_bound,
)
from entrocut import bounds
from entrocut.energy import window
from entrocut.entropy import eta


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
    # 600 zero levels: the stop rule would fire on the 10th, across the
    # first block of 512, but a finitely supported spectrum is summed in full
    model = _custom([1] + [0] * 600 + [3])
    rep = distance_regularized_bound(model, ef075, 0.3)
    up = window(ef075, [0.0, 0.3 * 601])[1]
    assert rep.n_max_used == 601
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


def test_distance_bound_stable_under_cap_doubling(u1_3000, u1_fit, ef075):
    r1 = distance_regularized_bound(u1_3000, ef075, 1.0, TailConfig(fit=u1_fit))
    r2 = distance_regularized_bound(u1_3000, ef075, 1.0,
                                    TailConfig(fit=u1_fit, n_cap=40000))
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


def test_distance_bound_cap_too_small_messages(u1_3000, u1_fit, ef075):
    with pytest.raises(DivergenceError) as exc:
        distance_regularized_bound(u1_3000, ef075, 0.5,
                                   TailConfig(fit=u1_fit, n_cap=500))
    assert "still growing" in str(exc.value)
    with pytest.raises(DivergenceError) as exc:
        distance_regularized_bound(u1_3000, ef075, 0.5,
                                   TailConfig(fit=u1_fit, n_cap=5000))
    assert "raise TailConfig.n_cap" in str(exc.value)


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
    real = spectra._convolve_power

    def counted(base, m):
        calls.append(m)
        return real(base, m)

    monkeypatch.setattr(spectra, "_convolve_power", counted)
    rep = cutoff_bound(model, ef075, 0.5, 300)
    assert calls == [2]
    assert rep.C_E == 2.0 * ef075.sup_f * float(sum(model_dims("u1", 300, power=2).dims))


def test_bound_report_validate_rejects_chain_violations():
    with pytest.raises(DivergenceError):
        BoundReport(model_label="m", alpha=0.75, c_deltaE=5.0, C_E=4.0).validate()
    with pytest.raises(DivergenceError):
        BoundReport(model_label="m", alpha=0.75, C_delta=math.inf).validate()


def test_trace_partition_matches_direct_sum(u1_small):
    model = _custom([1, 4, 0, 2, 9])
    for beta in (0.5, 2.0):
        value, tail = trace_partition(model, beta, model.n_max)
        assert tail == 0.0
        assert value == pytest.approx(oracles.trace_direct(model.dims, beta), rel=1e-14)


def test_trace_partition_tail_covers_remainder(u1_3000, u1_fit):
    v1, t1 = trace_partition(u1_3000, 1.0, 1500)
    v2, _ = trace_partition(u1_3000, 1.0, 3000)
    assert v2 <= v1 + t1
    assert t1 >= 0.0


def test_trace_partition_diverges_at_tiny_beta(u1_3000, u1_fit):
    # the lemma's tail bound is e^{pi^2/(6 beta)}: e^16449 and e^1.6e300
    with pytest.raises(DivergenceError, match=r"trace tail at beta = 0\.0001 is e\^16449"):
        trace_partition(u1_3000, 1e-4, 3000)
    with pytest.raises(DivergenceError, match=r"trace tail at beta = 1e-300 is e\^1\.6449"):
        trace_partition(u1_3000, 1e-300, 3000)


_EXACT_BETAS = (0.01, 0.03, 0.05, 0.1, 0.5, 2.0)


@pytest.mark.parametrize("kind,power", [("u1", 1), ("u1", 2), ("virasoro", 1), ("virasoro", 2)])
def test_trace_partition_covers_the_exact_trace(kind, power):
    # a kappa = 0.45 growth fit once closed the tail of u1 at beta = 0.01 at
    # 1.38e46, against an exact trace of e^161.27; the lemma's tail is a bound
    model = model_dims(kind, 12, power=power)
    for beta in _EXACT_BETAS:
        value, tail = trace_partition(model, beta, 3000)
        log_exact = oracles.log_trace_exact(beta, kind, power)
        assert value + tail >= math.exp(log_exact) * (1.0 - 1e-13), beta
        if beta >= 0.05:
            # past the bulk of the sum the tail is sharp
            assert math.log(value + tail) - log_exact <= 5e-3, beta


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
    value, tail = trace_partition(model, 0.1, 3000)
    assert tail == 0.0
    # e^{log d_N - beta N} at log d_N = 690.8 carries about 1e-13 of rounding
    assert value == pytest.approx(oracles.trace_direct(dims, 0.1), rel=1e-12)
    fit = fit_growth_constants(model, 0.5, n_max=3000)
    assert fit.certified_range == (0, 5000)
    assert fit.log_C == pytest.approx(math.log(10 ** 300) - math.sqrt(5000.0), rel=1e-15)


def test_trace_constants_half_kappa_closed_form():
    tc = trace_bound_constants(0.5, 10.0)
    assert tc.b1 == pytest.approx(1.0, abs=1e-12)
    assert tc.c0 == pytest.approx(2.0, abs=1e-12)
    assert tc.c1 == pytest.approx(1.0, abs=1e-12)
    assert tc.c2 == pytest.approx(2.0, abs=1e-12)
    assert tc.log_a2 == pytest.approx(2.0, abs=1e-12)
    assert tc.a == pytest.approx(10.0 * tc.series_sum + math.exp(2.0), rel=1e-12)
    assert tc.b == 1.0 and tc.c == 2.0
    assert tc.bound(2.0) == pytest.approx(tc.a * math.exp(0.25), rel=1e-12)


def test_trace_caps_beyond_float_range_raise_divergence():
    tc = trace_bound_constants(0.6, 10.0)
    for beta in (0.05, 1e-300):              # at 1e-300, beta^{-c} alone overflows
        with pytest.raises(DivergenceError, match=f"beta = {beta:g}"):
            tc.bound(beta)
        with pytest.raises(DivergenceError, match=f"beta = {beta:g}"):
            nu_p_damping_cap(tc, 0.5, beta)
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
    for delta in (1.0, 2.0):
        distance_regularized_bound(u1_3000, ef075, delta, TailConfig(fit=u1_fit))
    assert seen and all(len(a) == bounds._TAIL_CHUNK for a in seen)
    for a in seen:
        assert _bits(logsumexp_np(a)) == _bits(logsumexp(a))


@pytest.mark.parametrize("kappa", [0.05, 0.1, 0.2, 0.3, 0.32, 0.45, 0.6, 0.9])
def test_sum_exp_neg_power_matches_the_incomplete_gamma_tail(kappa):
    # the closed-form majorant skips the tail only where adding it could not
    # change a bit: the result equals partial sum + scipy's tail
    from scipy.special import gammaincc
    m = 200_000
    partial = float(np.sum(np.exp(-np.arange(m, dtype=float) ** kappa)))
    s = 1.0 / kappa
    want = partial + float(math.gamma(s) * gammaincc(s, (m - 1.0) ** kappa) / kappa)
    assert _bits(bounds._sum_exp_neg_power(kappa)) == _bits(want)


def test_trace_constants_reject_bad_input():
    with pytest.raises(ValueError):
        trace_bound_constants(1.0, 5.0)
    with pytest.raises(ValueError):
        trace_bound_constants(0.5, 0.0)


def test_trace_chain_u1(u1_3000, u1_fit):
    ver = verify_trace_bound(u1_3000, u1_fit, (0.5, 1.0, 2.0, 4.0))
    assert ver.all_ok
    assert all(r.ratio < 1e-3 for r in ver.rows)


def test_trace_chain_virasoro():
    from entrocut import fit_growth_constants, model_dims
    model = model_dims("virasoro", 3000)
    fit = fit_growth_constants(model, 0.6)
    ver = verify_trace_bound(model, fit, (0.5, 1.0, 2.0, 4.0))
    assert ver.all_ok


def test_nu_p_substitution_identity(u1_3000, u1_fit):
    a = nu_p_damping_bound(u1_3000, 0.5, 2.0)
    b = nu_p_damping_bound(u1_3000, 1.0, 1.0)
    assert a == b
    v, t = trace_partition(u1_3000, 1.0, u1_fit.certified_range[1])
    assert a == v + t


def test_nu_p_cap_dominates(u1_3000, u1_fit):
    tc = trace_bound_constants(u1_fit.kappa, u1_fit.C)
    for p in (0.3, 0.5, 1.0):
        for beta in (0.5, 1.0, 2.0):
            val = nu_p_damping_bound(u1_3000, p, beta)
            cap = nu_p_damping_cap(tc, p, beta)
            assert val <= cap
            assert cap == pytest.approx(
                tc.a * math.exp((tc.b / p ** tc.c) * beta ** (-tc.c)), rel=1e-12)
    with pytest.raises(ValueError):
        nu_p_damping_bound(u1_3000, 1.5, 1.0)


def test_schatten_p_diagonal_and_unitary_invariance():
    d = np.diag([3.0, 1.0, 0.25])
    assert schatten_p(d, 0.5) == pytest.approx(3.0**0.5 + 1.0 + 0.25**0.5, rel=1e-12)
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert schatten_p(q @ d @ q.conj().T, 0.5) == pytest.approx(
        schatten_p(d, 0.5), rel=1e-10)


def test_schatten_p_ignores_rank_noise():
    rng = np.random.default_rng(19)
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    m = np.outer(u, v)          # exact rank one, numerically rank ~5
    sigma = float(np.linalg.norm(u) * np.linalg.norm(v))
    assert schatten_p(m, 0.3) == pytest.approx(sigma**0.3, rel=1e-10)
    assert schatten_p(m, 0.3) == pytest.approx(
        oracles.schatten_sum_direct(m, 0.3), rel=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_quasinorm_suite(p):
    rep = quasinorm_property_check(p, seed=7)
    assert rep.worst_homogeneity_rel <= 1e-12
    assert rep.worst_subadditivity_gap <= 1e-9
    assert rep.worst_ideal_gap <= 1e-9
    assert rep.worst_family_gap <= 1e-9
    assert rep.ok


def test_quasinorm_rejects_bad_p():
    with pytest.raises(ValueError):
        quasinorm_property_check(1.5)


def test_growth_scaling_u1(u1_small, ef075):
    rep = growth_scaling_report(u1_small, ef075, range(1, 31))
    assert rep.ok
    assert 0.9 < rep.max_ratio < 1.2
    assert 4.0 < rep.derived_constant < 5.0


def test_growth_scaling_doubling_spectrum(ef075):
    model = _custom([2**n for n in range(31)])
    rep = growth_scaling_report(model, ef075, range(1, 31))
    assert rep.ok
    assert rep.max_ratio < rep.derived_constant


def test_growth_scaling_rejects_empty_range(u1_small, ef075):
    with pytest.raises(ValueError):
        growth_scaling_report(u1_small, ef075, [])
    with pytest.raises(ValueError):
        growth_scaling_report(u1_small, ef075, [0, 1])


@pytest.mark.parametrize("kind", ["u1", "virasoro"])
def test_series_and_trace_do_not_depend_on_the_table_state(ef075, kind):
    fit = fit_growth_constants(model_dims(kind, 3000), 0.6)
    spectra._TABLES.clear()           # the first run grows every table it reads

    def run():
        reps = [distance_regularized_bound(model_dims(kind, 12), ef075, delta, TailConfig(fit=fit))
                for delta in (0.5, 0.8, 1.3, 2.0)]
        traces = [trace_partition(model_dims(kind, 12), beta, 3000)
                  for beta in (0.5, 1.0, 2.0)]
        return reps, traces

    cold = run()
    # past the last block the series reads at delta 0.5 (it stops near N = 10400)
    model_dims(kind, 20000)
    assert run() == cold
