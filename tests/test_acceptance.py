"""End-to-end acceptance battery.

One test per contract line.  Each prints a single PASS/FAIL line with the
measured figure, so `pytest -s tests/test_acceptance.py` reads as a
checklist; tolerances are stated inline and never loosened at run time.
"""

import math
import time

import numpy as np

import oracles
from entrocut import (
    SpectrumModel,
    build_energy_function,
    build_truncated_space,
    fit_growth_constants,
    make_synthetic_pair,
    model_dims,
    oracle_vs_bounds,
    verify_spectral_identity,
    verify_trace_bound,
    cutoff_bound,
    eta,
)
from entrocut.energy import f_delta_batch, window


def _report(ok: bool, line: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


def test_criterion_01_energy_function_contract():
    t0 = time.perf_counter()
    worst_f0 = 0.0
    worst_shift = 0.0
    for alpha in (0.55, 0.75, 0.85):
        ef = build_energy_function(alpha)
        coarse = oracles.weighted_sup(ef, 1601)
        fine = oracles.weighted_sup(ef, 3201)
        worst_f0 = max(worst_f0, abs(float(window(ef, [0.0])[0][0]) - 0.5))
        assert math.isfinite(coarse)
        shift = abs(fine - coarse) / coarse
        worst_shift = max(worst_shift, shift)
    elapsed = time.perf_counter() - t0
    # the sup is a sampled max of a smooth peak; halving the step moves the
    # sample point on the peak by O(h^2 curvature), measured 5.1e-4 worst case
    ok = worst_f0 <= 1e-6 and worst_shift <= 1e-3 and elapsed <= 120.0
    _report(ok, f"criterion 1 energy-function contract: |f(0)-1/2| <= {worst_f0:.2e}, "
                f"weighted-sup shift under 2x grid <= {worst_shift:.2e}, {elapsed:.1f}s")


def test_criterion_02_spectral_identity_synthetic_pairs(ef075):
    t0 = time.perf_counter()
    worst = 0.0
    for delta in (0.1, 0.3, 1.0):
        for seed in range(20):
            # random mixes of 2-4 bumps: the second route to the suite's fixed family
            pair = make_synthetic_pair(delta, oracles.random_bumps(seed))
            worst = max(worst, verify_spectral_identity(ef075, pair))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed <= 60.0
    _report(ok, f"criterion 2 spectral identity: worst relative residual {worst:.2e} "
                f"over 60 pairs, {elapsed:.1f}s")


def test_criterion_03_polarization_and_product_identities(ef075):
    t0 = time.perf_counter()
    space = build_truncated_space(model_dims("u1", 3), 3)   # D = 7 <= 10
    d = space.dim
    window_by_level = f_delta_batch(ef075, 0.7, 0, 3)[0]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):           # 100 observables, in pairs x (x) y
        x, y = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
        for n in range(1, d):
            worst = max(worst, *oracles.polarization_residuals(x, n),
                        *oracles.polarization_residuals(y, n))
        plus, minus = oracles.theta_parts(space.dims_by_level, window_by_level, x, y)
        direct = oracles.theta_direct(space.dims_by_level, window_by_level, x, y)
        worst = max(worst, abs((plus - minus) - direct) / (np.linalg.norm(x) * np.linalg.norm(y)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 30.0
    _report(ok, f"criterion 3 polarization/product identities: worst residual "
                f"{worst:.2e} over 100 observables at D = {space.dim}, {elapsed:.1f}s")


def test_criterion_04_oracle_vs_bound_chain(ef075, u1_small):
    t0 = time.perf_counter()
    worst_slack = math.inf
    worst_chain = -math.inf
    for energy_cut in (0, 2, 4, 6, 10):
        space = build_truncated_space(u1_small, energy_cut)
        rep = cutoff_bound(u1_small, ef075, 1.0, energy_cut)
        for delta in (0.1, 0.5, 1.0):
            oc = oracle_vs_bounds(space, ef075, delta)
            worst_slack = min(worst_slack, oc.entropy_bound - oc.exact_entropy)
            worst_chain = max(worst_chain,
                              oc.c_deltaE * oc.exact_entropy - rep.HE_bound)
            if energy_cut == 0:
                assert oc.exact_entropy == 0.0 and oc.entropy_bound == 0.0
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-9 and worst_chain <= 1e-9 and elapsed <= 300.0
    _report(ok, f"criterion 4 oracle vs bound: min slack {worst_slack:.3e}, "
                f"worst chain excess {worst_chain:.3e}, E up to 10 (D = 139), {elapsed:.1f}s")


def test_criterion_05_delta_independence(ef075, u1_small):
    deltas = (0.1, 0.5, 1.0)
    caps = set()
    ok = True
    for energy_cut in (0, 2, 4, 6):
        reps = [cutoff_bound(u1_small, ef075, d, energy_cut) for d in deltas]
        caps = {(repr(r.C_E), repr(r.S_E), repr(r.HE_bound)) for r in reps}
        ok = ok and len(caps) == 1
        ok = ok and all(r.c_deltaE <= r.C_E + 1e-9 and r.S_deltaE <= r.S_E + 1e-9
                        for r in reps)
    _report(ok, "criterion 5 delta-independence: C_E, S_E byte-identical across "
                f"delta grid, c_deltaE <= C_E and S_deltaE <= S_E everywhere")


def test_criterion_06_trace_bound_chain():
    t0 = time.perf_counter()
    betas = (0.5, 1.0, 2.0, 4.0)
    lines = []
    ok = True
    for kind in ("u1", "virasoro"):
        model = model_dims(kind, 3000)
        fit = fit_growth_constants(model, 0.6)
        rows = verify_trace_bound(model, fit, betas)
        ok = ok and all(r.ok for r in rows)
        lines.append(f"{kind} max ratio {max(r.ratio for r in rows):.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    _report(ok, f"criterion 6 trace-bound chain: {', '.join(lines)}, {elapsed:.1f}s")


def test_criterion_07_eta_bound_optimality():
    grid = np.concatenate([np.logspace(-300, 0, 50001), np.linspace(0.0, 3.0, 50001)])
    worst_violation = -math.inf
    worst_gap = 0.0
    for p in (0.3, 0.5, 0.9):
        # the sharp constant and its equality point
        c_p, t0 = 1.0 / ((1.0 - p) * math.e), math.exp(-1.0 / (1.0 - p))
        worst_violation = max(worst_violation,
                              float(np.max(eta(grid) - c_p * grid**p)))
        worst_gap = max(worst_gap, abs(eta(t0) - c_p * t0**p))
    ok = worst_violation <= 1e-12 and worst_gap <= 1e-12
    _report(ok, f"criterion 7 eta-bound optimality: max excess {worst_violation:.2e}, "
                f"equality gap at t0 {worst_gap:.2e}")


def test_criterion_08_quasinorm_suite():
    # the p-sum sum sigma^p of random complex matrices up to 8 x 8: homogeneous
    # of degree p, p-subadditive, an ideal under operator-norm factors, and
    # N^{(1-p)/p}-subadditive in its 1/p-th power over a family of N
    rng = np.random.default_rng(0)
    psum = oracles.schatten_sum_direct

    def draw(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    worst_hom = 0.0
    worst_gap = -math.inf
    for p in (0.3, 0.5, 1.0):
        for _ in range(50):
            rows, cols, inner = (int(k) for k in rng.integers(1, 9, size=3))
            t1, t2 = draw(rows, cols), draw(rows, cols)
            lam = complex(rng.normal(), rng.normal())
            worst_hom = max(worst_hom,
                            abs(psum(lam * t1, p) / (abs(lam) ** p * psum(t1, p)) - 1.0))
            r, s, t3 = draw(rows, inner), draw(inner, inner), draw(inner, cols)
            family = [draw(rows, cols) for _ in range(int(rng.integers(2, 9)))]
            worst_gap = max(
                worst_gap,
                psum(t1 + t2, p) - psum(t1, p) - psum(t2, p),
                psum(r @ s @ t3, p) - (np.linalg.norm(r, 2) ** p * psum(s, p)
                                       * np.linalg.norm(t3, 2) ** p),
                psum(sum(family), p) ** (1.0 / p) - len(family) ** ((1.0 - p) / p)
                * sum(psum(t, p) ** (1.0 / p) for t in family))
    ok = worst_hom <= 1e-12 and worst_gap <= 1e-9
    _report(ok, f"criterion 8 quasi-norm suite: homogeneity {worst_hom:.2e}, "
                f"worst inequality gap {worst_gap:.2e} over 50 instances, dims <= 8")


def test_criterion_09_partition_asymptotics():
    t0 = time.perf_counter()
    p = model_dims("u1", 1000).dims
    ok = all(p[n] == oracles.count_partitions_enumerated(n) for n in range(61))
    exact = math.log(p[1000])
    # the leading Hardy-Ramanujan term p(n) ~ e^{pi sqrt(2n/3)} / (4 sqrt(3) n)
    asymptotic = math.pi * math.sqrt(2000.0 / 3.0) - math.log(4.0 * math.sqrt(3.0) * 1000)
    rel = abs(asymptotic - exact) / exact
    elapsed = time.perf_counter() - t0
    ok = ok and rel <= 0.02
    _report(ok, f"criterion 9 partition asymptotics: enumeration exact to N = 60, "
                f"log-asymptotic off by {rel:.4f} at N = 1000, {elapsed:.1f}s")


def test_criterion_10_scaling_in_energy(ef075):
    # with d_N <= c e^N on the range, C_E <= A e^E for A = 2 sup|f| c e/(e-1),
    # so H_E/(E e^E) <= A (1 + max(log A, 0)) + B with B = 4 sup_eta c e/(e-1)
    u1 = model_dims("u1", 30)
    doubling = SpectrumModel(kind="custom", dims=[2**n for n in range(31)],
                             label="2^N")
    ok = True
    ratios = []
    for model in (u1, doubling):
        cap_c = max(d * math.exp(-n) for n, d in enumerate(model.dims))
        geom = math.e / (math.e - 1.0)
        a_const = 2.0 * ef075.sup_f * cap_c * geom
        derived = a_const * (1.0 + max(math.log(a_const), 0.0)) \
            + 4.0 * ef075.sup_eta * cap_c * geom
        max_ratio = max(cutoff_bound(model, ef075, 1.0, e).HE_bound / (e * math.exp(e))
                        for e in range(1, 31))
        ok = ok and max_ratio <= derived
        ratios.append(f"{model.label} {max_ratio:.4f} <= {derived:.4f}")
    _report(ok, f"criterion 10 E e^E scaling: {'; '.join(ratios)}")
