import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import oracles
from entrocut import (
    ConstructionError,
    build_energy_function,
    eval_f_many,
    make_synthetic_pair,
    verify_spectral_identity,
)
from entrocut import _constants, energy
from entrocut.energy import SPECTRAL_BUMPS, _f_on_rule, _ij0, f_delta_batch, window


def test_ij0_table_matches_highprec_quadrature():
    # include the x ~ 25.5 region where scipy's Struve route loses accuracy
    pts = [0.3, 1.0, 7.7, 25.3, 25.5, 25.9, 26.3, 77.7, 123.4, 199.5]
    got = _ij0(np.array(pts))
    worst = max(abs(float(v) - oracles.ij0_highprec(x)) for v, x in zip(got, pts))
    assert worst <= 2e-15


def test_panel_ij0_matches_mpmath():
    # seeded points and every panel's midpoint, edges and both ends
    width = energy.T0 / energy._PANEL_COUNT
    pts = np.concatenate([np.random.default_rng(11).uniform(0.0, energy.T0, 400),
                          width * (np.arange(energy._PANEL_COUNT) + 0.5),
                          width * np.arange(energy._PANEL_COUNT + 1)])
    with mp.workdps(oracles.CONSTANTS_DPS):
        want = np.array([float(oracles.ij0_mp(x)) for x in pts])
    assert float(np.max(np.abs(_ij0(pts) - want))) <= 2e-15
    assert _ij0(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_constants_module_is_regenerated_bit_for_bit():
    # the generator reads mpmath alone, so the file is the same on every machine
    assert oracles.constants_module() == Path(_constants.__file__).read_text(encoding="utf-8")


def test_gauss_legendre_constants_are_correctly_rounded():
    nodes, weights = energy._GAUSS_NODES, energy._GAUSS_WEIGHTS
    # an independent route: mpmath's own Legendre polynomials, at 50 digits,
    # with w_i = 2 (1 - x_i^2) / (n P_{n-1}(x_i))^2
    n = len(nodes)
    with mp.workdps(50):
        xs = [mp.findroot(lambda x: mp.legendre(n, x), float(x)) for x in nodes]
        ws = [2 * (1 - x * x) / (n * mp.legendre(n - 1, x)) ** 2 for x in xs]
        assert nodes.tolist() == [float(x) for x in xs]
        assert weights.tolist() == [float(w) for w in ws]
    # numpy's leggauss: the same nodes to 1 ulp; its weights, rescaled to sum
    # to 2, sit up to 63 ulps from the correctly rounded ones
    xg, wg = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(nodes - xg) <= np.spacing(np.abs(xg)))
    assert np.all(np.abs(weights - wg) <= 64 * np.spacing(wg))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture(scope="module")
def window_by_alpha():
    return {alpha: build_energy_function(alpha) for alpha in (0.3, 0.55, 0.75, 0.95)}


@pytest.mark.parametrize("t_max", [200.0, 50.0])
@pytest.mark.parametrize("alpha", [0.3, 0.55, 0.75, 0.95])
def test_window_matches_full_width_scipy_route(window_by_alpha, alpha, t_max):
    # alpha = 0.3 leaves almost every coefficient nonzero, 0.95 zeroes most;
    # t_max = T0 samples the whole quadrature range, 50 its start more
    # densely.  The full-width route takes IJ0 at every node, zero
    # coefficients included, in one block: the same bits
    nodes, coeffs = energy._rule(window_by_alpha[alpha].rho, energy._PANELS_PER_OSC)
    assert np.count_nonzero(coeffs == 0.0) > 0
    ts = np.concatenate([np.linspace(0.0, t_max, 301),
                         np.random.default_rng(5).uniform(0.0, t_max, 100)])
    want = oracles.f_on_rule_full_width(ts, nodes, coeffs, _ij0)
    assert _bits(_f_on_rule(ts, nodes, coeffs)) == _bits(want)


@pytest.mark.parametrize("alpha", [0.3, 0.55, 0.75, 0.95])
def test_interpolant_matches_the_quadrature(window_by_alpha, alpha):
    ef = window_by_alpha[alpha]
    ts = np.linspace(0.0, energy.T0, 20_001)
    err = np.abs(eval_f_many(ef, ts)
                 - _f_on_rule(ts, *energy._rule(ef.rho, energy._PANELS_PER_OSC)))
    assert float(np.max(err)) <= 1e-14


@pytest.fixture(scope="module")
def hermite_route():
    """The window at alpha 0.75 as built on the old cubic Hermite IJ0 table,
    with that table."""
    table = oracles.build_ij0()
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(energy, "_ij0", table)
        old = build_energy_function(0.75)
    return old, table


def test_rule_reproduces_the_builds_tau_rule(monkeypatch):
    # the build reads _rule at the panel density and at twice it; a fresh
    # call returns the same nodes and coefficients, bit for bit, and those
    # give the build's interpolant
    seen = []
    real = energy._rule

    def recorded(rho, osc_panels):
        seen.append(((rho, osc_panels), real(rho, osc_panels)))
        return seen[-1][1]

    monkeypatch.setattr(energy, "_rule", recorded)
    ef = build_energy_function(0.75)
    monkeypatch.undo()
    osc = energy._PANELS_PER_OSC
    assert [args for args, _ in seen] == [(ef.rho, osc), (ef.rho, 2 * osc)]
    for args, (nodes, coeffs) in seen:
        again = energy._rule(*args)
        assert _bits(again[0]) == _bits(nodes) and _bits(again[1]) == _bits(coeffs)
    assert _bits(energy._panel_coefficients(*energy._rule(ef.rho, osc))) == _bits(ef.panels)


def test_window_matches_the_hermite_route(ef075, hermite_route):
    old, table = hermite_route
    # the build's 283 quadrature rows: its 201 Chebyshev points and the
    # self-check's 41 probes on both tau rules
    cheb = 0.5 * energy.T0 * (1.0 + np.cos(np.pi * np.arange(energy._CHEB_DEGREE + 1)
                                            / energy._CHEB_DEGREE))
    probe = np.linspace(0.0, energy.T0, 41)
    rows = [(cheb, *energy._rule(ef075.rho, energy._PANELS_PER_OSC)),
            (probe, *energy._rule(ef075.rho, energy._PANELS_PER_OSC)),
            (probe, *energy._rule(ef075.rho, 2 * energy._PANELS_PER_OSC))]
    new = [_f_on_rule(*row) for row in rows]
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(energy, "_ij0", table)
        was = [_f_on_rule(*row) for row in rows]
    assert sum(len(v) for v in new) == 283
    for a, b in zip(new, was):
        assert 0.0 < float(np.max(np.abs(a - b))) <= 1e-14
    grid = np.linspace(0.0, energy.T0, 20_001)
    assert 0.0 < float(np.max(np.abs(eval_f_many(ef075, grid) - eval_f_many(old, grid)))) <= 1e-14


def test_interpolant_half_at_zero_and_even_at_panel_edges(window_by_alpha):
    edges = energy.T0 / energy._PANEL_COUNT * np.arange(energy._PANEL_COUNT + 1)
    for ef in window_by_alpha.values():
        assert window(ef, [0.0])[0][0] == 0.5 and window(ef, [-0.0])[0][0] == 0.5
        assert _bits(eval_f_many(ef, edges)) == _bits(eval_f_many(ef, -edges))
        assert window(ef, edges)[0].tobytes() == window(ef, -edges)[0].tobytes()


def test_value_bits_do_not_depend_on_the_batch(ef075):
    width = energy.T0 / energy._PANEL_COUNT
    for t in (0.3, 37.3, 2.0 * width, 199.99, energy.T0):
        alone = eval_f_many(ef075, [t])
        batch = np.linspace(0.0, energy.T0, 401)
        batch[123] = t
        across = t + width * np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
        across = across[(across >= 0.0) & (across <= energy.T0)]
        assert t in across
        assert _bits(eval_f_many(ef075, batch)[123:124]) == _bits(alone)
        assert _bits(eval_f_many(ef075, across)[across == t]) == _bits(alone)
        assert _bits(window(ef075, [t, 250.0])[0][:1]) == _bits(alone)


def test_build_computes_283_quadrature_rows(monkeypatch):
    # 201 Chebyshev points and the self-check's 2 x 41 probes; the interpolant
    # serves the envelope fit and every reader
    rows = []
    real = energy._f_on_rule

    def counted(ts, nodes, coeffs):
        rows.append(len(ts))
        return real(ts, nodes, coeffs)

    monkeypatch.setattr(energy, "_f_on_rule", counted)
    ef = build_energy_function(0.75)
    eval_f_many(ef, np.linspace(0.0, energy.T0, 1001))
    f_delta_batch(ef, 0.37, 0, 600)
    assert sorted(rows) == [41, 41, 201]


def test_memo_holds_the_latest_delta_only(ef075):
    ef = _fresh(ef075)
    deltas = 0.1 + 1.9 * np.random.default_rng(4).random(1000)
    for delta in deltas:
        f_delta_batch(ef, float(delta), 0, 30)
    assert list(ef.cache) == [float(deltas[-1])]
    assert len(ef.cache[float(deltas[-1])]) == 31


_SCIPY_PROBE = """
import contextlib, io, sys
import entrocut.cli
assert "scipy" not in sys.modules, "import entrocut.cli"
for argv in (["model"], ["energy-function"], ["bounds"], ["trace"], ["verify"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert entrocut.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
print("clean")
"""


def _fresh_process(script: str, *argv: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(energy.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    return out


def test_cli_runs_leave_scipy_out():
    # the default runs read the committed IJ0 panels, a numpy logsumexp and
    # the closed-form bound on the trace constants' tail: nothing imports scipy
    assert _fresh_process(_SCIPY_PROBE).stdout.strip() == "clean"


_MODULES_PROBE = """
import contextlib, io, sys
import entrocut.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = entrocut.cli.main(sys.argv[1:])
print(code, *[m for m in ("numpy.random", "_hashlib", "scipy") if m in sys.modules])
"""


@pytest.mark.parametrize("argv", [["verify"], ["trace", "--kappa", "0.1"]])
def test_cli_process_runs_on_numpy_alone(argv):
    # the spectral pairs once drew on numpy.random (5.5 MB resident, and
    # OpenSSL's _hashlib through secrets), and the trace constant's tail
    # below kappa = 0.32 on scipy.special.gammaincc
    assert _fresh_process(_MODULES_PROBE, *argv).stdout.split() == ["0"]


_BUILD_PROBE = """
import gc, json, sys, tracemalloc
import entrocut.cli
from entrocut import energy
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
ef = energy.build_energy_function(0.75)
gc.collect()
now, peak = tracemalloc.get_traced_memory()
modules = [m for m in ("_hashlib", "numpy.polynomial") if m in sys.modules]
print(json.dumps({"grown": now - before, "peak": peak - before, "modules": modules}))
"""


@pytest.fixture(scope="module")
def first_build():
    # a fresh process: the CLI's imports, then the first window build
    return json.loads(_fresh_process(_BUILD_PROBE).stdout)


def test_build_leaves_no_ij0_table_behind(first_build):
    # IJ0 comes from committed constants: no table file is read, so nothing
    # loads OpenSSL for its sha256 (`_hashlib`, 3.5 MB resident), and the
    # tau rule needs no numpy.polynomial
    assert first_build["modules"] == []


def test_build_keeps_under_a_megabyte(first_build):
    # the window itself is the tau rule and a 17 x 100 interpolant, about
    # 50 KB; a table kept past the build would hold 3.9 MB
    assert first_build["grown"] < 1 << 20


def test_build_peaks_under_two_megabytes(first_build):
    # a block of IJ0 arguments and its Clenshaw arrays, and the interpolant's
    # DCT matrices, about 1.2 MB; the Hermite table's arrays took it to 5.4 MB
    assert first_build["peak"] < 2 << 20


def test_struve_route_matches_highprec_outside_blip():
    for x in (0.5, 5.0, 18.0, 40.0, 150.0):
        assert abs(float(oracles.integral_j0(x)) - oracles.ij0_highprec(x)) <= 5e-13


def test_window_value_half_at_zero(ef075):
    assert abs(window(ef075, [0.0])[0][0] - 0.5) <= 1e-15


def test_window_is_even(ef075):
    for t in (0.3, 2.0, 57.0):
        assert window(ef075, [t])[0][0] == window(ef075, [-t])[0][0]


def test_window_bounded_by_half(ef075):
    ts = np.linspace(0.0, 200.0, 2001)
    vals = eval_f_many(ef075, ts)
    assert float(np.max(np.abs(vals))) <= 0.5 + energy.ABS_TOL


def test_window_matches_definition_route(ef075):
    # the reference route integrates the defining double integral directly
    for t in (0.6, 3.7, 12.3):
        assert abs(window(ef075, [t])[0][0] - oracles.eval_f_reference(ef075, t)) <= 5e-7


def test_window_matches_highprec_quadrature(ef075):
    for t in (0.0, 0.8, 3.0):
        assert abs(window(ef075, [t])[0][0] - oracles.window_highprec(0.75, t)) <= 1e-9


def test_certified_suprema(ef075):
    assert abs(ef075.sup_f - 0.5) <= 1e-9
    # eta increases up to 1/e and |f|/2 <= 1/4 < 1/e, so the sup sits at t = 0
    assert abs(ef075.sup_eta - (-0.25 * math.log(0.25))) <= 1e-9
    assert math.isfinite(oracles.weighted_sup(ef075))


def test_envelope_dominates_grid(ef075):
    ts = np.linspace(0.0, 200.0, 777)
    vals = np.abs(eval_f_many(ef075, ts)) + energy.ABS_TOL
    env = ef075.envelope(ts)
    assert np.all(vals <= env * (1.0 + 1e-12))


def test_eval_beyond_range_flags_envelope(ef075):
    # the regime is decided on |t|, so -250 is envelope too
    vals, up, flags = window(ef075, [250.0, -250.0, 150.0])
    assert flags.tolist() == [True, True, False]
    assert vals[0] == vals[1] == ef075.envelope(np.array([250.0]))[0]
    assert up[0] == vals[0] and up[1] == vals[1]
    assert up[2] == abs(vals[2]) + energy.ABS_TOL
    assert window(ef075, [250.0])[0][0] == vals[0]


def test_window_bound_inside_the_range_ignores_the_envelope(ef075):
    # an envelope that drops below |f| inside [0, T0] once lowered the
    # certified bound there, under the value it bounds
    steep = dataclasses.replace(ef075, envelope_c=5.0)
    ts = np.linspace(-energy.T0, energy.T0, 4001)
    vals, up, flags = window(steep, ts)
    assert not flags.any()
    assert np.all(up >= np.abs(vals) + energy.ABS_TOL)


def test_eval_f_many_rejects_out_of_range(ef075):
    with pytest.raises(ValueError):
        eval_f_many(ef075, np.array([0.0, 201.0]))


def test_delta_scaling_and_memo(ef075):
    (v1,), _, (fl1,) = f_delta_batch(ef075, 0.5, 7, 7)
    (v2,), _, _ = f_delta_batch(ef075, 0.5, 7, 7)
    assert v1 == v2 and not fl1
    assert v1 == window(ef075, [0.5 * 7.0])[0][0]
    vals, up, flags = f_delta_batch(ef075, 0.5, 0, 16)
    assert vals[7] == v1 and not flags.any()
    assert vals[0] == window(ef075, [0.0])[0][0]
    assert np.array_equal(up, np.abs(vals) + energy.ABS_TOL)
    assert len(ef075.cache[0.5]) >= 17


@pytest.fixture(scope="module", params=[0.55, 0.75, 0.85])
def ef_by_alpha(request):
    return build_energy_function(request.param)


@pytest.mark.parametrize("n_points", range(1, 10))
def test_grid_values_match_pointwise_bit_for_bit(ef075, n_points):
    # a value must not depend on how many points share the call or where it sits
    ts = np.linspace(0.0, 200.0, n_points)
    grid = eval_f_many(ef075, ts)
    assert [float(v) for v in grid] == [window(ef075, [t])[0][0] for t in ts]


def test_long_grid_matches_pointwise_bit_for_bit(ef075):
    # 25 points per panel of the interpolant, so the comparison crosses every panel edge
    ts = np.linspace(0.0, 200.0, 2500)
    grid = eval_f_many(ef075, ts)
    assert [float(v) for v in grid] == [window(ef075, [t])[0][0] for t in ts]


def test_window_half_at_zero_exactly(ef_by_alpha):
    assert float(eval_f_many(ef_by_alpha, np.array([0.0]))[0]) == 0.5
    for delta, n_hi in ((0.5, 3), (0.1, 40), (1.0, 250)):
        assert f_delta_batch(ef_by_alpha, delta, 0, n_hi)[0][0] == 0.5


def test_certified_sup_is_half_plus_tolerance(ef_by_alpha):
    assert ef_by_alpha.sup_f == 0.5 + energy.ABS_TOL


def _fresh(ef):
    """The same window with an empty memo."""
    return dataclasses.replace(ef, cache={})


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_memo_independent_of_call_order():
    # two fresh windows, so no other test has filled either memo
    single_first = build_energy_function(0.75)
    batch_first = build_energy_function(0.75)
    f_delta_batch(batch_first, 0.5, 0, 10)
    assert _same_bits(f_delta_batch(batch_first, 0.5, 3, 3),
                      f_delta_batch(single_first, 0.5, 3, 3))


def test_memo_range_asked_first(ef075):
    # N = 350..450 at delta = 0.5 crosses T0 = 200 at N = 400
    serial = f_delta_batch(_fresh(ef075), 0.5, 0, 450)
    ef = _fresh(ef075)
    part = f_delta_batch(ef, 0.5, 350, 450)
    assert part[2][:51].sum() == 0 and part[2][51:].all()
    assert _same_bits(part, [a[350:] for a in serial])
    assert len(ef.cache[0.5]) == 401               # quadrature range only
    assert _same_bits(f_delta_batch(ef, 0.5, 0, 450), serial)


def test_memo_prefix_grown_in_steps(ef075):
    serial = f_delta_batch(_fresh(ef075), 0.7, 0, 400)
    ef = _fresh(ef075)
    for lo, hi in ((0, 5), (3, 40), (41, 41), (30, 200), (100, 400), (0, 400)):
        assert _same_bits(f_delta_batch(ef, 0.7, lo, hi), [a[lo:hi + 1] for a in serial])


def test_memo_grown_by_four_threads(ef075):
    serial = f_delta_batch(_fresh(ef075), 0.3, 0, 700)
    ef = _fresh(ef075)
    results = {}

    def grow(k):
        for hi in range(k * 7, 701, 23):
            results[k, hi] = f_delta_batch(ef, 0.3, hi // 3, hi)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert len(results) == sum(len(range(k * 7, 701, 23)) for k in range(4))
    for (_, hi), got in results.items():
        assert _same_bits(got, [a[hi // 3:hi + 1] for a in serial])
    memo = ef.cache[0.3]
    assert memo.tobytes() == serial[0][:len(memo)].tobytes()
    assert _same_bits(f_delta_batch(ef, 0.3, 0, 700), serial)


def test_build_rejects_bad_alpha():
    with pytest.raises(ValueError):
        build_energy_function(1.0)
    with pytest.raises(ValueError):
        build_energy_function(0.0)


def test_build_fails_on_unreachable_tolerance(monkeypatch):
    # the doubled-density self-check sits near 2e-15, so 1e-18 cannot hold
    monkeypatch.setattr(energy, "ABS_TOL", 1e-18)
    with pytest.raises(ConstructionError, match="did not converge"):
        build_energy_function(0.75)


def test_synthetic_pair_deterministic_and_certified():
    for bump in SPECTRAL_BUMPS:
        p1 = make_synthetic_pair(0.3, [bump])
        p2 = make_synthetic_pair(0.3, [bump])
        assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b)
        # the boundary gap tracks the discarded Fourier mass at freq_cut
        assert oracles.boundary_gap(p1) <= 1e-5
        assert p1.tail_mass <= 5e-5


def test_synthetic_pair_cut_follows_delta():
    # the largest N <= 128 with delta * N <= T0, by the comparison the
    # identity check makes: 128 up to delta = 1.5625, and 125 at 1.6, where
    # 1.6 * 125 rounds to 200.0
    for delta, cut in ((0.05, 128), (1.5625, 128), (1.6, 125), (1.8, 111), (2.0, 100)):
        pair = make_synthetic_pair(delta, SPECTRAL_BUMPS[:1])
        assert pair.freq_cut == cut and len(pair.a) == len(pair.b) == cut + 1, delta


def test_synthetic_pair_rejects_small_freq_cut():
    # at delta = 3.0 the cut is 66 and the bumps are too narrow for it
    for bump in SPECTRAL_BUMPS:
        with pytest.raises(ValueError, match="tail mass"):
            make_synthetic_pair(3.0, [bump])


def test_synthetic_pair_smallest_freq_cut_reaches_the_tail_check():
    # near pi the cut is at its smallest (66 terms at delta = 3.0, 63 below
    # pi); the fault lies in the input, so the error is a ValueError, and it
    # names delta and the limit, not the cut, which is no setting
    with pytest.raises(ValueError, match=r"^delta=3\.0 is too wide for the spectral suite: "
                       r"the pair's Fourier tail mass 1\.883e-03 exceeds the suite's limit 5e-05$"):
        make_synthetic_pair(3.0, SPECTRAL_BUMPS[:1])


def test_spectral_family_reaches_delta_2_07(ef075):
    # the suite's outcome depends on delta alone: every pair of the family
    # passes the tail check and the 1e-5 residual on a 0.01 grid up to 2.07,
    # and from 2.08 on some pair's tail mass passes the limit
    for delta in np.round(np.arange(0.01, 2.075, 0.01), 2):
        for bump in SPECTRAL_BUMPS:
            pair = make_synthetic_pair(float(delta), [bump])
            assert verify_spectral_identity(ef075, pair) <= 1e-5, (delta, bump)
    for delta in np.round(np.arange(2.08, 3.14, 0.01), 2):
        with pytest.raises(ValueError, match="tail mass"):
            for bump in SPECTRAL_BUMPS:
                make_synthetic_pair(float(delta), [bump])


def test_spectral_residual_is_linear_in_the_bumps(ef075):
    # the sum rule's residual is linear in the pair's difference G, so a
    # random mix of bumps is bounded by its single bumps' residuals, each
    # weighted by its |amplitude|: the fixed family misses nothing a mix finds
    def absolute_residual(pair):
        fv = eval_f_many(ef075, pair.delta * np.arange(pair.freq_cut + 1))
        return abs(np.sum((pair.a + pair.b) * fv) - np.sum(pair.a))

    for delta in (0.3, 1.0):
        for seed in range(10):
            bumps = oracles.random_bumps(seed)
            mixed = absolute_residual(make_synthetic_pair(delta, bumps))
            singles = sum(abs(amp) * absolute_residual(make_synthetic_pair(delta, [(1.0, *rest)]))
                          for amp, *rest in bumps)
            assert mixed <= singles + 1e-15, (delta, seed)


def test_spectral_identity_residual(ef075):
    for bump in SPECTRAL_BUMPS:
        pair = make_synthetic_pair(0.3, [bump])
        assert verify_spectral_identity(ef075, pair) <= 1e-5
        assert np.sum(np.abs(pair.a)) + np.sum(np.abs(pair.b)) > 0


def test_spectral_identity_rejects_out_of_range(ef075):
    pair = make_synthetic_pair(1.6, SPECTRAL_BUMPS[:1])
    big = pair.__class__(**{**pair.__dict__, "delta": 3.0})
    with pytest.raises(ValueError):
        verify_spectral_identity(ef075, big)
