import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import oracles
from entrocut import (
    ConstructionError,
    build_energy_function,
    eval_f,
    eval_f_many,
    make_synthetic_pair,
    verify_spectral_identity,
)
from entrocut import energy
from entrocut.energy import _f_on_rule, _ij0_table, f_delta_batch, window


def test_ij0_table_matches_highprec_quadrature():
    sp = _ij0_table()
    # include the x ~ 25.5 region where scipy's Struve route loses accuracy
    pts = [0.3, 1.0, 7.7, 25.3, 25.5, 25.9, 26.3, 77.7, 123.4, 199.5]
    worst = max(abs(float(sp(x)) - oracles.ij0_highprec(x)) for x in pts)
    assert worst <= 5e-14


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_ij0_table_matches_scipy_hermite_bit_for_bit():
    table = _ij0_table()
    spline = oracles.ij0_scipy_spline(table)
    xs = table.xs
    top = xs[-1]
    pts = np.concatenate([
        [0.0, top],
        xs,                                         # every knot
        np.nextafter(xs[1:], -np.inf),              # one ulp below each knot
        np.nextafter(xs[:-1], np.inf),              # one ulp above each knot
        0.5 * (xs[1:] + xs[:-1]),                   # midpoints
        np.random.default_rng(3).uniform(0.0, top, 200_000),
    ])
    assert _bits(table(pts)) == _bits(spline(pts))
    assert float(table(top)) == float(spline(top))


@pytest.fixture(scope="module")
def window_by_alpha():
    return {alpha: build_energy_function(alpha) for alpha in (0.3, 0.55, 0.75, 0.95)}


@pytest.mark.parametrize("t_max", [200.0, 50.0])
@pytest.mark.parametrize("alpha", [0.3, 0.55, 0.75, 0.95])
def test_window_matches_full_width_scipy_route(window_by_alpha, alpha, t_max):
    # alpha = 0.3 leaves almost every coefficient nonzero, 0.95 zeroes most;
    # t_max = T0 samples the whole quadrature range, 50 its start more densely
    ef = window_by_alpha[alpha]
    assert np.count_nonzero(ef.coeffs == 0.0) > 0
    ts = np.concatenate([np.linspace(0.0, t_max, 301),
                         np.random.default_rng(5).uniform(0.0, t_max, 100)])
    spline = oracles.ij0_scipy_spline(_ij0_table())
    want = oracles.f_on_rule_full_width(ts, ef.nodes, ef.coeffs, spline)
    assert _bits(_f_on_rule(ts, ef.nodes, ef.coeffs)) == _bits(want)


@pytest.mark.parametrize("alpha", [0.3, 0.55, 0.75, 0.95])
def test_interpolant_matches_the_quadrature(window_by_alpha, alpha):
    ef = window_by_alpha[alpha]
    ts = np.linspace(0.0, energy.T0, 20_001)
    err = np.abs(eval_f_many(ef, ts) - _f_on_rule(ts, ef.nodes, ef.coeffs))
    assert float(np.max(err)) <= 1e-14


def test_interpolant_half_at_zero_and_even_at_panel_edges(window_by_alpha):
    edges = energy.T0 / energy._PANEL_COUNT * np.arange(energy._PANEL_COUNT + 1)
    for ef in window_by_alpha.values():
        assert eval_f(ef, 0.0) == 0.5 and eval_f(ef, -0.0) == 0.5
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


def test_cli_runs_leave_scipy_out():
    # the default runs read the shipped IJ0 table, a numpy logsumexp and the
    # closed-form bound on the trace constants' tail: nothing imports scipy
    src = os.path.dirname(os.path.dirname(energy.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "clean"


def test_shipped_ij0_table_passes_the_struve_certification():
    err_out, err_in = oracles.certify_ij0(_ij0_table())
    assert err_out <= oracles.IJ0_TOL and err_in <= oracles.IJ0_BLIP_TOL


def test_shipped_ij0_table_matches_a_fresh_build():
    shipped, built = _ij0_table(), oracles.build_ij0()
    assert _bits(shipped.xs) == _bits(built.xs)
    # equal bit for bit where libm rounds J0 as the machine that wrote the file
    assert np.max(np.abs(shipped.ys - built.ys)) <= 1e-15
    assert np.max(np.abs(shipped.dydx - built.dydx)) <= 1e-15


def test_corrupted_ij0_table_is_refused(tmp_path):
    raw = bytearray(energy._SHIPPED_PATH.read_bytes())
    raw[-8] ^= 1                                # one bit of the last dydx value
    bad = tmp_path / "ij0_table.npy"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ConstructionError, match="sha256"):
        energy._load_ij0(bad)
    with pytest.raises(ConstructionError, match="cannot read"):
        energy._load_ij0(tmp_path / "gone.npy")
    assert energy._load_ij0(energy._SHIPPED_PATH).shape == (2, 100_001)


def test_struve_route_matches_highprec_outside_blip():
    for x in (0.5, 5.0, 18.0, 40.0, 150.0):
        assert abs(float(oracles.integral_j0(x)) - oracles.ij0_highprec(x)) <= 5e-13


def test_window_value_half_at_zero(ef075):
    assert abs(eval_f(ef075, 0.0) - 0.5) <= 1e-15


def test_window_is_even(ef075):
    for t in (0.3, 2.0, 57.0):
        assert eval_f(ef075, t) == eval_f(ef075, -t)


def test_window_bounded_by_half(ef075):
    ts = np.linspace(0.0, 200.0, 2001)
    vals = eval_f_many(ef075, ts)
    assert float(np.max(np.abs(vals))) <= 0.5 + ef075.quad.abs_tol


def test_window_matches_definition_route(ef075):
    # the reference route integrates the defining double integral directly
    for t in (0.6, 3.7, 12.3):
        assert abs(eval_f(ef075, t) - oracles.eval_f_reference(ef075, t)) <= 5e-7


def test_window_matches_highprec_quadrature(ef075):
    for t in (0.0, 0.8, 3.0):
        assert abs(eval_f(ef075, t) - oracles.window_highprec(0.75, t)) <= 1e-9


def test_certified_suprema(ef075):
    assert abs(ef075.sup_f - 0.5) <= 1e-9
    # eta increases up to 1/e and |f|/2 <= 1/4 < 1/e, so the sup sits at t = 0
    assert abs(ef075.sup_eta - (-0.25 * math.log(0.25))) <= 1e-9
    assert math.isfinite(oracles.weighted_sup(ef075))


def test_envelope_dominates_grid(ef075):
    ts = np.linspace(0.0, 200.0, 777)
    vals = np.abs(eval_f_many(ef075, ts)) + ef075.quad.abs_tol
    env = ef075.envelope(ts)
    assert np.all(vals <= env * (1.0 + 1e-12))


def test_eval_beyond_range_flags_envelope(ef075):
    # the regime is decided on |t|, so -250 is envelope too
    vals, up, flags = window(ef075, [250.0, -250.0, 150.0])
    assert flags.tolist() == [True, True, False]
    assert vals[0] == vals[1] == ef075.envelope(np.array([250.0]))[0]
    assert up[0] == vals[0] and up[1] == vals[1]
    assert up[2] == min(abs(vals[2]) + ef075.quad.abs_tol, ef075.envelope(np.array([150.0]))[0])
    assert eval_f(ef075, 250.0) == vals[0]


def test_eval_f_many_rejects_out_of_range(ef075):
    with pytest.raises(ValueError):
        eval_f_many(ef075, np.array([0.0, 201.0]))


def test_delta_scaling_and_memo(ef075):
    (v1,), _, (fl1,) = f_delta_batch(ef075, 0.5, 7, 7)
    (v2,), _, _ = f_delta_batch(ef075, 0.5, 7, 7)
    assert v1 == v2 and not fl1
    assert v1 == eval_f(ef075, 0.5 * 7.0)
    vals, up, flags = f_delta_batch(ef075, 0.5, 0, 16)
    assert vals[7] == v1 and not flags.any()
    assert vals[0] == eval_f(ef075, 0.0)
    assert np.array_equal(up, np.minimum(np.abs(vals) + ef075.quad.abs_tol,
                                         ef075.envelope(0.5 * np.arange(17))))
    assert len(ef075.cache[0.5]) >= 17


@pytest.fixture(scope="module", params=[0.55, 0.75, 0.85])
def ef_by_alpha(request):
    return build_energy_function(request.param)


@pytest.mark.parametrize("n_points", range(1, 10))
def test_grid_values_match_pointwise_bit_for_bit(ef075, n_points):
    # a value must not depend on how many points share the call or where it sits
    ts = np.linspace(0.0, 200.0, n_points)
    grid = eval_f_many(ef075, ts)
    assert [float(v) for v in grid] == [eval_f(ef075, t) for t in ts]


def test_long_grid_matches_pointwise_bit_for_bit(ef075):
    # 25 points per panel of the interpolant, so the comparison crosses every panel edge
    ts = np.linspace(0.0, 200.0, 2500)
    grid = eval_f_many(ef075, ts)
    assert [float(v) for v in grid] == [eval_f(ef075, t) for t in ts]


def test_window_half_at_zero_exactly(ef_by_alpha):
    assert float(eval_f_many(ef_by_alpha, np.array([0.0]))[0]) == 0.5
    for delta, n_hi in ((0.5, 3), (0.1, 40), (1.0, 250)):
        assert f_delta_batch(ef_by_alpha, delta, 0, n_hi)[0][0] == 0.5


def test_certified_sup_is_half_plus_tolerance(ef_by_alpha):
    assert ef_by_alpha.sup_f == 0.5 + ef_by_alpha.quad.abs_tol


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
    p1 = make_synthetic_pair(0.3, seed=5)
    p2 = make_synthetic_pair(0.3, seed=5)
    assert np.array_equal(p1.a, p2.a) and np.array_equal(p1.b, p2.b)
    # the boundary gap tracks the discarded Fourier mass at freq_cut
    assert oracles.boundary_gap(p1) <= 1e-5
    assert p1.tail_mass <= 1e-4


def test_synthetic_pair_rejects_small_freq_cut():
    with pytest.raises(ValueError, match="tail mass"):
        make_synthetic_pair(0.05, freq_cut=12, seed=0)


@pytest.mark.parametrize("freq_cut", [1, 8, 9, 10])
def test_synthetic_pair_refuses_freq_cut_below_its_tail_check(freq_cut):
    # the tail check reads the 12 highest kept coefficients; fewer kept left
    # numpy's "zero-size array" error in its place
    with pytest.raises(ValueError, match=f"freq_cut must be >= 11, got {freq_cut}"):
        make_synthetic_pair(0.5, freq_cut=freq_cut, seed=0)


def test_synthetic_pair_smallest_freq_cut_reaches_the_tail_check():
    # the fault lies in the input, so the error is a ValueError, as below 11
    with pytest.raises(ValueError, match="freq_cut=11 too small for delta=0.5: "
                                         r"Fourier tail mass 2\.258e-01 exceeds 1e-04"):
        make_synthetic_pair(0.5, freq_cut=11, seed=0)


def test_spectral_identity_residual(ef075):
    res = verify_spectral_identity(ef075, make_synthetic_pair(0.3, seed=0))
    assert res.relative <= 1e-5
    assert res.scale > 0


def test_spectral_identity_rejects_out_of_range(ef075):
    pair = make_synthetic_pair(2.0, seed=0)
    big = pair.__class__(**{**pair.__dict__, "delta": 3.0})
    with pytest.raises(ValueError):
        verify_spectral_identity(ef075, big)
