import numpy as np
import pytest

import oracles
from entrocut import (
    OracleLimitError,
    build_truncated_space,
    cutoff_bound,
    model_dims,
    oracle_vs_bounds,
)
from entrocut.energy import f_delta_batch, window


@pytest.fixture(scope="module")
def space4(u1_small):
    return build_truncated_space(u1_small, 4)


def test_space_layout(u1_small):
    sp = build_truncated_space(u1_small, 4)
    assert sp.dim == sum(u1_small.dims[:5]) == 12
    assert sp.dims_by_level == (1, 1, 2, 3, 5)


def test_space_dim_limit(u1_small):
    with pytest.raises(OracleLimitError):
        build_truncated_space(u1_small, 30, dim_limit=400)


def test_polarization_identities(space4):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(space4.dim, space4.dim)) + 1j * rng.normal(size=(space4.dim, space4.dim))
    worst = 0.0
    for n in range(1, space4.dim):
        r1, r2 = oracles.polarization_residuals(x, n)
        worst = max(worst, r1, r2)
    assert worst <= 1e-12


def test_theta_split_matches_direct(space4, ef075):
    # f(delta l_n) > 0 throughout at delta = 0.5, and of both signs at 1.0
    rng = np.random.default_rng(0)
    d = space4.dim
    for delta in (0.5, 1.0):
        window_by_level = f_delta_batch(ef075, delta, 0, 4)[0]
        for _ in range(20):
            x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            plus, minus = oracles.theta_parts(space4.dims_by_level, window_by_level, x, y)
            direct = oracles.theta_direct(space4.dims_by_level, window_by_level, x, y)
            assert abs((plus - minus) - direct) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)


def test_theta_on_identity_recovers_norm(space4, ef075):
    window_by_level = f_delta_batch(ef075, 0.7, 0, 4)[0]
    one = np.eye(space4.dim, dtype=complex)
    plus, _ = oracles.theta_parts(space4.dims_by_level, window_by_level, one, one)
    # theta_plus(1 (x) 1) = vacuum + 4 |f|/2 per excited slot = c_{delta,E}
    oc = oracle_vs_bounds(space4, ef075, 0.7)
    assert abs(plus.real - oc.c_deltaE) <= 1e-12
    assert abs(plus.imag) <= 1e-15


def test_tau_total_is_weighted_multiplicity_sum(space4, ef075, u1_small):
    delta = 0.9
    oc = oracle_vs_bounds(space4, ef075, delta)
    expect = 1.0
    for n in range(1, 5):
        expect += 2.0 * u1_small.dims[n] * abs(window(ef075, [delta * n])[0][0])
    # summation order differs (pairwise vs sequential), so allow an ulp
    assert abs(oc.c_deltaE - expect) <= 1e-13
    assert (oc.model_label, oc.delta, oc.energy_cut, oc.dim) == ("u1", 0.9, 4, 12)


def test_quadrature_range_guard(space4, ef075):
    with pytest.raises(ValueError):
        oracle_vs_bounds(space4, ef075, 60.0)   # delta * E = 240 > 200


def test_oracle_comparison_vacuum_degenerate(u1_small, ef075):
    sp = build_truncated_space(u1_small, 0)
    oc = oracle_vs_bounds(sp, ef075, 0.5)
    assert oc.exact_entropy == 0.0
    assert oc.entropy_bound == 0.0
    assert oc.c_deltaE == 1.0
    assert oc.ok


def test_oracle_comparison_pinned_values(u1_small, ef075):
    sp = build_truncated_space(u1_small, 2)
    oc = oracle_vs_bounds(sp, ef075, 0.1)
    assert abs(oc.exact_entropy - 1.059874) <= 1e-5
    assert abs(oc.entropy_bound - 2.401960) <= 1e-5
    assert oc.entropy_bound - oc.exact_entropy > 0 and oc.ok


def _dense_entropy(space, ef, delta):
    absf = np.abs(f_delta_batch(ef, delta, 0, space.energy_cut)[0])
    return oracles.entropy_eigvalsh(oracles.tau_density(space.dims_by_level, absf))


def test_oracle_entropy_against_lapack(u1_small, ef075):
    sp = build_truncated_space(u1_small, 6)
    oc = oracle_vs_bounds(sp, ef075, 1.0)
    assert abs(oc.exact_entropy - _dense_entropy(sp, ef075, 1.0)) <= 1e-13


@pytest.mark.parametrize("kind,power", [("u1", 1), ("virasoro", 1), ("u1", 2)])
def test_closed_form_oracle_matches_dense_route(ef075, kind, power):
    # every E whose truncated space fits the 400 oracle limit; delta = 0.5
    # and 2.0 reach levels where f(delta N) < 0
    model = model_dims(kind, 12, power=power)
    signs = set()
    for delta in (0.1, 0.5, 2.0):
        for energy_cut in range(400):
            try:
                sp = build_truncated_space(model, energy_cut, dim_limit=400)
            except OracleLimitError:
                break
            oc = oracle_vs_bounds(sp, ef075, delta)
            dense = _dense_entropy(sp, ef075, delta)
            assert abs(oc.exact_entropy - dense) <= 1e-13, (delta, energy_cut)
            assert oc.ok and oc.entropy_bound - dense >= -1e-9
            cap = cutoff_bound(model, ef075, delta, energy_cut)
            assert oc.entropy_bound == pytest.approx(cap.cutoff_bound, rel=1e-12, abs=0.0)
            assert oc.c_deltaE == pytest.approx(cap.c_deltaE, rel=1e-14, abs=0.0)
        signs.update(np.sign(f_delta_batch(ef075, delta, 0, energy_cut)[0]))
    assert -1.0 in signs


def test_oracle_grid_slack_positive(u1_small, ef075):
    for E in (0, 2, 4, 6):
        sp = build_truncated_space(u1_small, E)
        for delta in (0.1, 0.5, 1.0):
            oc = oracle_vs_bounds(sp, ef075, delta)
            assert oc.entropy_bound - oc.exact_entropy >= -1e-9
