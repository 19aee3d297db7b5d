import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entrocut import eta, parse_spectrum_file
from entrocut.bounds import _cutoff_caps, _tau_entropies
from entrocut.energy import window
from entrocut.spectra import model_dims

_P500 = model_dims("u1", 500).dims
_DP500 = oracles.partition_counts_table(500)
# the p-sum sum_k sigma_k(T)^p of a matrix, through numpy's SVD
_PSUM = oracles.schatten_sum_direct


# eta(t) <= c_p t^p on t >= 0 for 0 < p < 1, with the sharp constant
# c_p = 1/((1-p) e) and equality exactly at t_0 = e^{-1/(1-p)}

@given(st.floats(0.0, 50.0), st.floats(0.02, 0.98))
def test_eta_dominated_by_power_bound(t, p):
    c_p = 1.0 / ((1.0 - p) * math.e)
    assert eta(t) <= c_p * t**p + 1e-12


@given(st.floats(0.02, 0.98))
def test_eta_bound_touches_at_t0(p):
    c_p, t0 = 1.0 / ((1.0 - p) * math.e), math.exp(-1.0 / (1.0 - p))
    assert abs(eta(t0) - c_p * t0**p) <= 1e-12


@given(st.integers(0, 500))
def test_partition_recurrence_agrees_with_coin_change(n):
    assert _P500[n] == _DP500[n]


def _draw(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


_P_GRID = st.sampled_from([0.3, 0.5, 0.7, 1.0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), _P_GRID)
@settings(max_examples=40)
def test_schatten_sum_homogeneity(seed, rows, cols, p):
    rng = np.random.default_rng(seed)
    t = _draw(rng, rows, cols)
    lam = complex(rng.normal(), rng.normal())
    ref = abs(lam) ** p * _PSUM(t, p)
    assert abs(_PSUM(lam * t, p) - ref) <= 1e-12 * ref


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), _P_GRID)
@settings(max_examples=40)
def test_schatten_p_triangle(seed, dim, p):
    rng = np.random.default_rng(seed)
    a = _draw(rng, dim, dim)
    b = _draw(rng, dim, dim)
    assert _PSUM(a + b, p) <= _PSUM(a, p) + _PSUM(b, p) + 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
       _P_GRID)
@settings(max_examples=40)
def test_schatten_sum_ideal_inequality(seed, rows, inner, cols, p):
    # sum sigma(R S T)^p <= ||R||^p sum sigma(S)^p ||T||^p
    rng = np.random.default_rng(seed)
    r, s, t = _draw(rng, rows, inner), _draw(rng, inner, inner), _draw(rng, inner, cols)
    rhs = np.linalg.norm(r, 2) ** p * _PSUM(s, p) * np.linalg.norm(t, 2) ** p
    assert _PSUM(r @ s @ t, p) <= rhs + 1e-9


@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.integers(2, 8),
       _P_GRID)
@settings(max_examples=40)
def test_schatten_sum_family_inequality(seed, rows, cols, n_fam, p):
    # (sum sigma(sum_k T_k)^p)^{1/p} <= N^{(1-p)/p} sum_k (sum sigma(T_k)^p)^{1/p}
    rng = np.random.default_rng(seed)
    family = [_draw(rng, rows, cols) for _ in range(n_fam)]
    rhs = n_fam ** ((1.0 - p) / p) * sum(_PSUM(t, p) ** (1.0 / p) for t in family)
    assert _PSUM(sum(family), p) ** (1.0 / p) <= rhs + 1e-9


@given(st.lists(st.integers(0, 99), min_size=0, max_size=12))
def test_spectrum_file_round_trip(tmp_path_factory, extra):
    dims = [1] + extra
    path = tmp_path_factory.mktemp("spectra") / "s.txt"
    path.write_text("".join(f"{n} {d}\n" for n, d in enumerate(dims)))
    assert parse_spectrum_file(str(path)) == dims


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_polarization_identity_random_observables(seed):
    # the vectors v_{k,n} = (e0 + i^k e_n)/sqrt(2) are unit vectors, and their
    # four phases recover the vacuum row and column of x (D = 7, u1 at E = 3)
    rng = np.random.default_rng(seed)
    d = 7
    x = _draw(rng, d, d)
    for n in range(1, d):
        for k in range(4):
            assert abs(np.linalg.norm(oracles.phase_vector(d, k, n)) - 1.0) <= 1e-15
        r1, r2 = oracles.polarization_residuals(x, n)
        assert max(r1, r2) <= 1e-10


# signed window values f(delta N) for N >= 1, exact zeros and subnormals among them
_WINDOW_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]),
                          st.floats(-0.5, 0.5))


@st.composite
def _levels_and_window(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    values = draw(st.lists(_WINDOW_VALUE, min_size=len(dims), max_size=len(dims)))
    return (1, *dims), np.array([0.5, *values])


@given(_levels_and_window(), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_theta_sign_split_is_the_vacuum_pairing(levels, seed):
    dims, f = levels
    d = sum(dims)
    rng = np.random.default_rng(seed)
    x, y = _draw(rng, d, d), _draw(rng, d, d)
    plus, minus = oracles.theta_parts(dims, f, x, y)
    direct = oracles.theta_direct(dims, f, x, y)
    assert abs((plus - minus) - direct) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
    # theta_plus(1 (x) 1) = 1 + 2 sum_N d_N |f(delta N)|, which oracle_vs_bounds
    # reports as c_deltaE; theta_minus(1 (x) 1) is the same sum without the vacuum
    one = np.eye(d, dtype=complex)
    plus, minus = oracles.theta_parts(dims, f, one, one)
    weight = 2.0 * math.fsum(dn * abs(fn) for dn, fn in zip(dims[1:], f[1:]))
    assert abs(plus - (1.0 + weight)) <= 1e-12 * (1.0 + weight)
    assert abs(minus - weight) <= 1e-12 * (1.0 + weight)


# |f(delta N)| as the oracle's formula takes it: exact zeros, the least
# subnormal, and weights past the window's 1/2, which the inequality does not need
_ABS_WEIGHT = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(1e-12, 10.0))


@st.composite
def _levels_and_weights(draw):
    dims = draw(st.lists(st.integers(1, 49), min_size=1, max_size=19))
    absf = draw(st.lists(_ABS_WEIGHT, min_size=len(dims), max_size=len(dims)))
    return dims, absf


def _tau_entropies_mp(dims, absf):
    """`_tau_entropies` at 50 digits on the same float inputs."""
    def eta_mp(x):
        return -x * mpmath.log(x) if x > 0 else mpmath.mpf(0)

    with mpmath.workdps(50):
        d = [mpmath.mpf(n) for n in dims]
        a = [mpmath.mpf(x) for x in absf]
        s = mpmath.fsum(dn * an for dn, an in zip(d, a))
        c = 1 + 2 * s
        exact = eta_mp((1 + s) / c) + mpmath.fsum(dn * eta_mp(an / c) for dn, an in zip(d, a))
        bound = mpmath.log(c) + mpmath.fsum(4 * dn * eta_mp(an / 2) for dn, an in zip(d, a)) / c
    return c, exact, bound


@given(_levels_and_weights())
@settings(max_examples=300)
def test_ensemble_bound_caps_the_tau_entropy(ef075, levels):
    # S(sum_i p_i psi_i) <= H(p) for pure psi_i, whatever the weights: the
    # oracle's bound log c + S_{delta,E}/c is H(p) of the tau state's
    # pure-state weights, so it caps the exact entropy for every input
    dims, absf = levels
    got = _tau_entropies(np.array(dims, dtype=float), np.array(absf))
    want = _tau_entropies_mp(dims, absf)
    c, exact, bound = got
    assert bound - exact >= -1e-9
    assert want[2] >= want[1]
    for value, ref in zip(got, want):
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
    # with |f| <= 1/2, as the window has, c <= C_E and S_{delta,E} <= S_E, so
    # c exact <= c log c + S_{delta,E} <= C_E log C_E + S_E = HE_bound
    c, exact, _ = _tau_entropies(np.array(dims, dtype=float), np.minimum(absf, 0.5))
    c_e, s_e = _cutoff_caps(ef075, [1, *dims])
    assert c * exact <= c_e * math.log(c_e) + s_e


@given(st.floats(0.0, 200.0))
@settings(max_examples=40)
def test_window_even_and_bounded(ef075, t):
    v, v_neg = window(ef075, [t, -t])[0]
    assert v == v_neg
    assert abs(v) <= 0.5 + 1e-9


@given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
@settings(max_examples=40)
def test_entropy_cap_shape(u, v):
    # x log x + y log y <= (x+y) log(x+y) for positive x, y: merging weights
    # can only raise the concavity cap, which is what makes the ensemble
    # bound monotone under refinement
    lhs = u * math.log(u) + v * math.log(v)
    rhs = (u + v) * math.log(u + v)
    assert lhs <= rhs + 1e-12
