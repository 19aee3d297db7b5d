import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from entrocut import (
    eta,
    eta_bound_constant,
    eval_f,
    parse_spectrum_file,
    partition_numbers,
    polarization_check,
    schatten_p,
)
from entrocut.pairing import build_truncated_space
from entrocut.spectra import model_dims

_P500 = partition_numbers(500)
_DP500 = oracles.partition_counts_table(500)


@given(st.floats(0.0, 50.0), st.floats(0.02, 0.98))
def test_eta_dominated_by_power_bound(t, p):
    c_p, _ = eta_bound_constant(p)
    assert eta(t) <= c_p * t**p + 1e-12


@given(st.floats(0.02, 0.98))
def test_eta_bound_touches_at_t0(p):
    c_p, t0 = eta_bound_constant(p)
    assert abs(eta(t0) - c_p * t0**p) <= 1e-12


@given(st.integers(0, 500))
def test_partition_recurrence_agrees_with_coin_change(n):
    assert _P500[n] == _DP500[n]


@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from([0.3, 0.5, 0.7, 1.0]))
@settings(max_examples=40)
def test_schatten_p_triangle(seed, dim, p):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert schatten_p(a + b, p) <= schatten_p(a, p) + schatten_p(b, p) + 1e-9


@given(st.lists(st.integers(0, 99), min_size=0, max_size=12))
def test_spectrum_file_round_trip(tmp_path_factory, extra):
    dims = [1] + extra
    path = tmp_path_factory.mktemp("spectra") / "s.txt"
    path.write_text("".join(f"{n} {d}\n" for n, d in enumerate(dims)))
    assert parse_spectrum_file(str(path)) == dims


_SPACE3 = build_truncated_space(model_dims("u1", 3), 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_polarization_identity_random_observables(seed):
    rng = np.random.default_rng(seed)
    d = _SPACE3.dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for n in range(1, d):
        r1, r2 = polarization_check(_SPACE3, x, n)
        assert max(r1, r2) <= 1e-10


@given(st.floats(0.0, 200.0))
@settings(max_examples=40)
def test_window_even_and_bounded(ef075, t):
    v = eval_f(ef075, t)
    assert v == eval_f(ef075, -t)
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
