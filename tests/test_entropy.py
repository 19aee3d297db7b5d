import math

import numpy as np
import pytest

from entrocut import eta


def test_eta_values():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0
    assert abs(eta(1.0 / math.e) - 1.0 / math.e) <= 1e-15
    np.testing.assert_allclose(eta(np.array([0.0, 0.5])), [0.0, 0.5 * math.log(2)])


def test_eta_rejects_negative():
    with pytest.raises(ValueError):
        eta(-0.1)


@pytest.mark.parametrize("x", [float("nan"), np.array([0.1, np.nan]), np.array([np.nan, 0.0])])
def test_eta_rejects_nan(x):
    # NaN is not a nonnegative argument; it once came back as eta = 0
    with pytest.raises(ValueError):
        eta(x)


def test_eta_takes_the_same_bits_with_and_without_zeros():
    x = np.array([1e-300, 0.1, 0.25, 1.0 / math.e, 0.5, 1.0])
    with_zero = eta(np.concatenate(([0.0], x)))
    assert with_zero[0] == 0.0
    assert [v.hex() for v in with_zero[1:].tolist()] == [v.hex() for v in eta(x).tolist()]


def test_eta_bound_constant_closed_form():
    # eta(t) <= c_p t^p with c_p = 1/((1-p) e), equal at t_0 = e^{-1/(1-p)}:
    # at p = 1/2, eta(e^-2) = 2 e^-2 = (2/e) (e^-2)^{1/2}
    t0 = math.exp(-2.0)
    assert abs(eta(t0) - 2.0 * t0) <= 1e-15
    assert abs(eta(t0) - (2.0 / math.e) * t0 ** 0.5) <= 1e-15
