import math

import numpy as np
import pytest

from entrocut import eta, eta_bound_constant


def test_eta_values():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0
    assert abs(eta(1.0 / math.e) - 1.0 / math.e) <= 1e-15
    np.testing.assert_allclose(eta(np.array([0.0, 0.5])), [0.0, 0.5 * math.log(2)])


def test_eta_rejects_negative():
    with pytest.raises(ValueError):
        eta(-0.1)


def test_eta_bound_constant_closed_form():
    c, t0 = eta_bound_constant(0.5)
    assert abs(c - 2.0 / math.e) <= 1e-15
    assert abs(t0 - math.exp(-2.0)) <= 1e-15
    with pytest.raises(ValueError):
        eta_bound_constant(1.0)
