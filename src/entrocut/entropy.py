"""The entropy function eta and its sharp power bound.

eta(x) = -x log x with eta(0) = 0; a von Neumann entropy is the sum of eta
over a spectrum.  For 0 < p < 1 the sharp comparison eta(t) <= c_p t^p holds
on t >= 0 with c_p = 1/((1-p) e), equality exactly at t_0 = e^{-1/(1-p)}.
"""

from __future__ import annotations

import math

import numpy as np


def eta(x: np.ndarray | float) -> np.ndarray | float:
    """-x log x elementwise, with eta(0) = 0; requires x >= 0 (NaN raises)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError("eta needs nonnegative arguments, not NaN")
    pos = arr > 0.0
    if pos.all():
        out = -arr * np.log(arr)
    else:
        out = np.zeros_like(arr)
        out[pos] = -arr[pos] * np.log(arr[pos])
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def eta_bound_constant(p: float) -> tuple[float, float]:
    """Sharp constant for eta(t) <= c_p t^p on t >= 0, 0 < p < 1.

    Returns (c_p, t_0) with c_p = 1/((1-p) e) and the equality point
    t_0 = e^{-1/(1-p)}.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    c_p = 1.0 / ((1.0 - p) * math.e)
    t0 = math.exp(-1.0 / (1.0 - p))
    return c_p, t0
