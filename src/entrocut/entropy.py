"""The entropy function eta(x) = -x log x, with eta(0) = 0.

A von Neumann entropy is the sum of eta over a spectrum, and the entropy
caps of `bounds` and the oracle of `pairing` sum it over window weights.
"""

from __future__ import annotations

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
