"""The exact finite-dimensional entropy oracle on a truncated space.

A truncated space holds one basis vector per spectrum slot with integer
label l_n <= E, the vacuum at index 0.  For operators x, y on that space
the smeared pairing

    theta_delta(x (x) y) = <e0, x f_delta(L) y e0> + <e0, y f_delta(L) x e0>,
    L = diag(l_n),  f_delta(t) = f(delta t),

splits into a difference theta_plus - theta_minus of sums of products of
pure states

    phi_{k,n}(x) = <v_{k,n}, x v_{k,n}>,   v_{k,n} = (e0 + i^k e_n)/sqrt(2),

with weights |f_delta(l_n)|/2, where the sign of f_delta(l_n) decides whether
the partner index is k or k+2 (mod 4).  The positive part evaluated at
x (x) 1 is the tau state.  Its four phase vectors per slot sum to
2(|e0><e0| + |e_n><e_n|), so the normalized state is diagonal in the level
basis and its exact entropy has a closed form; that entropy is the oracle
every cutoff bound is tested against.  The decomposition itself is built
densely, from the vectors v_{k,n}, only in the tests (`tests/oracles.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import eta
from .energy import T0, EnergyFunction, f_delta_batch
from .errors import OracleLimitError
from .spectra import SpectrumModel

# the oracle passes when its entropy bound falls short of the exact value by at most this
_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TruncatedSpace:
    """The spectrum slots with eigenvalue <= E, given by their level
    dimensions d_0 = 1 (the unique vacuum), d_1, ..., d_E.  The oracle
    reads only these, so it runs on spaces far too large to list.
    """

    model_label: str
    energy_cut: int
    dims_by_level: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(self.dims_by_level)


def build_truncated_space(model: SpectrumModel, energy_cut: int,
                          dim_limit: int | None = None) -> TruncatedSpace:
    """All spectrum slots with eigenvalue <= energy_cut.

    The oracle reads only level dimensions, so by default the space has no
    dimension limit.  Raises OracleLimitError when the total dimension
    exceeds a given dim_limit, a cap for callers that go on to build dense
    operators on the space.
    """
    if energy_cut < 0:
        raise ValueError("energy_cut must be >= 0")
    space = TruncatedSpace(model.label, energy_cut, tuple(model.dims_upto(energy_cut)))
    if dim_limit is not None and space.dim > dim_limit:
        raise OracleLimitError(
            f"truncated dimension {space.dim} exceeds the oracle limit {dim_limit}"
        )
    return space


def _require_quadrature_range(delta: float, energy_cut: int) -> None:
    if delta * energy_cut > T0:
        raise ValueError(
            f"delta*E = {delta * energy_cut:g} exceeds the quadrature range {T0:g}; "
            "signed window values are only certified there"
        )


@dataclass(frozen=True)
class OracleComparison:
    """Exact entropy of the normalized tau state vs its ensemble bound."""

    model_label: str
    delta: float
    energy_cut: int
    dim: int
    c_deltaE: float
    exact_entropy: float
    entropy_bound: float         # log c + S_{delta,E}/c via the ensemble inequality
    ok: bool


def _tau_entropies(dims: np.ndarray, absf: np.ndarray) -> tuple[float, float, float]:
    """(c, exact, bound) of the tau state with d_N = dims and |f(delta N)| = absf
    on the excited levels N = 1, 2, ...

    tau_{delta,E} = theta_plus(. (x) 1) puts weight 1 on the vacuum and
    |f(delta l_n)|/2 on each of the four phase vectors of every excited slot.
    With S = sum_{1<=N<=E} d_N |f(delta N)| its norm is c = 1 + 2S, and the
    normalized state is diagonal: (1 + S)/c on the vacuum and |f(delta N)|/c
    on each of the d_N slots of level N.  So

        exact = eta((1 + S)/c) + sum_N d_N eta(|f(delta N)|/c),
        bound = log c + S_{delta,E}/c,  S_{delta,E} = sum_N 4 d_N eta(|f(delta N)|/2),

    the bound being the Shannon entropy of the pure-state weights, which
    caps the entropy of their mixture whatever the weights are.  With no
    excited level (E = 0) the state is the pure vacuum: entropy 0, bound 0.
    """
    s = float(np.sum(dims * absf))
    c = 1.0 + 2.0 * s
    exact = eta((1.0 + s) / c) + float(np.sum(dims * eta(absf / c)))
    bound = math.log(c) + float(np.sum(4.0 * dims * eta(absf / 2.0))) / c
    return c, exact, bound


def oracle_vs_bounds(
    space: TruncatedSpace,
    ef: EnergyFunction,
    delta: float,
) -> OracleComparison:
    """Exact entropy of the normalized tau state compared with its ensemble
    bound (`_tau_entropies`), on the window values at levels 1..E."""
    _require_quadrature_range(delta, space.energy_cut)
    dims = np.asarray(space.dims_by_level[1:], dtype=float)
    absf = np.abs(f_delta_batch(ef, delta, 1, space.energy_cut)[0])
    c, exact, bound = _tau_entropies(dims, absf)
    return OracleComparison(
        model_label=space.model_label,
        delta=delta,
        energy_cut=space.energy_cut,
        dim=space.dim,
        c_deltaE=c,
        exact_entropy=exact,
        entropy_bound=bound,
        ok=bound - exact >= -_SLACK_TOL,
    )
