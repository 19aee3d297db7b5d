"""Vacuum pairing decomposition and the exact finite-dimensional oracle.

Work happens on a truncated space: one basis vector per spectrum slot with
integer label l_n <= E, the vacuum at index 0.  For operators x, y on that
space the smeared pairing

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
every cutoff bound is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy import T0, EnergyFunction, f_delta_batch
from .entropy import eta
from .errors import OracleLimitError
from .spectra import SpectrumModel

# weights below this are dropped from decompositions (and counted)
WEIGHT_FLOOR = 1e-300
# the oracle passes when its entropy bound falls short of the exact value by at most this
_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TruncatedSpace:
    """The spectrum slots with eigenvalue <= E, given by their level
    dimensions d_0 = 1 (the unique vacuum), d_1, ..., d_E.

    The basis labels l_0 = 0 <= l_1 <= ... <= E, one per slot, are built on
    first use: the oracle reads only the level dimensions, so it runs on
    spaces far too large to list.
    """

    model_label: str
    energy_cut: int
    dims_by_level: tuple[int, ...]

    @property
    def dim(self) -> int:
        return sum(self.dims_by_level)

    @cached_property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.dims_by_level)), self.dims_by_level)


def build_truncated_space(model: SpectrumModel, energy_cut: int, dim_limit: int = 400) -> TruncatedSpace:
    """All spectrum slots with eigenvalue <= energy_cut.

    Raises OracleLimitError when the total dimension exceeds dim_limit
    (the identity checks work with dense operators on this space).
    """
    if energy_cut < 0:
        raise ValueError("energy_cut must be >= 0")
    space = TruncatedSpace(model.label, energy_cut, tuple(model.dims_upto(energy_cut)))
    if space.dim > dim_limit:
        raise OracleLimitError(
            f"truncated dimension {space.dim} exceeds the oracle limit {dim_limit}"
        )
    return space


_I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)   # i^k for k = 0..3


def pure_state_vector(space: TruncatedSpace, k: int, n: int) -> np.ndarray:
    """v_{k,n} = (e_0 + i^k e_n)/sqrt(2); unit vector mixing vacuum and slot n."""
    if k not in (0, 1, 2, 3):
        raise ValueError("k must be one of 0, 1, 2, 3")
    if not (1 <= n < space.dim):
        raise ValueError(f"n must name an excited slot in [1, {space.dim - 1}]")
    v = np.zeros(space.dim, dtype=complex)
    inv = 1.0 / np.sqrt(2.0)
    v[0] = inv
    v[n] += _I_POWERS[k] * inv
    return v


def polarization_check(space: TruncatedSpace, x: np.ndarray, n: int) -> tuple[float, float]:
    """Residuals of the two polarization identities at excited slot n:

        <e0, x e_n> = sum_k (i^{-k}/2) phi_{k,n}(x)
        <e_n, x e0> = sum_k (i^{+k}/2) phi_{k,n}(x)

    with phi_{k,n}(x) = <v_{k,n}, x v_{k,n}>.
    """
    x = np.asarray(x, dtype=complex)
    phis = []
    for k in range(4):
        v = pure_state_vector(space, k, n)
        phis.append(complex(v.conj() @ x @ v))
    rhs1 = sum(np.conj(_I_POWERS[k]) * phis[k] for k in range(4)) / 2.0
    rhs2 = sum(_I_POWERS[k] * phis[k] for k in range(4)) / 2.0
    return abs(complex(x[0, n]) - rhs1), abs(complex(x[n, 0]) - rhs2)


@dataclass
class ThetaDecomposition:
    """theta_delta = theta_plus - theta_minus as explicit pure-state sums.

    Each part stores parallel arrays: weight w_m, slot n_m, left phase k_m
    and right phase k'_m; theta_part(x (x) y) = sum_m w_m phi_{k_m,n_m}(x)
    phi_{k'_m,n_m}(y).  The vacuum term (weight 1, slot 0, where phi reads
    <e0, x e0>) lives in the plus part.  Weights below WEIGHT_FLOOR are
    dropped and counted.  window_by_level holds f(delta N) for N = 0..E.
    """

    delta: float
    space: TruncatedSpace
    plus_weights: np.ndarray
    plus_slots: np.ndarray
    plus_left_k: np.ndarray
    plus_right_k: np.ndarray
    minus_weights: np.ndarray
    minus_slots: np.ndarray
    minus_left_k: np.ndarray
    minus_right_k: np.ndarray
    dropped_count: int
    window_by_level: np.ndarray


def _require_quadrature_range(delta: float, energy_cut: int) -> None:
    if delta * energy_cut > T0:
        raise ValueError(
            f"delta*E = {delta * energy_cut:g} exceeds the quadrature range {T0:g}; "
            "signed window values are only certified there"
        )


def assemble_theta(space: TruncatedSpace, ef: EnergyFunction, delta: float) -> ThetaDecomposition:
    """Build the explicit positive/negative decomposition on the truncated space.

    Excited slot n with f = f(delta l_n) != 0 gives four terms to each part,
    k = 0..3, of weight |f|/2: phases (k, k) go to the part of f's sign and
    (k, k+2 mod 4) to the other.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    _require_quadrature_range(delta, space.energy_cut)
    window = f_delta_batch(ef, delta, 0, space.energy_cut)[0]
    fd = window[space.labels[1:]]
    w = np.abs(fd) / 2.0
    keep = w >= WEIGHT_FLOOR
    slots = np.repeat(np.flatnonzero(keep) + 1, 4)
    k = np.tile(np.arange(4), int(np.count_nonzero(keep)))
    flip = np.repeat(fd[keep] < 0.0, 4)
    k2 = (k + 2) % 4
    weights = np.repeat(w[keep], 4)
    return ThetaDecomposition(
        delta=delta,
        space=space,
        plus_weights=np.concatenate(([1.0], weights)),
        plus_slots=np.concatenate(([0], slots)),
        plus_left_k=np.concatenate(([0], k)),
        plus_right_k=np.concatenate(([0], np.where(flip, k2, k))),
        minus_weights=weights,
        minus_slots=slots,
        minus_left_k=k,
        minus_right_k=np.where(flip, k, k2),
        # 4 phases x both parts per slot under the floor; f = 0 gives no terms
        dropped_count=8 * int(np.count_nonzero(~keep & (fd != 0.0))),
        window_by_level=window,
    )


def phi_values(x: np.ndarray, slots: np.ndarray, k: np.ndarray) -> np.ndarray:
    """phi_{k,n}(x) = (x_00 + x_nn + i^k x_0n + i^-k x_n0)/2 for parallel
    arrays of slots n and phases k, and x_00 where n = 0 (the vacuum)."""
    ik = np.asarray(_I_POWERS)[k]
    x00 = x[0, 0]
    phi = 0.5 * (x00 + x[slots, slots] + ik * x[0, slots] + ik.conj() * x[slots, 0])
    return np.where(slots == 0, x00, phi)


def theta_eval(dec: ThetaDecomposition, x: np.ndarray, y: np.ndarray) -> tuple[complex, complex]:
    """(theta_plus, theta_minus) applied to x (x) y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    plus = np.sum(dec.plus_weights * phi_values(x, dec.plus_slots, dec.plus_left_k)
                  * phi_values(y, dec.plus_slots, dec.plus_right_k))
    minus = np.sum(dec.minus_weights * phi_values(x, dec.minus_slots, dec.minus_left_k)
                   * phi_values(y, dec.minus_slots, dec.minus_right_k))
    return complex(plus), complex(minus)


def theta_direct(dec: ThetaDecomposition, x: np.ndarray, y: np.ndarray) -> complex:
    """theta_delta(x (x) y) from the defining expression: the vacuum row and
    column sums sum_j x_0j f(delta l_j) y_j0 + sum_j y_0j f(delta l_j) x_j0."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    f = dec.window_by_level[dec.space.labels]
    return complex(np.sum(x[0] * f * y[:, 0]) + np.sum(y[0] * f * x[:, 0]))


def _frobenius(x: np.ndarray) -> float:
    # elementwise, so no BLAS kernel decides its bits
    return math.sqrt(float(np.sum(x.real ** 2 + x.imag ** 2)))


def theta_product_identity_check(
    space: TruncatedSpace,
    ef: EnergyFunction,
    delta: float,
    n_trials: int = 20,
    seed: int = 0,
) -> float:
    """Worst residual of (theta_plus - theta_minus)(x (x) y) against the direct
    evaluation, normalized by the Frobenius norms ||x||_F ||y||_F, over seeded
    random x, y."""
    dec = assemble_theta(space, ef, delta)
    rng = np.random.default_rng(seed)
    d = space.dim
    worst = 0.0
    for _ in range(n_trials):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        plus, minus = theta_eval(dec, x, y)
        direct = theta_direct(dec, x, y)
        worst = max(worst, abs((plus - minus) - direct) / (_frobenius(x) * _frobenius(y)))
    return worst


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
    slack: float                 # bound - exact
    ok: bool


def oracle_vs_bounds(
    space: TruncatedSpace,
    ef: EnergyFunction,
    delta: float,
) -> OracleComparison:
    """Exact entropy of the normalized tau state compared with its ensemble bound.

    tau_{delta,E} = theta_plus(. (x) 1) puts weight 1 on the vacuum and
    |f(delta l_n)|/2 on each of the four phase vectors of every excited slot.
    With S = sum_{1<=N<=E} d_N |f(delta N)| its norm is c = 1 + 2S, and the
    normalized state is diagonal: (1 + S)/c on the vacuum and |f(delta N)|/c
    on each of the d_N slots of level N.  So

        exact = eta((1 + S)/c) + sum_N d_N eta(|f(delta N)|/c),
        bound = log c + S_{delta,E}/c,  S_{delta,E} = sum_N 4 d_N eta(|f(delta N)|/2),

    the bound being concavity of eta over the pure-state decomposition.
    E = 0 degenerates to the pure vacuum: entropy 0, bound 0.
    """
    _require_quadrature_range(delta, space.energy_cut)
    dims = np.asarray(space.dims_by_level[1:], dtype=float)
    absf = np.abs(f_delta_batch(ef, delta, 1, space.energy_cut)[0])
    s = float(np.sum(dims * absf))
    c = 1.0 + 2.0 * s
    exact = eta((1.0 + s) / c) + float(np.sum(dims * eta(absf / c)))
    bound = math.log(c) + float(np.sum(4.0 * dims * eta(absf / 2.0))) / c
    slack = bound - exact
    return OracleComparison(
        model_label=space.model_label,
        delta=delta,
        energy_cut=space.energy_cut,
        dim=space.dim,
        c_deltaE=c,
        exact_entropy=exact,
        entropy_bound=bound,
        slack=slack,
        ok=slack >= -_SLACK_TOL,
    )
