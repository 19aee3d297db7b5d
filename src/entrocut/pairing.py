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

from .energy import EnergyFunction, f_delta_batch
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

    Each part stores parallel arrays: weight m, left vector, right vector;
    theta_part(x (x) y) = sum_m w_m <l_m, x l_m> <r_m, y r_m>.  The vacuum
    term (weight 1, both vectors e0) lives in the plus part.  Weights below
    WEIGHT_FLOOR are dropped and counted.
    """

    delta: float
    space: TruncatedSpace
    plus_weights: np.ndarray
    plus_left: np.ndarray
    plus_right: np.ndarray
    minus_weights: np.ndarray
    minus_left: np.ndarray
    minus_right: np.ndarray
    dropped_count: int
    window_by_label: dict

    @property
    def plus_total(self) -> float:
        return float(np.sum(self.plus_weights))

    @property
    def minus_total(self) -> float:
        return float(np.sum(self.minus_weights))


def _require_quadrature_range(ef: EnergyFunction, delta: float, energy_cut: int) -> None:
    if delta * energy_cut > ef.quad.t_cap:
        raise ValueError(
            f"delta*E = {delta * energy_cut:g} exceeds the quadrature range {ef.quad.t_cap:g}; "
            "signed window values are only certified there"
        )


def assemble_theta(space: TruncatedSpace, ef: EnergyFunction, delta: float) -> ThetaDecomposition:
    """Build the explicit positive/negative decomposition on the truncated space."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    _require_quadrature_range(ef, delta, space.energy_cut)
    d = space.dim
    e0 = np.zeros(d, dtype=complex)
    e0[0] = 1.0

    vals = f_delta_batch(ef, delta, 0, space.energy_cut)[0]
    window = {label: float(vals[label]) for label in sorted(set(int(v) for v in space.labels))}

    p_w: list[float] = [1.0]
    p_l: list[np.ndarray] = [e0]
    p_r: list[np.ndarray] = [e0]
    m_w: list[float] = []
    m_l: list[np.ndarray] = []
    m_r: list[np.ndarray] = []
    dropped = 0
    for n in range(1, d):
        fd = window[int(space.labels[n])]
        if fd == 0.0:
            continue                     # zero-weight terms are omitted outright
        w = abs(fd) / 2.0
        if w < WEIGHT_FLOOR:
            dropped += 8                 # 4 phases x both parts
            continue
        for k in range(4):
            vk = pure_state_vector(space, k, n)
            vk2 = pure_state_vector(space, (k + 2) % 4, n)
            if fd > 0.0:
                p_w.append(w); p_l.append(vk); p_r.append(vk)
                m_w.append(w); m_l.append(vk); m_r.append(vk2)
            else:
                p_w.append(w); p_l.append(vk); p_r.append(vk2)
                m_w.append(w); m_l.append(vk); m_r.append(vk)

    def pack(vs: list[np.ndarray]) -> np.ndarray:
        return np.vstack(vs) if vs else np.zeros((0, d), dtype=complex)

    return ThetaDecomposition(
        delta=delta,
        space=space,
        plus_weights=np.asarray(p_w),
        plus_left=pack(p_l),
        plus_right=pack(p_r),
        minus_weights=np.asarray(m_w),
        minus_left=pack(m_l),
        minus_right=pack(m_r),
        dropped_count=dropped,
        window_by_label=window,
    )


def _part_eval(w: np.ndarray, left: np.ndarray, right: np.ndarray,
               x: np.ndarray, y: np.ndarray) -> complex:
    if len(w) == 0:
        return 0.0 + 0.0j
    lx = np.einsum("md,de,me->m", left.conj(), x, left)
    ry = np.einsum("md,de,me->m", right.conj(), y, right)
    return complex(np.sum(w * lx * ry))


def theta_eval(dec: ThetaDecomposition, x: np.ndarray, y: np.ndarray) -> tuple[complex, complex]:
    """(theta_plus, theta_minus) applied to x (x) y."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    plus = _part_eval(dec.plus_weights, dec.plus_left, dec.plus_right, x, y)
    minus = _part_eval(dec.minus_weights, dec.minus_left, dec.minus_right, x, y)
    return plus, minus


def theta_direct(dec: ThetaDecomposition, x: np.ndarray, y: np.ndarray) -> complex:
    """theta_delta(x (x) y) evaluated from the defining matrix expression."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    fdiag = np.array([dec.window_by_label[int(l)] for l in dec.space.labels])
    xf = x * fdiag[None, :]
    yf = y * fdiag[None, :]
    return complex((xf @ y)[0, 0] + (yf @ x)[0, 0])


def theta_product_identity_check(
    space: TruncatedSpace,
    ef: EnergyFunction,
    delta: float,
    n_trials: int = 20,
    seed: int = 0,
) -> float:
    """Worst residual of (theta_plus - theta_minus)(x (x) y) against the direct
    matrix evaluation, normalized by ||x||_2 ||y||_2, over seeded random x, y."""
    dec = assemble_theta(space, ef, delta)
    rng = np.random.default_rng(seed)
    d = space.dim
    worst = 0.0
    for _ in range(n_trials):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        plus, minus = theta_eval(dec, x, y)
        direct = theta_direct(dec, x, y)
        scale = float(np.linalg.norm(x, 2) * np.linalg.norm(y, 2))
        worst = max(worst, abs((plus - minus) - direct) / scale)
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
    _require_quadrature_range(ef, delta, space.energy_cut)
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
