"""Smooth energy-window function with almost-exponential decay.

The window f is built from a Fourier-side bump supported in (0, 1):

    ghat(tau) = N_rho * exp(-(4 tau (1 - tau))^(-rho)),   rho = (1+alpha)/(1-alpha),

normalized to integrate to 1, and

    f(t) = (2 pi)^(-1) * Int_0^pi  Re g(t / cos s) ds,    g(t) = Int_0^1 ghat(tau) e^{i t tau} dtau.

The inner s-integral has a closed form: with F(x) = (1/pi) Int_0^{pi/2}
cos(x / cos s) ds = (1 - IJ0(|x|)) / 2 and IJ0 the antiderivative of the
Bessel function J0, the window reduces to the single integral

    f(t) = Int_0^1 ghat(tau) F(t tau) dtau,

evaluated by panel Gauss-Legendre with panel width <= 2 pi / (4 |t|) so each
panel sees at most a quarter oscillation.  With rule nodes tau_i and
coefficients c_i = w_i ghat(tau_i) (the normalized bump, sum c_i = 1) this is

    f(t) = 1/2 - 1/2 * sum_i c_i IJ0(t tau_i),

which the package computes in exactly that form (`_f_on_rule`).

Readers do not run that quadrature: they evaluate a two-level Chebyshev
interpolant of it on [0, T0].  For t >= 0, f(t) = h(t) with h(z) = 1/2 -
1/2 Int ghat(tau) IJ0(z tau) dtau entire of exponential type 1, so the
degree-200 interpolant at the 201 Chebyshev-Lobatto points of [0, T0] has
an interpolation error far below 1e-16 (Trefethen, Approximation Theory and
Approximation Practice, Thm 8.2) and carries the rounding of its node
values.  That polynomial is re-expanded into 100 panels of width 2 and
degree 16, and a value is one Clenshaw recurrence on its panel, a few dozen
elementwise multiply-adds where the quadrature costs about 45 us a point.
It stays within 1e-14 of the quadrature (3.5e-15 measured on 20,001 points
at four alphas), and t = 0 returns 1/2 exactly.  A build computes 283
quadrature rows: the 201 Chebyshev points and the doubled-density
self-check's 2 x 41 probes.

Every weighted sum feeding the window (the IJ0 table steps, the bump
normalization, the sum over i above and the interpolant's DCT-I
coefficients) is reduced in an order the package fixes, numpy's pairwise
sum along one contiguous row, never a BLAS matrix-vector product or a least
squares fit, and the Clenshaw recurrence is elementwise, so a value does not
depend on how many other points it is evaluated alongside, on thread count
or on the BLAS build.

The quadrature range T0 = 200 and the certified tolerance ABS_TOL = 1e-12
are fixed: the window is one function for each alpha, and the cutoff caps
need only its closed-form suprema.  IJ0 is read from one table per process,
the one shipped with the package (`ij0_table.npy`, checked against a sha256
on load): a cubic Hermite interpolant on [0, T0] with knots 0.002 apart,
read by direct index with the same bits as scipy's CubicHermiteSpline, so
no scipy import is needed and the values do not depend on the local scipy
build.  The tests certify the file against the Struve-function identity
IJ0(x) = x J0(x) + (pi x / 2)(J1(x) H0(x) - J0(x) H1(x)) and rebuild it
from scipy's J0.  IJ0 is taken only on the bump's support, the tau nodes
whose coefficient is not exactly 0.0, in blocks small enough to stay in
cache.  Tests cross-check the window against the direct nested s x tau
quadrature of the definition.

Guaranteed facts, all verified against the construction: f is real and even,
f(0) = 1/2, |f(t)| <= 1/2, and |f(t)| e^{|t|^alpha} stays bounded because the
bump's Gevrey order gives decay exponent rho/(rho+1) = (1+alpha)/2 > alpha.
The suprema the cutoff caps need are therefore closed forms: sup |f| = 1/2
(|F| <= 1/2 and ghat >= 0 integrates to 1) and sup eta(|f|/2) = eta(1/4)
(eta increases below 1/e), each plus ABS_TOL for the computed values.

One evaluator, `window`, returns the signed value, a certified upper bound
on |f| and an envelope flag, the regime decided on |t|.  Beyond the
quadrature range [0, T0] it returns the envelope e^{-c |t|^{beta'}}, fitted
on a grid over [0, T0] to overestimate |f| (a fit, not a proof), and flags
it; every bound formula consumes |f|, so overestimates keep the inequalities
valid.  The lattice form `f_delta_batch` (t = delta*N) keeps one growing
array of values for the latest delta: a call costs about 70 us whatever its
size, and a cutoff table asks for a few points at a time at one delta.
`eval_f` and `eval_f_many` are thin wrappers.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import ClassVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConstructionError


# The window's two numerical choices, the same for every alpha.  T0 is the
# quadrature range: f is computed on [0, T0] and the envelope takes over
# beyond; the shipped IJ0 table covers exactly [0, T0].  ABS_TOL is the
# certified absolute tolerance of a computed f on [0, T0]: the doubled-density
# self-check sits near 2e-15, so 1e-12 keeps a wide margin.
T0 = 200.0
ABS_TOL = 1e-12

# the shipped table: rows ys and dydx = J0 at the knots k * 0.002 of [0, T0];
# tests/oracles.py holds its builder, its certification and the recipe that
# rewrites it, after which _SHIPPED_SHA256 is set to the new file's sha256
_SHIPPED_PATH = Path(__file__).with_name("ij0_table.npy")
_SHIPPED_SHA256 = "5df6bbb2335e31e389210a7675013362865324fb24d00d7732ed398897130e24"


class _HermiteTable:
    """Cubic Hermite interpolant on uniform knots, read by direct index.

    The same bits as scipy's CubicHermiteSpline(xs, ys, dydx): the four
    coefficient columns come from its formulas in its operation order, and a
    value is taken the way its PPoly evaluates one, in the interval i with
    xs[i] <= x < xs[i+1] (the top knot in the last interval), at s = x - xs[i],
    as ((c3 + c2 s) + c1 s^2) + c0 (s^2 s).  On uniform knots floor(x n / top)
    is within one of i, so one comparison with each neighbouring knot replaces
    the binary search.  Arguments must lie in [0, top].
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, dydx: np.ndarray) -> None:
        dx = np.diff(xs)
        slope = np.diff(ys) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.xs, self.ys, self.dydx = xs, ys, dydx
        self.c0 = t / dx
        self.c1 = (slope - dydx[:-1]) / dx - t
        self.c2 = dydx[:-1]
        self.c3 = ys[:-1]
        self.last = len(xs) - 2
        self.scale = (len(xs) - 1) / float(xs[-1])

    def __call__(self, x: np.ndarray | float) -> np.ndarray:
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        xs = self.xs
        i = np.minimum((x * self.scale).astype(np.intp), self.last)
        i -= x < xs.take(i)
        i += (x >= xs.take(i + 1)) & (i < self.last)
        s = x - xs.take(i)
        s2 = s * s
        val = ((self.c3.take(i) + self.c2.take(i) * s) + self.c1.take(i) * s2) \
            + self.c0.take(i) * (s2 * s)
        return val.reshape(shape)


def _load_ij0(path: Path) -> np.ndarray:
    """The shipped (ys, dydx) rows, after checking the file's sha256."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConstructionError(f"cannot read the integral-J0 table {path}: {exc}") from None
    if hashlib.sha256(raw).hexdigest() != _SHIPPED_SHA256:
        raise ConstructionError(f"integral-J0 table {path} does not match its sha256")
    return np.load(io.BytesIO(raw))


@lru_cache(maxsize=1)
def _ij0_table() -> _HermiteTable:
    """Int_0^x J0 on [0, T0], one table per process.

    scipy's Struve functions cost microseconds per point, too slow for the
    millions of arguments a window build and a distance series need, so
    IJ0 is tabulated and read by direct index (`_HermiteTable`) from the
    shipped knot values, which the tests certify against the Struve route.
    """
    ys, dydx = _load_ij0(_SHIPPED_PATH)
    return _HermiteTable(np.linspace(0.0, T0, len(ys)), ys, dydx)


def _weighted_row_sums(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums of m * w along the last axis, in a fixed order; scales m in place.

    numpy's pairwise sum along a contiguous row depends only on that row,
    whereas a BLAS gemv (`m @ w`) may round a row differently with the row
    count, the row's position in the block, the thread count or the build.
    """
    m *= w
    return m.sum(axis=-1)


def _ghat_raw(tau: np.ndarray, rho: float) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    out = np.zeros_like(tau)
    inside = (tau > 0.0) & (tau < 1.0)
    q = 4.0 * tau[inside] * (1.0 - tau[inside])
    # near the ends q^-rho overflows to inf, whose exp(-inf) is the 0.0 meant
    with np.errstate(over="ignore"):
        out[inside] = np.exp(-(q ** (-rho)))
    return out


# tau rule: Gauss-Legendre points per panel, and panels per oscillation of
# the largest argument (panel width <= 2 pi / (_PANELS_PER_OSC * T0))
_POINTS_PER_PANEL = 16
_PANELS_PER_OSC = 4
# the envelope fit samples |f| at this many points of [0, T0]
_GRID_POINTS = 1601
# elements per evaluation block of _f_on_rule (512 KB of doubles)
_BLOCK_ELEMS = 1 << 16
# the interpolant: _f_on_rule at the Chebyshev-Lobatto points of one
# degree-_CHEB_DEGREE polynomial on [0, T0], re-expanded into _PANEL_COUNT
# equal panels of degree _PANEL_DEGREE; on a panel of width 2 the
# coefficients of f, of exponential type 1, reach rounding level by T_13
_CHEB_DEGREE = 200
_PANEL_COUNT = 100
_PANEL_DEGREE = 16


@dataclass(frozen=True)
class QuadratureConfig:
    """The window's fixed quadrature range and tolerance, as `EnergyFunction.quad`."""

    abs_tol: float                 # ABS_TOL
    t_cap: float                   # T0


@dataclass
class EnergyFunction:
    """Window f for one alpha: tau rule, interpolant, suprema and decay envelope.

    Fields are filled by build_energy_function.  `panels` is the Chebyshev
    interpolant of f on [0, T0] that every reader evaluates: row k holds the
    T_k coefficient on each of the _PANEL_COUNT panels.  The tau rule
    (`nodes`, `coeffs`) is kept for the build's quadrature rows.  The
    suprema are theorems of the construction, not samples: |f| <= f(0) = 1/2
    and, since eta increases below 1/e, sup eta(|f|/2) = eta(1/4) =
    log(4)/4; each carries ABS_TOL, the distance of a computed value from f.
    `cache` holds one delta, {delta: f(delta*N) for N = 0, 1, ...}, the
    array `f_delta_batch` grows on demand; a new delta replaces it.
    """

    alpha: float
    rho: float
    beta_prime: float              # envelope decay exponent (1+alpha)/2
    nodes: np.ndarray              # tau quadrature nodes
    coeffs: np.ndarray             # weight * ghat(node) / normalization
    panels: np.ndarray             # (_PANEL_DEGREE + 1, _PANEL_COUNT) Chebyshev coefficients
    envelope_c: float
    cache: dict = field(default_factory=dict)
    quad: ClassVar[QuadratureConfig] = QuadratureConfig(abs_tol=ABS_TOL, t_cap=T0)

    @property
    def sup_f(self) -> float:
        """Certified sup_t |f(t)|."""
        return 0.5 + ABS_TOL

    @property
    def sup_eta(self) -> float:
        """Certified sup_t eta(|f(t)|/2)."""
        return math.log(4.0) / 4.0 + ABS_TOL

    def envelope(self, t: float | np.ndarray) -> np.ndarray | float:
        """Fitted decay envelope e^{-c |t|^{beta'}}."""
        at = np.abs(np.asarray(t, dtype=float))
        return np.exp(-self.envelope_c * at ** self.beta_prime)


def _tau_rule(t_cap: float, osc_panels: int = _PANELS_PER_OSC) -> tuple[np.ndarray, np.ndarray]:
    # enough panels that the largest argument sweeps <= 2pi/osc_panels of
    # phase per panel; a floor of 24 panels resolves the bump itself
    n_panels = max(24, int(math.ceil(abs(t_cap) * osc_panels / (2.0 * math.pi))) + 1)
    xg, wg = leggauss(_POINTS_PER_PANEL)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _f_on_rule(ts: np.ndarray, nodes: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """f(t) = 1/2 - 1/2 sum_i c_i IJ0(|t| tau_i) on a fixed tau rule, |t| <= T0.

    IJ0 is taken only on the bump's support: exp underflows towards both
    ends of (0, 1), so the coefficients there are exactly 0.0 (454 of 2064
    at alpha = 0.75).  The values fill the support columns of a zero-filled
    block of full width, so the fixed-order row sum (`_weighted_row_sums`)
    reduces the same row, bit for bit, as it would with every column
    computed.  A block holds about _BLOCK_ELEMS elements, so its temporaries
    stay in cache; each row is reduced on its own, so each value is the
    same bit for bit whatever else is evaluated in the call, and f(0) = 1/2
    exactly because IJ0(0) = 0.
    """
    ts = np.abs(np.asarray(ts, dtype=float))
    out = np.empty_like(ts)
    ij0 = _ij0_table()
    support = np.flatnonzero(coeffs)
    lo, hi = int(support[0]), int(support[-1]) + 1
    tau = nodes[lo:hi]
    rows = max(1, _BLOCK_ELEMS // len(nodes))
    block = np.zeros((min(rows, len(ts)), len(nodes)))
    for start in range(0, len(ts), rows):
        t = ts[start : start + rows]
        m = block[: len(t)]
        m[:, lo:hi] = ij0(t[:, None] * tau)
        out[start : start + rows] = 0.5 - 0.5 * _weighted_row_sums(m, coeffs)
    return out


def _chebyshev_coefficients(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from values at the Lobatto points cos(pi j/n).

    The DCT-I formula a_k = (2/n) sum''_j v_j cos(pi j k/n), with a_0 and
    a_n halved, along the last axis of vals, reduced by `_weighted_row_sums`
    (no least squares, no BLAS), so the coefficients do not depend on the
    BLAS build or thread count.  j k is reduced mod 2n before the cosine.
    """
    n = vals.shape[-1] - 1
    j = np.arange(n + 1)
    cos = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
    weights = np.full(n + 1, 2.0 / n)
    weights[0] = weights[-1] = 1.0 / n
    m = np.broadcast_to(cos, vals.shape[:-1] + cos.shape).copy()
    a = _weighted_row_sums(m, (vals * weights)[..., None, :])
    a[..., 0] *= 0.5
    a[..., n] *= 0.5
    return a


def _clenshaw(cols: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k cols[k, p] T_k(x), elementwise.

    Each step gathers one coefficient row, cols[k].take(p), for all points
    (a gather of whole panels would hold deg+1 values per point), and uses
    only elementwise + and x, so a value depends on its own p and x alone.
    """
    x2 = x + x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in cols[:0:-1]:
        b = x2 * b1
        b += c.take(p)
        b -= b2
        b1, b2 = b, b1
    return x * b1 + cols[0].take(p) - b2


def _panel_coefficients(nodes: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The window's interpolant on [0, T0], as `EnergyFunction.panels`.

    _f_on_rule at the _CHEB_DEGREE + 1 Chebyshev-Lobatto points of [0, T0]
    gives one polynomial; its values at the Lobatto points of each of the
    _PANEL_COUNT panels give that panel's degree-_PANEL_DEGREE coefficients.
    Returns them as rows: row k holds the T_k coefficient of every panel.
    """
    n, d = _CHEB_DEGREE, _PANEL_DEGREE
    xs = np.cos(np.pi * np.arange(n + 1) / n)
    glob = _chebyshev_coefficients(_f_on_rule(0.5 * T0 * (1.0 + xs), nodes, coeffs))
    ys = np.cos(np.pi * np.arange(d + 1) / d)
    # panel i's Lobatto points i + (1 + y)/2 in panel widths, mapped onto [-1, 1]
    at = (np.arange(_PANEL_COUNT)[:, None] + 0.5 * (1.0 + ys)) * (2.0 / _PANEL_COUNT) - 1.0
    vals = _clenshaw(glob[:, None], np.zeros(at.size, dtype=np.intp), at.ravel())
    return np.ascontiguousarray(_chebyshev_coefficients(vals.reshape(at.shape)).T)


def _interpolate(panels: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f at each |t| <= T0 from the panel interpolant; f(0) = 1/2 exactly."""
    at = np.abs(np.asarray(ts, dtype=float))
    s = at * (_PANEL_COUNT / T0)
    p = np.minimum(s.astype(np.intp), _PANEL_COUNT - 1)
    out = _clenshaw(panels, p, 2.0 * (s - p) - 1.0)
    out[at == 0.0] = 0.5
    return out


def build_energy_function(alpha: float) -> EnergyFunction:
    """Construct the window for one decay target alpha in (0, 1).

    Runs a panel-refinement self-check (doubled panel density must agree
    within ABS_TOL on a 41-point probe grid), builds the interpolant from
    the quadrature at its 201 Chebyshev points (`_panel_coefficients`) and
    fits an envelope e^{-c t^{beta'}} dominating |f| + tol on the
    interpolant's values at a grid over [0, T0].  Raises ConstructionError
    if the self-check fails.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    rho = (1.0 + alpha) / (1.0 - alpha)
    beta_prime = 0.5 * (1.0 + alpha)

    def rule(osc_panels: int) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = _tau_rule(T0, osc_panels)
        coeffs = weights * _ghat_raw(nodes, rho)
        norm = float(coeffs.sum())
        if not (norm > 0.0):
            raise ConstructionError("bump normalization integral vanished")
        return nodes, coeffs / norm

    nodes, coeffs = rule(_PANELS_PER_OSC)
    # self-check: doubled panel density on a probe grid
    fnodes, fcoeffs = rule(2 * _PANELS_PER_OSC)
    probe = np.linspace(0.0, T0, 41)
    resid = float(np.max(np.abs(_f_on_rule(probe, nodes, coeffs)
                              - _f_on_rule(probe, fnodes, fcoeffs))))
    if resid > ABS_TOL:
        raise ConstructionError("tau quadrature did not converge at the configured density", resid)

    panels = _panel_coefficients(nodes, coeffs)
    # envelope: e^{-c t^{beta'}} >= |f|+tol at every positive grid point;
    # 0.75 safety factor guards the extrapolation beyond T0
    grid = np.linspace(0.0, T0, _GRID_POINTS)[1:]
    absf = np.abs(_interpolate(panels, grid))
    ratios = -np.log(np.minimum(absf + ABS_TOL, 0.5)) / grid ** beta_prime
    env_c = 0.75 * float(np.min(ratios))
    if env_c <= 0.0:
        raise ConstructionError("envelope fit produced a nonpositive decay constant")

    return EnergyFunction(
        alpha=alpha,
        rho=rho,
        beta_prime=beta_prime,
        nodes=nodes,
        coeffs=coeffs,
        panels=panels,
        envelope_c=env_c,
    )


def window(ef: EnergyFunction, ts, known: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window at each t: (signed value, certified upper bound on |f|,
    envelope flag), the regime decided on |t|.

    |t| <= T0: the interpolant's value, bounded by min(|f| + ABS_TOL,
    envelope).  |t| > T0: the fitted envelope as both value and bound,
    flagged; it is meant to overestimate |f| and leaves the sign unresolved,
    which every upper-bound consumer tolerates.  `known`, when the caller
    holds them, are the interpolant's values at the |t| <= T0 entries, in
    order.
    """
    at = np.abs(np.asarray(ts, dtype=float))
    flags = at > T0
    env = ef.envelope(at)
    vals = env.copy()
    vals[~flags] = _interpolate(ef.panels, at[~flags]) if known is None else known
    up = np.where(flags, env, np.minimum(np.abs(vals) + ABS_TOL, env))
    return vals, up, flags


_NO_VALUES = np.zeros(0)


def f_delta_batch(ef: EnergyFunction, delta: float, n_lo: int, n_hi: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`window` on the lattice t = delta*N, N = n_lo..n_hi, through the memo.

    The memo holds the latest delta only: `ef.cache` is {delta: f(delta*N)
    for N = 0, 1, ...}, grown to the largest N asked for in [0, T0], and a
    call at another delta replaces it.  A fresh point costs a few dozen
    multiply-adds, but a call has a fixed cost of about 70 us, so callers
    that ask for a few points at a time at one delta (a cutoff table, E =
    0, 1, ...) read them from the memo; one array, not one per delta, keeps
    a sweep over fresh deltas from growing the process.  A value does not
    depend on the call that computed it, so the memo needs no lock: racing
    calls store arrays that agree where they overlap, and the loser's points
    are recomputed, to the same bits, when next asked for.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if n_lo < 0:
        raise ValueError("n_lo must be >= 0")
    ts = delta * np.arange(n_lo, n_hi + 1)
    n_quad = int(np.count_nonzero(ts <= T0))   # a prefix: delta*N grows with N
    memo = ef.cache.get(delta, _NO_VALUES)
    if n_quad and len(memo) < n_lo + n_quad:
        fresh = delta * np.arange(len(memo), n_lo + n_quad)
        memo = np.concatenate((memo, _interpolate(ef.panels, fresh)))
        ef.cache = {delta: memo}
    return window(ef, ts, memo[n_lo : n_lo + n_quad])


def eval_f(ef: EnergyFunction, t: float) -> float:
    """f(t), the envelope beyond T0; see `window`."""
    return float(window(ef, [t])[0][0])


def eval_f_many(ef: EnergyFunction, ts: np.ndarray) -> np.ndarray:
    """Vectorized f over arguments with |t| <= T0 (raises beyond)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(np.abs(ts) > T0):
        raise ValueError(f"arguments exceed the quadrature range [0, {T0}]")
    return _interpolate(ef.panels, ts)


# ---------------------------------------------------------------------------
# synthetic boundary pairs and the window's defining sum rule
# ---------------------------------------------------------------------------

# FFT samples of a pair's difference G; freq_cut is too small when one of the
# 12 highest kept coefficients, N = freq_cut - 11 .. freq_cut, exceeds
# _PAIR_TAIL_TOL, so FREQ_CUT_MIN is the smallest freq_cut that keeps 12
_PAIR_SAMPLES = 8192
_PAIR_TAIL_TOL = 1e-4
FREQ_CUT_MIN = 11


@dataclass(frozen=True)
class SyntheticPair:
    """Coefficient pair (a_N, b_N), N = 0..freq_cut, built so that
    A(t) = sum a_N e^{iNt} and B(t) = sum b_N e^{-iNt} agree on (-delta, delta)
    up to the Fourier mass discarded at freq_cut, which tail_mass bounds.
    """

    delta: float
    freq_cut: int
    seed: int
    a: np.ndarray
    b: np.ndarray
    tail_mass: float


def _smooth_bump(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = np.abs(y) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - y[m] ** 2))
    return out


def make_synthetic_pair(
    delta: float,
    freq_cut: int = 128,
    seed: int = 0,
) -> SyntheticPair:
    """Seeded pair whose difference is a smooth 2pi-periodic G supported in
    delta <= |t| <= pi.

    G is a sum of 2-4 scaled C-infinity bumps placed in the middle of the
    support band (centers at 0.38-0.62 of the span, widths 0.65-0.85 of the
    available room) so its Fourier coefficients die well before freq_cut.
    Coefficients are taken by FFT on _PAIR_SAMPLES points (spectrally accurate
    for smooth G).  Raises ValueError below FREQ_CUT_MIN, where fewer than the
    12 coefficients the tail check reads are kept, and when the discarded
    tail mass exceeds _PAIR_TAIL_TOL, i.e. freq_cut is too small for the
    requested delta.
    """
    if not (0.0 < delta < math.pi):
        raise ValueError("delta must lie in (0, pi)")
    if freq_cut < FREQ_CUT_MIN:
        raise ValueError(f"freq_cut must be >= {FREQ_CUT_MIN}, got {freq_cut}")
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(_PAIR_SAMPLES) / _PAIR_SAMPLES
    ts = np.where(t > np.pi, t - 2.0 * np.pi, t)

    span = math.pi - delta
    g_vals = np.zeros(_PAIR_SAMPLES)
    for _ in range(int(rng.integers(2, 5))):
        side = 1.0 if rng.random() < 0.5 else -1.0
        center = delta + span * rng.uniform(0.38, 0.62)
        width = rng.uniform(0.65, 0.85) * min(center - delta, math.pi - center)
        amp = rng.normal()
        g_vals += amp * _smooth_bump((ts - side * center) / width)

    ghat = np.fft.fft(g_vals) / _PAIR_SAMPLES   # ghat[k] = (2pi)^-1 Int G e^{-ikt}
    tail_mass = float(np.max(np.abs(ghat[freq_cut - FREQ_CUT_MIN : freq_cut + 1])))
    if tail_mass > _PAIR_TAIL_TOL:
        raise ValueError(
            f"freq_cut={freq_cut} too small for delta={delta}: Fourier tail mass "
            f"{tail_mass:.3e} exceeds {_PAIR_TAIL_TOL:.0e}"
        )

    a = np.zeros(freq_cut + 1, dtype=complex)
    b = np.zeros(freq_cut + 1, dtype=complex)
    a[0] = ghat[0] + 1.0
    b[0] = 1.0
    a[1:] = ghat[1 : freq_cut + 1]
    b[1:] = -ghat[-1 : -freq_cut - 1 : -1]    # -ghat[-N]
    return SyntheticPair(delta=delta, freq_cut=freq_cut, seed=seed, a=a, b=b,
                         tail_mass=tail_mass)


@dataclass(frozen=True)
class SpectralIdentityResult:
    residual: float                # |sum (a_N + b_N) f(delta N) - sum a_N|
    relative: float                # residual / (sum |a| + sum |b|)
    scale: float
    sum_a: complex
    sum_b: complex


def verify_spectral_identity(ef: EnergyFunction, pair: SyntheticPair) -> SpectralIdentityResult:
    """Check the window's defining sum rule on one synthetic pair.

    For admissible pairs (positive-frequency both sides, boundary values
    agreeing on (-delta, delta)) the window satisfies
    sum_N (a_N + b_N) f(delta N) = sum_N a_N; the residual scales linearly
    with the pair (and with the boundary gap max |A - B| on (-delta, delta)
    for imperfect pairs).
    """
    n_hi = pair.freq_cut
    if pair.delta * n_hi > T0:
        raise ValueError("delta * freq_cut exceeds the quadrature range")
    fv = eval_f_many(ef, pair.delta * np.arange(n_hi + 1))
    lhs = np.sum((pair.a + pair.b) * fv)
    sum_a = complex(np.sum(pair.a))
    sum_b = complex(np.sum(pair.b))
    residual = abs(lhs - sum_a)
    scale = float(np.sum(np.abs(pair.a)) + np.sum(np.abs(pair.b)))
    return SpectralIdentityResult(
        residual=float(residual),
        relative=float(residual / scale) if scale > 0 else 0.0,
        scale=scale,
        sum_a=sum_a,
        sum_b=sum_b,
    )
