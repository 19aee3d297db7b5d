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

Every weighted sum feeding the window (the bump normalization, the sum
over i above and the interpolant's DCT-I coefficients) is reduced in an
order the package fixes, numpy's pairwise sum along one contiguous row,
never a BLAS matrix-vector product or a least squares fit, and the
Clenshaw recurrence is elementwise, so a value does not depend on how many
other points it is evaluated alongside, on thread count or on the BLAS
build.

The quadrature range T0 = 200 and the certified tolerance ABS_TOL = 1e-12
are fixed: the window is one function for each alpha, and the cutoff caps
need only its closed-form suprema.  IJ0 is entire of exponential type 1,
like h, so it too is a Chebyshev interpolant: degree 14 on each of the
interpolant's 100 panels of [0, T0], 1,500 coefficients committed as
`float.hex` text in `_constants`, with the 16-point Gauss-Legendre rule of
the tau panels.  tests/oracles.py generates that module in mpmath, from
IJ0(x) = x 1F2(1/2; 1, 3/2; -x^2/4) at 30 digits, and rounds each
constant once, so no constant depends on libm, LAPACK or the CPU; a test
regenerates it bit for bit.  The panels are within 2.2e-16 of mpmath on
seeded points, and the tests keep a cubic Hermite table of IJ0 as a second
route to the window.  IJ0 is taken only on
the bump's support, the tau nodes whose coefficient is not exactly 0.0, in
blocks small enough to stay in cache.  Tests cross-check the window
against the direct nested s x tau quadrature of the definition.

Guaranteed facts, all verified against the construction: f is real and even,
f(0) = 1/2, |f(t)| <= 1/2, and |f(t)| e^{|t|^alpha} stays bounded because the
bump's Gevrey order gives decay exponent rho/(rho+1) = (1+alpha)/2 > alpha.
The suprema the cutoff caps need are therefore closed forms: sup |f| = 1/2
(|F| <= 1/2 and ghat >= 0 integrates to 1) and sup eta(|f|/2) = eta(1/4)
(eta increases below 1/e), each plus ABS_TOL for the computed values.

One evaluator, `window`, returns the signed value, a certified upper bound
on |f| and an envelope flag, the regime decided on |t|.  On [0, T0] the
bound is |f| + ABS_TOL, the certified tolerance of the interpolant.  Beyond
the quadrature range it returns the envelope e^{-c |t|^{beta'}}, fitted
on a grid over [0, T0] to overestimate |f| (a fit, not a proof), and flags
it; every bound formula consumes |f|, so overestimates keep the inequalities
valid.  The lattice form `f_delta_batch` (t = delta*N) keeps one growing
array of values for the latest delta.  A call that needs a fresh point costs
a full interpolant call, so a cutoff table read at E = 0, 1, ... still pays
one per new E; the memo spares the repeat read of points already held, as
the oracle makes at the same E.
`eval_f_many` reads the interpolant alone, at points inside [0, T0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import _constants
from .errors import ConstructionError


# The window's two numerical choices, the same for every alpha.  T0 is the
# quadrature range: f is computed on [0, T0] and the envelope takes over
# beyond; the committed IJ0 panels cover exactly [0, T0].  ABS_TOL is the
# certified absolute tolerance of a computed f on [0, T0]: the doubled-density
# self-check sits near 2e-15, so 1e-12 keeps a wide margin.
T0 = 200.0
ABS_TOL = 1e-12


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


# tau rule: panels per oscillation of the largest argument (panel width
# <= 2 pi / (_PANELS_PER_OSC * T0)), each with the 16-point Gauss-Legendre rule
_PANELS_PER_OSC = 4
# the envelope fit samples |f| at this many points of [0, T0]
_GRID_POINTS = 1601
# elements per evaluation block of _f_on_rule (128 KB of doubles): the block
# and its Clenshaw arrays set a build's peak, 1.0 MB allocated (tracemalloc)
# at this size against 3.8 MB at 1 << 16; the process of
# `energy-function --t-max 250 --points 401` peaks at 30.4 MB of RSS, 32.4 MB
# at 1 << 16 and 48.8 MB at 1 << 20
_BLOCK_ELEMS = 1 << 14
# the interpolant: _f_on_rule at the Chebyshev-Lobatto points of one
# degree-_CHEB_DEGREE polynomial on [0, T0], re-expanded into _PANEL_COUNT
# equal panels of degree _PANEL_DEGREE; on a panel of width 2 the
# coefficients of f, of exponential type 1, reach rounding level by T_13
_CHEB_DEGREE = 200
_PANEL_COUNT = 100
_PANEL_DEGREE = 16


def _hex_rows(text: str, rows: int) -> np.ndarray:
    """The float.hex values of text as a float array of `rows` rows."""
    return np.array([float.fromhex(h) for h in text.split()]).reshape(rows, -1)


# the committed constants (`_constants`, generated in mpmath by
# tests/oracles.py): the 16-point Gauss-Legendre rule, and IJ0 on the same
# _PANEL_COUNT panels as the interpolant, row k holding the T_k coefficients
_GAUSS_NODES, _GAUSS_WEIGHTS = _hex_rows(_constants.GAUSS_LEGENDRE, 2)
_IJ0_PANELS = np.ascontiguousarray(_hex_rows(_constants.IJ0_PANELS, _PANEL_COUNT).T)


@dataclass(frozen=True)
class QuadratureConfig:
    """The window's fixed quadrature range, as `EnergyFunction.quad`.

    Only the benchmark reads it (`ef.quad.t_cap`); the package reads T0.  It
    can go with the next change to the benchmark.
    """

    t_cap: float                   # T0


@dataclass
class EnergyFunction:
    """Window f for one alpha: interpolant, suprema and decay envelope.

    Fields are filled by build_energy_function.  `panels` is the Chebyshev
    interpolant of f on [0, T0] that every reader evaluates: row k holds the
    T_k coefficient on each of the _PANEL_COUNT panels.  The suprema are
    theorems of the construction, not samples: |f| <= f(0) = 1/2 and, since
    eta increases below 1/e, sup eta(|f|/2) = eta(1/4) = log(4)/4; each
    carries ABS_TOL, the distance of a computed value from f.
    `cache` holds one delta, {delta: f(delta*N) for N = 0, 1, ...}, the
    array `f_delta_batch` grows on demand; a new delta replaces it.
    """

    alpha: float
    rho: float
    beta_prime: float              # envelope decay exponent (1+alpha)/2
    panels: np.ndarray             # (_PANEL_DEGREE + 1, _PANEL_COUNT) Chebyshev coefficients
    envelope_c: float
    cache: dict = field(default_factory=dict)
    quad: ClassVar[QuadratureConfig] = QuadratureConfig(t_cap=T0)

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
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
    weights = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _rule(rho: float, osc_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The tau rule on [0, T0] at the given panel density: its nodes tau_i and
    coefficients c_i = w_i ghat(tau_i), normalized to sum to 1."""
    nodes, weights = _tau_rule(T0, osc_panels)
    coeffs = weights * _ghat_raw(nodes, rho)
    norm = float(coeffs.sum())
    if not (norm > 0.0):
        raise ConstructionError("bump normalization integral vanished")
    return nodes, coeffs / norm


def _f_on_rule(ts: np.ndarray, nodes: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """f(t) = 1/2 - 1/2 sum_i c_i IJ0(|t| tau_i) on a fixed tau rule, |t| <= T0,
    with IJ0 from its committed Chebyshev panels (`_ij0`).

    IJ0 is taken only on the bump's support: exp underflows towards both
    ends of (0, 1), so the coefficients there are exactly 0.0 (454 of 2064
    at alpha = 0.75).  Each IJ0 value is one degree-14 Clenshaw recurrence,
    about 30 ns, and a build takes about 520,000 of them.  The values fill
    the support columns of a zero-filled block of full width, so the
    fixed-order row sum (`_weighted_row_sums`) reduces the same row, bit for
    bit, as it would with every column computed.  A block holds about
    _BLOCK_ELEMS elements, so its temporaries stay in cache; each row is
    reduced on its own, so each value is the same bit for bit whatever else
    is evaluated in the call, and f(0) = 1/2 exactly because IJ0(0) = 0.
    """
    ts = np.abs(np.asarray(ts, dtype=float))
    out = np.empty_like(ts)
    support = np.flatnonzero(coeffs)
    lo, hi = int(support[0]), int(support[-1]) + 1
    tau = nodes[lo:hi]
    rows = max(1, _BLOCK_ELEMS // len(nodes))
    block = np.zeros((min(rows, len(ts)), len(nodes)))
    for start in range(0, len(ts), rows):
        t = ts[start : start + rows]
        m = block[: len(t)]
        m[:, lo:hi] = _ij0(t[:, None] * tau)
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
    The steps write into five arrays made once per call: with a fresh array
    for each of a block's 60 or so operations, the allocator hands pages
    back and faults them in again, and a window build takes about 40%
    longer.
    """
    x2 = x + x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    b = np.empty_like(x)
    c = np.empty_like(x)
    for row in cols[:0:-1]:
        np.multiply(x2, b1, out=b)
        b += row.take(p, out=c, mode="clip")        # p is in range; "clip" skips a copy
        b -= b2
        b1, b2, b = b, b1, b2
    np.multiply(x, b1, out=b)
    b += cols[0].take(p, out=c, mode="clip")
    b -= b2
    return b


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


def _on_panels(cols: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The panel polynomials `cols` (row k: T_k on each of the _PANEL_COUNT
    panels of [0, T0]) at each 0 <= at <= T0."""
    s = at * (_PANEL_COUNT / T0)
    p = s.astype(np.intp)
    np.minimum(p, _PANEL_COUNT - 1, out=p)
    s -= p                          # the point's place on its panel, mapped onto [-1, 1]
    s *= 2.0
    s -= 1.0
    return _clenshaw(cols, p, s)


def _ij0(x: np.ndarray) -> np.ndarray:
    """IJ0(x) = Int_0^x J0 at each 0 <= x <= T0; IJ0(0) = 0 exactly."""
    out = _on_panels(_IJ0_PANELS, x)
    out[x == 0.0] = 0.0
    return out


def _interpolate(panels: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """f at each |t| <= T0 from the panel interpolant; f(0) = 1/2 exactly."""
    at = np.abs(np.asarray(ts, dtype=float))
    out = _on_panels(panels, at)
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

    nodes, coeffs = _rule(rho, _PANELS_PER_OSC)
    # self-check: doubled panel density on a probe grid
    fnodes, fcoeffs = _rule(rho, 2 * _PANELS_PER_OSC)
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
        panels=panels,
        envelope_c=env_c,
    )


def window(ef: EnergyFunction, ts, known: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window at each t: (signed value, certified upper bound on |f|,
    envelope flag), the regime decided on |t|.

    |t| <= T0: the interpolant's value, bounded by |f| + ABS_TOL; the
    fitted envelope lies above that bound there (by 1.60 times or more on
    2,000,001 points at 17 alphas from 0.001 to 0.995).  |t| > T0: the
    fitted envelope as both value and bound, flagged; it is meant to
    overestimate |f| and leaves the sign unresolved, which every
    upper-bound consumer tolerates.  `known`, when the caller
    holds them, are the interpolant's values at the |t| <= T0 entries, in
    order.
    """
    at = np.abs(np.asarray(ts, dtype=float))
    flags = at > T0
    vals = ef.envelope(at)
    vals[~flags] = _interpolate(ef.panels, at[~flags]) if known is None else known
    up = np.where(flags, vals, np.abs(vals) + ABS_TOL)
    return vals, up, flags


_NO_VALUES = np.zeros(0)


def f_delta_batch(ef: EnergyFunction, delta: float, n_lo: int, n_hi: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`window` on the lattice t = delta*N, N = n_lo..n_hi, through the memo.

    The memo holds the latest delta only: `ef.cache` is {delta: f(delta*N)
    for N = 0, 1, ...}, grown to the largest N asked for in [0, T0], and a
    call at another delta replaces it.  A fresh point costs a few dozen
    multiply-adds, but a call that computes any pays the fixed cost of one
    `_interpolate` call, about 70 us.  The memo spares that cost only to a
    call whose points it all holds, such as the oracle's read at the E a
    cutoff row has just read; a cutoff table at E = 0, 1, ... pays it once
    per new E (about 4,900 calls in 360 `oracle_sweep` ops).  One array,
    not one per delta, keeps a sweep over fresh deltas from growing the
    process.  A value does not depend on the call that computed it, so the
    memo needs no lock: racing calls store arrays that agree where they
    overlap, and the loser's points are recomputed, to the same bits, when
    next asked for.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if n_lo < 0:
        raise ValueError("n_lo must be >= 0")
    # delta*N past the float range is t = inf, where the envelope is 0
    with np.errstate(over="ignore"):
        ts = delta * np.arange(n_lo, n_hi + 1)
    n_quad = int(np.count_nonzero(ts <= T0))   # a prefix: delta*N grows with N
    memo = ef.cache.get(delta, _NO_VALUES)
    if n_quad and len(memo) < n_lo + n_quad:
        fresh = delta * np.arange(len(memo), n_lo + n_quad)
        memo = np.concatenate((memo, _interpolate(ef.panels, fresh)))
        ef.cache = {delta: memo}
    return window(ef, ts, memo[n_lo : n_lo + n_quad])


def eval_f_many(ef: EnergyFunction, ts: np.ndarray) -> np.ndarray:
    """Vectorized f over arguments with |t| <= T0 (raises beyond)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(np.abs(ts) > T0):
        raise ValueError(f"arguments exceed the quadrature range [0, {T0}]")
    return _interpolate(ef.panels, ts)


# ---------------------------------------------------------------------------
# synthetic boundary pairs and the window's defining sum rule
# ---------------------------------------------------------------------------

# FFT samples of a pair's difference G; a pair keeps N = 0.._FREQ_CUT, or
# fewer where delta * N would leave [0, T0], and the tail check reads its
# _TAIL_COEFFS highest kept coefficients against _PAIR_TAIL_TOL: wherever it
# passes, the residuals of SPECTRAL_BUMPS stay under the suite's 1e-5 (worst
# 7.0e-6), which a tail near 1e-4 no longer ensures (1.7e-5 at delta = 2.27)
_PAIR_SAMPLES = 8192
_FREQ_CUT = 128
_TAIL_COEFFS = 12
_PAIR_TAIL_TOL = 5e-5

# the spectral suite's pairs, one bump each: centred at 0.38-0.62 of the band
# on alternating sides, 0.75 of the room to its nearer end wide
SPECTRAL_BUMPS = tuple((1.0, (-1.0) ** k, at, 0.75)
                       for k, at in enumerate((0.38, 0.44, 0.5, 0.56, 0.62)))


@dataclass(frozen=True)
class SyntheticPair:
    """Coefficient pair (a_N, b_N), N = 0..freq_cut, built so that
    A(t) = sum a_N e^{iNt} and B(t) = sum b_N e^{-iNt} agree on (-delta, delta)
    up to the Fourier mass discarded at freq_cut, which tail_mass bounds.
    """

    delta: float
    freq_cut: int
    a: np.ndarray
    b: np.ndarray
    tail_mass: float


def _smooth_bump(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = np.abs(y) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - y[m] ** 2))
    return out


def make_synthetic_pair(delta: float, bumps: tuple | list) -> SyntheticPair:
    """Pair whose difference is a smooth 2pi-periodic G supported in
    delta <= |t| <= pi: the sum of the C-infinity bumps
    amp * bump((t - side c) / w) over the (amp, side, at, width) of `bumps`,
    centred at c = delta + at (pi - delta) and w = width min(c - delta, pi - c)
    wide, so 0 < at < 1 and 0 < width <= 1 keep each in the band.

    Coefficients are taken by FFT on _PAIR_SAMPLES points (spectrally accurate
    for smooth G).  The cut is the largest N <= _FREQ_CUT with delta * N <= T0,
    the range `eval_f_many` reads: 128 up to delta = 1.5625,
    and at least 63 below pi.  Raises ValueError when the discarded tail mass
    exceeds _PAIR_TAIL_TOL, as the bumps narrow towards delta = pi: each bump
    of SPECTRAL_BUMPS passes up to delta = 2.07, and one fails from 2.08 on.
    """
    if not (0.0 < delta < math.pi):
        raise ValueError("delta must lie in (0, pi)")
    freq_cut = next(n for n in range(_FREQ_CUT, 0, -1) if delta * n <= T0)
    t = 2.0 * np.pi * np.arange(_PAIR_SAMPLES) / _PAIR_SAMPLES
    ts = np.where(t > np.pi, t - 2.0 * np.pi, t)

    span = math.pi - delta
    g_vals = np.zeros(_PAIR_SAMPLES)
    for amp, side, at, width in bumps:
        c = delta + span * at
        g_vals += amp * _smooth_bump((ts - side * c) / (width * min(c - delta, math.pi - c)))

    ghat = np.fft.fft(g_vals) / _PAIR_SAMPLES   # ghat[k] = (2pi)^-1 Int G e^{-ikt}
    tail_mass = float(np.max(np.abs(ghat[freq_cut + 1 - _TAIL_COEFFS : freq_cut + 1])))
    if tail_mass > _PAIR_TAIL_TOL:
        raise ValueError(
            f"delta={delta} is too wide for the spectral suite: the pair's Fourier "
            f"tail mass {tail_mass:.3e} exceeds the suite's limit {_PAIR_TAIL_TOL:.0e}"
        )

    a = np.zeros(freq_cut + 1, dtype=complex)
    b = np.zeros(freq_cut + 1, dtype=complex)
    a[0] = ghat[0] + 1.0
    b[0] = 1.0
    a[1:] = ghat[1 : freq_cut + 1]
    b[1:] = -ghat[-1 : -freq_cut - 1 : -1]    # -ghat[-N]
    return SyntheticPair(delta=delta, freq_cut=freq_cut, a=a, b=b, tail_mass=tail_mass)


def verify_spectral_identity(ef: EnergyFunction, pair: SyntheticPair) -> float:
    """Relative residual of the window's defining sum rule on one pair.

    For admissible pairs (positive-frequency both sides, boundary values
    agreeing on (-delta, delta)) the window satisfies
    sum_N (a_N + b_N) f(delta N) = sum_N a_N.  The residual, over
    sum |a_N| + sum |b_N|, scales with the boundary gap max |A - B| on
    (-delta, delta) for imperfect pairs.  A pair whose lattice delta N leaves
    [0, T0] raises ValueError (`eval_f_many`); `make_synthetic_pair` builds
    none.
    """
    fv = eval_f_many(ef, pair.delta * np.arange(pair.freq_cut + 1))
    residual = abs(np.sum((pair.a + pair.b) * fv) - complex(np.sum(pair.a)))
    scale = float(np.sum(np.abs(pair.a)) + np.sum(np.abs(pair.b)))
    return float(residual / scale) if scale > 0 else 0.0
