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

which the package evaluates in exactly that form: IJ0(0) = 0, so f(0) = 1/2
holds exactly rather than up to the rounding of sum c_i.  Every weighted sum
feeding the window (the IJ0 table steps, the bump normalization and the sum
over i above) is reduced in an order the package fixes, numpy's pairwise sum
along one contiguous row, never a BLAS matrix-vector product, so a value does
not depend on how many other points it is evaluated alongside, on thread
count or on the BLAS build.  IJ0 is read from one table per window,
sized from T0: a cubic Hermite interpolant on knots 0.002 apart, read by
direct index with the same bits as scipy's CubicHermiteSpline, and
certified on build against the Struve-function identity
IJ0(x) = x J0(x) + (pi x / 2)(J1(x) H0(x) - J0(x) H1(x)).  It is taken only
on the bump's support, the tau nodes whose coefficient is not exactly 0.0,
in blocks small enough to stay in cache.  Tests cross-check it against the
direct nested s x tau quadrature of the definition.

Guaranteed facts, all verified against the construction: f is real and even,
f(0) = 1/2, |f(t)| <= 1/2, and |f(t)| e^{|t|^alpha} stays bounded because the
bump's Gevrey order gives decay exponent rho/(rho+1) = (1+alpha)/2 > alpha.
The suprema the cutoff caps need are therefore closed forms: sup |f| = 1/2
(|F| <= 1/2 and ghat >= 0 integrates to 1) and sup eta(|f|/2) = eta(1/4)
(eta increases below 1/e), each plus abs_tol for the computed values.

One evaluator, `window`, returns the signed value, a certified upper bound
on |f| and an envelope flag, the regime decided on |t|.  Beyond the
quadrature range [0, T0] it returns the envelope e^{-c |t|^{beta'}}, fitted
on a grid over [0, T0] to overestimate |f| (a fit, not a proof), and flags
it; every bound formula consumes |f|, so overestimates keep the inequalities
valid.  The lattice form `f_delta_batch` (t = delta*N) keeps one growing
array of quadrature values per delta; `eval_f` and `eval_f_many` are thin
wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j0, j1, struve

from .errors import ConstructionError


def integral_j0(x: np.ndarray | float) -> np.ndarray:
    """Int_0^x J0(y) dy for x >= 0, via the Struve identity.

    scipy.special.itj0y0 returns garbage for x >~ 25, so it is not used.
    Accuracy checked against high-precision quadrature: <= ~2e-14 relative
    up to x = 1500.
    """
    x = np.asarray(x, dtype=float)
    return x * j0(x) + 0.5 * np.pi * x * (j1(x) * struve(0, x) - j0(x) * struve(1, x))


_TABLE_STEP = 0.002
_TABLE_TOL = 2e-13
# the longest table built; a window with a larger T0 takes IJ0 from the
# Struve route, whose cost is then the caller's problem
_TABLE_MAX = 4000.0


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
        self.xs, self.ys = xs, ys
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


@lru_cache(maxsize=4)
def _ij0_spline(upper: float) -> _HermiteTable:
    """Fast evaluator of Int_0^x J0 on [0, upper], certified on build.

    scipy's Struve functions cost microseconds per point, too slow for the
    millions of arguments a window build and a distance series need.
    Tabulating instead: step integrals of J0 by 8-point Gauss-Legendre
    (error per step far below eps at step 0.002), accumulated in extended
    precision, then a cubic Hermite interpolant with the exact derivative
    IJ0' = J0, read by direct index (`_HermiteTable`).  The knots are
    k * 0.002 for every length, so a shorter table is the prefix of a longer
    one, bit for bit.  The table is checked against the independent
    Struve-identity route before use; probe points include interval
    midpoints, where the Hermite error peaks.
    """
    n_steps = int(math.ceil(upper / _TABLE_STEP))
    xs = np.linspace(0.0, n_steps * _TABLE_STEP, n_steps + 1)
    gx, gw = leggauss(8)
    mids = xs[:-1, None] + 0.5 * _TABLE_STEP * (1.0 + gx[None, :])
    steps = (0.5 * _TABLE_STEP) * _weighted_row_sums(j0(mids), gw)
    ys = np.concatenate(([0.0], np.cumsum(steps.astype(np.longdouble)))).astype(float)
    table = _HermiteTable(xs, ys, j0(xs))
    top = float(xs[-1])
    probe = np.concatenate([
        np.linspace(0.0, top, 2001),
        (np.arange(2000) + 0.5) * (top / 2000.0),   # lands on table midpoints
    ])
    diff = np.abs(table(probe) - integral_j0(probe))
    # scipy's Struve functions lose ~1e-12 near their method switch around
    # x ~ 25.5 (the table route is clean there, checked to 7e-16 against
    # 40-digit quadrature), so that window gets a looser comparison
    blip = (probe > 20.0) & (probe < 30.0)
    err_out = float(np.max(diff[~blip]))
    err_in = float(np.max(diff[blip]))
    if err_out > _TABLE_TOL or err_in > 3e-12:
        raise ConstructionError(
            f"integral-J0 table disagrees with the Struve route by "
            f"{max(err_out, err_in):.3e} (tolerances {_TABLE_TOL:.1e} outside "
            f"x in (20, 30), 3e-12 inside)"
        )
    return table


def _ij0_upto(t_cap: float):
    """Int_0^x J0 for 0 <= x <= t_cap: one table per T0, 100 * ceil(T0 / 100)
    long, or the Struve route past the longest table."""
    upper = 100.0 * math.ceil(max(t_cap, 1.0) / 100.0)
    return _ij0_spline(upper) if upper <= _TABLE_MAX else integral_j0


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


@dataclass(frozen=True)
class QuadratureConfig:
    """Certification settings for the window."""

    # doubled-density self-checks sit near 2e-15; 1e-12 keeps a wide margin
    abs_tol: float = 1e-12         # certified absolute tolerance of f on [0, T0]
    t_cap: float = 200.0           # T0: quadrature range; envelope beyond


@dataclass
class EnergyFunction:
    """Window f for one alpha: tau rule, suprema and decay envelope.

    Fields are filled by build_energy_function.  The suprema are theorems
    of the construction, not samples: |f| <= f(0) = 1/2 and, since eta
    increases below 1/e, sup eta(|f|/2) = eta(1/4) = log(4)/4; each carries
    abs_tol, the distance of a computed value from f.  `cache` maps delta
    to one array of the quadrature values f(delta*N), N = 0, 1, ..., that
    `f_delta_batch` grows on demand.
    """

    alpha: float
    rho: float
    beta_prime: float              # envelope decay exponent (1+alpha)/2
    quad: QuadratureConfig
    nodes: np.ndarray              # tau quadrature nodes
    coeffs: np.ndarray             # weight * ghat(node) / normalization
    envelope_c: float
    cache: dict = field(default_factory=dict)

    @property
    def sup_f(self) -> float:
        """Certified sup_t |f(t)|."""
        return 0.5 + self.quad.abs_tol

    @property
    def sup_eta(self) -> float:
        """Certified sup_t eta(|f(t)|/2)."""
        return math.log(4.0) / 4.0 + self.quad.abs_tol

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


def _f_on_rule(ts: np.ndarray, nodes: np.ndarray, coeffs: np.ndarray, t_cap: float
               ) -> np.ndarray:
    """f(t) = 1/2 - 1/2 sum_i c_i IJ0(|t| tau_i) on a fixed tau rule, |t| <= t_cap.

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
    ij0 = _ij0_upto(t_cap)
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


def build_energy_function(alpha: float, quad: QuadratureConfig | None = None) -> EnergyFunction:
    """Construct the window for one decay target alpha in (0, 1).

    Runs a panel-refinement self-check (doubled panel density must agree
    within quad.abs_tol on a probe grid) and fits an envelope
    e^{-c t^{beta'}} dominating |f| + tol on a grid over [0, T0].  Raises
    ConstructionError if the self-check fails.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    quad = quad or QuadratureConfig()
    rho = (1.0 + alpha) / (1.0 - alpha)
    beta_prime = 0.5 * (1.0 + alpha)

    def rule(osc_panels: int) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = _tau_rule(quad.t_cap, osc_panels)
        coeffs = weights * _ghat_raw(nodes, rho)
        norm = float(coeffs.sum())
        if not (norm > 0.0):
            raise ConstructionError("bump normalization integral vanished")
        return nodes, coeffs / norm

    nodes, coeffs = rule(_PANELS_PER_OSC)
    # self-check: doubled panel density on a probe grid
    fnodes, fcoeffs = rule(2 * _PANELS_PER_OSC)
    probe = np.linspace(0.0, quad.t_cap, 41)
    resid = float(np.max(np.abs(_f_on_rule(probe, nodes, coeffs, quad.t_cap)
                              - _f_on_rule(probe, fnodes, fcoeffs, quad.t_cap))))
    if resid > quad.abs_tol:
        raise ConstructionError("tau quadrature did not converge at the configured density", resid)

    # envelope: e^{-c t^{beta'}} >= |f|+tol at every positive grid point;
    # 0.75 safety factor guards the extrapolation beyond T0
    grid = np.linspace(0.0, quad.t_cap, _GRID_POINTS)[1:]
    absf = np.abs(_f_on_rule(grid, nodes, coeffs, quad.t_cap))
    ratios = -np.log(np.minimum(absf + quad.abs_tol, 0.5)) / grid ** beta_prime
    env_c = 0.75 * float(np.min(ratios))
    if env_c <= 0.0:
        raise ConstructionError("envelope fit produced a nonpositive decay constant")

    return EnergyFunction(
        alpha=alpha,
        rho=rho,
        beta_prime=beta_prime,
        quad=quad,
        nodes=nodes,
        coeffs=coeffs,
        envelope_c=env_c,
    )


def window(ef: EnergyFunction, ts, quad_vals: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The window at each t: (signed value, certified upper bound on |f|,
    envelope flag), the regime decided on |t|.

    |t| <= T0: the quadrature value, bounded by min(|f| + abs_tol, envelope).
    |t| > T0: the fitted envelope as both value and bound, flagged; it is
    meant to overestimate |f| and leaves the sign unresolved, which every
    upper-bound consumer tolerates.  `quad_vals`, when the caller holds them,
    are the quadrature values of the |t| <= T0 entries, in order.
    """
    at = np.abs(np.asarray(ts, dtype=float))
    flags = at > ef.quad.t_cap
    env = ef.envelope(at)
    vals = env.copy()
    vals[~flags] = (_f_on_rule(at[~flags], ef.nodes, ef.coeffs, ef.quad.t_cap)
                    if quad_vals is None else quad_vals)
    up = np.where(flags, env, np.minimum(np.abs(vals) + ef.quad.abs_tol, env))
    return vals, up, flags


_NO_VALUES = np.zeros(0)


def f_delta_batch(ef: EnergyFunction, delta: float, n_lo: int, n_hi: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`window` on the lattice t = delta*N, N = n_lo..n_hi, through the memo.

    The quadrature values for one delta live in one array in `ef.cache`,
    f(delta*N) for N = 0, 1, ..., grown to the largest N asked for in the
    quadrature range.  A value does not depend on the call that computed
    it, so the memo needs no lock: two calls racing to grow it store arrays
    that agree on their common prefix, and the loser's points are recomputed,
    to the same bits, when next asked for.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if n_lo < 0:
        raise ValueError("n_lo must be >= 0")
    ts = delta * np.arange(n_lo, n_hi + 1)
    n_quad = int(np.count_nonzero(ts <= ef.quad.t_cap))   # a prefix: delta*N grows with N
    memo = ef.cache.get(delta, _NO_VALUES)
    if n_quad and len(memo) < n_lo + n_quad:
        fresh = delta * np.arange(len(memo), n_lo + n_quad)
        memo = np.concatenate((memo, _f_on_rule(fresh, ef.nodes, ef.coeffs, ef.quad.t_cap)))
        ef.cache[delta] = memo
    return window(ef, ts, memo[n_lo : n_lo + n_quad])


def eval_f(ef: EnergyFunction, t: float) -> float:
    """f(t), the envelope beyond T0; see `window`."""
    return float(window(ef, [t])[0][0])


def eval_f_many(ef: EnergyFunction, ts: np.ndarray) -> np.ndarray:
    """Vectorized f over arguments with |t| <= T0 (raises beyond)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(np.abs(ts) > ef.quad.t_cap):
        raise ValueError(f"arguments exceed the quadrature range [0, {ef.quad.t_cap}]")
    return _f_on_rule(ts, ef.nodes, ef.coeffs, ef.quad.t_cap)


# ---------------------------------------------------------------------------
# synthetic boundary pairs and the window's defining sum rule
# ---------------------------------------------------------------------------

# FFT samples of a pair's difference G; freq_cut is too small when one of the
# 12 highest kept coefficients exceeds _PAIR_TAIL_TOL
_PAIR_SAMPLES = 8192
_PAIR_TAIL_TOL = 1e-4


@dataclass(frozen=True)
class SyntheticPair:
    """Coefficient pair (a_N, b_N), N = 0..freq_cut, built so that
    A(t) = sum a_N e^{iNt} and B(t) = sum b_N e^{-iNt} agree on (-delta, delta).

    gap_certificate samples max |A - B| on the agreement interval;
    tail_mass bounds the Fourier mass discarded at freq_cut.
    """

    delta: float
    freq_cut: int
    seed: int
    a: np.ndarray
    b: np.ndarray
    gap_certificate: float
    tail_mass: float
    n_bumps: int


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
    for smooth G).  Raises ConstructionError when the discarded tail mass
    exceeds _PAIR_TAIL_TOL, i.e. freq_cut is too small for the requested delta.
    """
    if not (0.0 < delta < math.pi):
        raise ValueError("delta must lie in (0, pi)")
    if freq_cut < 8:
        raise ValueError("freq_cut must be >= 8")
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(_PAIR_SAMPLES) / _PAIR_SAMPLES
    ts = np.where(t > np.pi, t - 2.0 * np.pi, t)

    span = math.pi - delta
    g_vals = np.zeros(_PAIR_SAMPLES)
    n_bumps = int(rng.integers(2, 5))
    for _ in range(n_bumps):
        side = 1.0 if rng.random() < 0.5 else -1.0
        center = delta + span * rng.uniform(0.38, 0.62)
        width = rng.uniform(0.65, 0.85) * min(center - delta, math.pi - center)
        amp = rng.normal()
        g_vals += amp * _smooth_bump((ts - side * center) / width)

    ghat = np.fft.fft(g_vals) / _PAIR_SAMPLES   # ghat[k] = (2pi)^-1 Int G e^{-ikt}
    tail_mass = float(np.max(np.abs(ghat[freq_cut - 11 : freq_cut + 1])))
    if tail_mass > _PAIR_TAIL_TOL:
        raise ConstructionError(
            f"freq_cut={freq_cut} too small for delta={delta}", tail_mass
        )

    a = np.zeros(freq_cut + 1, dtype=complex)
    b = np.zeros(freq_cut + 1, dtype=complex)
    a[0] = ghat[0] + 1.0
    b[0] = 1.0
    a[1:] = ghat[1 : freq_cut + 1]
    b[1:] = -ghat[-1 : -freq_cut - 1 : -1]    # -ghat[-N]

    gap_grid = np.linspace(-delta, delta, 501)
    n_idx = np.arange(freq_cut + 1)
    a_side = np.exp(1j * np.outer(gap_grid, n_idx)) @ a
    b_side = np.exp(-1j * np.outer(gap_grid, n_idx)) @ b
    gap = float(np.max(np.abs(a_side - b_side)))

    return SyntheticPair(
        delta=delta,
        freq_cut=freq_cut,
        seed=seed,
        a=a,
        b=b,
        gap_certificate=gap,
        tail_mass=tail_mass,
        n_bumps=n_bumps,
    )


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
    with the pair (and with the gap certificate for imperfect pairs).
    """
    n_hi = pair.freq_cut
    if pair.delta * n_hi > ef.quad.t_cap:
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
