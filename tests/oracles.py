"""Independently coded references used to pin package results.

Everything here deliberately avoids the package's algorithms: partition
counts come from exhaustive generation and a coin-change table instead of
the pentagonal recurrence, the oracle entropy from a dense tau density
diagonalized by LAPACK instead of the package's closed form over the level
basis, the Bessel antiderivative from 40-digit piecewise quadrature, a
Struve identity and a cubic Hermite table of scipy's J0 instead of the
package's Chebyshev panels, and the window from the literal nested s x tau
quadrature of its definition instead of the closed-form inner integral.
The split theta_plus - theta_minus of the vacuum pairing is summed over the
dense pure-state vectors of its derivation, which the package never builds.

The one exception is the generator of the package's constants module,
`constants_module`: it is the recipe `src/entrocut/_constants.py` is
written with, its integral of J0 from mpmath's hypergeometric 1F2.  The
Hermite table `build_ij0`, which the window was once built on, reuses the
package's fixed-order row sum and certifies itself against the
Struve-function route `integral_j0`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath as mp
import numpy as np


def count_partitions_enumerated(n: int) -> int:
    """Count partitions of n by generating every one (ascending parts).

    Kelleher's accelerated ascending-composition walk; each partition is
    visited exactly once, so this is a true enumeration, not a recurrence.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    count = 0
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        count += 1
    return count


def partition_counts_table(n_max: int, min_part: int = 1) -> list[int]:
    """p(0..n_max) with all parts >= min_part, by coin-change accumulation."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for part in range(min_part, n_max + 1):
        for m in range(part, n_max + 1):
            dp[m] += dp[m - part]
    return dp


def convolve_exact(a: list[int], b: list[int], n_max: int) -> list[int]:
    """Truncated product of generating functions in exact integers."""
    out = np.convolve(np.array(a, dtype=object), np.array(b, dtype=object))
    return [int(v) for v in out[: n_max + 1]]


def power_kronecker(base: list[int], m: int, log_bound: float) -> list[int]:
    """base^m truncated to len(base), in exact ints, by Kronecker substitution.

    log_bound bounds log c for every truncated coefficient c of base^m; with
    base[0] = 1 and no negative entry, those of base^j, j < m, are no
    larger.  So a slot of log_bound nats holds each kept coefficient with no
    carry from below, and what a product spills past the cut carries only
    upward, into slots that are dropped.  Slots sized to the coefficients,
    not to m times the widest base entry, keep the packed ints a few times
    narrower than `spectra._convolve_power`'s.
    """
    size = len(base)
    slot = int(log_bound / math.log(256)) + 1
    width = size * slot
    packed = int.from_bytes(b"".join(d.to_bytes(slot, "little") for d in base), "little")
    mask = (1 << (8 * width)) - 1
    out, square = 1, packed
    while m:
        if m & 1:
            out = (out * square) & mask
        m >>= 1
        if m:
            square = (square * square) & mask
    raw = out.to_bytes(width, "little")
    return [int.from_bytes(raw[i: i + slot], "little") for i in range(0, width, slot)]


def entropy_eigvalsh(matrix: np.ndarray) -> float:
    """Von Neumann entropy through numpy's LAPACK eigensolver."""
    evals = np.linalg.eigvalsh(np.asarray(matrix))
    evals = np.clip(evals, 0.0, None)
    pos = evals[evals > 0.0]
    return float(-np.sum(pos * np.log(pos)))


def density_from_weights(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Normalized sum_k (w_k / total) |v_k><v_k|, one vector per row.

    The outer products are summed by one matrix product over k.
    """
    weights = np.asarray(weights, dtype=float)
    vectors = np.asarray(vectors, dtype=complex)
    return (vectors.T * (weights / float(np.sum(weights)))) @ vectors.conj()


def _slot_levels(dims_by_level: tuple[int, ...]) -> list[int]:
    """The level N of every slot of the truncated space, the vacuum first."""
    return [n for n, d in enumerate(dims_by_level) for _ in range(d)]


def phase_vector(dim: int, k: int, n: int) -> np.ndarray:
    """v_{k,n} = (e_0 + i^k e_n)/sqrt(2), a unit vector of C^dim for n >= 1."""
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    v[n] = 1j ** k
    return v / math.sqrt(2.0)


def phis(x: np.ndarray, n: int) -> list[complex]:
    """phi_{k,n}(x) = <v_{k,n}, x v_{k,n}> for k = 0..3."""
    return [np.vdot(v, x @ v) for v in (phase_vector(len(x), k, n) for k in range(4))]


def polarization_residuals(x: np.ndarray, n: int) -> tuple[float, float]:
    """Residuals of <e0, x e_n> = sum_k (i^-k/2) phi_{k,n}(x) and
    <e_n, x e0> = sum_k (i^k/2) phi_{k,n}(x)."""
    phi = phis(x, n)
    ik = [1j ** k for k in range(4)]
    return (abs(x[0, n] - sum(np.conj(ik[k]) * phi[k] for k in range(4)) / 2.0),
            abs(x[n, 0] - sum(ik[k] * phi[k] for k in range(4)) / 2.0))


def tau_density(dims_by_level: tuple[int, ...], absf: np.ndarray) -> np.ndarray:
    """The normalized tau state as a dense matrix on the truncated space.

    Slot 0 is the vacuum, with weight 1.  Every later slot n, at level N,
    contributes the four vectors v_{k,n}, k = 0..3, each with weight
    absf[N]/2 = |f(delta N)|/2; nothing assumes the sum is diagonal.
    """
    levels = _slot_levels(dims_by_level)
    dim = len(levels)
    weights = [1.0]
    vectors = [np.eye(1, dim, dtype=complex)[0]]
    for slot in range(1, dim):
        for k in range(4):
            vectors.append(phase_vector(dim, k, slot))
            weights.append(absf[levels[slot]] / 2.0)
    return density_from_weights(np.array(weights), np.array(vectors))


def theta_parts(dims_by_level: tuple[int, ...], window_by_level: np.ndarray,
                x: np.ndarray, y: np.ndarray) -> tuple[complex, complex]:
    """(theta_plus, theta_minus)(x (x) y) summed over the pure states
    phi_{k,n}(x) = <v_{k,n}, x v_{k,n}>.

    window_by_level holds f(delta N) for N = 0..E, with f(0) = 1/2.  The
    vacuum gives 2 f(0) x_00 y_00 to theta_plus.  Each later slot n at level
    N gives, for k = 0..3 and with weight |f(delta N)|/2, the product
    phi_{k,n}(x) phi_{k,n}(y) to the part of f's sign and
    phi_{k,n}(x) phi_{k+2,n}(y) to the other.
    """
    levels = _slot_levels(dims_by_level)
    parts = [2.0 * window_by_level[0] * x[0, 0] * y[0, 0], 0.0]     # plus, minus
    for n in range(1, len(levels)):
        f = float(window_by_level[levels[n]])
        phi_x, phi_y = phis(x, n), phis(y, n)
        paired = sum(phi_x[k] * phi_y[k] for k in range(4))
        crossed = sum(phi_x[k] * phi_y[(k + 2) % 4] for k in range(4))
        parts[f < 0.0] += abs(f) / 2.0 * paired
        parts[f >= 0.0] += abs(f) / 2.0 * crossed
    return complex(parts[0]), complex(parts[1])


def theta_direct(dims_by_level: tuple[int, ...], window_by_level: np.ndarray,
                 x: np.ndarray, y: np.ndarray) -> complex:
    """theta_delta(x (x) y) from its definition: the vacuum row and column sums
    sum_j x_0j f(delta l_j) y_j0 + sum_j y_0j f(delta l_j) x_j0."""
    f = np.asarray(window_by_level)[_slot_levels(dims_by_level)]
    return complex(np.sum(x[0] * f * y[:, 0]) + np.sum(y[0] * f * x[:, 0]))


@lru_cache(maxsize=None)
def _bessel0_zeros_below(x: float, dps: int) -> tuple:
    with mp.workdps(dps):
        zs = []
        k = 1
        while True:
            z = mp.besseljzero(0, k)
            if z >= x:
                return tuple(zs)
            zs.append(z)
            k += 1


@lru_cache(maxsize=None)
def ij0_highprec(x: float, dps: int = 40) -> float:
    """Int_0^x J0 by adaptive quadrature split at the Bessel zeros."""
    if x == 0.0:
        return 0.0
    with mp.workdps(dps):
        pts = [mp.mpf(0), *_bessel0_zeros_below(x, dps), mp.mpf(x)]
        return float(mp.quad(lambda t: mp.besselj(0, t), pts))


@lru_cache(maxsize=None)
def window_highprec(alpha: float, t: float, dps: int = 22) -> float:
    """The energy window at one point by direct high-precision quadrature.

    Uses the single-integral form f(t) = Int_0^1 ghat_n(tau) F(t tau) dtau
    with F(x) = (1 - Int_0^|x| J0)/2, everything through mpmath.  Intended
    for |t| small enough that the tau-integrand stays mildly oscillatory.
    """
    with mp.workdps(dps):
        rho = mp.mpf(1 + alpha) / mp.mpf(1 - alpha)
        zeros = _bessel0_zeros_below(abs(t), dps)

        def ghat(tau):
            if tau <= 0 or tau >= 1:
                return mp.mpf(0)
            return mp.exp(-((4 * tau * (1 - tau)) ** (-rho)))

        norm = mp.quad(ghat, [0, mp.mpf(1) / 2, 1])

        def integrand(tau):
            g = ghat(tau)
            if g == 0:
                return mp.mpf(0)
            x = abs(t) * tau
            if x > 0:
                pts = [mp.mpf(0), *(z for z in zeros if z < x), mp.mpf(x)]
                ij0 = mp.quad(lambda u: mp.besselj(0, u), pts)
            else:
                ij0 = mp.mpf(0)
            return g * (1 - ij0) / 2

        val = mp.quad(integrand, [0, mp.mpf(1) / 2, 1])
        return float(val / norm)


def integral_j0(x: np.ndarray | float) -> np.ndarray:
    """Int_0^x J0(y) dy for x >= 0, via the Struve identity
    IJ0(x) = x J0(x) + (pi x / 2)(J1(x) H0(x) - J0(x) H1(x)).

    scipy.special.itj0y0 returns garbage for x >~ 25, so it is not used.
    Accuracy checked against high-precision quadrature: <= ~2e-14 relative
    up to x = 1500.
    """
    from scipy.special import j0, j1, struve

    x = np.asarray(x, dtype=float)
    return x * j0(x) + 0.5 * np.pi * x * (j1(x) * struve(0, x) - j0(x) * struve(1, x))


# largest gaps allowed between an integral-of-J0 table and the Struve route.
# scipy's Struve functions lose ~1e-12 near their method switch around
# x ~ 25.5 (the table is clean there, checked to 7e-16 against 40-digit
# quadrature), so x in (20, 30) gets the looser IJ0_BLIP_TOL
IJ0_TOL = 2e-13
IJ0_BLIP_TOL = 3e-12


class HermiteTable:
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


def certify_ij0(table) -> tuple[float, float]:
    """Largest gaps between the table and the Struve route, outside and
    inside x in (20, 30).  Probe points include interval midpoints, where
    the Hermite error peaks."""
    top = float(table.xs[-1])
    probe = np.concatenate([
        np.linspace(0.0, top, 2001),
        (np.arange(2000) + 0.5) * (top / 2000.0),   # lands on table midpoints
    ])
    diff = np.abs(table(probe) - integral_j0(probe))
    blip = (probe > 20.0) & (probe < 30.0)
    return float(np.max(diff[~blip])), float(np.max(diff[blip]))


def build_ij0() -> HermiteTable:
    """The integral-of-J0 table on [0, T0] from scipy's J0, certified.

    Step integrals of J0 over the knots k * 0.002 by 8-point Gauss-Legendre
    (error per step far below eps), accumulated in extended precision, then
    the Hermite interpolant with the exact derivative IJ0' = J0.  The window
    build once read IJ0 from this table, shipped as a 1.6 MB binary file;
    the committed Chebyshev panels of `constants_module` replaced it.  The
    tests keep it as a second route to the window.
    """
    from scipy.special import j0

    from entrocut.energy import T0, _weighted_row_sums

    step = 0.002
    n_steps = round(T0 / step)
    xs = np.linspace(0.0, T0, n_steps + 1)
    gx, gw = np.polynomial.legendre.leggauss(8)
    mids = xs[:-1, None] + 0.5 * step * (1.0 + gx[None, :])
    steps = (0.5 * step) * _weighted_row_sums(j0(mids), gw)
    ys = np.concatenate(([0.0], np.cumsum(steps.astype(np.longdouble)))).astype(float)
    table = HermiteTable(xs, ys, j0(xs))
    err_out, err_in = certify_ij0(table)
    if err_out > IJ0_TOL or err_in > IJ0_BLIP_TOL:
        raise ValueError(f"integral-J0 table disagrees with the Struve route by "
                         f"{max(err_out, err_in):.3e}")
    return table


# the generated module src/entrocut/_constants.py: its constants are computed
# at CONSTANTS_DPS digits and each is rounded to a double once
CONSTANTS_DPS = 30
GAUSS_POINTS = 16
IJ0_PANEL_DEGREE = 14


def ij0_mp(x) -> mp.mpf:
    """Int_0^x J0 = x 1F2(1/2; 1, 3/2; -x^2/4) at the working precision."""
    x = mp.mpf(x)
    return x * mp.hyp1f2(mp.mpf(1) / 2, 1, mp.mpf(3) / 2, -x * x / 4)


def gauss_legendre_mp(n: int) -> tuple[list, list]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1] at the working precision: Newton's method on P_n, taken by its
    three-term recurrence, from cos(pi (i - 1/4) / (n + 1/2))."""
    def legendre(x):
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)          # P_n, P_n'

    nodes, weights = [], []
    for i in range(1, n + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) < 4 * mp.eps:
                break
        _, dp = legendre(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes[::-1], weights[::-1]


def ij0_panel_coefficients_mp(count: int, width, degree: int) -> list[list]:
    """Per panel [p width, (p+1) width], p < count, the T_0..T_degree
    coefficients of the interpolant of IJ0 at the panel's degree + 1
    Chebyshev-Lobatto points, by the DCT-I at the working precision."""
    d = degree
    ys = [mp.cos(mp.pi * j / d) for j in range(d + 1)]
    cos = [[mp.cos(mp.pi * ((j * k) % (2 * d)) / d) for j in range(d + 1)] for k in range(d + 1)]
    panels = []
    for p in range(count):
        vals = [ij0_mp(width * (p + (1 + y) / 2)) for y in ys]
        vals[0] /= 2
        vals[d] /= 2
        coeffs = [2 * mp.fsum(v * c for v, c in zip(vals, row)) / d for row in cos]
        coeffs[0] /= 2
        coeffs[d] /= 2
        panels.append(coeffs)
    return panels


def _hex_lines(rows) -> str:
    return "".join(" ".join(float(v).hex() for v in row) + "\n" for row in rows)


def constants_module() -> str:
    """The text of `src/entrocut/_constants.py`, from mpmath alone.

    Nothing here reads libm, LAPACK or the CPU, so the text is the same on
    every machine.  From the repository root,

        PYTHONPATH=src:tests python -c "import oracles, pathlib; pathlib.Path('src/entrocut/_constants.py').write_text(oracles.constants_module())"

    rewrites the file.
    """
    from entrocut.energy import _PANEL_COUNT, T0

    with mp.workdps(CONSTANTS_DPS):
        nodes, weights = gauss_legendre_mp(GAUSS_POINTS)
        width = mp.mpf(T0) / _PANEL_COUNT
        panels = ij0_panel_coefficients_mp(_PANEL_COUNT, width, IJ0_PANEL_DEGREE)
    return f'''"""Constants of the window build, generated by `tests/oracles.py`.

Do not edit: `oracles.constants_module()` computes this text in mpmath at
{CONSTANTS_DPS} digits, rounding each constant to a double once, and a test
compares it with this file.  `entrocut.energy` reads the `float.hex` values.
"""

# the {GAUSS_POINTS}-point Gauss-Legendre rule on [-1, 1]: the nodes in
# ascending order, then their weights
GAUSS_LEGENDRE = """
{_hex_lines((nodes, weights))}"""

# IJ0(x) = Int_0^x J0 on the {_PANEL_COUNT} panels of width {float(width):g} of [0, {T0:g}]:
# line p holds the T_0..T_{IJ0_PANEL_DEGREE} coefficients of its interpolant at the
# {IJ0_PANEL_DEGREE + 1} Chebyshev-Lobatto points of panel p, with IJ0 taken as
# x 1F2(1/2; 1, 3/2; -x^2/4)
IJ0_PANELS = """
{_hex_lines(panels)}"""
'''


def f_on_rule_full_width(ts, nodes: np.ndarray, coeffs: np.ndarray, spline) -> np.ndarray:
    """1/2 - 1/2 sum_i c_i IJ0(|t| tau_i) with `spline` as IJ0 at every node.

    Zero coefficients included, one row per t in one block, and the row
    reduced by numpy's pairwise sum, the order the package fixes.
    """
    x = np.abs(np.asarray(ts, dtype=float))[:, None] * nodes[None, :]
    ij = spline(x.ravel()).reshape(x.shape)
    return 0.5 - 0.5 * (ij * coeffs).sum(axis=-1)


def eval_f_reference(ef, t: float, u_cut: float = 300.0) -> float:
    """Nested double quadrature for f(t): the literal s x tau layout.

    Slow reference route that cross-checks the package's closed-form inner
    integral; it shares only the bump and its tau rule with the package.
    The s-integral runs to s* = arccos(|t|/u_cut); the remaining wedge
    contributes at most (pi/2 - s*) * sup_{u >= u_cut} |g(u)|, far below
    double precision for the default cut.
    """
    from numpy.polynomial.legendre import leggauss

    from entrocut.energy import _ghat_raw, _tau_rule

    at = abs(float(t))
    if at >= u_cut:
        raise ValueError("reference route needs |t| < u_cut")
    nodes, weights = _tau_rule(u_cut)
    gh = _ghat_raw(nodes, ef.rho)
    coeffs = weights * gh / float(weights @ gh)

    def re_g(u: np.ndarray) -> np.ndarray:
        return np.cos(u[:, None] * nodes[None, :]) @ coeffs

    if at == 0.0:
        s_break = np.linspace(0.0, 0.5 * np.pi, 60)
    else:
        u_break = np.append(np.arange(at, u_cut, 2.0), u_cut)
        s_break = np.arccos(np.clip(at / u_break, -1.0, 1.0))
    xg, wg = leggauss(16)
    total = 0.0
    for i in range(len(s_break) - 1):
        mid = 0.5 * (s_break[i] + s_break[i + 1])
        half = 0.5 * (s_break[i + 1] - s_break[i])
        ss = mid + half * xg
        u = at / np.cos(ss) if at > 0.0 else np.zeros_like(ss)
        total += half * float(wg @ re_g(u))
    return total / np.pi


def weighted_sup(ef, grid_points: int = 1601) -> float:
    """max |f(t)| e^{|t|^alpha} over a uniform grid of [0, T0].

    The decay claim says this stays bounded; it is sampled, so tests compare
    it across grid refinements rather than trust one grid.
    """
    from entrocut.energy import T0, eval_f_many

    grid = np.linspace(0.0, T0, grid_points)
    return float(np.max(np.abs(eval_f_many(ef, grid)) * np.exp(grid ** ef.alpha)))


def trace_direct(dims: list[int], beta: float) -> float:
    """sum_N d_N e^{-beta N} by compensated float summation."""
    return math.fsum(d * math.exp(-beta * n) for n, d in enumerate(dims))


def log_trace_exact_mp(beta: float, kind: str = "u1", power: int = 1) -> mp.mpf:
    """log Tr e^{-beta L0} for u1^power or virasoro^power, from the Dedekind
    eta transformation instead of any sum over levels, as an mpf.

    With P(q) = prod_{n>=1} (1 - q^n)^{-1}, the generating function of p(N),
    P(e^{-beta}) = sqrt(beta/(2 pi)) exp(pi^2/(6 beta) - beta/24) P(e^{-4 pi^2/beta}),
    and the last factor is a product at q' = e^{-4 pi^2/beta}, taken to the
    first factor below the working precision.  Virasoro's generating function
    is P(q) (1 - q); a tensor power raises it to that power.  The log of u1
    is near e^{-beta} and of virasoro near e^{-2 beta} at large beta, while
    the terms summed are near pi^2/(6 beta) + beta/24, so the work takes
    40 + beta digits: 40 of them survive the cancellation.
    """
    with mp.workdps(40 + int(beta)):
        b = mp.mpf(beta)
        q_dual = mp.exp(-4 * mp.pi ** 2 / b)
        log_p = mp.log(b / (2 * mp.pi)) / 2 + mp.pi ** 2 / (6 * b) - b / 24
        n = 1
        while q_dual ** n > mp.eps:
            log_p -= mp.log1p(-q_dual ** n)
            n += 1
        if kind == "virasoro":
            log_p += mp.log1p(-mp.exp(-b))
        return power * log_p


def log_trace_exact(beta: float, kind: str = "u1", power: int = 1) -> float:
    """`log_trace_exact_mp` rounded to a float."""
    return float(log_trace_exact_mp(beta, kind, power))


def boundary_gap(pair, points: int = 501) -> float:
    """max |A(t) - B(t)| of a synthetic pair on `points` points of [-delta, delta],
    with A(t) = sum a_N e^{iNt} and B(t) = sum b_N e^{-iNt}: how far the two
    boundary values are from agreeing where they should."""
    grid = np.linspace(-pair.delta, pair.delta, points)
    n = np.arange(pair.freq_cut + 1)
    a_side = np.exp(1j * np.outer(grid, n)) @ pair.a
    b_side = np.exp(-1j * np.outer(grid, n)) @ pair.b
    return float(np.max(np.abs(a_side - b_side)))


def random_bumps(seed: int) -> list[tuple]:
    """2-4 bumps for `make_synthetic_pair`, drawn from `seed` as the spectral
    suite once drew its pairs: random sides, centres at 0.38-0.62 of the band
    [delta, pi], widths 0.65-0.85 of the room to its nearer end and normal
    amplitudes.  The package checks one fixed family of single bumps; by the
    sum rule's linearity a mix of them checks nothing more, which these
    random mixes show."""
    rng = np.random.default_rng(seed)
    bumps = []
    for _ in range(int(rng.integers(2, 5))):
        side = 1.0 if rng.random() < 0.5 else -1.0
        centre = rng.uniform(0.38, 0.62)
        width = rng.uniform(0.65, 0.85)
        bumps.append((rng.normal(), side, centre, width))
    return bumps


def schatten_sum_direct(matrix: np.ndarray, p: float, cut: float = 1e-12) -> float:
    """sum sigma^p through numpy's SVD with a plain relative cutoff."""
    sigma = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0.0
    return float(np.sum(sigma[sigma > cut * sigma[0]] ** p))


def sum_exp_neg_power_exact(kappa: float, m: int = 200_000, dps: int = 30) -> mp.mpf:
    """sum_{N<m} e^{-N^kappa} + Gamma(1/kappa, (m-1)^kappa)/kappa at dps digits:
    the exact value of what `bounds._sum_exp_neg_power` sums in floats, its
    partial sum and its incomplete-gamma tail.  Terms below 10^-(dps+5) of
    the running sum are dropped, which moves no digit kept.  About 7 s a
    kappa where all m terms count (kappa 0.1 and 0.31), so the values are
    committed in SUM_EXP_NEG_POWER."""
    with mp.workdps(dps):
        k = mp.mpf(kappa)
        total = mp.mpf(0)
        for n in range(m):
            term = mp.exp(-mp.mpf(n) ** k)
            total += term
            if n > 10 and term < total * mp.mpf(10) ** (-dps - 5):
                break
        return total + mp.gammainc(1 / k, mp.mpf(m - 1) ** k) / k


# kappa -> sum_exp_neg_power_exact(kappa) to 25 digits
SUM_EXP_NEG_POWER = {
    0.1: "3628800.79944840547245432",
    0.31: "8.742895031463368185136772",
    0.6: "2.153287825344551430333568",
    0.9: "1.648257626803184976187451",
}
