"""Independently coded references used to pin package results.

Everything here deliberately avoids the package's algorithms: partition
counts come from exhaustive generation and a coin-change table instead of
the pentagonal recurrence, the oracle entropy from a dense tau density
diagonalized by LAPACK instead of the package's closed form over the level
basis, the Bessel antiderivative from 40-digit piecewise quadrature
instead of the Struve identity or the tabulated spline, and the window from
the literal nested s x tau quadrature of its definition instead of the
closed-form inner integral.  The tabulated
spline itself is pinned, bit for bit, by scipy's CubicHermiteSpline through
the same knots, evaluated at every tau node of the rule.

The one exception is the builder of the shipped integral-of-J0 table,
`build_ij0`: it is the recipe the file was written with, so it reuses the
package's Hermite reader and fixed-order row sum, and it certifies its
table against the Struve-function route `integral_j0`.
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


def tau_density(dims_by_level: tuple[int, ...], absf: np.ndarray) -> np.ndarray:
    """The normalized tau state as a dense matrix on the truncated space.

    Slot 0 is the vacuum, with weight 1.  Every later slot n, at level N,
    contributes the four vectors (e_0 + i^k e_n)/sqrt(2), k = 0..3, each with
    weight absf[N]/2 = |f(delta N)|/2; nothing assumes the sum is diagonal.
    """
    levels = [n for n, d in enumerate(dims_by_level) for _ in range(d)]
    dim = len(levels)
    weights = [1.0]
    vectors = [np.eye(1, dim, dtype=complex)[0]]
    for slot in range(1, dim):
        for k in range(4):
            v = np.zeros(dim, dtype=complex)
            v[0] = 1.0
            v[slot] = 1j ** k
            vectors.append(v / math.sqrt(2.0))
            weights.append(absf[levels[slot]] / 2.0)
    return density_from_weights(np.array(weights), np.array(vectors))


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


def build_ij0():
    """The integral-of-J0 table on [0, T0] from scipy's J0, certified.

    Step integrals of J0 over the knots k * 0.002 by 8-point Gauss-Legendre
    (error per step far below eps), accumulated in extended precision, then
    the Hermite interpolant with the exact derivative IJ0' = J0.  This is
    how `src/entrocut/ij0_table.npy` was written; from the repository root,

        PYTHONPATH=src:tests python -c "import numpy as np, oracles; t = oracles.build_ij0(); np.save('src/entrocut/ij0_table.npy', np.stack((t.ys, t.dydx)))"

    rewrites it, after which `energy._SHIPPED_SHA256` is set to the new
    file's sha256.
    """
    from scipy.special import j0

    from entrocut.energy import T0, _HermiteTable, _weighted_row_sums

    step = 0.002
    n_steps = round(T0 / step)
    xs = np.linspace(0.0, T0, n_steps + 1)
    gx, gw = np.polynomial.legendre.leggauss(8)
    mids = xs[:-1, None] + 0.5 * step * (1.0 + gx[None, :])
    steps = (0.5 * step) * _weighted_row_sums(j0(mids), gw)
    ys = np.concatenate(([0.0], np.cumsum(steps.astype(np.longdouble)))).astype(float)
    table = _HermiteTable(xs, ys, j0(xs))
    err_out, err_in = certify_ij0(table)
    if err_out > IJ0_TOL or err_in > IJ0_BLIP_TOL:
        raise ValueError(f"integral-J0 table disagrees with the Struve route by "
                         f"{max(err_out, err_in):.3e}")
    return table


def ij0_scipy_spline(table):
    """scipy's CubicHermiteSpline through the knots, values and derivatives
    (J0 at the knots) of a package integral-of-J0 table.

    Interval search and polynomial evaluation are scipy's (PPoly), so this
    pins the package's direct-index reading of the same interpolant.
    """
    from scipy.interpolate import CubicHermiteSpline

    return CubicHermiteSpline(table.xs, table.ys, table.dydx)


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
    from entrocut import eval_f_many

    grid = np.linspace(0.0, ef.quad.t_cap, grid_points)
    return float(np.max(np.abs(eval_f_many(ef, grid)) * np.exp(grid ** ef.alpha)))


def trace_direct(dims: list[int], beta: float) -> float:
    """sum_N d_N e^{-beta N} by compensated float summation."""
    return math.fsum(d * math.exp(-beta * n) for n, d in enumerate(dims))


def log_trace_exact(beta: float, kind: str = "u1", power: int = 1) -> float:
    """log Tr e^{-beta L0} for u1^power or virasoro^power, from the Dedekind
    eta transformation instead of any sum over levels.

    With P(q) = prod_{n>=1} (1 - q^n)^{-1}, the generating function of p(N),
    P(e^{-beta}) = sqrt(beta/(2 pi)) exp(pi^2/(6 beta) - beta/24) P(e^{-4 pi^2/beta}),
    and the last factor is a product at q' = e^{-4 pi^2/beta}, taken at 40
    digits to the first factor below 1e-45.  Virasoro's generating function
    is P(q) (1 - q); a tensor power raises it to that power.
    """
    with mp.workdps(40):
        b = mp.mpf(beta)
        q_dual = mp.exp(-4 * mp.pi ** 2 / b)
        log_p = mp.log(b / (2 * mp.pi)) / 2 + mp.pi ** 2 / (6 * b) - b / 24
        n = 1
        while q_dual ** n > mp.mpf("1e-45"):
            log_p -= mp.log1p(-q_dual ** n)
            n += 1
        if kind == "virasoro":
            log_p += mp.log1p(-mp.exp(-b))
        return float(power * log_p)


def boundary_gap(pair, points: int = 501) -> float:
    """max |A(t) - B(t)| of a synthetic pair on `points` points of [-delta, delta],
    with A(t) = sum a_N e^{iNt} and B(t) = sum b_N e^{-iNt}: how far the two
    boundary values are from agreeing where they should."""
    grid = np.linspace(-pair.delta, pair.delta, points)
    n = np.arange(pair.freq_cut + 1)
    a_side = np.exp(1j * np.outer(grid, n)) @ pair.a
    b_side = np.exp(-1j * np.outer(grid, n)) @ pair.b
    return float(np.max(np.abs(a_side - b_side)))


def schatten_sum_direct(matrix: np.ndarray, p: float, cut: float = 1e-12) -> float:
    """sum sigma^p through numpy's SVD with a plain relative cutoff."""
    sigma = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0.0
    return float(np.sum(sigma[sigma > cut * sigma[0]] ** p))
