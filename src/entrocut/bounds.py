"""Closed-form bound computations: entropy caps, their exact oracle and
trace bounds.

The distance-regularized series C_delta/S_delta and the cutoff constants
c_{delta,E}/S_{delta,E}/C_E/S_E cap the entropy of the tau state, which the
oracle computes exactly on a truncated space: one basis vector e_n per
spectrum slot with integer label l_n <= E, the vacuum e0 at index 0.  The
smeared vacuum pairing

    theta_delta(x (x) y) = <e0, x f_delta(L) y e0> + <e0, y f_delta(L) x e0>,
    L = diag(l_n),  f_delta(t) = f(delta t),

splits into theta_plus - theta_minus, sums of products of the pure states of
v_{k,n} = (e0 + i^k e_n)/sqrt(2) with weights |f_delta(l_n)|/2, the sign of
f_delta(l_n) picking the partner index k or k+2 (mod 4).  The tau state is
theta_plus(. (x) 1).  Its four phase vectors per slot sum to
2(|e0><e0| + |e_n><e_n|), so it is diagonal in the level basis and its
entropy has a closed form (`_tau_entropies`); the decomposition itself is
built densely only in the tests (`tests/oracles.py`).

Partition-trace bounds with explicit constants cap Tr(e^{-beta L0}), which
at p*beta is also the p-sum of the damping map e^{-beta L0} (its singular
values are e^{-beta N}, d_N times each).  Series are accumulated in log
space so fast-growing spectra cannot silently overflow, and every
truncation is closed with a certified analytic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import T0, EnergyFunction, f_delta_batch
from .errors import DivergenceError, OracleLimitError
from .spectra import GrowthFit, SpectrumModel, log_trace_coefficient

_INV_E = 1.0 / math.e
_LOG2 = math.log(2.0)
_LOG4 = math.log(4.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# series truncation: streaming stops after _CONSECUTIVE successive terms fall
# below _REL_EPS times the running sum, read in blocks of _BLOCK terms; the
# analytic tail scans at most _TAIL_BLOCKS chunks of _TAIL_CHUNK terms; a
# built-in's stream ends by N = _N_CAP or raises
_REL_EPS = 1e-18
_LOG_REL_EPS = math.log(_REL_EPS)
_CONSECUTIVE = 10
_BLOCK = 2048
_TAIL_CHUNK = 4096
_TAIL_BLOCKS = 64
_N_CAP = 20000
# room for the rounding of a tail bound's terms, taken in scalar floats
_TAIL_SLACK = 1e-6
# a report's chain c_{delta,E} <= C_E, S_{delta,E} <= S_E holds to this slack
_CHAIN_TOL = 1e-9
# the oracle passes when its entropy bound falls short of the exact value by at most this
_SLACK_TOL = 1e-9


@dataclass(frozen=True)
class TailConfig:
    """Series truncation policy: fit (required for built-in spectra)
    certifies the analytic tail past the streamed range, which ends by
    N = _N_CAP."""

    fit: GrowthFit | None = None


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bound outputs for one (model, alpha, delta, E) cell.

    Fields not produced by the originating operation stay None.
    """

    model_label: str
    alpha: float
    delta: float | None = None
    energy_cut: int | None = None
    C_delta: float | None = None
    S_delta: float | None = None
    H_delta_bound: float | None = None
    c_deltaE: float | None = None
    S_deltaE: float | None = None
    cutoff_bound: float | None = None
    C_E: float | None = None
    S_E: float | None = None
    HE_bound: float | None = None
    n_max_used: int | None = None
    tail_estimate: float | None = None
    envelope_used: bool = False

    def validate(self) -> None:
        for name in ("C_delta", "S_delta", "H_delta_bound", "c_deltaE", "S_deltaE",
                     "cutoff_bound", "C_E", "S_E", "HE_bound", "tail_estimate"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise DivergenceError(f"{name} is not finite in report for {self.model_label}")
        if self.c_deltaE is not None and self.C_E is not None \
                and self.c_deltaE > self.C_E + _CHAIN_TOL:
            raise DivergenceError(
                f"c_deltaE = {self.c_deltaE!r} exceeds C_E = {self.C_E!r}"
            )
        if self.S_deltaE is not None and self.S_E is not None \
                and self.S_deltaE > self.S_E + _CHAIN_TOL:
            raise DivergenceError(
                f"S_deltaE = {self.S_deltaE!r} exceeds S_E = {self.S_E!r}"
            )


def eta(x: np.ndarray | float) -> np.ndarray | float:
    """-x log x elementwise, with eta(0) = 0; requires x >= 0 (NaN raises).

    A von Neumann entropy is the sum of eta over a spectrum; the caps and
    the oracle here sum it over window weights.
    """
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


def _eta_upper(x: np.ndarray) -> np.ndarray:
    # eta increases only below 1/e; cap by the global maximum past that
    x = np.asarray(x, dtype=float)
    rising = x < _INV_E
    if rising.all():
        return eta(x)
    return np.where(rising, eta(np.minimum(x, 1.0)), _INV_E)


def _log0(x: np.ndarray) -> np.ndarray:
    """log x elementwise for x >= 0, -inf where x is 0, with no warning."""
    pos = x > 0.0
    if pos.all():
        return np.log(x)
    return np.where(pos, np.log(np.maximum(x, 5e-324)), -np.inf)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) for a finite 1-D array, with the bits of
    scipy.special.logsumexp: the maxima are taken out of the shifted sum, in
    place, so the pairwise sum reduces the same row, and log1p(s/m) + log(m)
    + max for m maxima."""
    a_max = a.max()
    shifted = a - a_max
    top = shifted == 0.0          # exactly the maxima, for finite a
    m = np.float64(np.count_nonzero(top))
    shifted[top] = -np.inf
    return np.log1p(np.exp(shifted).sum() / m) + np.log(m) + a_max


def _series_tail(ef: EnergyFunction, delta: float, fit: GrowthFit,
                 n_start: int) -> tuple[float, float]:
    """(log tail_C, log tail_S) for the streamed series past n_start.

    Uses dims <= C e^{N^kappa} and the certified decay envelope; terms are
    summed in log space, _TAIL_CHUNK at a time, until a chunk is negligible
    against the total.

    A chunk is skipped when a bound already shows it negligible.  The log of
    a C term, a(N) = log 2 + log C + N^kappa - v(N) with v(N) =
    c (delta N)^beta', rises and then falls (kappa < beta'), so on a chunk
    N0..N1 past the peak the C sum is below a(N0) + log(_TAIL_CHUNK).  Where
    log 2 + v(N) > 1 the log of an S term is a(N) + log(log 2 + v(N)), and
    v rises, so the S sum is below that bound plus log(log 2 + v(N1)).  The
    chunk would end the loop, and adding it would move each log total by
    under 1e-18, below half its ulp unless the total lies within 1/64 of 0:
    the result is the one the loop gives with the chunk computed.
    """
    kappa, c, bp = fit.kappa, ef.envelope_c, ef.beta_prime
    total_c = total_s = -math.inf
    for k in range(_TAIL_BLOCKS):
        n0 = n_start + k * _TAIL_CHUNK
        v0 = c * (delta * n0) ** bp
        if k and kappa * n0 ** kappa < 0.999 * bp * v0 and _LOG2 + v0 > 1.0:
            bound_c = _LOG2 + fit.log_C + n0 ** kappa - v0 + math.log(_TAIL_CHUNK) + _TAIL_SLACK
            bound_s = bound_c + math.log(_LOG2 + c * (delta * (n0 + _TAIL_CHUNK - 1)) ** bp)
            if bound_c < total_c + _LOG_REL_EPS and bound_s < total_s + _LOG_REL_EPS:
                return total_c, total_s
        ns = np.arange(n0, n0 + _TAIL_CHUNK, dtype=float)
        log_env = -c * (delta * ns) ** bp
        log_dims = fit.log_C + ns ** kappa
        chunk_c = float(_logsumexp(_LOG2 + log_dims + log_env))
        # eta(x) = x (-log x) at x = env/2, which rises to its cap 1/e at
        # x = 1/e; in logs, log(-log x) + log x capped at -1
        neg_log_x = _LOG2 - log_env
        log_eta = np.minimum(np.log(np.maximum(neg_log_x, 1.0)) - neg_log_x, -1.0)
        chunk_s = float(_logsumexp(_LOG4 + log_dims + log_eta))
        total_c = float(np.logaddexp(total_c, chunk_c))
        total_s = float(np.logaddexp(total_s, chunk_s))
        if chunk_c < total_c + _LOG_REL_EPS and chunk_s < total_s + _LOG_REL_EPS:
            return total_c, total_s
    raise DivergenceError(
        f"analytic tail did not close within {_TAIL_BLOCKS * _TAIL_CHUNK} terms; "
        f"fitted kappa = {fit.kappa:g} is too close to the decay exponent alpha = {ef.alpha:g}"
    )


def _series_stop(small: np.ndarray, consec: int, finite_support: bool
                 ) -> tuple[int | None, int]:
    """Where the stop rule fires in one block of the series, and the run of
    small terms the block hands on.

    `small` flags the block's terms; `consec` is the run of small terms
    carried in from the blocks before, which a run starting at the block's
    first term continues.  The run ending at each term starts after the last
    term that is not small, found by `maximum.accumulate` over their
    indices.  The rule fires at the first term that ends a run of
    _CONSECUTIVE, never for a finitely supported spectrum.
    """
    idx = np.arange(len(small))
    runs = idx - np.maximum.accumulate(np.where(small, -1 - consec, idx))
    done = runs >= _CONSECUTIVE
    stop = int(np.argmax(done)) if done.any() and not finite_support else None
    return stop, int(runs[-1])


def distance_regularized_bound(model: SpectrumModel, ef: EnergyFunction,
                               delta: float, tail: TailConfig | None = None) -> BoundReport:
    """C_delta = sum_N 2 d_N |f(delta N)|, S_delta = sum_{N>0} 4 d_N eta(|f(delta N)|/2),
    and the entropy cap H = C_delta log C_delta + S_delta.

    Built-in spectra stream until the termination rule fires, then add a
    certified analytic tail from the growth fit; finitely supported custom
    spectra are summed in full.  Raises DivergenceError when the fitted
    growth exponent is not below the window decay exponent.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    tail = tail or TailConfig()
    finite_support = model.kind == "custom"
    fit = tail.fit
    if not finite_support:
        if fit is None:
            raise ValueError("a GrowthFit is required for spectra with unbounded support")
        if fit.kappa >= ef.alpha:
            raise DivergenceError(
                f"series diverges: fitted growth exponent kappa = {fit.kappa:g} "
                f"is not below the window decay exponent alpha = {ef.alpha:g}"
            )

    log_c = -np.inf
    log_s = -np.inf
    consec = 0
    n_stop: int | None = None
    envelope_used = False
    n = 0
    hard_cap = model.n_max if finite_support else _N_CAP
    lt_c = np.zeros(0)
    while n <= hard_cap and n_stop is None:
        hi = min(n + _BLOCK - 1, hard_cap)
        _, up, flags = f_delta_batch(ef, delta, n, hi)
        # a zero level reads log d_N = -inf, which the finite or -inf logs
        # of the window bounds leave at -inf
        ld = model.log_dims(n, hi)
        lt_c = _LOG2 + ld + _log0(up)
        lt_s = _LOG4 + ld + _log0(_eta_upper(up / 2.0))
        if n == 0:
            lt_s[0] = -np.inf        # vacuum level never contributes to S
        # logaddexp.accumulate is a sequential fold, carried across blocks
        run_c = np.logaddexp.accumulate(np.concatenate(([log_c], lt_c)))[1:]
        thresh = _LOG_REL_EPS + run_c
        small = (lt_c < thresh) & (lt_s < thresh)
        stop_i, consec = _series_stop(small, consec, finite_support)
        end = len(lt_c) if stop_i is None else stop_i + 1
        log_c = float(run_c[end - 1])
        log_s = float(np.logaddexp.accumulate(np.concatenate(([log_s], lt_s[:end])))[-1])
        envelope_used = envelope_used or bool(flags[:end].any())
        if stop_i is None:
            n = hi + 1
        else:
            n_stop = n + stop_i
    if n_stop is None:
        if finite_support:
            n_stop = hard_cap
        else:
            if len(lt_c) and float(np.argmax(lt_c)) >= 0.9 * len(lt_c):
                raise DivergenceError(
                    f"series terms still growing at N = {_N_CAP}: fitted growth "
                    f"kappa = {fit.kappa:g} is too close to the decay exponent "
                    f"alpha = {ef.alpha:g}"
                )
            raise DivergenceError(
                f"series decays too slowly to meet the termination rule by "
                f"N = {_N_CAP} (kappa = {fit.kappa:g} < alpha = {ef.alpha:g})"
            )

    tail_log_c = -np.inf
    tail_log_s = -np.inf
    if not finite_support:
        tail_log_c, tail_log_s = _series_tail(ef, delta, fit, n_stop + 1)
        envelope_used = True

    log_c_total = float(np.logaddexp(log_c, tail_log_c))
    log_s_total = float(np.logaddexp(log_s, tail_log_s))
    if max(log_c_total, log_s_total) >= _LOG_FLOAT_MAX:
        raise DivergenceError(
            f"series value exceeds floating range (log C_delta = {log_c_total:.3f})"
        )
    c_delta = math.exp(log_c_total)
    s_delta = 0.0 if log_s_total == -np.inf else math.exp(log_s_total)
    tail_est = math.exp(tail_log_c) + (0.0 if tail_log_s == -np.inf else math.exp(tail_log_s)) \
        if not finite_support else 0.0
    h_bound = c_delta * math.log(c_delta) + s_delta
    report = BoundReport(
        model_label=model.label,
        alpha=ef.alpha,
        delta=delta,
        C_delta=c_delta,
        S_delta=s_delta,
        H_delta_bound=h_bound,
        n_max_used=n_stop,
        tail_estimate=tail_est,
        envelope_used=envelope_used,
    )
    report.validate()
    return report


def _cutoff_caps(ef: EnergyFunction, dims: list[int]) -> tuple[float, float]:
    """(C_E, S_E) for dims = [d_0, ..., d_E]: delta-free caps from the
    certified window suprema."""
    total = sum(dims)
    excited = total - dims[0]
    c_e = 2.0 * ef.sup_f * float(total)
    s_e = 4.0 * ef.sup_eta * float(excited)
    return c_e, s_e


def cutoff_bound(model: SpectrumModel, ef: EnergyFunction, delta: float,
                 energy_cut: int) -> BoundReport:
    """Cutoff constants and the entropy cap log c_{delta,E} + S_{delta,E}/c_{delta,E}.

    c_{delta,E} = sum_{N<=E} 2 d_N |f(delta N)|,
    S_{delta,E} = sum_{1<=N<=E} 4 d_N eta(|f(delta N)|/2),
    C_E = 2 sup|f| sum_{N<=E} d_N,  S_E = 4 sup eta(|f|/2) sum_{1<=N<=E} d_N,
    HE = C_E log C_E + S_E.  C_E and S_E never see delta.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if energy_cut < 0:
        raise ValueError("energy_cut must be >= 0")
    dims_int = model.dims_upto(energy_cut)
    try:
        dims = np.array(dims_int, dtype=float)
        c_e, s_e = _cutoff_caps(ef, dims_int)
    except OverflowError:
        raise DivergenceError(
            f"the level dimensions up to E = {energy_cut} of {model.label} "
            f"sum beyond the float range") from None
    vals, _, flags = f_delta_batch(ef, delta, 0, energy_cut)
    absf = np.abs(vals)
    # d_N near the float limit overflows 2 d_N to inf, which validate() reports
    with np.errstate(over="ignore"):
        c = float(np.sum(2.0 * dims * absf))
        s = float(np.sum(4.0 * dims[1:] * _eta_upper(absf[1:] / 2.0))) if energy_cut > 0 else 0.0
    he = c_e * math.log(c_e) + s_e
    report = BoundReport(
        model_label=model.label,
        alpha=ef.alpha,
        delta=delta,
        energy_cut=energy_cut,
        c_deltaE=c,
        S_deltaE=s,
        cutoff_bound=math.log(c) + s / c,
        C_E=c_e,
        S_E=s_e,
        HE_bound=he,
        n_max_used=energy_cut,
        tail_estimate=0.0,
        envelope_used=bool(np.any(flags)),
    )
    report.validate()
    return report


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
    if delta * space.energy_cut > T0:
        raise ValueError(
            f"delta*E = {delta * space.energy_cut:g} exceeds the quadrature range {T0:g}; "
            "signed window values are only certified there"
        )
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


def _pow_or_inf(x: float, e: float) -> float:
    """x^e, or inf where it leaves the float range."""
    try:
        return x ** e
    except OverflowError:
        return math.inf


def _a_exp(a: float, exponent: float, what: str) -> float:
    """a e^{exponent}, checked in log space; DivergenceError when no float holds it."""
    log_value = math.log(a) + exponent
    if log_value >= _LOG_FLOAT_MAX:
        raise DivergenceError(f"{what} is e^{log_value:.6g}, beyond the float range")
    return a * math.exp(exponent)


def trace_partition(model: SpectrumModel, beta: float, n_trunc: int) -> tuple[float, float]:
    """(partial sum of d_N e^{-beta N}, certified bound on the rest).

    A custom spectrum is finite and is summed whole, to its last level
    whatever n_trunc is, with a tail of 0.0.  A built-in u1^m or virasoro^m
    is summed to n_trunc, and the rest is bounded by Chernoff on the
    partition lemma log Tr e^{-beta L0} <= b/beta, b = m pi^2/6
    (`spectra.log_trace_coefficient`): with n1 = n_trunc + 1 and
    0 < theta <= 1, e^{-beta N} <= e^{-(1-theta) beta n1} e^{-theta beta N}
    for N >= n1, so

        sum_{N >= n1} d_N e^{-beta N} <= exp(-(1-theta) beta n1 + b/(theta beta)),

    least at theta = min(1, sqrt(b/n1)/beta).  Raises DivergenceError naming
    beta when the partial sum or that bound leaves the float range.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if n_trunc < 0:
        raise ValueError("n_trunc must be >= 0")
    finite_support = model.kind == "custom"
    if finite_support:
        n_trunc = model.n_max
    value = 0.0
    try:
        for nn, ld in enumerate(model.log_dims(0, n_trunc).tolist()):
            if ld == -np.inf:
                continue
            value += math.exp(ld - beta * nn)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        logs = model.log_dims(0, n_trunc) - beta * np.arange(n_trunc + 1)
        log_value = np.logaddexp.reduce(logs)
        raise DivergenceError(
            f"trace partial sum at beta = {beta:g} is e^{log_value:.6g}, beyond the float range")

    if finite_support:
        return value, 0.0
    b = log_trace_coefficient(model)
    n1 = n_trunc + 1
    theta = min(1.0, math.sqrt(b / n1) / beta)
    exponent = -(1.0 - theta) * beta * n1 + b / (theta * beta)
    return value, _a_exp(1.0, exponent, f"trace tail at beta = {beta:g}")


@dataclass(frozen=True)
class TraceBoundConstants:
    """Explicit constants for Tr(e^{-beta L0}) <= a exp(b beta^{-c}).

    `trace_bound_constants` derives them from a growth bound
    d_N <= C e^{N^kappa}: b = 1, c = 1/(1 - kappa), and a = C sum_N
    e^{-N^kappa} + a2, where a2 absorbs the supremum of N^kappa - beta N.
    """

    a: float
    b: float
    c: float

    def bound(self, beta: float) -> float:
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        return _a_exp(self.a, self.b * _pow_or_inf(beta, -self.c),
                      f"trace bound at beta = {beta:g}")


# relative lift that makes a computed Gamma(s, x) an upper value: both routes
# of `_gamma_upper` land within 5.3e-15 of mpmath on the trace constant's
# kappa grid, 0.006 to 0.3199, so 2^-45 = 2.8e-14 covers their rounding
# five times over
_GAMMA_LIFT = 1.0 + 2.0**-45


def _gamma_upper(s: float, x: float) -> float:
    """An upper value of Gamma(s, x) = int_x^inf t^{s-1} e^{-t} dt, for
    1 < s < 171.6 (where Gamma(s) is a float) and x > 0.

    Where x > s + 1, Legendre's continued fraction
    Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1 (1 - s) / (x + 3 - s - 2 (2 - s) / ...))
    by modified Lentz, whose terms do not cancel.  Elsewhere
    Gamma(s) - gamma(s, x), with gamma from its positive series
    x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k)): cut short, it errs low and
    the difference high.  For every (s, x) the trace constant passes it,
    gamma(s, x) stays below 0.7 Gamma(s) there, so the difference keeps its
    digits.  Either value is raised by _GAMMA_LIFT to cover its rounding.
    """
    prefactor = math.exp(s * math.log(x) - x)
    if x > s + 1.0:
        b = x + 1.0 - s
        d = h = 1.0 / b
        c = math.inf
        i = 0
        while True:
            i += 1
            a = i * (s - i)
            b += 2.0
            d = 1.0 / (b + a * d)
            c = b + a / c
            step = c * d
            h *= step
            if abs(step - 1.0) <= 2.0**-52:
                return prefactor * h * _GAMMA_LIFT
    term = series = 1.0 / s
    sk = s                       # s + k: the terms rise while it is below x
    while sk < x or term > series * 2.0**-60:
        sk += 1.0
        term *= x / sk
        series += term
    return (math.gamma(s) - prefactor * series) * _GAMMA_LIFT


def _sum_exp_neg_power(kappa: float) -> float:
    """sum_{N>=0} e^{-N^kappa}, closed with an incomplete-gamma integral tail.

    Integral comparison for the decreasing remainder:
    sum_{N>=M} e^{-N^kappa} <= int_{M-1}^inf e^{-x^kappa} dx
    = Gamma(1/kappa, (M-1)^kappa) / kappa, with s = 1/kappa > 1, taken as an
    upper value of Gamma(s, x) (`_gamma_upper`) over kappa.  From about
    kappa = 0.32 on the tail is under half an ulp of the partial sum and
    leaves its bits unchanged, and from about 0.6 on its prefactor
    x^s e^{-x} underflows to 0.0.  Raises DivergenceError when the tail passes
    the float range (kappa below about 0.00586).
    """
    m = 200_000
    # the terms e^{-N^kappa} built in one array, in place: the same array,
    # so the same pairwise sum, as np.exp(-ns ** kappa) with a third of its
    # peak allocation
    terms = np.arange(m, dtype=float)
    terms **= kappa
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    partial = float(np.sum(terms))
    s = 1.0 / kappa
    x = (m - 1.0) ** kappa
    # Gamma(s) leaves the float range at s > 171.6 (kappa < 0.00583); there
    # x < 1.08, so Gamma(s, x) is Gamma(s) to double precision and the tail
    # Gamma(s)/kappa is past the range with it
    log_tail = math.lgamma(s) - math.log(kappa)
    if log_tail >= _LOG_FLOAT_MAX:
        raise DivergenceError(
            f"sum_N e^(-N^kappa) at kappa = {kappa:g} is e^{log_tail:.6g}, beyond the float range"
        )
    return partial + _gamma_upper(s, x) / kappa


def trace_bound_constants(kappa: float, log_C: float) -> TraceBoundConstants:
    """Constants of the explicit trace bound for growth d_N <= C e^{N^kappa},
    given log C (`GrowthFit.log_C`).

    b1 caps the exponent supremum sup_N (N^kappa - beta N) as
    b1 * beta^{-c1}; a collects the series sum_N e^{-N^kappa}, summed with
    decaying exponents so that it converges, times C, against a2 with
    log a2 = 1 + b1^{(c0-c1+1)/(c0-c1)}, and c = c0 = 1/(1 - kappa), the
    larger of c0 and c1 = kappa/(1 - kappa) for every kappa in (0, 1).
    Raises DivergenceError naming log C when C times the series leaves the
    float range.
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if not math.isfinite(log_C):
        raise ValueError(f"log_C must be finite, got {log_C}")
    b1 = (1.0 - kappa) * kappa ** (-kappa / (1.0 - kappa))
    c0 = 1.0 / (1.0 - kappa)
    c1 = kappa / (1.0 - kappa)
    a2 = math.exp(1.0 + b1 ** ((c0 - c1 + 1.0) / (c0 - c1)))
    a1 = _a_exp(_sum_exp_neg_power(kappa), log_C,
                f"C sum_N e^(-N^kappa) at kappa = {kappa:g}, with log C = {log_C:.6g},")
    return TraceBoundConstants(a=a1 + a2, b=1.0, c=c0)


@dataclass(frozen=True)
class TraceCheckRow:
    beta: float
    trace_value: float
    tail_bound: float
    bound: float
    ratio: float
    ok: bool


def verify_trace_bound(model: SpectrumModel, fit: GrowthFit,
                       beta_grid: list[float] | tuple[float, ...]) -> tuple[TraceCheckRow, ...]:
    """Check trace <= a exp(b beta^{-c}) on the grid; a failed row does not raise.

    The fit gives only the constants a, b and c; the trace itself is
    `trace_partition` to the end of the fit's scan, closed by the
    partition-lemma tail.  Raises DivergenceError when the bound or the tail
    at some beta exceeds the float range.
    """
    constants = trace_bound_constants(fit.kappa, fit.log_C)
    rows = []
    for beta in beta_grid:
        value, tail_bound = trace_partition(model, beta, fit.certified_range[1])
        bound = constants.bound(beta)
        total = value + tail_bound
        rows.append(TraceCheckRow(
            beta=float(beta),
            trace_value=value,
            tail_bound=tail_bound,
            bound=bound,
            ratio=total / bound,
            ok=total <= bound,
        ))
    return tuple(rows)
