"""Closed-form bound computations: entropy caps, trace bounds, p-sums.

Three families live here.  The distance-regularized series C_delta/S_delta
and the cutoff constants c_{delta,E}/S_{delta,E}/C_E/S_E cap the oracle's
exact entropy; partition-trace bounds with explicit constants cap
Tr(e^{-beta L0}) and the p-sum of the damping map; Schatten p-sums carry
the quasi-norm property checks.  Series are accumulated in log space so
fast-growing spectra cannot silently overflow, and every truncation is
closed with a certified analytic tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyFunction, f_delta_batch
from .entropy import eta
from .errors import DivergenceError
from .spectra import GrowthFit, SpectrumModel, exponential_cap, log_trace_coefficient

_INV_E = 1.0 / math.e
_LOG_TINY = math.log(1e-300)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# series truncation: streaming stops after _CONSECUTIVE successive terms fall
# below _REL_EPS times the running sum; the analytic tail scans at most
# _TAIL_BLOCKS chunks of _TAIL_CHUNK terms
_REL_EPS = 1e-18
_CONSECUTIVE = 10
_TAIL_CHUNK = 4096
_TAIL_BLOCKS = 64
# a report's chain c_{delta,E} <= C_E, S_{delta,E} <= S_E holds to this slack
_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class TailConfig:
    """Series truncation policy: n_cap bounds the streamed range, and fit
    (required for built-in spectra) certifies the analytic tail."""

    n_cap: int = 20000
    fit: GrowthFit | None = None


@dataclass(frozen=True)
class BoundReport:
    """All closed-form bound outputs for one (model, alpha, delta, E) cell.

    Fields not produced by the originating operation stay None; the CSV
    layer prints those as empty strings.
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


def _eta_upper(x: np.ndarray) -> np.ndarray:
    # eta increases only below 1/e; cap by the global maximum past that
    x = np.minimum(np.asarray(x, dtype=float), 1.0)
    return np.where(x < _INV_E, eta(x), _INV_E)


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) for a finite 1-D array, with the bits of
    scipy.special.logsumexp: the maxima are taken out of the shifted sum, in
    place, so the pairwise sum reduces the same row, and log1p(s/m) + log(m)
    + max for m maxima."""
    a_max = a.max()
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    return np.log1p(s / m) + np.log(m) + a_max


def _series_tail(ef: EnergyFunction, delta: float, fit: GrowthFit,
                 n_start: int) -> tuple[float, float]:
    """(log tail_C, log tail_S) for the streamed series past n_start.

    Uses dims <= C e^{N^kappa} and the certified decay envelope; terms are
    summed in log space until a chunk is negligible against the total.
    """
    n = n_start
    total_c = -np.inf
    total_s = -np.inf
    for _ in range(_TAIL_BLOCKS):
        ns = np.arange(n, n + _TAIL_CHUNK, dtype=float)
        ts = delta * ns
        log_env = -ef.envelope_c * ts ** ef.beta_prime
        log_dims = fit.log_C + ns ** fit.kappa
        chunk_c = _logsumexp(math.log(2.0) + log_dims + log_env)
        # eta(x) = x * (-log x) for x < 1/e; the envelope is microscopic here
        x_log = log_env - math.log(2.0)
        neg_log_x = -x_log
        log_eta = np.where(neg_log_x > 1.0, x_log + np.log(np.maximum(neg_log_x, 1.0)), -1.0)
        chunk_s = _logsumexp(math.log(4.0) + log_dims + log_eta)
        total_c = np.logaddexp(total_c, chunk_c)
        total_s = np.logaddexp(total_s, chunk_s)
        if chunk_c < total_c + math.log(_REL_EPS) and \
                chunk_s < total_s + math.log(_REL_EPS):
            return float(total_c), float(total_s)
        n += _TAIL_CHUNK
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
    block = 512
    n = 0
    hard_cap = model.n_max if finite_support else tail.n_cap
    lt_c = np.zeros(0)
    while n <= hard_cap and n_stop is None:
        hi = min(n + block - 1, hard_cap)
        _, up, flags = f_delta_batch(ef, delta, n, hi)
        log_up = np.where(up > 0.0, np.log(np.maximum(up, 5e-324)), -np.inf)
        ld = np.array(model.log_dims(n, hi))
        zero_dim = np.isneginf(ld)
        lt_c = np.where(zero_dim, -np.inf, math.log(2.0) + ld + log_up)
        eta_vals = _eta_upper(up / 2.0)
        log_eta = np.where(eta_vals > 0.0, np.log(np.maximum(eta_vals, 5e-324)), -np.inf)
        lt_s = np.where(zero_dim, -np.inf, math.log(4.0) + ld + log_eta)
        if n == 0:
            lt_s[0] = -np.inf        # vacuum level never contributes to S
        run_c = np.logaddexp.accumulate(np.concatenate(([log_c], lt_c)))[1:]
        run_s = np.logaddexp.accumulate(np.concatenate(([log_s], lt_s)))[1:]
        thresh = math.log(_REL_EPS) + run_c
        small = (lt_c < thresh) & ((lt_s < thresh) | np.isneginf(lt_s))
        stop_i, consec = _series_stop(small, consec, finite_support)
        if stop_i is not None:
            n_stop = n + stop_i
            log_c = float(run_c[stop_i])
            log_s = float(run_s[stop_i])
            envelope_used = envelope_used or bool(np.any(flags[:stop_i + 1]))
        else:
            log_c = float(run_c[-1])
            log_s = float(run_s[-1])
            envelope_used = envelope_used or bool(np.any(flags))
            n = hi + 1
            block = min(block * 2, 8192)
    if n_stop is None:
        if finite_support:
            n_stop = hard_cap
        else:
            if len(lt_c) and float(np.argmax(lt_c)) >= 0.9 * len(lt_c):
                raise DivergenceError(
                    f"series terms still growing at N = {tail.n_cap}: fitted growth "
                    f"kappa = {fit.kappa:g} is too close to the decay exponent "
                    f"alpha = {ef.alpha:g}"
                )
            raise DivergenceError(
                f"series decays too slowly to meet the termination rule by "
                f"N = {tail.n_cap} (kappa = {fit.kappa:g} < alpha = {ef.alpha:g}); "
                "raise TailConfig.n_cap"
            )

    tail_log_c = -np.inf
    tail_log_s = -np.inf
    if not finite_support:
        tail_log_c, tail_log_s = _series_tail(ef, delta, fit, n_stop + 1)
        envelope_used = True

    log_c_total = float(np.logaddexp(log_c, tail_log_c))
    log_s_total = float(np.logaddexp(log_s, tail_log_s))
    c_delta = math.exp(log_c_total)
    s_delta = 0.0 if log_s_total == -np.inf else math.exp(log_s_total)
    if not math.isfinite(c_delta) or not math.isfinite(s_delta):
        raise DivergenceError(
            f"series value exceeds floating range (log C_delta = {log_c_total:.3f})"
        )
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
    dims = np.array(dims_int, dtype=float)
    vals, _, flags = f_delta_batch(ef, delta, 0, energy_cut)
    absf = np.abs(vals)
    # d_N near the float limit overflows 2 d_N to inf, which validate() reports
    with np.errstate(over="ignore"):
        c = float(np.sum(2.0 * dims * absf))
        s = float(np.sum(4.0 * dims[1:] * _eta_upper(absf[1:] / 2.0))) if energy_cut > 0 else 0.0
    c_e, s_e = _cutoff_caps(ef, dims_int)
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
    beta when that bound leaves the float range.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if n_trunc < 0:
        raise ValueError("n_trunc must be >= 0")
    finite_support = model.kind == "custom"
    if finite_support:
        n_trunc = model.n_max
    value = 0.0
    for nn, ld in enumerate(model.log_dims(0, n_trunc)):
        if ld == -np.inf:
            continue
        value += math.exp(ld - beta * nn)

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

    b1 caps the exponent supremum sup_N (N^kappa - beta N) as
    b1 * beta^{-c1}; a collects the series sum_N e^{-N^kappa}, summed with
    decaying exponents so that it converges, against a2 with
    log a2 = 1 + b1^{(c2-c1+1)/(c2-c1)}.
    """

    kappa: float
    C_growth: float
    b1: float
    c0: float
    c1: float
    c2: float
    log_a2: float
    a2: float
    a: float
    b: float
    c: float
    series_sum: float

    def bound(self, beta: float) -> float:
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        return _a_exp(self.a, self.b * _pow_or_inf(beta, -self.c),
                      f"trace bound at beta = {beta:g}")


# a nonnegative term below e^-40 of a sum (2^-54 is e^-37.4) is under half
# its ulp and leaves it unchanged; the margin covers the rounding of the logs
_LOG_NEGLIGIBLE = -40.0


def _sum_exp_neg_power(kappa: float) -> float:
    """sum_{N>=0} e^{-N^kappa}, closed with an incomplete-gamma integral tail.

    Integral comparison for the decreasing remainder:
    sum_{N>=M} e^{-N^kappa} <= int_{M-1}^inf e^{-x^kappa} dx
    = Gamma(1/kappa, (M-1)^kappa) / kappa.  With s = 1/kappa > 1 and
    x = (M-1)^kappa > s - 1, Gamma(s, x) <= x^{s-1} e^{-x} x / (x - s + 1);
    when that majorant is negligible against the partial sum (kappa >= 0.32)
    the tail cannot change its bits and is not evaluated.
    """
    m = 200_000
    ns = np.arange(m, dtype=float)
    partial = float(np.sum(np.exp(-ns ** kappa)))
    s = 1.0 / kappa
    x = (m - 1.0) ** kappa
    if x > s - 1.0:
        log_tail = s * math.log(x) - x - math.log(x - s + 1.0) - math.log(kappa)
        if log_tail < math.log(partial) + _LOG_NEGLIGIBLE:
            return partial
    from scipy.special import gammaincc

    tail = float(math.gamma(s) * gammaincc(s, x) / kappa)
    return partial + tail


def trace_bound_constants(kappa: float, C_growth: float) -> TraceBoundConstants:
    """Constants of the explicit trace bound for growth d_N <= C e^{N^kappa}."""
    if not (0.0 < kappa < 1.0):
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    if C_growth <= 0.0:
        raise ValueError("C_growth must be positive")
    b1 = (1.0 - kappa) * kappa ** (-kappa / (1.0 - kappa))
    c0 = 1.0 / (1.0 - kappa)
    c1 = kappa / (1.0 - kappa)
    c2 = max(c0, c1)
    log_a2 = 1.0 + b1 ** ((c2 - c1 + 1.0) / (c2 - c1))
    a2 = math.exp(log_a2)
    series = _sum_exp_neg_power(kappa)
    a = C_growth * series + a2
    return TraceBoundConstants(
        kappa=kappa,
        C_growth=C_growth,
        b1=b1,
        c0=c0,
        c1=c1,
        c2=c2,
        log_a2=log_a2,
        a2=a2,
        a=a,
        b=1.0,
        c=c2,
        series_sum=series,
    )


@dataclass(frozen=True)
class TraceCheckRow:
    beta: float
    trace_value: float
    tail_bound: float
    bound: float
    ratio: float
    ok: bool


@dataclass(frozen=True)
class TraceVerification:
    model_label: str
    constants: TraceBoundConstants
    rows: tuple[TraceCheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_trace_bound(model: SpectrumModel, fit: GrowthFit,
                       beta_grid: list[float] | tuple[float, ...],
                       n_trunc: int | None = None) -> TraceVerification:
    """Check trace <= a exp(b beta^{-c}) on the grid; a failed row does not raise.

    The fit gives only the constants a, b and c; the trace itself is
    `trace_partition` to n_trunc (the end of the fit's scan by default),
    closed by the partition-lemma tail.  Raises DivergenceError when the
    bound or the tail at some beta exceeds the float range.
    """
    constants = trace_bound_constants(fit.kappa, fit.C)
    if n_trunc is None:
        n_trunc = fit.certified_range[1]
    rows = []
    for beta in beta_grid:
        value, tail_bound = trace_partition(model, beta, n_trunc)
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
    return TraceVerification(model_label=model.label, constants=constants, rows=tuple(rows))


def nu_p_damping_bound(model: SpectrumModel, p: float, beta: float,
                       n_trunc: int | None = None) -> float:
    """Certified upper value of Tr(e^{-p beta L0}), the computable p-sum cap
    for the damping map: `trace_partition` at inverse temperature p * beta,
    summed to n_trunc (the model's n_max by default) and closed by the
    partition-lemma tail."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if n_trunc is None:
        n_trunc = model.n_max
    value, tail_bound = trace_partition(model, p * beta, n_trunc)
    return value + tail_bound


def nu_p_damping_cap(constants: TraceBoundConstants, p: float, beta: float) -> float:
    """Analytic cap a exp((b/p^c) beta^{-c}) dominating nu_p_damping_bound."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return _a_exp(constants.a, (constants.b / p ** constants.c) * _pow_or_inf(beta, -constants.c),
                  f"p-sum cap at p = {p:g}, beta = {beta:g}")


def schatten_p(matrix: np.ndarray, p: float) -> float:
    """sum_k sigma_k(T)^p over singular values, p in (0, 1]."""
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma.size and sigma[0] > 0.0:
        # numerical zeros get a huge boost from the p-th power; drop anything
        # below the standard rank tolerance
        sigma = sigma[sigma > sigma[0] * max(m.shape) * np.finfo(float).eps]
    return float(np.sum(sigma ** p))


# quasinorm battery pass marks: relative homogeneity error, and the slack
# allowed in each inequality
_HOM_TOL = 1e-12
_INEQ_TOL = 1e-9


@dataclass(frozen=True)
class QuasinormReport:
    p: float
    instances: int
    worst_homogeneity_rel: float
    worst_subadditivity_gap: float     # positive = violation
    worst_ideal_gap: float
    worst_family_gap: float
    ok: bool


def quasinorm_property_check(p: float, n_instances: int = 50, dim_max: int = 8,
                             seed: int = 0) -> QuasinormReport:
    """Seeded property battery for the p-sum:

    homogeneity  schatten_p(lam T) = |lam|^p schatten_p(T)     (relative)
    subadditivity  schatten_p(T1 + T2) <= schatten_p(T1) + schatten_p(T2)
    ideal  schatten_p(R S T) <= ||R||^p schatten_p(S) ||T||^p
    family  schatten_p(sum_k T_k)^{1/p} <= N^{(1-p)/p} sum_k schatten_p(T_k)^{1/p}
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    rng = np.random.default_rng(seed)

    def draw(shape: tuple[int, int]) -> np.ndarray:
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    worst_hom = 0.0
    worst_sub = -math.inf
    worst_ideal = -math.inf
    worst_family = -math.inf
    for _ in range(n_instances):
        rows = int(rng.integers(1, dim_max + 1))
        cols = int(rng.integers(1, dim_max + 1))
        t1 = draw((rows, cols))
        t2 = draw((rows, cols))
        lam = complex(rng.normal(), rng.normal())
        base = schatten_p(t1, p)
        scaled = schatten_p(lam * t1, p)
        ref = abs(lam) ** p * base
        if ref > 0.0:
            worst_hom = max(worst_hom, abs(scaled - ref) / ref)
        worst_sub = max(worst_sub, schatten_p(t1 + t2, p) - (base + schatten_p(t2, p)))
        inner = int(rng.integers(1, dim_max + 1))
        r = draw((rows, inner))
        s = draw((inner, inner))
        t3 = draw((inner, cols))
        lhs = schatten_p(r @ s @ t3, p)
        rhs = (np.linalg.norm(r, 2) ** p) * schatten_p(s, p) * (np.linalg.norm(t3, 2) ** p)
        worst_ideal = max(worst_ideal, lhs - rhs)
        n_fam = int(rng.integers(2, 9))
        family = [draw((rows, cols)) for _ in range(n_fam)]
        lhs_f = schatten_p(sum(family), p) ** (1.0 / p)
        rhs_f = n_fam ** ((1.0 - p) / p) * sum(schatten_p(tk, p) ** (1.0 / p) for tk in family)
        worst_family = max(worst_family, lhs_f - rhs_f)
    ok = (worst_hom <= _HOM_TOL and worst_sub <= _INEQ_TOL
          and worst_ideal <= _INEQ_TOL and worst_family <= _INEQ_TOL)
    return QuasinormReport(
        p=p,
        instances=n_instances,
        worst_homogeneity_rel=worst_hom,
        worst_subadditivity_gap=worst_sub,
        worst_ideal_gap=worst_ideal,
        worst_family_gap=worst_family,
        ok=ok,
    )


@dataclass(frozen=True)
class GrowthScalingRow:
    energy_cut: int
    he_bound: float
    ratio: float                 # HE_bound / (E e^E)


@dataclass(frozen=True)
class GrowthScalingReport:
    model_label: str
    cap_c: float                 # certified d_N <= cap_c * e^N on the range
    derived_constant: float
    rows: tuple[GrowthScalingRow, ...]
    max_ratio: float
    ok: bool


def growth_scaling_report(model: SpectrumModel, ef: EnergyFunction,
                          e_range: range | list[int]) -> GrowthScalingReport:
    """HE_bound(E) / (E e^E) over e_range against the constant the caps imply.

    With d_N <= c e^N on the range, C_E <= A e^E for A = 2 sup|f| c e/(e-1),
    so HE_bound/(E e^E) <= A (1 + max(log A, 0)) + B with
    B = 4 sup_eta c e/(e-1); the report asserts every ratio sits below it.
    """
    es = sorted(int(e) for e in e_range)
    if not es or es[0] < 1:
        raise ValueError("e_range must contain energies >= 1")
    top = es[-1]
    cap_c = exponential_cap(model, top)
    dims = model.dims_upto(top)
    geom = math.e / (math.e - 1.0)
    a_const = 2.0 * ef.sup_f * cap_c * geom
    b_const = 4.0 * ef.sup_eta * cap_c * geom
    derived = a_const * (1.0 + max(math.log(a_const), 0.0)) + b_const
    rows = []
    max_ratio = 0.0
    for e in es:
        c_e, s_e = _cutoff_caps(ef, dims[: e + 1])
        he = c_e * math.log(c_e) + s_e
        ratio = he / (e * math.exp(e))
        max_ratio = max(max_ratio, ratio)
        rows.append(GrowthScalingRow(energy_cut=e, he_bound=he, ratio=ratio))
    return GrowthScalingReport(
        model_label=model.label,
        cap_c=cap_c,
        derived_constant=derived,
        rows=tuple(rows),
        max_ratio=max_ratio,
        ok=max_ratio <= derived,
    )
