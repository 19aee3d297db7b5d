"""Command-line front end.

Subcommands: `model` (multiplicity tables), `energy-function` (window
samples), `bounds` (cutoff-bound sweep with oracle columns), `trace`
(partition-trace bound checks), `verify` (the numerical identity suites).
Output is deterministic CSV: LF line endings, repr() floats, '.' decimals,
empty strings for absent optionals.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bounds import cutoff_bound, quasinorm_property_check, verify_trace_bound
from .config import RunConfig, load_config
from .energy import (
    EnergyFunction,
    QuadratureConfig,
    build_energy_function,
    make_synthetic_pair,
    verify_spectral_identity,
    window,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EntrocutError,
    OracleLimitError,
    SpectrumFileError,
)
from .pairing import (
    OracleComparison,
    build_truncated_space,
    oracle_vs_bounds,
    polarization_check,
    theta_product_identity_check,
)
from .spectra import SpectrumModel, fit_growth_constants, model_dims

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DIVERGE = 3

VERIFY_SUITES = ("polarization", "product", "spectral", "concavity", "trace", "quasinorm")


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        # repr of the builtin float: shortest round-trip digits, no numpy
        # scalar wrapper
        return repr(float(value))
    return str(value)


def _emit(out_path: str | None, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_float_list(raw: str) -> list[float]:
    return [float(s) for s in raw.split(",") if s.strip()]


def _parse_int_list(raw: str) -> list[int]:
    return [int(s) for s in raw.split(",") if s.strip()]


def _build_model(cfg: RunConfig, n_max: int | None = None) -> SpectrumModel:
    if cfg.model == "custom":
        # a huge bound keeps the file's full support; dims beyond it read 0
        return model_dims("custom", n_max if n_max is not None else 2**31 - 1,
                          power=cfg.power, path=cfg.file)
    return model_dims(cfg.model, n_max if n_max is not None else cfg.n_max, power=cfg.power)


def _build_window(cfg: RunConfig) -> EnergyFunction:
    quad = QuadratureConfig(abs_tol=cfg.quad_tol, t_cap=cfg.t_cap)
    return build_energy_function(cfg.alpha, quad)


def cmd_model(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    n_hi = model.n_max if (cfg.model == "custom" and args.n_max is None) else cfg.n_max
    rows = [[n, d] for n, d in enumerate(model.dims_upto(n_hi))]
    _emit(cfg.out, ["N", "d_N"], rows)
    return EXIT_OK


def cmd_energy_function(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not math.isfinite(args.t_max):
        raise ConfigError(f"--t-max must be finite, got {args.t_max}")
    ef = _build_window(cfg)
    ts = np.linspace(0.0, args.t_max, args.points)
    values, _, flags = window(ef, ts)
    rows = [[float(t), float(v), bool(flag)]
            for t, v, flag in zip(ts, values, flags)]
    _emit(cfg.out, ["t", "f", "is_envelope"], rows)
    return EXIT_OK


def _oracle_row(model: SpectrumModel, ef: EnergyFunction, delta: float, energy_cut: int,
                limit: int, space_cache: dict) -> OracleComparison | None:
    """The oracle at (delta, E), or None when the truncated space exceeds
    the oracle limit or delta*E leaves the quadrature range.  Spaces are
    cached by E across calls."""
    try:
        space = space_cache.get(energy_cut)
        if space is None:
            space = build_truncated_space(model, energy_cut, dim_limit=limit)
            space_cache[energy_cut] = space
        return oracle_vs_bounds(space, ef, delta)
    except (OracleLimitError, ValueError):
        return None


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    ef = _build_window(cfg)
    if cfg.kappa >= cfg.alpha:
        raise DivergenceError(
            f"distance-regularized series diverges: fitted growth exponent "
            f"kappa = {cfg.kappa:g} is not below the window decay exponent alpha = {cfg.alpha:g}"
        )
    space_cache: dict = {}
    rows = []
    for delta in cfg.delta:
        for energy_cut in cfg.E:
            rep = cutoff_bound(model, ef, delta, energy_cut)
            oc = _oracle_row(model, ef, delta, energy_cut, cfg.oracle_limit, space_cache)
            if oc is None:
                oracle_entropy, oracle_pass = "", ""
            else:
                oracle_entropy = oc.exact_entropy
                oracle_pass = oc.ok and oc.c_deltaE * oc.exact_entropy <= rep.HE_bound + 1e-9
            rows.append([
                model.label, cfg.alpha, delta, energy_cut,
                rep.c_deltaE, rep.S_deltaE, rep.C_E, rep.S_E, rep.HE_bound,
                oracle_entropy, oracle_pass,
            ])
    _emit(cfg.out, ["model", "alpha", "delta", "E", "c_deltaE", "S_deltaE",
                    "C_E", "S_E", "HE_bound", "oracle_entropy", "oracle_pass"], rows)
    return EXIT_OK


def cmd_trace(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    fit = fit_growth_constants(model, cfg.kappa, n_max=cfg.fit_n_max)
    ver = verify_trace_bound(model, fit, cfg.beta)
    rows = [[model.label, fit.kappa, fit.C, r.beta,
             r.trace_value + r.tail_bound, r.bound, r.ratio, r.ok]
            for r in ver.rows]
    _emit(cfg.out, ["model", "kappa", "C", "beta", "trace", "bound", "ratio", "pass"], rows)
    return EXIT_OK


def _verify_rows_for_seed(cfg: RunConfig, seed: int, model: SpectrumModel,
                          ef: EnergyFunction, fit, suites: tuple[str, ...]) -> list[list]:
    rows: list[list] = []
    rng = np.random.default_rng(seed)

    if "polarization" in suites:
        space = build_truncated_space(model, 3, dim_limit=cfg.oracle_limit)
        worst = 0.0
        trials = 25
        for _ in range(trials):
            x = rng.normal(size=(space.dim, space.dim)) \
                + 1j * rng.normal(size=(space.dim, space.dim))
            for n in range(1, space.dim):
                r1, r2 = polarization_check(space, x, n)
                worst = max(worst, r1, r2)
        rows.append(["polarization", f"seed={seed} D={space.dim} trials={trials}",
                     worst, worst <= 1e-10])

    if "product" in suites:
        space = build_truncated_space(model, 4, dim_limit=cfg.oracle_limit)
        for delta in cfg.delta:
            worst = theta_product_identity_check(space, ef, delta, n_trials=10, seed=seed)
            rows.append(["product", f"seed={seed} delta={delta:g} E=4",
                         worst, worst <= 1e-10])

    if "spectral" in suites:
        for delta in cfg.delta:
            worst = 0.0
            pairs = 5
            for k in range(pairs):
                pair = make_synthetic_pair(delta, freq_cut=cfg.freq_cut,
                                           seed=seed * 1000 + k)
                res = verify_spectral_identity(ef, pair)
                worst = max(worst, res.relative)
            rows.append(["spectral", f"seed={seed} delta={delta:g} pairs={pairs}",
                         worst, worst <= 1e-5])

    if "concavity" in suites:
        space_cache: dict = {}
        for delta in cfg.delta:
            for energy_cut in cfg.E:
                oc = _oracle_row(model, ef, delta, energy_cut, cfg.oracle_limit, space_cache)
                if oc is None:
                    continue
                rows.append(["concavity", f"delta={delta:g} E={energy_cut}",
                             oc.slack, oc.ok])

    if "trace" in suites:
        ver = verify_trace_bound(model, fit, cfg.beta)
        for r in ver.rows:
            rows.append(["trace", f"beta={r.beta:g}", r.ratio, r.ok])

    if "quasinorm" in suites:
        for p in cfg.p:
            rep = quasinorm_property_check(p, seed=seed)
            gap = max(rep.worst_subadditivity_gap, rep.worst_ideal_gap,
                      rep.worst_family_gap)
            rows.append(["quasinorm", f"seed={seed} p={p:g}", gap, rep.ok])
    return rows


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    suites = VERIFY_SUITES if not args.only else tuple(args.only)
    model = _build_model(cfg)
    ef = _build_window(cfg)
    fit = fit_growth_constants(model, cfg.kappa, n_max=cfg.fit_n_max)
    rows: list[list] = []
    for seed in cfg.seed:
        rows.extend(_verify_rows_for_seed(cfg, seed, model, ef, fit, suites))
    _emit(cfg.out, ["check_name", "param_summary", "residual_or_gap", "pass"], rows)
    return EXIT_OK if all(bool(r[3]) for r in rows) else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value configuration file")
    common.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    common.add_argument("--seed", metavar="N", type=int, action="append",
                        help="seed for randomized suites (repeatable)")

    parser = argparse.ArgumentParser(
        prog="entrocut",
        description="Entropy and nuclearity bounds for chiral spectra.",
    )
    sub = parser.add_subparsers(dest="command")

    p_model = sub.add_parser("model", parents=[common],
                             help="emit the multiplicity table N,d_N")
    p_model.add_argument("--kind", choices=("u1", "virasoro", "custom"))
    p_model.add_argument("--n-max", dest="n_max", type=int)
    p_model.add_argument("--file")
    p_model.add_argument("--power", type=int)

    p_energy = sub.add_parser("energy-function", parents=[common],
                              help="sample the window function")
    p_energy.add_argument("--alpha", type=float)
    p_energy.add_argument("--t-max", dest="t_max", type=float, default=50.0)
    p_energy.add_argument("--points", type=int, default=501)

    p_bounds = sub.add_parser("bounds", parents=[common],
                              help="cutoff bounds with oracle columns")
    p_bounds.add_argument("--model", choices=("u1", "virasoro", "custom"))
    p_bounds.add_argument("--file")
    p_bounds.add_argument("--power", type=int)
    p_bounds.add_argument("--n-max", dest="n_max", type=int)
    p_bounds.add_argument("--alpha", type=float)
    p_bounds.add_argument("--delta", type=_parse_float_list)
    p_bounds.add_argument("--E", dest="E", type=_parse_int_list)
    p_bounds.add_argument("--kappa", type=float)
    p_bounds.add_argument("--fit-n-max", dest="fit_n_max", type=int)
    p_bounds.add_argument("--oracle-limit", dest="oracle_limit", type=int)

    p_trace = sub.add_parser("trace", parents=[common],
                             help="partition trace against the explicit bound")
    p_trace.add_argument("--model", choices=("u1", "virasoro", "custom"))
    p_trace.add_argument("--file")
    p_trace.add_argument("--power", type=int)
    p_trace.add_argument("--kappa", type=float)
    p_trace.add_argument("--beta", type=_parse_float_list)
    p_trace.add_argument("--fit-n-max", dest="fit_n_max", type=int)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the numerical identity suites")
    p_verify.add_argument("--only", choices=VERIFY_SUITES, action="append",
                          help="restrict to one suite; repeatable")
    p_verify.add_argument("--model", choices=("u1", "virasoro", "custom"))
    p_verify.add_argument("--file")
    p_verify.add_argument("--alpha", type=float)
    p_verify.add_argument("--delta", type=_parse_float_list)
    p_verify.add_argument("--E", dest="E", type=_parse_int_list)
    p_verify.add_argument("--beta", type=_parse_float_list)
    p_verify.add_argument("--p", dest="p", type=_parse_float_list)
    p_verify.add_argument("--kappa", type=float)
    p_verify.add_argument("--oracle-limit", dest="oracle_limit", type=int)
    p_verify.add_argument("--freq-cut", dest="freq_cut", type=int)
    return parser


_HANDLERS = {
    "model": cmd_model,
    "energy-function": cmd_energy_function,
    "bounds": cmd_bounds,
    "trace": cmd_trace,
    "verify": cmd_verify,
}

_OVERRIDE_FIELDS = ("model", "file", "power", "n_max", "alpha", "delta", "E",
                    "beta", "p", "kappa", "seed", "out", "oracle_limit",
                    "fit_n_max", "freq_cut")


def _overrides(args: argparse.Namespace) -> dict:
    values = {}
    for name in _OVERRIDE_FIELDS:
        if hasattr(args, name):
            values[name] = getattr(args, name)
    if getattr(args, "kind", None) is not None:
        values["model"] = args.kind
    return values


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config, _overrides(args))
        return _HANDLERS[args.command](cfg, args)
    except DivergenceError as exc:
        print(f"entrocut: divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGE
    except (ConfigError, SpectrumFileError, OracleLimitError, ValueError) as exc:
        print(f"entrocut: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EntrocutError as exc:
        print(f"entrocut: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
