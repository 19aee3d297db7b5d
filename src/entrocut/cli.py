"""Command-line front end.

Subcommands: `model` (multiplicity tables), `energy-function` (window
samples), `bounds` (cutoff-bound sweep with oracle columns), `trace`
(partition-trace bound checks), `verify` (the numerical identity suites).
The parser is built from one table, `_COMMANDS`: each subcommand offers
`--config`, `--out` and a flag for each setting it reads, spelled after its
`RunConfig` field (`_` as `-`) and typed by the field's annotation.  The
special cases are `model --kind` (that subcommand's spelling of `--model`),
the repeatable `verify --seed`, and `--t-max`, `--points` and `--only`,
which are not settings.
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
from .config import FIELD_PARSERS, MODEL_KINDS, RunConfig, load_config
from .energy import (
    T0,
    EnergyFunction,
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
    TruncatedSpace,
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


def _build_model(cfg: RunConfig) -> SpectrumModel:
    """The configured spectrum: a custom file's whole support, or a built-in
    tabulated to N = 12 (its accessors answer for every N past that)."""
    if cfg.model == "custom":
        # a huge bound keeps the file's full support; dims beyond it read 0
        return model_dims("custom", 2**31 - 1, power=cfg.power, path=cfg.file)
    return model_dims(cfg.model, 12, power=cfg.power)


def cmd_model(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    n_hi = model.n_max if cfg.n_max is None else cfg.n_max
    rows = [[n, d] for n, d in enumerate(model.dims_upto(n_hi))]
    _emit(cfg.out, ["N", "d_N"], rows)
    return EXIT_OK


def cmd_energy_function(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not math.isfinite(args.t_max):
        raise ConfigError(f"--t-max must be finite, got {args.t_max}")
    ef = build_energy_function(cfg.alpha)
    ts = np.linspace(0.0, args.t_max, args.points)
    values, _, flags = window(ef, ts)
    rows = [[float(t), float(v), bool(flag)]
            for t, v, flag in zip(ts, values, flags)]
    _emit(cfg.out, ["t", "f", "is_envelope"], rows)
    return EXIT_OK


def _oracle_row(model: SpectrumModel, ef: EnergyFunction, delta: float,
                energy_cut: int) -> OracleComparison | None:
    """The oracle at (delta, E), or None when delta*E leaves the quadrature
    range.  It reads only the level dimensions, so it needs no oracle limit."""
    if delta * energy_cut > T0:
        return None
    space = TruncatedSpace(model.label, energy_cut, tuple(model.dims_upto(energy_cut)))
    return oracle_vs_bounds(space, ef, delta)


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    ef = build_energy_function(cfg.alpha)
    if cfg.kappa >= cfg.alpha:
        raise DivergenceError(
            f"distance-regularized series diverges: fitted growth exponent "
            f"kappa = {cfg.kappa:g} is not below the window decay exponent alpha = {cfg.alpha:g}"
        )
    rows = []
    for delta in cfg.delta:
        for energy_cut in cfg.E:
            rep = cutoff_bound(model, ef, delta, energy_cut)
            oc = _oracle_row(model, ef, delta, energy_cut)
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
        for delta in cfg.delta:
            for energy_cut in cfg.E:
                oc = _oracle_row(model, ef, delta, energy_cut)
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
    # the window and the growth fit are built only for the suites that read them
    ef = (build_energy_function(cfg.alpha)
          if {"product", "spectral", "concavity"} & set(suites) else None)
    fit = (fit_growth_constants(model, cfg.kappa, n_max=cfg.fit_n_max)
           if "trace" in suites else None)
    rows: list[list] = []
    for seed in cfg.seed:
        rows.extend(_verify_rows_for_seed(cfg, seed, model, ef, fit, suites))
    _emit(cfg.out, ["check_name", "param_summary", "residual_or_gap", "pass"], rows)
    return EXIT_OK if all(bool(r[3]) for r in rows) else EXIT_VERIFY


# subcommand -> (handler, help, flags besides --config and --out).  A handler
# reads every flag it is offered.  A flag named after a RunConfig field takes
# the field's type from the schema; _FLAG_OPTIONS holds the rest.
_COMMANDS = {
    "model": (cmd_model, "emit the multiplicity table N,d_N",
              ("kind", "n_max", "file", "power")),
    "energy-function": (cmd_energy_function, "sample the window function",
                        ("alpha", "t_max", "points")),
    "bounds": (cmd_bounds, "cutoff bounds with oracle columns",
               ("model", "file", "power", "alpha", "delta", "E", "kappa")),
    "trace": (cmd_trace, "partition trace against the explicit bound",
              ("model", "file", "power", "kappa", "beta", "fit_n_max")),
    "verify": (cmd_verify, "run the numerical identity suites",
               ("seed", "only", "model", "file", "alpha", "delta", "E", "beta", "p",
                "kappa", "oracle_limit", "freq_cut")),
}

_FLAG_OPTIONS = {
    "config": {"metavar": "PATH", "help": "key = value configuration file"},
    "out": {"metavar": "PATH", "help": "write CSV here instead of stdout"},
    "seed": {"metavar": "N", "type": int, "action": "append",
             "help": "seed for randomized suites (repeatable)"},
    "model": {"choices": MODEL_KINDS},
    "kind": {"dest": "model", "choices": MODEL_KINDS},
    "t_max": {"type": float, "default": 50.0},
    "points": {"type": int, "default": 501},
    "only": {"choices": VERIFY_SUITES, "action": "append",
             "help": "restrict to one suite; repeatable"},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrocut",
        description="Entropy and nuclearity bounds for chiral spectra.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text, flags) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_text)
        for name in ("config", "out", *flags):
            options = {"dest": name, "type": FIELD_PARSERS.get(name),
                       **_FLAG_OPTIONS.get(name, {})}
            p_cmd.add_argument("--" + name.replace("_", "-"), **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        settings = {k: v for k, v in vars(args).items() if k in FIELD_PARSERS}
        cfg = load_config(args.config, settings)
        return _COMMANDS[args.command][0](cfg, args)
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
