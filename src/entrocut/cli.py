"""Command-line front end.

Subcommands: `model` (multiplicity tables), `energy-function` (window
samples), `bounds` (cutoff-bound sweep with oracle columns), `trace`
(partition-trace bound checks), `verify` (checks of the window's sum
rule).
The parser is built from one table, `_COMMANDS`: each subcommand offers
`--config`, `--out` and a flag for each setting it reads, spelled after its
`RunConfig` field (`_` as `-`), typed by the field's annotation and
never abbreviated.  The special cases are `model --kind` (that subcommand's
spelling of `--model`) and `--t-max` and `--points`, which are not
settings.  `verify` checks the window on one fixed family of synthetic
pairs, so its outcome depends on the settings alone.
Output is deterministic CSV: LF line endings, repr() floats, '.' decimals,
empty strings for absent optionals.  Exit codes: 0 success, 1 verification
failure or a window that fails its build check, 2 usage or parse error, more
samples, levels or tensor factors than memory holds, or an `--out` path that
cannot be written, 3 numeric divergence.

What loads when: this module imports `config` and `errors`, and holds the
numeric modules `energy`, `spectra` and `bounds` as references that the
package registered without running them (see `entrocut/__init__.py`).  A
handler reads their names at call time (`energy.build_energy_function`),
so a process runs only the modules its command reads: `model` runs
`spectra` alone and never loads numpy, and `--help` or a usage error runs
none of the three.  A function replaced on its defining module, by a test
or by the benchmark's tracer, is the one a handler calls.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

from . import bounds, energy, spectra
from .config import FIELD_PARSERS, MODEL_KINDS, RunConfig, load_config
from .errors import ConfigError, DivergenceError, EntrocutError, SpectrumFileError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DIVERGE = 3


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    # no value is a numpy scalar until a command has loaded numpy, so _fmt
    # does not import it
    np = sys.modules.get("numpy")
    bools, floats = (bool, float) if np is None else ((bool, np.bool_), (float, np.floating))
    if isinstance(value, bools):
        return "1" if value else "0"
    if isinstance(value, floats):
        # repr of the builtin float: shortest round-trip digits, no numpy
        # scalar wrapper
        return repr(float(value))
    return str(value)


def _emit(out_path: str | None, header: list[str], rows: list[list]) -> None:
    text = ",".join(header) + "\n"
    text += "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


@contextmanager
def _in_memory(setting: str, what: str):
    """Turn a MemoryError inside into a usage error naming the setting."""
    try:
        yield
    except MemoryError:
        raise ConfigError(f"{setting} is more {what} than memory holds") from None


def _build_model(cfg: RunConfig) -> spectra.SpectrumModel:
    """The configured spectrum: a custom file's whole support, or a built-in
    tabulated to N = 12 (its accessors answer for every N past that)."""
    with _in_memory(f"--power {cfg.power}", "tensor factors"):
        if cfg.model == "custom":
            # a huge bound keeps the file's full support; dims beyond it read 0
            return spectra.model_dims("custom", 2**31 - 1, power=cfg.power, path=cfg.file)
        return spectra.model_dims(cfg.model, 12, power=cfg.power)


def cmd_model(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    n_hi = model.n_max if cfg.n_max is None else cfg.n_max
    with _in_memory(f"--n-max {n_hi}", "levels"):
        dims = model.dims_upto(n_hi)
    rows = [[n, d] for n, d in enumerate(dims)]
    _emit(cfg.out, ["N", "d_N"], rows)
    return EXIT_OK


def cmd_energy_function(cfg: RunConfig, args: argparse.Namespace) -> int:
    import numpy as np

    if not math.isfinite(args.t_max):
        raise ConfigError(f"--t-max must be finite, got {args.t_max}")
    with _in_memory(f"--points {args.points}", "samples"):
        ts = np.linspace(0.0, args.t_max, args.points)
    ef = energy.build_energy_function(cfg.alpha)
    values, _, flags = energy.window(ef, ts)
    rows = [[float(t), float(v), bool(flag)]
            for t, v, flag in zip(ts, values, flags)]
    _emit(cfg.out, ["t", "f", "is_envelope"], rows)
    return EXIT_OK


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _build_model(cfg)
    ef = energy.build_energy_function(cfg.alpha)
    if cfg.kappa >= cfg.alpha:
        raise DivergenceError(
            f"distance-regularized series diverges: fitted growth exponent "
            f"kappa = {cfg.kappa:g} is not below the window decay exponent alpha = {cfg.alpha:g}"
        )
    rows = []
    for delta in cfg.delta:
        for energy_cut in cfg.E:
            with _in_memory(f"--E {energy_cut}", "levels"):
                rep = bounds.cutoff_bound(model, ef, delta, energy_cut)
            # the oracle's columns stay empty where delta*E leaves the quadrature range
            oracle_entropy, oracle_pass = "", ""
            if delta * energy_cut <= energy.T0:
                oc = bounds.oracle_vs_bounds(bounds.build_truncated_space(model, energy_cut),
                                             ef, delta)
                oracle_entropy, oracle_pass = oc.exact_entropy, oc.ok
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
    with _in_memory(f"--fit-n-max {cfg.fit_n_max}", "levels"):
        fit = spectra.fit_growth_constants(model, cfg.kappa, n_max=cfg.fit_n_max)
    rows = [[model.label, fit.kappa, fit.C, r.beta,
             r.trace_value + r.tail_bound, r.bound, r.ratio, r.ok]
            for r in bounds.verify_trace_bound(model, fit, cfg.beta)]
    _emit(cfg.out, ["model", "kappa", "C", "beta", "trace", "bound", "ratio", "pass"], rows)
    return EXIT_OK if all(r[7] for r in rows) else EXIT_VERIFY


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    ef = energy.build_energy_function(cfg.alpha)
    rows = []
    for delta in cfg.delta:
        worst = max(energy.verify_spectral_identity(ef, energy.make_synthetic_pair(delta, [bump]))
                    for bump in energy.SPECTRAL_BUMPS)
        rows.append(["spectral", f"delta={delta:g} pairs={len(energy.SPECTRAL_BUMPS)}",
                     worst, worst <= 1e-5])
    _emit(cfg.out, ["check_name", "param_summary", "residual_or_gap", "pass"], rows)
    return EXIT_OK if all(r[3] for r in rows) else EXIT_VERIFY


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
    "verify": (cmd_verify, "check the window's sum rule", ("alpha", "delta")),
}

_FLAG_OPTIONS = {
    "config": {"metavar": "PATH", "help": "key = value configuration file"},
    "out": {"metavar": "PATH", "help": "write CSV here instead of stdout"},
    "model": {"choices": MODEL_KINDS},
    "kind": {"dest": "model", "choices": MODEL_KINDS},
    "t_max": {"type": float, "default": 50.0},
    "points": {"type": int, "default": 501},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrocut",
        description="Entropy and nuclearity bounds for chiral spectra.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (_, help_text, flags) in _COMMANDS.items():
        # a flag is spelled whole: a prefix such as --p would otherwise read
        # as the only flag it begins, here --power
        p_cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
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
    except (ConfigError, SpectrumFileError, ValueError) as exc:
        print(f"entrocut: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EntrocutError as exc:
        print(f"entrocut: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
