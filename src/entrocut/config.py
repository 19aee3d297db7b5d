"""Run configuration: typed defaults, config-file parsing, flag overrides.

`RunConfig` is the one place a setting's name and type are written: the
config-file keys and the command-line flags are read off its annotations.
The file format is deliberately tiny: UTF-8 lines of `key = value`,
'#' starts a comment, blank lines ignored, lists comma-separated.
Flags override file values; file values override defaults.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError


MODEL_KINDS = ("u1", "virasoro", "custom")


@dataclass
class RunConfig:
    model: str = "u1"
    file: str | None = None        # custom spectrum path
    power: int = 1
    n_max: int | None = None       # model rows; None: the whole custom file, or N <= 12
    alpha: float = 0.75
    delta: list[float] = field(default_factory=lambda: [0.5, 1.0])
    E: list[int] = field(default_factory=lambda: [0, 2, 4, 6])
    beta: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    kappa: float = 0.6
    out: str | None = None

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.model!r}")
        if self.model == "custom" and not self.file:
            raise ConfigError("custom model requires a spectrum file")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        for name in ("delta", "E", "beta"):
            if not getattr(self, name):
                raise ConfigError(f"list {name!r} must be nonempty")
        if any(d <= 0 for d in self.delta):
            raise ConfigError("delta values must be positive")
        if any(e < 0 for e in self.E):
            raise ConfigError("E values must be >= 0")
        if any(b <= 0 for b in self.beta):
            raise ConfigError("beta values must be positive")
        for name, floor in (("n_max", 0), ("power", 1)):
            value = getattr(self, name)
            if value is not None and value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
        if not all(math.isfinite(v) for v in (*self.delta, *self.beta)):
            raise ConfigError("delta and beta values must be finite")


def _value_parser(hint) -> typing.Callable[[str], object]:
    """The str -> value conversion for one annotation: `list[X]` reads a
    comma list of X, `X | None` reads X."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)

        def parse_list(raw: str) -> list:
            return [item(s) for s in (s.strip() for s in raw.split(",")) if s]

        # argparse names the type in its error message
        parse_list.__name__ = f"{item.__name__} list"
        return parse_list
    scalars = [a for a in typing.get_args(hint) if a is not type(None)]
    return scalars[0] if scalars else hint


# field name -> parser of its text form, for config-file values and flags
FIELD_PARSERS: dict[str, typing.Callable[[str], object]] = {
    name: _value_parser(hint) for name, hint in typing.get_type_hints(RunConfig).items()
}


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines into a typed dict; unknown keys and an
    unreadable file raise ConfigError."""
    values: dict = {}
    try:
        # undecodable bytes are kept as surrogates, so the line that holds them is known
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"line {line_no}: {path} is not UTF-8 text") from None
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
            key, raw = (s.strip() for s in body.split("=", 1))
            if key not in FIELD_PARSERS:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            try:
                values[key] = FIELD_PARSERS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: bad value for {key!r}: {raw!r}") from exc
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then file values, then explicit flag overrides; validated."""
    cfg = RunConfig()
    if path is not None:
        for key, value in parse_config_file(path).items():
            setattr(cfg, key, value)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in FIELD_PARSERS:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
