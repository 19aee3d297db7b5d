"""Run configuration: typed defaults, config-file parsing, flag overrides.

The file format is deliberately tiny: UTF-8 lines of `key = value`,
'#' starts a comment, blank lines ignored, lists comma-separated.
Flags override file values; file values override defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError


@dataclass
class RunConfig:
    model: str = "u1"
    file: str | None = None        # custom spectrum path
    power: int = 1
    n_max: int = 12
    alpha: float = 0.75
    delta: list[float] = field(default_factory=lambda: [0.5, 1.0])
    E: list[int] = field(default_factory=lambda: [0, 2, 4, 6])
    beta: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    p: list[float] = field(default_factory=lambda: [0.3, 0.5, 1.0])
    kappa: float = 0.6
    seed: list[int] = field(default_factory=lambda: [7])
    out: str | None = None
    oracle_limit: int = 400
    quad_tol: float = 1e-12
    t_cap: float = 200.0
    fit_n_max: int = 3000
    freq_cut: int = 128

    def validate(self) -> None:
        if self.model not in ("u1", "virasoro", "custom"):
            raise ConfigError(f"unknown model kind {self.model!r}")
        if self.model == "custom" and not self.file:
            raise ConfigError("custom model requires a spectrum file")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        for name in ("delta", "E", "beta", "p", "seed"):
            if not getattr(self, name):
                raise ConfigError(f"list {name!r} must be nonempty")
        if any(d <= 0 for d in self.delta):
            raise ConfigError("delta values must be positive")
        if any(e < 0 for e in self.E):
            raise ConfigError("E values must be >= 0")
        if any(b <= 0 for b in self.beta):
            raise ConfigError("beta values must be positive")
        if any(not 0.0 < q <= 1.0 for q in self.p):
            raise ConfigError("p values must lie in (0, 1]")
        if self.oracle_limit < 1:
            raise ConfigError("oracle_limit must be >= 1")
        if self.n_max < 0 or self.power < 1 or self.fit_n_max < 1 or self.freq_cut < 1:
            raise ConfigError("n_max, power, fit_n_max, freq_cut out of range")
        if not all(math.isfinite(v) for v in (*self.delta, *self.beta, self.quad_tol, self.t_cap)):
            raise ConfigError("delta, beta, quad_tol and t_cap must be finite")
        if self.quad_tol <= 0.0 or self.t_cap <= 0.0:
            raise ConfigError("quad_tol and t_cap must be positive")


_LIST_TYPES = {
    "delta": float,
    "E": int,
    "beta": float,
    "p": float,
    "seed": int,
}
_SCALAR_TYPES = {
    "model": str,
    "file": str,
    "power": int,
    "n_max": int,
    "alpha": float,
    "kappa": float,
    "out": str,
    "oracle_limit": int,
    "quad_tol": float,
    "t_cap": float,
    "fit_n_max": int,
    "freq_cut": int,
}


def _convert(key: str, raw: str, line_no: int):
    try:
        if key in _LIST_TYPES:
            items = [s.strip() for s in raw.split(",")]
            return [_LIST_TYPES[key](s) for s in items if s]
        return _SCALAR_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad value for {key!r}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines into a typed dict; unknown keys and an
    unreadable file raise ConfigError."""
    known = set(_LIST_TYPES) | set(_SCALAR_TYPES)
    values: dict = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
            key, raw = (s.strip() for s in body.split("=", 1))
            if key not in known:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
            values[key] = _convert(key, raw, line_no)
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then file values, then explicit flag overrides; validated."""
    cfg = RunConfig()
    if path is not None:
        for key, value in parse_config_file(path).items():
            setattr(cfg, key, value)
    valid_names = {f.name for f in fields(RunConfig)}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in valid_names:
            raise ConfigError(f"unknown config field {key!r}")
        setattr(cfg, key, value)
    cfg.validate()
    return cfg
