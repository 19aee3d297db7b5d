"""Exception types shared across the package."""


class EntrocutError(Exception):
    """Base class for package errors."""


class SpectrumFileError(EntrocutError):
    """Raised when a custom spectrum file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ConstructionError(EntrocutError):
    """Quadrature or decomposition construction failed its own checks."""

    def __init__(self, message: str, worst_residual: float | None = None):
        self.worst_residual = worst_residual
        if worst_residual is not None:
            message = f"{message} (worst residual {worst_residual:.3e})"
        super().__init__(message)


class ConfigError(EntrocutError):
    """Run configuration is malformed: unknown key, bad value, empty list."""


class DivergenceError(EntrocutError):
    """A series or bound cannot converge for the given exponents."""


class OracleLimitError(EntrocutError):
    """The truncated space exceeds the configured oracle dimension limit."""
