"""Cutoff entanglement-entropy bounds for chiral spectra.

The package computes, for a concrete multiplicity sequence d_N, every
explicit constant in the cutoff entropy bounds (C_delta, S_delta,
c_{delta,E}, S_{delta,E}, C_E, S_E), the underlying energy window with
certified suprema, an exact closed-form entropy oracle on a truncated
space checking each cutoff bound, and the partition-trace caps (at
p*beta, the p-sum of the damping map).
"""

from .bounds import (
    BoundReport,
    OracleComparison,
    TailConfig,
    TraceBoundConstants,
    TruncatedSpace,
    build_truncated_space,
    cutoff_bound,
    distance_regularized_bound,
    eta,
    oracle_vs_bounds,
    trace_bound_constants,
    trace_partition,
    verify_trace_bound,
)
from .config import RunConfig, load_config, parse_config_file
from .energy import (
    EnergyFunction,
    QuadratureConfig,
    SyntheticPair,
    build_energy_function,
    eval_f_many,
    make_synthetic_pair,
    verify_spectral_identity,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DivergenceError,
    EntrocutError,
    OracleLimitError,
    SpectrumFileError,
)
from .spectra import (
    GrowthFit,
    SpectrumModel,
    extend_model,
    fit_growth_constants,
    model_dims,
    parse_spectrum_file,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "TailConfig", "TraceBoundConstants",
    "cutoff_bound", "distance_regularized_bound", "trace_bound_constants",
    "trace_partition", "verify_trace_bound",
    "RunConfig", "load_config", "parse_config_file",
    "EnergyFunction", "QuadratureConfig", "SyntheticPair",
    "build_energy_function", "eval_f_many",
    "make_synthetic_pair", "verify_spectral_identity",
    "eta",
    "ConfigError", "ConstructionError", "DivergenceError", "EntrocutError",
    "OracleLimitError", "SpectrumFileError",
    "OracleComparison", "TruncatedSpace", "build_truncated_space", "oracle_vs_bounds",
    "GrowthFit", "SpectrumModel", "extend_model",
    "fit_growth_constants", "model_dims", "parse_spectrum_file",
]
