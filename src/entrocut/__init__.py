"""Cutoff entanglement-entropy bounds for chiral spectra.

The package computes, for a concrete multiplicity sequence d_N, every
explicit constant in the cutoff entropy bounds (C_delta, S_delta,
c_{delta,E}, S_{delta,E}, C_E, S_E), the underlying energy window with
certified suprema, the explicit pure-state decompositions on a truncated
space, an exact closed-form entropy oracle checking each bound, and the
partition-trace / p-sum nuclearity caps.
"""

from .bounds import (
    BoundReport,
    GrowthScalingReport,
    QuasinormReport,
    TailConfig,
    TraceBoundConstants,
    TraceVerification,
    cutoff_bound,
    distance_regularized_bound,
    growth_scaling_report,
    nu_p_damping_bound,
    nu_p_damping_cap,
    quasinorm_property_check,
    schatten_p,
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
    eval_f,
    eval_f_many,
    integral_j0,
    make_synthetic_pair,
    verify_spectral_identity,
)
from .entropy import eta, eta_bound_constant
from .errors import (
    ConfigError,
    ConstructionError,
    DivergenceError,
    EntrocutError,
    OracleLimitError,
    SpectrumFileError,
)
from .pairing import (
    OracleComparison,
    ThetaDecomposition,
    TruncatedSpace,
    assemble_theta,
    build_truncated_space,
    oracle_vs_bounds,
    polarization_check,
    pure_state_vector,
    theta_eval,
    theta_product_identity_check,
)
from .spectra import (
    GrowthFit,
    SpectrumModel,
    exponential_cap,
    extend_model,
    fit_growth_constants,
    log_dim,
    model_dims,
    parse_spectrum_file,
    partition_log_asymptotic,
    partition_numbers,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "GrowthScalingReport", "QuasinormReport", "TailConfig",
    "TraceBoundConstants", "TraceVerification", "cutoff_bound",
    "distance_regularized_bound", "growth_scaling_report", "nu_p_damping_bound",
    "nu_p_damping_cap", "quasinorm_property_check", "schatten_p",
    "trace_bound_constants", "trace_partition", "verify_trace_bound",
    "RunConfig", "load_config", "parse_config_file",
    "EnergyFunction", "QuadratureConfig", "SyntheticPair",
    "build_energy_function", "eval_f", "eval_f_many",
    "integral_j0", "make_synthetic_pair", "verify_spectral_identity",
    "eta", "eta_bound_constant",
    "ConfigError", "ConstructionError", "DivergenceError", "EntrocutError",
    "OracleLimitError", "SpectrumFileError",
    "OracleComparison", "ThetaDecomposition", "TruncatedSpace",
    "assemble_theta", "build_truncated_space", "oracle_vs_bounds",
    "polarization_check", "pure_state_vector", "theta_eval",
    "theta_product_identity_check",
    "GrowthFit", "SpectrumModel", "exponential_cap", "extend_model",
    "fit_growth_constants", "log_dim", "model_dims", "parse_spectrum_file",
    "partition_log_asymptotic", "partition_numbers",
]
