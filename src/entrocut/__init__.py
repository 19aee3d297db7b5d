"""Cutoff entanglement-entropy bounds for chiral spectra.

The package computes, for a concrete multiplicity sequence d_N, every
explicit constant in the cutoff entropy bounds (C_delta, S_delta,
c_{delta,E}, S_{delta,E}, C_E, S_E), the underlying energy window with
certified suprema, an exact closed-form entropy oracle on a truncated
space checking each cutoff bound, and the partition-trace caps (at
p*beta, the p-sum of the damping map).

What loads when: `import entrocut` runs `errors` and `config` only.  The
numeric modules `energy`, `spectra` and `bounds` are put into `sys.modules`
at once, through `importlib.util.LazyLoader`, but their code (and numpy's)
runs on the first attribute read of each.  So `import entrocut.energy` and
`from entrocut import energy` succeed without running anything, and a
command that never reads a window or a log column never loads numpy.  A
public name such as `entrocut.cutoff_bound` resolves through the module
`__getattr__` below, from `_EXPORTS`, and is kept in the package namespace
from its first read on.

On Python 3.11 and older, LazyLoader is not thread-safe: a second thread
that reads a module while its first read is still running it can see the
module half-run.  A program that starts threads should read one name of
each numeric module it uses before it starts them.
"""

import importlib.util
import sys

from . import config, errors

__version__ = "0.1.0"

# module -> the public names it defines; yields __all__ and every lazy lookup
_EXPORTS = {
    "bounds": ("BoundReport", "OracleComparison", "TailConfig", "TraceBoundConstants",
               "TruncatedSpace", "build_truncated_space", "cutoff_bound",
               "distance_regularized_bound", "eta", "oracle_vs_bounds",
               "trace_bound_constants", "trace_partition", "verify_trace_bound"),
    "config": ("RunConfig", "load_config", "parse_config_file"),
    "energy": ("EnergyFunction", "QuadratureConfig", "SyntheticPair", "build_energy_function",
               "eval_f_many", "make_synthetic_pair", "verify_spectral_identity"),
    "errors": ("ConfigError", "ConstructionError", "DivergenceError", "EntrocutError",
               "OracleLimitError", "SpectrumFileError"),
    "spectra": ("GrowthFit", "SpectrumModel", "extend_model", "fit_growth_constants",
                "model_dims", "parse_spectrum_file"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _lazy(name: str):
    """The submodule `name`, registered in sys.modules but run on its first attribute read."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


energy = _lazy("energy")
spectra = _lazy("spectra")
bounds = _lazy("bounds")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
