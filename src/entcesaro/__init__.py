"""Entangled Cesaro means of unitary dynamics over pair partitions.

The names below are imported from their modules on first access (PEP 562), so importing one
module of the package, such as the command line front end, loads only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "partitions": (
        "Partition",
        "enumerate_pair_partitions",
        "is_crossing",
        "parse_partition",
        "remove_last_class",
        "render_partition",
    ),
    "spectral": (
        "Phase",
        "SpectralDecomposition",
        "SpectralLine",
        "Tolerances",
        "antidiagonal_spectrum",
        "decompose",
        "decomposition_residuals",
        "from_eigensystem",
        "invariant_projection",
        "random_system",
        "reconstruct",
        "resonant_partners",
    ),
    "engines": (
        "BudgetError",
        "CesaroResult",
        "ConvergenceReport",
        "ReportRow",
        "cesaro_direct",
        "cesaro_nested",
        "cesaro_spectral",
        "convergence_report",
        "error_bound",
        "error_bounds",
        "form_value",
        "kernel",
        "limit_operator",
        "limit_truncated",
        "mean_ergodic",
        "spectral_gap",
    ),
    "correlations": (
        "CorrelationSpec",
        "DynamicalSystem",
        "cesaro_correlation",
        "correlation_bounds",
        "correlation_limit",
        "correlation_term",
        "make_system",
    ),
}
_MODULES = ("linalg", *_EXPORTS)  # the submodules an eager import of every name would load
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
