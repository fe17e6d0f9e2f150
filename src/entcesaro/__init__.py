"""Entangled Cesaro means of unitary dynamics over pair partitions."""

from .partitions import (
    Partition,
    PartitionStructure,
    enumerate_pair_partitions,
    is_crossing,
    parse_partition,
    remove_last_class,
    render_partition,
    require_pair,
)
from .spectral import (
    Phase,
    SpectralDecomposition,
    SpectralLine,
    Tolerances,
    antidiagonal_spectrum,
    decompose,
    decomposition_residuals,
    from_eigensystem,
    invariant_projection,
    random_system,
    reconstruct,
    resonant_partners,
)
from .engines import (
    BudgetError,
    CesaroResult,
    ConvergenceReport,
    ReportRow,
    cesaro_direct,
    cesaro_nested,
    cesaro_spectral,
    convergence_report,
    error_bound,
    error_bounds,
    form_value,
    kernel,
    limit_operator,
    limit_truncated,
    mean_ergodic,
    spectral_gap,
)
from .correlations import (
    CorrelationSpec,
    DynamicalSystem,
    cesaro_correlation,
    correlation_limit,
    correlation_term,
    make_system,
)

__version__ = "0.1.0"
