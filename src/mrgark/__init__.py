"""Multirate GARK time integration toolkit.

Twelve explicit/implicit fast-slow Runge-Kutta pairs with M-parameterized
coupling, structural and order-condition verification, scalar linear
stability, a streaming two-rate integrator with three embedded error
estimates, and controllers that adapt both the macro-step H and the
multirate ratio M.
"""

from .adaptivity import AdaptivityState, ControllerConfig, balancing_update, drive, efficiency_update
from .assembly import (
    GarkMatrix,
    assemble,
    check_decoupled,
    check_internal_consistency,
    check_stiff_accuracy,
    check_telescopic,
    derive_schedule,
)
from .order import ConditionCatalog, ResidualReport, classify, residuals
from .schemes import METHOD_NAMES, list_methods, registry_lookup
from .stability import RegionGrid, scan_region, stability_value
from .stepping import (
    PartitionedOde,
    StepResult,
    Tolerances,
    WorkCounters,
    error_estimates,
    error_norm,
    integrate_fixed,
    newton_solve,
    step,
)
from .tableaux import ButcherTableau, MethodFlag, MrGarkMethod, TableauKind

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ButcherTableau", "MethodFlag", "MrGarkMethod", "TableauKind",
    "METHOD_NAMES", "registry_lookup", "list_methods",
    "GarkMatrix", "assemble",
    "check_internal_consistency", "check_telescopic", "check_decoupled",
    "check_stiff_accuracy", "derive_schedule",
    "ConditionCatalog", "ResidualReport", "residuals", "classify",
    "RegionGrid", "stability_value", "scan_region",
    "PartitionedOde", "StepResult", "Tolerances", "WorkCounters",
    "step", "integrate_fixed", "newton_solve", "error_estimates", "error_norm",
    "AdaptivityState", "ControllerConfig", "balancing_update", "efficiency_update", "drive",
]
