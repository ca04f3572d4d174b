"""Numerical verification of stochastic orderings for order statistics.

Lifetimes follow proportional-hazard (series/minimum) or
proportional-reversed-hazard (parallel/maximum) models, optionally coupled
through an Archimedean generator; this package checks the classical
comparison results for such systems on explicit numerical grids.
"""

from .copulas import (
    Clayton,
    DependentMax,
    DependentMin,
    Frank,
    Independence,
    ShiftedSystem,
    compose_phi_psi,
    is_log_concave,
    is_log_convex,
    j1,
    j2,
    super_additive_check,
)
from .distributions import (
    Distribution,
    Exponential,
    Lomax,
    ParetoI,
    ReflectedDFR,
    Weibull,
    classify_ageing,
)
from .errors import (
    ConfigError,
    MomentUndefinedError,
    OrdrelError,
    ParameterDomainError,
    SupportError,
)
from .grids import GridSpec
from .harness import TheoremCase, TheoremReport, run_case
from .majorization import (
    majorizes,
    weak_submajorizes,
    weak_supermajorizes,
)
from .orders import (
    CHECKERS,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    OrderVerdict,
    check_disp,
    check_hr,
    check_lr,
    check_rh,
    check_st,
    check_star,
)
from .scan import ScanResult, scan
from .systems import (
    OrderStatDist,
    SystemSpec,
    lomax_min_moments,
    mixed_parallel,
    mixed_series,
    numeric_mean_variance,
    numeric_moment,
    parallel_prhr,
    series_phr,
    weibull_min_variance,
)

__version__ = "0.1.0"

__all__ = [
    "CHECKERS",
    "Clayton",
    "ConfigError",
    "DependentMax",
    "DependentMin",
    "Distribution",
    "Exponential",
    "FAILS",
    "Frank",
    "GridSpec",
    "HOLDS",
    "INCONCLUSIVE",
    "Independence",
    "Lomax",
    "MomentUndefinedError",
    "OrderStatDist",
    "OrderVerdict",
    "OrdrelError",
    "ParameterDomainError",
    "ParetoI",
    "ReflectedDFR",
    "ScanResult",
    "ShiftedSystem",
    "SupportError",
    "SystemSpec",
    "TheoremCase",
    "TheoremReport",
    "Weibull",
    "check_disp",
    "check_hr",
    "check_lr",
    "check_rh",
    "check_st",
    "check_star",
    "classify_ageing",
    "compose_phi_psi",
    "is_log_concave",
    "is_log_convex",
    "j1",
    "j2",
    "lomax_min_moments",
    "majorizes",
    "mixed_parallel",
    "mixed_series",
    "numeric_mean_variance",
    "numeric_moment",
    "parallel_prhr",
    "run_case",
    "scan",
    "series_phr",
    "super_additive_check",
    "weak_submajorizes",
    "weak_supermajorizes",
    "weibull_min_variance",
]
