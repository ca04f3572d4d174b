"""The package's exported surface.

A name added to or dropped from ``ordrel.__all__`` changes what users can
import; this pin makes such a change show up in the diff of this file.
"""

import ordrel

PUBLIC_API = (
    "CHECKERS", "Clayton", "ConfigError", "DependentMax", "DependentMin",
    "Distribution", "Exponential", "FAILS", "Frank", "GridSpec", "HOLDS",
    "INCONCLUSIVE", "Independence", "Lomax", "MomentUndefinedError",
    "OrderStatDist", "OrderVerdict", "OrdrelError", "ParameterDomainError",
    "ParetoI", "ReflectedDFR", "ScanResult", "ShiftedSystem", "SupportError",
    "SystemSpec", "TheoremCase", "TheoremReport", "Weibull",
    "check_disp", "check_hr", "check_lr", "check_rh", "check_st", "check_star",
    "classify_ageing", "compose_phi_psi", "is_log_concave", "is_log_convex",
    "j1", "j2", "lomax_min_moments", "majorizes", "mixed_parallel",
    "mixed_series", "numeric_mean_variance", "numeric_moment", "parallel_prhr",
    "run_case", "scan", "series_phr", "super_additive_check",
    "weak_submajorizes", "weak_supermajorizes", "weibull_min_variance",
)


def test_public_api_is_pinned():
    assert tuple(sorted(ordrel.__all__)) == PUBLIC_API
    assert [name for name in PUBLIC_API if getattr(ordrel, name, None) is None] == []
