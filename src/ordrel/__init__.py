"""Numerical verification of stochastic orderings for order statistics.

Lifetimes follow proportional-hazard (series/minimum) or
proportional-reversed-hazard (parallel/maximum) models, optionally coupled
through an Archimedean generator; this package checks the classical
comparison results for such systems on explicit numerical grids.

`import ordrel` loads no submodule.  Each name in `__all__` is imported from
its home module (`_EXPORTS`) on first access and then cached here (PEP 562),
so a one-shot CLI call loads only the modules its subcommand runs.
`ordrel.scan` is the scan function, never the submodule `ordrel.scan`,
whichever is imported first: the package ignores an import that binds a
submodule over one of its exported names.  Reach the submodule through
`sys.modules` or `importlib.import_module`.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "copulas": ("Clayton", "DependentMax", "DependentMin", "Frank", "Independence",
                "ShiftedSystem", "compose_phi_psi", "is_log_concave", "is_log_convex",
                "j1", "j2", "super_additive_check"),
    "distributions": ("Distribution", "Exponential", "Lomax", "ParetoI", "ReflectedDFR",
                      "Weibull", "classify_ageing"),
    "errors": ("ConfigError", "MomentUndefinedError", "OrdrelError",
               "ParameterDomainError", "SupportError"),
    "grids": ("GridSpec",),
    "harness": ("TheoremCase", "TheoremReport", "run_case"),
    "majorization": ("majorizes", "weak_submajorizes", "weak_supermajorizes"),
    "orders": ("CHECKERS", "FAILS", "HOLDS", "INCONCLUSIVE", "OrderVerdict",
               "check_disp", "check_hr", "check_lr", "check_rh", "check_st", "check_star"),
    "scan": ("ScanResult", "scan"),
    "systems": ("OrderStatDist", "SystemSpec", "lomax_min_moments", "mixed_parallel",
                "mixed_series", "numeric_mean_variance", "numeric_moment",
                "parallel_prhr", "series_phr", "weibull_min_variance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Ignores an import that binds a submodule over an exported name."""

    def __setattr__(self, name, value):
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
