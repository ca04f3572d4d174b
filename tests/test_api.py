"""The package's exported surface.

A name added to or dropped from ``ordrel.__all__`` changes what users can
import; this pin makes such a change show up in the diff of this file.
The names resolve on first access; the tests below pin what that keeps of
an eager import.
"""

import importlib
import json

import pytest

import ordrel
from conftest import run_python

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


def test_star_import_binds_each_name_to_its_home_object():
    namespace = {}
    exec("from ordrel import *", namespace)
    homes = {name: importlib.import_module(f"ordrel.{module}")
             for name, module in ordrel._HOME.items()}
    assert set(PUBLIC_API) <= set(namespace)
    assert [name for name in PUBLIC_API
            if not (namespace[name] is getattr(ordrel, name) is getattr(homes[name], name))] == []


def test_dir_lists_every_name_before_any_is_loaded():
    proc = run_python("import json, ordrel; print(json.dumps(dir(ordrel)))")
    assert proc.returncode == 0, proc.stderr
    assert set(PUBLIC_API) <= set(json.loads(proc.stdout))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ordrel.no_such_name


@pytest.mark.parametrize("first", [
    "import ordrel.scan",
    "importlib.import_module('ordrel.scan')",
    "import ordrel.cli; ordrel.cli.main(['scan', '-s', sys.argv[1], '--out', sys.argv[2]])",
    "from ordrel import scan; assert scan.__module__ == 'ordrel.scan'",
], ids=["import", "import_module", "cli-scan", "from-import"])
def test_scan_is_the_function_whatever_is_imported_first(tmp_path, first):
    # the name is also the submodule's; importing that must not rebind it
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"id": "T6", "budget": 2}))
    proc = run_python(f"import importlib, sys\n{first}\nimport ordrel\n"
                      "assert ordrel.scan is sys.modules['ordrel.scan'].scan",
                      str(config), str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
