"""The benchmark's tracer finds every name it wraps.

`perfbench/tracing.py` wraps package functions by module and attribute
name; a refactor that renames or inlines one of them would silently drop
its layer from a traced run.  The same holds for a hypothesis row that
binds a checker at import time instead of looking it up when called.  The
tracer uses only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
import json
import os
import sys

import pytest

from ordrel.harness import run_case
from ordrel.serialize import load_case
from conftest import run_python
from test_harness import REPORT_FORMAT

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

pytestmark = pytest.mark.skipif(not os.path.exists(TRACING),
                                reason="perfbench/ is not in this checkout")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module("ordrel.cli")
    importlib.import_module("ordrel.scan")
    return module


def test_every_target_resolves(tracing):
    targets = [t[:2] for t in tracing.SPAN_TARGETS] + [t[:2] for t in tracing.COUNT_TARGETS]
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(sys.modules[mod], attr, None))]
    assert missing == []


def test_install_then_restore_leaves_nothing_wrapped(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.restore() == []


def _traced_cases(label):
    """(case, span it must not open) pairs traced for `label`.  T7's
    generator rows call the numeric check only where no closed form
    applies, a Clayton x Frank composition: the Clayton x Clayton case
    must not open that span, and the Clayton x Frank case opens every
    span, the log-curvature row's included."""
    obj = REPORT_FORMAT[label][0]
    if label != "T7":
        return [(load_case(obj), None)]
    mixed = load_case({**obj, "scenario": {
        **obj["scenario"], "generator_y": {"family": "frank", "theta": 1.0}}})
    return [(load_case(obj), "copulas.super_additive_check"), (mixed, None)]


@pytest.mark.parametrize("label,spans", [
    ("T1", {"harness.T1", "distributions.classify_ageing", "orders.hr"}),
    ("T7", {"harness.T7", "majorization", "copulas.log_curvature",
            "copulas.super_additive_check", "orders.st"}),
])
def test_tracer_sees_the_hypothesis_rows(tracing, label, spans):
    # a row that bound a checker where the tracer cannot patch it would
    # drop that layer from a traced run
    tracer = tracing.Tracer()
    tracer.install()
    seen = []
    try:
        for case, absent in _traced_cases(label):
            start = len(tracer.spans)
            run_case(case)
            seen.append((absent, {span[0] for span in tracer.spans[start:]}))
    finally:
        left = tracer.restore()
    assert left == []
    for absent, names in seen:
        assert spans - {absent} <= names
        assert absent not in names
    # the dependent extremes call j1/j2 by their module-level names
    assert label != "T7" or tracer.counts["copulas.j_evals"] > 0


def test_sweeps_keep_the_base_class_formula_under_the_tracer(tracing):
    # the tracer wraps the surface methods on the classes; a sweep must
    # still recognise the base-class rev_hazard and give the same columns.
    # Lomax's cdf and pdf columns are kernels that make no per-point call;
    # a rev_hazard taken for an override would be called once a point
    import json

    from ordrel import Lomax, OrderStatDist, check_rh, mixed_parallel

    d = Lomax(2.0, 1.0)
    xs = [0.25 * i for i in range(64)]
    a = OrderStatDist(mixed_parallel(Lomax(1.5, 1.0), (0.5,), Lomax(3.0, 1.0), (1.0, 2.0)))
    b = OrderStatDist(mixed_parallel(Lomax(1.5, 1.0), (1.5,), Lomax(3.0, 1.0), (0.5, 0.5)))
    plain = d.rate_sweep("rev_hazard", xs), check_rh(b, a).to_json()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = d.rate_sweep("rev_hazard", xs)
        evals = tracer.counts["distributions.surface_evals"]
        traced = traced, check_rh(b, a).to_json()
    finally:
        left = tracer.restore()
    assert left == []
    assert json.dumps(traced) == json.dumps(plain)
    assert evals == 0  # no per-point call, rev_hazard included


@pytest.mark.parametrize("inner", ["lomax", "exponential"])
def test_a_reflected_quantile_column_reads_the_inner_kernel(tracing, inner):
    # the column is the negated inner column at 1-u, not one inner
    # quantile call per point
    from ordrel import Exponential, Lomax, ReflectedDFR

    d = ReflectedDFR(Lomax(2.0, 1.0) if inner == "lomax" else Exponential(0.9))
    us = [0.01 * i for i in range(1, 100)]
    plain = d.column("quantile", us)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = d.column("quantile", us)
        evals = tracer.counts["distributions.surface_evals"]
    finally:
        left = tracer.restore()
    assert left == []
    assert traced == plain
    assert evals == 0


# perfbench/cli_child.py's order: the tracer goes on right after `import
# ordrel.cli`, so what a subcommand loads later is imported under it.
_TRACED_CLI = """
import importlib.util, json, sys
import ordrel.cli
spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    codes = [ordrel.cli.main(argv) for argv in json.loads(sys.argv[2])]
finally:
    left = tracer.restore()
print(json.dumps([codes, left, sorted({span[0] for span in tracer.spans})]))
"""


def test_traced_cli_calls_leave_no_wrapper(tmp_path):
    # a module the CLI loads after the tracer is on must look a traced
    # function up where the tracer patched it, not bind it by name at import
    calls = []
    for name, obj in [("t1", REPORT_FORMAT["T1"][0]), ("t6", REPORT_FORMAT["T6"][0]),
                      ("scan", {"id": "T7", "budget": 10, "seed": 7})]:
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(obj))
        command = "scan" if name == "scan" else "theorem"
        calls.append([command, "-s", str(spec), "--out", str(tmp_path / f"{name}.out")])
    proc = run_python(_TRACED_CLI, TRACING, json.dumps(calls))
    assert proc.returncode == 0, proc.stderr
    codes, left, spans = json.loads(proc.stdout)
    assert codes == [0, 0, 0]
    assert left == []
    assert {"distributions.classify_ageing", "orders.disp"} <= set(spans)
