"""The benchmark's tracer finds every name it wraps.

`perfbench/tracing.py` wraps package functions by module and attribute
name; a refactor that renames or inlines one of them would silently drop
its layer from a traced run.  The same holds for a hypothesis row that
binds a checker at import time instead of looking it up when called.  The
tracer uses only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from ordrel.harness import run_case
from ordrel.serialize import load_case
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


@pytest.mark.parametrize("label,spans", [
    ("T1", {"harness.T1", "distributions.classify_ageing", "orders.hr"}),
    ("T7", {"harness.T7", "majorization", "copulas.log_curvature",
            "copulas.super_additive_check", "orders.st"}),
])
def test_tracer_sees_the_hypothesis_rows(tracing, label, spans):
    # a row that bound a checker where the tracer cannot patch it would
    # drop that layer from a traced run
    case = load_case(REPORT_FORMAT[label][0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_case(case)
    finally:
        left = tracer.restore()
    assert left == []
    assert spans <= {span[0] for span in tracer.spans}
