"""The benchmark's tracer finds every name it wraps.

`perfbench/tracing.py` wraps package functions by module and attribute
name; a refactor that renames or inlines one of them would silently drop
its layer from a traced run.  The tracer uses only the standard library,
so it is loaded here by path.
"""

import importlib
import importlib.util
import os
import sys

import pytest

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
