"""Per-layer tracing of ordrel, installed from outside the package.

The tracer replaces the names callers look up -- module attributes, entries
of registry dicts such as ``harness.CHECKS`` and ``orders.CHECKERS``, and
surface methods on classes -- with thin wrappers that record a span or bump
a counter, and puts every original back when the traced pass ends.  Spans
are kept in memory as ``(name, parent, start, end)`` tuples; the run writes
them out when it ends.

A span target is found by identity: every binding of the same function
object in any loaded ``ordrel`` module (or in a dict at module level) gets
the same wrapper, so ``from .orders import CHECKERS`` in the CLI and
``orders.check_hr`` in the harness are both traced.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from statistics import median

SURFACE_METHODS = ("sf", "cdf", "pdf", "quantile", "hazard", "rev_hazard")
RELATIONS = ("st", "hr", "rh", "lr", "disp", "star")
SCAN_THEOREMS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")

# (module, attribute, span name, counter for calls of the first argument)
SPAN_TARGETS = (
    ("ordrel.scan", "scan", "scan", None),
    *(("ordrel.orders", f"check_{rel}", f"orders.{rel}", None) for rel in RELATIONS),
    ("ordrel.distributions", "classify_ageing", "distributions.classify_ageing", None),
    ("ordrel.systems", "bisect_increasing", "systems.quantile_bisect",
     "special.bisect_evals"),
    ("ordrel.systems", "numeric_mean_variance", "systems.moment", None),
    ("ordrel.quadrature", "adaptive_quad", "quadrature.adaptive_quad",
     "quadrature.integrand_evals"),
    ("ordrel.copulas", "super_additive_check", "copulas.super_additive_check", None),
    ("ordrel.copulas", "is_log_convex", "copulas.log_curvature", None),
    ("ordrel.copulas", "is_log_concave", "copulas.log_curvature", None),
    ("ordrel.majorization", "majorizes", "majorization", None),
    ("ordrel.majorization", "weak_submajorizes", "majorization", None),
    ("ordrel.majorization", "weak_supermajorizes", "majorization", None),
    ("ordrel.serialize", "validate", "serialize.validate", None),
)
# (module, attribute, counter): called too often for a span each
COUNT_TARGETS = (
    ("ordrel.copulas", "j1", "copulas.j_evals"),
    ("ordrel.copulas", "j2", "copulas.j_evals"),
)

_MARK = "_perfbench_wrapper"


def _ordrel_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ordrel" or name.startswith("ordrel."))]


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (container, key, original)

    # -- wrappers ---------------------------------------------------------
    def _counting(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(counted, _MARK, True)
        return counted

    def _spanning(self, name: str, fn, arg_counter: str | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = self._order_result if name.startswith("orders.") else None
        counting = self._counting

        def spanned(*args, **kwargs):
            if arg_counter is not None:
                args = (counting(arg_counter, args[0]),) + args[1:]
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if on_result is not None:
                on_result(result)
            return result

        setattr(spanned, _MARK, True)
        return spanned

    def _order_result(self, verdict):
        self.counts["orders.points"] += verdict.grid.n
        if verdict.outcome in ("holds", "fails"):
            self.counts["orders.useful"] += 1

    def span(self, name: str, fn):
        """Run ``fn()`` inside a span recorded by this tracer."""
        return self._spanning(name, fn, None)()

    # -- installing and restoring -----------------------------------------
    def _patch(self, container, key, wrapper):
        if isinstance(container, dict):
            self._patched.append((container, key, container[key]))
            container[key] = wrapper
        else:
            self._patched.append((container, key, container.__dict__[key]))
            setattr(container, key, wrapper)

    def _patch_bindings(self, fn, wrapper):
        """Replace every module-level binding of ``fn`` and every entry of a
        module-level dict that holds it."""
        slots = {}  # a registry dict can be bound in several modules
        for mod in _ordrel_modules():
            for key, value in vars(mod).items():
                if value is fn:
                    slots[(id(mod), key)] = (mod, key)
                elif isinstance(value, dict):
                    slots.update(((id(value), k), (value, k))
                                 for k, v in value.items() if v is fn)
        for container, key in slots.values():
            self._patch(container, key, wrapper)

    def install(self):
        """Wrap every target in the ordrel modules loaded at this point."""
        mods = sys.modules
        for mod_name, attr, name, arg_counter in SPAN_TARGETS:
            if mod_name in mods:
                fn = getattr(mods[mod_name], attr)
                self._patch_bindings(fn, self._spanning(name, fn, arg_counter))
        for mod_name, attr, counter in COUNT_TARGETS:
            if mod_name in mods:
                fn = getattr(mods[mod_name], attr)
                self._patch_bindings(fn, self._counting(counter, fn))
        harness = mods.get("ordrel.harness")
        if harness is not None:
            for tid, fn in list(harness.CHECKS.items()):
                self._patch_bindings(fn, self._spanning(f"harness.{tid}", fn, None))
        grids = mods.get("ordrel.grids")
        if grids is not None:
            fn = grids.GridSpec.__dict__["x_points"]
            self._patch(grids.GridSpec, "x_points",
                        self._spanning("grids.x_points", fn, None))
        for cls in _surface_classes():
            for meth in SURFACE_METHODS:
                if meth in cls.__dict__:
                    self._patch(cls, meth, self._counting(
                        "distributions.surface_evals", cls.__dict__[meth]))

    def restore(self) -> list[str]:
        """Put every original back; return the names still wrapped."""
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        left = [f"{_label(c)}.{k}" for c, k, orig in self._patched
                if (c[k] if isinstance(c, dict) else c.__dict__[k]) is not orig]
        self._patched.clear()
        return left + _leftover_wrappers()


def _label(container) -> str:
    return getattr(container, "__name__", type(container).__name__)


def _surface_classes():
    out = []
    for mod in _ordrel_modules():
        for value in vars(mod).values():
            if (isinstance(value, type) and value.__module__ == mod.__name__
                    and any(m in value.__dict__ for m in SURFACE_METHODS)):
                out.append(value)
    return out


def _leftover_wrappers() -> list[str]:
    """Names in loaded ordrel modules, their dicts and classes that still
    hold a tracing wrapper."""
    found = []
    for mod in _ordrel_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if hasattr(v, _MARK)]
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, _MARK)]
    return found


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for _name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, _p, start, end) in enumerate(spans)]


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass (times in ms)."""
    durations: dict[str, list[float]] = {}
    self_ms: Counter = Counter()
    for (name, _p, start, end), own in zip(spans, self_times(spans)):
        durations.setdefault(name, []).append(1e3 * (end - start))
        self_ms[name] += 1e3 * own

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return sum(durations.get(name, ()))

    m = {
        "scan.self_ms": self_ms["scan"],
        "harness.self_ms": sum(v for k, v in self_ms.items() if k.startswith("harness.")),
    }
    for tid in SCAN_THEOREMS:
        m[f"harness.{tid}.case_ms_p50"] = median(durations.get(f"harness.{tid}", [0.0]))
    order_calls = 0
    for rel in RELATIONS:
        m[f"orders.{rel}.calls"] = calls(f"orders.{rel}")
        m[f"orders.{rel}.busy_ms"] = busy(f"orders.{rel}")
        order_calls += calls(f"orders.{rel}")
    m["orders.points"] = counts["orders.points"]
    m["orders.useful_frac"] = counts["orders.useful"] / order_calls if order_calls else 0.0
    for name in ("grids.x_points", "distributions.classify_ageing",
                 "systems.quantile_bisect", "copulas.super_additive_check"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_ms"] = busy(name)
    for name in ("systems.moment", "quadrature.adaptive_quad",
                 "copulas.log_curvature", "serialize.validate"):
        m[f"{name}.busy_ms"] = busy(name)
    m["majorization.busy_ms"] = busy("majorization")
    for counter in ("distributions.surface_evals", "special.bisect_evals",
                    "quadrature.integrand_evals", "copulas.j_evals"):
        m[counter] = counts[counter]
    return m
