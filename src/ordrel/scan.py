"""Configuration scans over the theorem harness.

A scan draws parameter configurations from the box of scalar knobs in a
theorem's registry entry (`harness.THEOREMS`), at random with a fixed seed
("random") or as the first points of a Halton sequence ("grid"), which
gives every knob as many distinct values as there are configurations.  It
turns each into a scenario with the entry's sampler, runs one TheoremCase
per configuration through `harness.run_case` and aggregates consistency
counts.  Samplers deliberately mix hypothesis-violating configurations in
(about 30%), so the vacuity tracking is exercised while most cases remain
non-vacuous.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ConfigError, ParameterDomainError, check_count, check_integer, is_real
from .harness import SCAN_IDS, THEOREMS, TheoremCase, TheoremReport, run_case
from .orders import FAILS, HOLDS, INCONCLUSIVE

SCAN_GRID_N = 96  # per-check grid resolution during scans


_VIOLATE_PERIOD = 10
_VIOLATE_COUNT = 3  # 3 of every 10 configurations break the hypothesis
_OUTCOME_CLASSES = {HOLDS: "satisfied_holds", FAILS: "inconsistent",
                    INCONCLUSIVE: "inconclusive"}


@dataclass(frozen=True)
class ScanResult:
    id: str
    strategy: str
    seed: int
    budget: int
    reports: tuple[TheoremReport, ...]

    @property
    def counts(self) -> dict:
        """The reports by class: vacuous (hypothesis not satisfied), else the
        class `_OUTCOME_CLASSES` gives their conclusion outcome."""
        counts = {"total": len(self.reports), "satisfied_holds": 0, "vacuous": 0,
                  "inconsistent": 0, "inconclusive": 0}
        for rep in self.reports:
            counts["vacuous" if not rep.hypothesis_satisfied
                   else _OUTCOME_CLASSES[rep.conclusion_outcome]] += 1
        return counts

    def to_json(self) -> dict:
        return {
            "id": self.id, "strategy": self.strategy, "seed": self.seed,
            "budget": self.budget, "counts": self.counts,
            "reports": [r.to_json() for r in self.reports],
        }


# one prime base per knob: T8's box, the largest, has 8 (an override adds none)
_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(i: int, base: int) -> float:
    """The base-`base` digits of i mirrored about the radix point."""
    x, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        x += digit * scale
    return x


def _knob_stream(names, strategy, seed, budget):
    if strategy == "random":
        rng = random.Random(seed)
        for _ in range(budget):
            yield {name: rng.random() for name in names}
    elif strategy == "grid":
        # Halton points 1..budget (Halton 1960): knob j is the radical
        # inverse of the point's index in the j-th prime base, so every knob
        # takes `budget` distinct values in (0, 1).
        for i in range(1, budget + 1):
            yield {name: _radical_inverse(i, base) for name, base in zip(names, _HALTON_BASES)}
    else:
        raise ParameterDomainError(f"unknown strategy {strategy!r}")


def scan(theorem_id: str, box: dict | None = None, strategy: str = "random",
         budget: int = 100, seed: int = 0) -> ScanResult:
    """Evaluate `budget` configurations of one theorem, each on
    ``SCAN_GRID_N``-point grids.

    Any inconsistent report (hypothesis satisfied and conclusion fails) is a
    release-blocking artifact bug or a genuine finding; full reproduction
    data rides along in each report.  `box` overrides some of the theorem's
    knob ranges; an unknown knob, or a range whose bounds are not finite
    reals (`is_real`) with lo <= hi, is a ConfigError, and a budget that is
    no count (`check_count`) or a seed that is no integer (`check_integer`)
    a ParameterDomainError, each raised before any case runs.
    """
    check_count("scan budget", budget, 0)
    check_integer("scan seed", seed)
    if theorem_id not in SCAN_IDS:
        raise ParameterDomainError(
            f"no scan sampler for {theorem_id!r}; choose from {sorted(SCAN_IDS)}")
    sampler, default_box = THEOREMS[theorem_id].sampler, THEOREMS[theorem_id].box
    box = box or {}
    unknown = sorted(set(box) - set(default_box))
    if unknown:
        raise ConfigError(f"{theorem_id} box has unknown knobs {unknown}; "
                          f"choose from {sorted(default_box)}")
    for name, (lo, hi) in box.items():
        if not (is_real(lo) and is_real(hi) and -math.inf < lo <= hi < math.inf):
            raise ConfigError(f"{theorem_id} box {name!r} needs finite real bounds "
                              f"lo <= hi, got ({lo!r}, {hi!r})")
    box = {**default_box, **box}
    reports = []
    for idx, knobs in enumerate(_knob_stream(sorted(box), strategy, seed, budget)):
        violate = (idx % _VIOLATE_PERIOD) >= (_VIOLATE_PERIOD - _VIOLATE_COUNT)
        scenario = sampler({name: lo + knobs[name] * (hi - lo)
                            for name, (lo, hi) in box.items()}, violate)
        reports.append(run_case(TheoremCase(theorem_id, scenario, n=SCAN_GRID_N)))
    return ScanResult(theorem_id, strategy, seed, budget, tuple(reports))
