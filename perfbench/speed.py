"""Machine-speed calibration for the benchmark's timings.

On small shared hosts (measured on a virtual machine with 2 vCPUs of an
Intel Xeon) the speed of the CPU changes by up to a factor of two over
tens of seconds, while the process keeps running (its CPU time
grows with its wall time, so this is not scheduling delay): other tenants
load the same physical cores.  Times taken minutes apart are then not
comparable.  A fixed calibration task that uses nothing from ordrel is
timed between chunks of work, and each chunk's times are rescaled as if
the task had taken its reference time.  Reported times are therefore "at
reference speed": they move when ordrel does more or less work, and much
less when a neighbour does.

Two calibration tasks match the two kinds of work:

- ``kernel``, pure-Python float maths, calls, a dict and a sort, for work
  inside the benchmark's process (5 ms at reference speed);
- ``start_interpreter``, a fresh interpreter that imports the standard
  modules the CLI imports, for one-shot CLI processes, whose time is mostly
  process start-up and imports and follows the kernel only in part (50 ms
  at reference speed).
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

INTERVAL_S = 0.1  # re-measure the speed at most this often
STDLIB_IMPORTS = "import argparse, dataclasses, functools, importlib.resources, itertools, json, random"


def _step(x: float, acc: float) -> float:
    return x * 0.5 + acc * 1e-9


def kernel(n: int = 16000) -> float:
    """Fixed interpreter work: float maths, calls, a dict and a sort."""
    acc = 0.0
    table = {}
    xs = []
    for i in range(n):
        x = (i % 97) * 0.01 + 0.5
        acc += math.exp(-x) * x ** 1.5 / (1.0 + x)
        table[i & 255] = acc
        xs.append(_step(x, acc))
    xs.sort()
    return acc + xs[n // 2] + len(table)


def start_interpreter():
    """Start a fresh interpreter that imports some standard modules."""
    subprocess.run([sys.executable, "-c", STDLIB_IMPORTS], check=True,
                   capture_output=True, timeout=60)


class Speed:
    """Current speed factor: the task's reference time over its measured time."""

    def __init__(self, task, reference_s: float):
        self._task = task
        self._reference_s = reference_s
        self._at = -math.inf
        self._factor = 1.0

    def measure(self) -> float:
        start = perf_counter()
        self._task()
        self._at = perf_counter()
        self._factor = self._reference_s / (self._at - start)
        return self._factor

    def factor(self) -> float:
        """The factor, measured anew if INTERVAL_S has passed since the last
        measurement."""
        if perf_counter() - self._at >= INTERVAL_S:
            self.measure()
        return self._factor


def interpreter_speed() -> Speed:
    return Speed(kernel, 0.005)


def process_speed() -> Speed:
    return Speed(start_interpreter, 0.050)
