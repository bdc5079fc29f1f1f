"""Host speed probe: the time of a fixed loop that uses no saddlescape code.

On a shared host, other tenants slow every process by up to 3x, in phases
that last from a few seconds to a minute, so raw wall times of the same
code spread by more than any useful bound.  The benchmark times this probe
right before and right after every set-up interpreter and every timed
repetition of the descent workloads, and scales the measured time by
``REFERENCE_S / probe time``.  A slow phase then moves the probe and the
measured code together and cancels.  The probe has an interpreter-bound
half (function calls and float arithmetic, like a descent step) and an
array half (numpy passes over 512 KB arrays).  It does not track the
6-second numpy-bound repetitions of ``check-n100``, which stay unscaled.

The probe calls no saddlescape code, but it runs in the benchmark process,
right after the workload's commands.  State that the package leaves behind
in the process (heap size, memory fragmentation, CPU caches) can still
move it a little.  The cyclic garbage collector, whose passes grow with
the heap, is switched off while the probe runs, so that the package's
live objects do not enter the probe time through it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# About the probe time on a quiet 2-vCPU host (Python 3.11.7, numpy 2.4.6).
# It only sets the scale: it cancels when two commits are compared.
REFERENCE_S = 0.006
CALLS = 5
LOOP_STEPS = 8000
ARRAY_PASSES = 40


def _step(x: float, y: float, d: float) -> tuple[float, float]:
    return min(max(x + d, 0.0), 1.0), y * 0.5 + d


class SpeedProbe:
    def __init__(self):
        self._a = np.arange(1 << 16, dtype=float)
        self._b = np.empty_like(self._a)

    def _once(self) -> float:
        x = y = 0.5
        for i in range(LOOP_STEPS):
            x, y = _step(x, y, (i % 7) * 0.01)
        for _ in range(ARRAY_PASSES):
            np.multiply(self._a, 0.5, out=self._b)
            np.add(self._b, x + y, out=self._b)
        return float(self._b[-1])

    def __call__(self) -> float:
        """Median time of ``CALLS`` runs of the loop, in seconds."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(CALLS):
                t0 = time.perf_counter()
                self._once()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(times)
