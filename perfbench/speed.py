"""Machine-speed reference for timing on a shared host.

On a shared virtual machine the speed at which the same code runs changes
by up to 2x, in stretches from seconds to minutes, and CPU time changes
with wall time, so neither more repeats nor CPU time remove it.  The
benchmark therefore times a fixed reference kernel, which uses nothing of
the package, between its ops and reports each op's time at a fixed
reference speed:

    calibrated = measured * NOMINAL_S / (reference time measured around it)

A change to the package moves the measured time and leaves the reference
alone, so it shows in the calibrated time in full; a change in machine
speed moves both and cancels out.  The raw times stay in each run's record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Reference time the calibrated figures are scaled to: about the kernel's
#: time on an idle 2-vCPU Xeon virtual machine, so calibrated times read
#: close to times measured on such a machine when nothing else runs.
NOMINAL_S = 0.001

#: Least time between two reference samples taken between ops.
EVERY_S = 0.05

#: Reference samples whose start lies this close to an op count for it.
WINDOW_S = 0.25

_N = 24
_MATRIX = np.random.default_rng(0).random((_N, _N)) + _N * np.eye(_N)
_ADJ = {i: [(i * 7 + k) % 200 for k in (1, 3, 11)] for i in range(200)}


def reference_kernel() -> None:
    """Fixed work in the package's own mix: a dict-based graph search and
    a short loop of small dense solves."""
    for _ in range(3):
        seen = {0: 1.0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in _ADJ[u]:
                if v not in seen:
                    seen[v] = seen[u] * 0.5 + 1.0
                    stack.append(v)
        x = np.ones(_N)
        for _ in range(20):
            x = np.linalg.solve(_MATRIX, x)
            x /= x.sum()


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def reference_median(samples: int) -> float:
    """Median of ``samples`` timed reference runs after one untimed run."""
    reference_kernel()
    return statistics.median(time_reference() for _ in range(samples))


class SpeedProbe:
    """Reference samples taken between ops, and the local reference time
    of any interval they surround."""

    def __init__(self) -> None:
        reference_kernel()  # first-call set-up of numpy's solver
        self.starts: list[float] = []
        self.times: list[float] = []
        self._last_end = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the reference once, unless one ran less than EVERY_S ago."""
        start = time.perf_counter()
        if not force and start - self._last_end < EVERY_S:
            return
        reference_kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.times.append(end - start)
        self._last_end = end

    def local(self, start: float, end: float) -> float:
        """Median reference time of the samples within WINDOW_S of the
        interval, always including the last one before it and the first
        one after it."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        before = bisect.bisect_left(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        lo = max(0, min(lo, before))
        hi = max(hi, min(after + 1, len(self.starts)))
        return statistics.median(self.times[lo:hi])
