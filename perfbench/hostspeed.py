"""Host-speed reference: a fixed piece of work timed all through a run.

On a shared host the speed of a core drifts by 20-30% over seconds to
minutes, and process CPU time drifts with wall time, so the drift is the
host's, not the scheduler's.  The benchmark times a reference unit of work
at each step boundary and, from a timer signal, every PERIOD_S seconds
inside the steps.  A step's time, less the time spent in the timer's
reference units, is scaled by REFERENCE_S divided by the median unit time
from the step's start to its end: times are given in seconds at the host
speed where the unit takes REFERENCE_S.  The unit mixes what the program
spends its time on (an interpreted loop over floats, lists and a deque,
scalar draws from a numpy Generator, small numpy array operations, and
pointer chasing through a 50,000-entry list).
It calls no tanglesim code, but it runs in the workload process, the units
from the timer in the middle of a command, so the program's heap, garbage
collector and caches are around it.  Scaling from the step boundaries alone
spread several times wider from run to run (perfbench/README.md).
"""
from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

# Median unit time on the 2-core machine of the reference figures in
# README.md.
REFERENCE_S = 0.008
PERIOD_S = 0.25
UNITS_PER_POINT = 5


class HostSpeed:
    """Reference-unit timings of one process, in the order taken."""

    def __init__(self) -> None:
        perm = np.random.default_rng(7).permutation(50_000)
        self._chain = [int(j) for j in perm]
        self.samples: list[float] = []
        self.in_steps_s = 0.0  # time the timer spent inside steps

    def _unit(self) -> float:
        rng = np.random.default_rng(12345)
        acc = [0.0, 0.0, 0.0, 0.0]
        window: deque[tuple[float, int]] = deque()
        chain = self._chain
        j = 0
        for k in range(6_000):
            r = rng.random()
            i = k & 3
            acc[i] += r * r - acc[(i + 1) & 3] * 0.5
            window.append((r, i))
            if len(window) > 16:
                window.popleft()
            j = chain[chain[j]]
        a = np.arange(2048.0)
        for _ in range(30):
            a = np.sqrt(a + 1.0)
        return acc[j & 3] + float(a[-1])

    def _timed_unit(self) -> float:
        t0 = time.perf_counter()
        self._unit()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def point(self) -> None:
        """Time UNITS_PER_POINT units at a step boundary."""
        for _ in range(UNITS_PER_POINT):
            self._timed_unit()

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._timed_unit()
        self.in_steps_s += time.perf_counter() - t0

    def start(self) -> None:
        """Time one unit every PERIOD_S seconds until stop()."""
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter less the time the timer spent in reference units: a
        clock that stands still while reference work runs."""
        return time.perf_counter() - self.in_steps_s

    def scale(self, first: int, last: int) -> float:
        """Factor to reference seconds from samples[first:last]."""
        return REFERENCE_S / statistics.median(self.samples[first:last])
