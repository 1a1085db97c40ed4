"""Host-speed calibration: every duration of the benchmark is in
reference-host time.

The sandbox this benchmark runs in drifts: the same pure-Python loop takes
7.5 ms or 16 ms depending on the minute, for tens of seconds at a stretch, so
a run-to-run wall-clock comparison has a 20-40 % spread before the program
under test changed at all (see README, "Why times are normalised").  A fixed
pure-Python loop is therefore timed between operations; its duration over
:data:`REFERENCE_MS` is the host's *slowdown* at that moment, and

* a measured wall-clock interval is divided by the slowdown around it, and
* a solver budget handed to the program is multiplied by the current
  slowdown, so a budget-bound solve does the same amount of search on a slow
  minute as on a fast one.

A program that gets faster still reads faster: the calibration loop does not
run any code of the program.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Iterations of one calibration chunk.
CHUNK_ITERATIONS = 100_000
#: What one chunk takes on the reference host, ms (this box on a fast
#: minute).  Only fixes the unit: a host twice as slow reads slowdown 2.0.
REFERENCE_MS = 2.5
#: Chunks per sample; the median discards a preempted chunk.
CHUNKS_PER_SAMPLE = 3
#: Minimum spacing of samples taken by :meth:`HostClock.tick`, seconds.
SAMPLE_INTERVAL_S = 0.1


def _chunk_ms() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i & 7
    return (time.perf_counter() - started) * 1000.0


class HostClock:
    """Timestamped slowdown samples of one run."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._slowdowns: list[float] = []
        self.sample()

    def sample(self) -> float:
        """Measure the slowdown now and record it."""
        chunk = statistics.median(_chunk_ms() for _ in range(CHUNKS_PER_SAMPLE))
        slowdown = chunk / REFERENCE_MS
        self._times.append(time.perf_counter())
        self._slowdowns.append(slowdown)
        return slowdown

    def tick(self) -> float:
        """The current slowdown: a fresh sample when the last one is older
        than :data:`SAMPLE_INTERVAL_S`.  Call between operations, never
        inside a timed window."""
        if time.perf_counter() - self._times[-1] >= SAMPLE_INTERVAL_S:
            return self.sample()
        return self._slowdowns[-1]

    def budget(self, nominal_s: float) -> float:
        """A solver budget of ``nominal_s`` reference seconds, in wall-clock
        seconds at the current host speed."""
        return nominal_s * self.tick()

    def slowdown(self, start: float, end: float) -> float:
        """Mean of the samples bracketing ``[start, end]``
        (``perf_counter`` readings): the last one at or before ``start`` and
        the first one at or after ``end``, plus every sample in between."""
        first = max(0, bisect.bisect_right(self._times, start) - 1)
        last = min(len(self._times) - 1, bisect.bisect_left(self._times, end))
        return statistics.fmean(self._slowdowns[first : last + 1])

    def normalise(self, start: float, end: float) -> float:
        """``end - start`` in reference-host seconds."""
        return (end - start) / self.slowdown(start, end)

    def summary(self) -> dict:
        return {
            "samples": len(self._slowdowns),
            "slowdown_median": statistics.median(self._slowdowns),
            "slowdown_min": min(self._slowdowns),
            "slowdown_max": max(self._slowdowns),
        }
