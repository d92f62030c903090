"""Host-speed normalisation of the benchmark's timings.

The shared machine the benchmark was defined on changes speed by up to
1.8x, and holds each speed for minutes, so raw times from runs made minutes
apart differ by more than any useful bound.  Every timed region is therefore
paced by a fixed reference unit of pure-Python work, run between
queries (never inside a timed region) and timed on its own.  A raw time t
is reported as t * REFERENCE_S / u, where u is the median time of the unit
over the samples taken within WINDOW_S of it: the time the same work would
take on a host where the unit takes REFERENCE_S.  The unit never touches
cwlab and runs with the garbage collector off, so a change to the program
under test (or to its heap) cannot change what it measures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Time of one reference unit on the host where the benchmark was defined
#: (2-vCPU x86_64 VM, Python 3.11), at the faster of its two speed levels.
REFERENCE_S = 0.00125

#: Least time between two reference samples.
EVERY_S = 0.025

#: A timed region is normalised by the reference samples taken from
#: WINDOW_S before it starts to WINDOW_S after it ends.
WINDOW_S = 1.0


def reference_unit() -> int:
    """Fixed work in two halves, like cwlab's: integer arithmetic (4000
    steps of a 2x2 matrix recurrence mod a prime) and allocation (1500
    small tuples, sorted and put in a dict).  Of the kinds of unit tried,
    this pair tracked the speed of every workload best."""
    n = 1000003
    a, b, c, d = 1, 0, 0, 1
    for k in range(1, 4001):
        a, b, c, d = (k * a - c) % n, (k * b - d) % n, a, b
    rows = [(i, i * 7 % 1009, i * i % 1009) for i in range(1500)]
    rows.sort(key=lambda row: row[1])
    return a + len({row: i for i, row in enumerate(rows)})


class Pace:
    """Samples the reference unit between timed regions, at most once per
    EVERY_S, and normalises each region by the samples around it."""

    def __init__(self):
        self._at: list[float] = []  # when each sample ended
        self._seconds: list[float] = []

    def tick(self, force: bool = False) -> None:
        start = time.perf_counter()
        if force or not self._at or start - self._at[-1] >= EVERY_S:
            collecting = gc.isenabled()
            gc.disable()
            start = time.perf_counter()
            reference_unit()
            end = time.perf_counter()
            if collecting:
                gc.enable()
            self._at.append(end)
            self._seconds.append(end - start)

    def normalise(self, regions: list[tuple[float, float]]) -> list[float]:
        """Normalised duration of each (start, end) region: its raw
        duration over its slowness, the median reference sample within
        WINDOW_S of it over REFERENCE_S.  Tick before each region."""
        self.tick(force=True)
        out = []
        for start, end in regions:
            lo = bisect.bisect_left(self._at, start - WINDOW_S)
            hi = bisect.bisect_right(self._at, end + WINDOW_S)
            slowness = statistics.median(self._seconds[lo:hi]) / REFERENCE_S
            out.append((end - start) / slowness)
        return out
