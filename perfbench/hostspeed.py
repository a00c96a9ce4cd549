"""A fixed reference loop that tracks how fast the host runs right now.

The 2-vCPU VM this benchmark was built on ran the same engine work up to
twice as fast in some minutes as in others, on both vCPUs, with CPU time
equal to wall time (see README.md): no run length averages that out. So
each segment times a fixed piece of work of its own, `reference()`, every
TICK_S seconds of a timed loop, between two operations, on the CPU the
segment is pinned to. Its time divided by REF_S is the host's slowdown
factor at that moment, and the end-to-end times are divided by the
factor of the moment they were taken: they read as the same work timed on
a host where `reference()` takes REF_S seconds. The reference uses no
engine code, so a change to the engine cannot move it. The raw figures
stay in the run record.
"""

import bisect
import statistics
from time import perf_counter

import numpy as np

# wall time of reference() on the build VM while it ran fast
REF_S = 0.003
# timed-loop seconds between two reference timings
TICK_S = 0.25
# a moment's factor is the median of this many reference timings around it
SMOOTH = 5

_ARRAY = np.arange(1 << 16, dtype=np.float64)


def reference():
    """Interpreter and numpy work in the engine's proportions; its seconds."""
    start = perf_counter()
    table = {}
    total = 0.0
    for i in range(5000):
        key = (i * 7919) & 0xFFFF
        table[key & 0x3FF] = (i, key)
        total += _ARRAY[key]
    for _ in range(16):
        total += float((_ARRAY * 1.5).sum())
    return perf_counter() - start


class HostClock:
    """Reference timings taken between the operations of a timed loop."""

    def __init__(self):
        self.starts = []     # perf_counter at each reference's start
        self.ends = []
        self.factors = []    # reference seconds / REF_S

    def tick(self, force=False):
        """Time the reference if TICK_S has passed since the last one."""
        now = perf_counter()
        if not force and self.ends and now < self.ends[-1] + TICK_S:
            return
        seconds = reference()
        self.starts.append(now)
        self.ends.append(now + seconds)
        self.factors.append(seconds / REF_S)

    def _smoothed(self):
        half = SMOOTH // 2
        return [statistics.median(self.factors[max(0, k - half):k + half + 1])
                for k in range(len(self.factors))]

    def _tick_before(self, t):
        return max(0, bisect.bisect_right(self.starts, t) - 1)

    def adjust(self, starts, seconds):
        """Each sample divided by the factor at its start."""
        smoothed = self._smoothed()
        return [s / smoothed[self._tick_before(t)] for t, s in zip(starts, seconds)]

    def span(self, t0, t1):
        """Adjusted seconds of [t0, t1], leaving out the reference timings."""
        smoothed = self._smoothed()
        gaps = zip([float("-inf")] + self.ends, self.starts + [float("inf")])
        total = 0.0
        for k, (lo, hi) in enumerate(gaps):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi > lo:
                total += (hi - lo) / smoothed[max(0, k - 1)]
        return total

    def summary(self):
        f = self.factors
        return {"ticks": len(f), "median": statistics.median(f), "min": min(f),
                "max": max(f)}
