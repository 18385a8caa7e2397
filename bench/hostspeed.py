"""Host speed reference for the benchmark's end-to-end times.

The benchmark runs on shared hosts whose speed changes as other tenants load
them. On the 2-vCPU Intel Xeon VM it was written on, a fixed pure-Python loop
took 5.0 ms in fast phases and 7.7 ms in slow ones, in phases of seconds to
minutes, with process CPU time tracking wall time: the slowdown is in the
CPU, not in the scheduling. Wall times of one code version then differ
between sets of runs by more than any useful regression bound.

So the benchmark runs a fixed reference chunk right before and right after
the work it times, for a fixed share of that work's time, and reports that
work's times scaled to a fixed host speed:

    reported = wall * REF_CHUNK_S / (mean wall of the chunks run beside it)

The chunk does what the package spends its time on (Python bytecode, float
formatting, numpy array ops) and never calls the package, so a change to the
package moves the reported times and not the scale. Over 30 s windows of
case-study ops, the mean op wall swung by +-18 % with the host while its
ratio to the interleaved chunk's mean wall stayed within +-6 %.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the chunk's wall time in a fast phase of the host described above; it
# fixes the speed that reported times are scaled to
REF_CHUNK_S = 0.026
_VALUES = np.random.default_rng(0).random(2000)


def chunk() -> float:
    """Run the reference chunk once; returns its wall time."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(5):
        ",".join(f"{x:.17g}" for x in _VALUES)
        np.cumsum(np.sin(_VALUES))
    return perf_counter() - start


class HostSpeed:
    """Reference chunks run right before and right after each timed piece of
    work, for `share` of its time in all."""

    def __init__(self, share: float):
        self.share = share  # chunk time per second of timed work
        self.walls: list[float] = []
        self._owed = 0.0

    def _pay(self, amount: float) -> None:
        paid = 0.0
        while paid < amount:
            self.walls.append(chunk())
            paid += self.walls[-1]
        self._owed -= paid

    def before(self) -> None:
        """Call right before timed work: pays what the last work left owed."""
        self._pay(self._owed)

    def after(self, wall: float) -> None:
        """Call right after `wall` seconds of timed work: pays half its share."""
        self._owed += self.share * wall
        self._pay(self._owed / 2)

    def scale(self, wall: float) -> float:
        """`wall` seconds measured beside these chunks, at the fixed host speed."""
        return wall * REF_CHUNK_S / statistics.fmean(self.walls)
