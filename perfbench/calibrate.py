"""A speedometer: a fixed slice of pure-Python reference work, timed on a
steady wall-clock interval while a pass runs, to track the speed of the
machine the benchmark is running on.

The host's speed flips between a fast and a slow state several times a
second, on both CPUs, and the share of time spent slow drifts over minutes:
the same pass can take half again as long a few minutes later, in CPU time
as well as in wall time.  The slice does the kind of work biscount's hot
paths do (bitmask loops over Python ints, generators, dict and set traffic,
Fraction arithmetic) and touches none of biscount's code, so a change to
biscount cannot move it.

A ``SIGALRM`` interval timer runs the slice in the main thread every
``INTERVAL_S`` seconds, in the middle of ops as well as between them, so the
slices sample the machine's state uniformly over the pass.  Each slice is
timed in the main thread's CPU time, which leaves out any wait for the GIL
while ``count_expander``'s pool threads hold it.  ``clock()`` is
``perf_counter`` minus the wall time spent in slices, so timed spans do not
include them.  ``scale()`` is ``REF_SLICE_S`` over the mean slice: a measured
time times it reads in seconds at the reference speed, and the drift cancels.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The slice's CPU time at the reference speed (a 2-vCPU Intel Xeon VM at
# 2.1 GHz running CPython 3, in its fast state).
REF_SLICE_S = 0.003
INTERVAL_S = 0.05


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _work() -> int:
    rows = [((i * 0x9E3779B1) >> 7) & 0xFFFF for i in range(16)]
    seen: dict[int, int] = {}
    total = Fraction(0)
    acc = 0
    for a in range(1, 640):
        mask = (a * 0x2545F491) & 0xFFFF
        nb = 0
        for v in _iter_bits(mask):
            nb |= rows[v]
        key = nb ^ mask
        seen[key] = seen.get(key, 0) + 1
        acc += nb.bit_count() + len({v & 7 for v in _iter_bits(nb)})
        if a % 8 == 0:
            total += Fraction(acc % 97 + 1, a + 3)
    return acc + len(seen) + total.denominator % 7


class Speedometer:
    def __init__(self) -> None:
        self.slices: list[float] = []  # main-thread CPU seconds per slice
        self.spent = 0.0  # wall seconds spent in slices

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        c = time.thread_time()
        _work()
        self.slices.append(time.thread_time() - c)
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        _work()  # warm-up, not counted
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Wall seconds, not counting time spent in slices."""
        return time.perf_counter() - self.spent

    def mean_slice_s(self) -> float:
        return statistics.mean(self.slices)

    def scale(self) -> float:
        return REF_SLICE_S / self.mean_slice_s()
