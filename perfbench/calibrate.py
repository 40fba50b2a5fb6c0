"""Host speed, sampled while each solve runs, for timings that hold still.

On a shared host, other tenants slow this process's CPU by up to 2x, and
the slowdown changes within seconds (one solve of a batch takes 1.0x or
1.7x its fastest time from one pass to the next); a 40 s run does not
average that out.  While a solve runs, an interval timer interrupts it
every `INTERVAL_S` to time a small fixed exact-rational elimination, the
same kind of work as the solver's simplex pivots.  The solve's wall time
minus those interruptions, divided by the kernel's median slowdown against
an idle host, estimates the solve's time on an idle host.  The kernel is
the benchmark's own code, so no change to the package moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# About the median time of `kernel()` on an idle 2-core Intel Xeon VM,
# CPython 3.11.7.
IDLE_KERNEL_S = 0.0008
INTERVAL_S = 0.025
AFTER_REPEATS = 3  # kernel runs after each solve, so short solves get samples
SIZE = 6


def kernel() -> Fraction:
    """Gauss-Jordan elimination of a fixed nonsingular rational matrix."""
    a = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + j) % 4 + 1) + (12 if i == j else 0)
          for j in range(SIZE + 1)] for i in range(SIZE)]
    for c in range(SIZE):
        row = [v / a[c][c] for v in a[c]]
        a[c] = row
        for r in range(SIZE):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], row)]
    return a[-1][-1]


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel timings taken during and right after one measured block."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.interrupted_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel_s.append(_timed_kernel())
        self.interrupted_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.kernel_s.extend(_timed_kernel() for _ in range(AFTER_REPEATS))

    def slowdown(self) -> float:
        """How many times slower than idle the host ran this process."""
        return statistics.median(self.kernel_s) / IDLE_KERNEL_S


@contextmanager
def timed():
    """Times a block at idle-host speed: yields a dict that gets `wall_s`
    (minus the sampling interruptions), `slowdown` and `idle_s`."""
    speed = HostSpeed()
    out: dict = {}
    start = time.perf_counter()
    with speed.sampling():
        try:
            yield out
        finally:
            out["wall_s"] = time.perf_counter() - start - speed.interrupted_s
    out["slowdown"] = speed.slowdown()
    out["idle_s"] = out["wall_s"] / out["slowdown"]
