"""Speed normalisation for a host whose CPU speed drifts.

On the 2-core VM this benchmark was written on, a fixed pure-Python loop
alternates between two speeds about 1.8× apart, in phases of seconds to
tens of seconds, independently on each core, with CPU time tracking wall
time (so it is not steal time).  Raw wall times of the same work then
spread by 30% from one run to the next.

The benchmark therefore pins itself and its children to one core, and a
helper thread times a fixed stdlib-only kernel (``Fraction`` arithmetic,
no degenbell) every ``PERIOD_S`` on that core.  A measured interval is
reported at reference speed: its wall time multiplied by the mean of
``K_REF_S / k`` over the kernel samples ``k`` taken inside it, i.e. the
time it would have taken had the kernel run in ``K_REF_S``.  degenbell
code cannot change the kernel, so the factor tracks only the host.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from fractions import Fraction

K_REF_S = 0.0002  # nominal kernel duration that defines "reference speed"
PERIOD_S = 0.02


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 40):
        acc = Fraction(i, i + 1) + Fraction(i % 7, 3)
    return acc


def pin_to_one_cpu() -> int:
    """Restrict this process (and children started later) to its lowest allowed core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Samples the kernel's duration on a daemon thread until ``stop``."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._factors: list[float] = []
        self._sample()  # so that every later interval has a sample to fall back on
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self._factors.append(K_REF_S / (t1 - t0))  # before _times: readers index by _times
        self._times.append(t1)

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples in [start, end] (``time.monotonic`` times).

        With no sample inside the interval, the last sample before it (or
        the first one taken) stands in.
        """
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        if hi > lo:
            window = self._factors[lo:hi]
            return sum(window) / len(window)
        return self._factors[max(hi - 1, 0)]
