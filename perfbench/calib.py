"""A speedometer: how fast the machine runs while the program is measured.

On a shared machine the same code runs at speeds up to 1.6x apart, in swings
that last from a fraction of a second to tens of seconds, as other tenants
come and go. A fixed reference kernel, doing the same kinds of work as
obstaclesim's hot loops (interpreted Python, numpy calls on arrays of ~100
elements, a binary heap), takes longer by the same factor; it never
changes, so its time tracks the machine and not the program.

``Speedometer`` runs a ~1 ms slice of the kernel from a ``SIGALRM`` handler
every 50 ms of wall time, so it samples the machine's speed *during* each
replication, and it keeps the time spent in the handler so that callers can
take it out of their latencies. ``speed`` turns kernel times into a slowdown
factor: 1.0 when the kernel runs at ``REFERENCE_US`` per iteration, 1.5 when
the machine runs 1.5x slower. Dividing a measured time by it gives the time
the program would have taken at the reference speed. ``REFERENCE_US`` is
roughly the kernel's time per iteration on a quiet 2-vCPU KVM guest with
Python 3.11 and numpy 2.4; it is a fixed unit, not re-measured.
"""
from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

REFERENCE_US = 8.0
TICK_S = 0.05
TICK_ITERATIONS = 120
#: fewest kernel samples one speed estimate rests on
MIN_SAMPLES = 3

_rng = np.random.default_rng(12345)
_XS = _rng.uniform(0.0, 100.0, 96)
_YS = _rng.uniform(0.0, 100.0, 96)


def kernel_s() -> float:
    """Wall time of one ~1 ms slice of the reference kernel."""
    t0 = time.perf_counter()
    heap: List[tuple] = []
    acc = 0.0
    n = len(_XS)
    for i in range(TICK_ITERATIONS):
        x, y = _XS[i % n], _YS[(i * 7) % n]
        d2 = (_XS - x) ** 2 + (_YS - y) ** 2
        acc += float(d2.min()) + (i % 13) * 0.5
        heapq.heappush(heap, (acc % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def speed(samples_s: Sequence[float]) -> float:
    """Slowdown against the reference, from ``kernel_s`` times."""
    return statistics.median(samples_s) * 1e6 / (TICK_ITERATIONS * REFERENCE_US)


class Speedometer:
    """Samples the reference kernel every ``TICK_S`` seconds while running.

    ``mark()`` returns (sample count, seconds spent sampling) so far; two
    marks bracket a measurement, ``speed_between`` gives its slowdown and
    the difference of the second fields is the time to subtract from it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.paused_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.paused_s

    def speed_between(self, first: int, last: int) -> float:
        """Slowdown over samples [first, last), widened evenly on both sides
        to ``MIN_SAMPLES`` when the measurement was shorter than that."""
        n = len(self.samples)
        while last - first < min(MIN_SAMPLES, n):
            first, last = max(0, first - 1), min(n, last + 1)
        return speed(self.samples[first:last])
