"""The host's speed, measured with a fixed reference kernel.

The host's speed drifts by up to 2x within seconds, as other tenants load
the shared cores, and that drift would swamp any change to the program.  So
the benchmark reports times in reference seconds: a second on a host that
runs ``reference()`` in ``REFERENCE_S``.  A raw time ``t`` measured while the
kernel takes ``r`` reads ``t * REFERENCE_S / r``.

``Sampler`` times the kernel on a timer signal every ``EVERY_S`` while the
workload runs, so the speed is sampled inside long calls too.  A call's time
is its raw time less the sampler's own time in it, scaled by the median
kernel time over the call and ``NEAR_S`` on either side.  The speed changes
on a scale of seconds, so the samples near a short call still describe it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.0005  # nominal reference-kernel time
EVERY_S = 0.025
NEAR_S = 0.1  # samples this close to a call also count for it


def reference() -> int:
    """Fixed interpreter work close to softtopo's mix: integer bit
    operations, small tuples, dict updates, frozensets and calls."""
    def step(x: int, y: int) -> int:
        return (x | y) & ~(x & y)

    counts: dict[tuple[int, int], int] = {}
    members = frozenset(range(0, 64, 3))
    mask = 0
    for i in range(1250):
        mask = step(mask, i * 40503 & 0xFFFF)
        key = (i & 63, mask & 7)
        counts[key] = counts.get(key, 0) + 1
        if i & 15 == 0:
            members = members ^ frozenset((i & 63, (i >> 3) & 63))
    return len(counts) + len(members)


def probe() -> float:
    """Best of five kernel runs, in seconds."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.took: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.ends.append(end)
        self.took.append(end - t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """The call that ran from ``t0`` to ``t1``, in reference seconds."""
        inside = self.took[bisect.bisect_left(self.ends, t0):bisect.bisect_right(self.ends, t1)]
        near = self.took[bisect.bisect_left(self.ends, t0 - NEAR_S):
                         bisect.bisect_right(self.ends, t1 + NEAR_S)]
        if not near:  # no sample yet: the nearest one
            i = min(bisect.bisect_left(self.ends, t0), len(self.took) - 1)
            near = self.took[i:i + 1]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.median(near)

    def slowdown(self) -> float:
        return statistics.median(self.took) / REFERENCE_S
