"""Machine-speed probe that rescales wall times to a fixed reference speed.

On a shared machine the same solve can run 25-50% slower for seconds to
minutes at a time because neighbours load the CPU and its caches: on the
2-vCPU machine this benchmark was written on, 5-second medians of one n=400
narrow solve ranged from 127 to 199 ms.  The probe is a fixed stdlib kernel
of the same kind of work as the solvers (float tests, set and tuple churn
over a few hundred points) that knows nothing of stripcast.  It runs right
before and right after each timed call, and the call's wall time is scaled
by REF_S over the mean of those two probe times.  Over 100 s on that
machine, the quartile spread of 10-solve medians fell from 22% to 5% for a
wide-window solve and from 30% to 8% for a narrow one.  A faster program
still reads faster: only the machine's speed cancels.
"""

from __future__ import annotations

import gc
import random
import time

# Median probe time on the machine the benchmark was written on; it only
# fixes the scale, so reported times read close to that machine's wall times.
REF_S = 0.0115

_rng = random.Random(20170504)
_POINTS = [(_rng.uniform(0.0, 30.0), _rng.uniform(0.0, 0.8)) for _ in range(300)]


def _kernel() -> int:
    adj = []
    for x, y in _POINTS:
        near = set()
        for j, (u, v) in enumerate(_POINTS):
            dx = x - u
            dy = y - v
            if dx * dx + dy * dy <= 1.0:
                near.add(j)
        adj.append(frozenset(near))
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [j for i in frontier for j in adj[i] if j not in seen and not seen.add(j)]
    return len(seen)


def probe() -> float:
    """Wall seconds of one kernel run.

    The collector is off meanwhile, so the size of the caller's heap cannot
    enter the scale.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def rescale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two probes, expressed at the reference speed."""
    return seconds * REF_S * 2.0 / (before + after)


class Stopwatch:
    """Rescaled wall time of a long interval, probing at least every LAP_S.

    `lap` closes a segment once it has run LAP_S seconds; each segment is
    rescaled by the probes at its two ends, so a long set-up samples the
    machine's speed more often than twice.  Probe time is not counted.
    """

    LAP_S = 0.25

    def __init__(self):
        self.scaled = 0.0
        self.raw = 0.0
        self._segment = 0.0
        self._probe = probe()
        self._t0 = time.perf_counter()

    def lap(self, final: bool = False) -> None:
        self._segment += time.perf_counter() - self._t0
        if final or self._segment >= self.LAP_S:
            after = probe()
            self.scaled += rescale(self._segment, self._probe, after)
            self.raw += self._segment
            self._segment = 0.0
            self._probe = after
        self._t0 = time.perf_counter()

