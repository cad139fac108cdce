"""A fixed loop of the benchmark's own, to rescale host time to a fixed host speed.

The shared host's speed changes by tens of percent within seconds and
across minutes, and process time changes with it, so raw host time of
unchanged code does not repeat.  Every timed round runs right after this
loop, and its time is rescaled to a host that runs the loop in
REF_NOMINAL_S.  The loop does not touch cstatesim, so no change to the
program can move it.
"""

import heapq
import random
import time

REF_EVENTS = 40_000
REF_NOMINAL_S = 0.05


def reference_s() -> float:
    """Host time of the loop: heap events, random draws, dict updates."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    heap = []
    counts = {0: 0, 1: 0, 2: 0}
    for i in range(64):
        heapq.heappush(heap, (rng.expovariate(1.0), i % 3, i))
    for _ in range(REF_EVENTS):
        t, kind, i = heapq.heappop(heap)
        counts[kind] += 1
        heapq.heappush(heap, (t + rng.expovariate(1.0), (kind + 1) % 3, i))
    return time.perf_counter() - t0


def at_reference_speed(host_s: float, ref_s: float) -> float:
    """host_s as it would read on a host that runs the loop in REF_NOMINAL_S."""
    return host_s * REF_NOMINAL_S / ref_s
