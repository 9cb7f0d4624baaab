"""Host timings expressed at a fixed reference speed.

A shared host runs this benchmark at a speed that drifts by a factor of
about 1.6 within seconds and between minutes, as other tenants come and go,
so raw wall times of identical passes spread far more than any gain worth
measuring. The benchmark therefore times a fixed reference kernel before and
after every timed sample and scales the sample by the kernel's speed at that
moment. The kernel uses no fluttersim code, so a change to the program
moves only the sample, never the reference.

The kernel does the kind of work the simulator does (slotted objects pushed
through a heap, tuple-keyed dict counts, JSON lines), so contention slows
both by about the same factor.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import statistics
from time import perf_counter

# The unit of reference speed: the kernel's wall time on an uncontended core
# of the 2-core Xeon VM this benchmark was tuned on. A sample that took as
# long as the kernel next to it is REF_SECONDS at reference speed.
REF_SECONDS = 0.2
ROUNDS = 20_000


class _Event:
    __slots__ = ("at", "src", "dst", "kind", "body")

    def __init__(self, at, src, dst, kind, body):
        self.at = at
        self.src = src
        self.dst = dst
        self.kind = kind
        self.body = body


def kernel() -> int:
    """Fixed, deterministic pure-Python work; returns a checksum."""
    rng = random.Random(12345)
    names = [f"p{i:03d}" for i in range(20)]
    queue, log, seen = [], [], {}
    for i in range(ROUNDS):
        src = names[i % 20]
        for j in range(3):
            ev = _Event(i, src, names[rng.randrange(20)], j, (src, i, j))
            heapq.heappush(queue, (i + rng.randrange(10), 3 * i + j, ev))
        while queue and queue[0][0] <= i:
            ev = heapq.heappop(queue)[2]
            key = (ev.dst, ev.body)
            seen[key] = seen.get(key, 0) + 1
            log.append(ev)
    lines = sum(len(json.dumps({"t": e.at, "s": e.src, "d": e.dst, "k": e.kind})) for e in log[::4])
    return lines + len(seen)


CHECKSUM = 741518  # kernel()'s result; it does not depend on the host


def reference_s() -> float:
    """Wall time of one kernel call, with the previous garbage collected first."""
    gc.collect()
    t = perf_counter()
    if kernel() != CHECKSUM:
        raise RuntimeError("the reference kernel lost its determinism")
    return perf_counter() - t


def at_reference_speed(samples: list[float], refs: list[float]) -> list[float]:
    """Scale sample i by the mean of the kernel times just before and after it.

    `refs` holds one more time than `samples`: refs[i] was taken right
    before samples[i] and refs[i + 1] right after it.
    """
    if len(refs) != len(samples) + 1:
        raise ValueError("need one reference time before each sample and one after the last")
    return [s * REF_SECONDS / ((refs[i] + refs[i + 1]) / 2) for i, s in enumerate(samples)]


def host_speed(refs: list[float]) -> float:
    """Median host speed over a run, 1.0 being reference speed."""
    return REF_SECONDS / statistics.median(refs)
