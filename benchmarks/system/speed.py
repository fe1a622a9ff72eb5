"""How fast the host is running right now, from a fixed CPU probe.

The benchmark's reference machine is a shared 2-vCPU host whose speed
moves by tens of percent, for milliseconds or for minutes at a time (a
neighbour's load slows the vCPU itself: thread CPU time grows exactly
as much as wall time). A median within a run cannot remove a slowdown
that covers the whole run, so every timing is reported at *reference
speed*: wall time times ``REFERENCE_SECONDS / probe``, where the probe
is the fixed piece of work below, timed right before and after what it
scales. On a quiet host the factor is about 1.

The probe mixes interpreter-bound work (dict counting, a keyed sort)
with a small numpy product, like the measured code. It uses no
``repro`` code, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: Probe time on the reference machine (2-vCPU Xeon at 2.1 GHz, Python
#: 3.11, numpy 2.4) in a quiet stretch, between ops, when the benchmark
#: was defined. Fixed: it sets the unit every timing is reported in.
REFERENCE_SECONDS = 0.0004

_rng = random.Random(1)
_WORDS = [f"w{_rng.randrange(5000)}" for _ in range(600)]
_MATRIX = np.random.default_rng(1).random((100, 400))
_CENTROIDS = np.random.default_rng(2).random((400, 4))


def _work() -> int:
    counts: dict[str, int] = {}
    for word in _WORDS:
        counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    labels = 0
    for _ in range(2):
        labels += int((_MATRIX @ _CENTROIDS).argmax(axis=1).sum())
    return len(ranked) + labels


def probe() -> float:
    """Seconds the probe's fixed work takes now.

    The garbage collector is paused while it runs: a collection
    triggered by the measured program's allocations would otherwise
    land in the probe and read as a slow host.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale from wall seconds to reference seconds between two probes."""
    return REFERENCE_SECONDS / ((before + after) / 2)
