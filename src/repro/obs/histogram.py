"""Latency histograms: fixed buckets plus a recent-sample reservoir.

Thread-safe and snapshotting to plain JSON types. The pipeline's
per-stage :class:`~repro.pipeline.StageStats` and the serve tiers'
request counters both keep their latencies in these.
"""

from __future__ import annotations

import math
from collections import deque
from threading import Lock
from typing import Any

#: Upper bounds (seconds) of the histogram buckets; the last is +inf.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Recent samples kept per histogram for percentile estimation.
RESERVOIR_SIZE = 2048


class LatencyHistogram:
    """Bucketed latencies + a bounded reservoir for p50/p95/p99.

    Buckets give the long-run shape (cheap, fixed memory); the reservoir
    of the most recent :data:`RESERVOIR_SIZE` samples gives accurate
    recent percentiles without storing the full history.
    """

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._bounds = tuple(sorted(buckets))
        self._counts = [0] * (len(self._bounds) + 1)  # +1 for +inf
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._recent: deque[float] = deque(maxlen=RESERVOIR_SIZE)
        self._lock = Lock()

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            index = len(self._bounds)
            for i, bound in enumerate(self._bounds):
                if seconds <= bound:
                    index = i
                    break
            self._counts[index] += 1
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            self._recent.append(seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict[str, Any]:
        """Counters, buckets, and percentile estimates as plain JSON types.

        The ``p50/p95/p99_seconds`` values are **estimated from the
        recent-sample reservoir** (the last :data:`RESERVOIR_SIZE`
        observations), *not* from the full bucket counts: once ``count``
        exceeds ``sample_count`` the percentiles describe recent traffic
        while ``buckets``/``count``/``total_seconds`` describe the whole
        serving lifetime. ``sample_count`` reports how many samples the
        percentiles were computed over so dashboards can tell the two
        populations apart.
        """
        with self._lock:
            if not self._count:
                return {"count": 0}
            counts = list(self._counts)
            count, total, peak = self._count, self._total, self._max
            ordered = sorted(self._recent)

        def pct(q: float) -> float:
            rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
            return ordered[rank]

        buckets = {f"le_{bound:g}": c for bound, c in zip(self._bounds, counts)}
        buckets["le_inf"] = counts[-1]
        return {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count,
            "max_seconds": peak,
            "p50_seconds": pct(0.50),
            "p95_seconds": pct(0.95),
            "p99_seconds": pct(0.99),
            "sample_count": len(ordered),
            "buckets": buckets,
        }
