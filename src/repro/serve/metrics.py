"""Serving metrics: request counters and latencies, one row per endpoint.

Everything here is thread-safe (the HTTP server handles each connection
on its own thread) and snapshots to plain JSON types — ``/metrics`` is
just :meth:`ServerMetrics.snapshot` serialized. The per-stage
``"stages"`` partition comes from each pooled session's
:class:`~repro.pipeline.StageStats`, which ``Pipeline.run`` feeds.
"""

from __future__ import annotations

import time
from threading import Lock
from typing import Any

from repro.obs.histogram import LatencyHistogram


class ServerMetrics:
    """Request-level counters for the service: one row per endpoint."""

    def __init__(self, clock=time.time) -> None:
        self._clock = clock
        self._started = clock()
        self._lock = Lock()
        self._requests: dict[str, dict[str, Any]] = {}

    def _row(self, endpoint: str) -> dict[str, Any]:
        row = self._requests.get(endpoint)
        if row is None:
            row = self._requests[endpoint] = {
                "count": 0,
                "errors": 0,
                "cache_hits": 0,
                "cache_misses": 0,
                "latency": LatencyHistogram(),
            }
        return row

    def record(
        self,
        endpoint: str,
        seconds: float | None,
        error: bool = False,
        cache: str | None = None,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Count one request; ``seconds=None`` skips the latency histogram.

        Error paths pass ``None`` — recording a placeholder duration
        would drag the percentiles toward zero and make the latency
        metrics lie about the successful traffic they describe.
        ``cache`` counts a single lookup; the ``cache_hits``/
        ``cache_misses`` tallies serve composite requests (``/batch``)
        whose one request performs many lookups.
        """
        if cache == "hit":
            cache_hits += 1
        elif cache == "miss":
            cache_misses += 1
        with self._lock:
            row = self._row(endpoint)
            row["count"] += 1
            if error:
                row["errors"] += 1
            row["cache_hits"] += cache_hits
            row["cache_misses"] += cache_misses
        if seconds is not None:
            row["latency"].observe(seconds)

    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    def snapshot(self) -> dict[str, Any]:
        # Copy every scalar counter while still holding the lock. The
        # old code released it after grabbing the row dicts and read the
        # values afterwards, so a concurrent record() could yield a torn
        # row (count incremented, cache_hits not yet) — visible as
        # cache_hits + cache_misses briefly exceeding/trailing count.
        with self._lock:
            rows = {
                endpoint: (
                    row["count"],
                    row["errors"],
                    row["cache_hits"],
                    row["cache_misses"],
                    row["latency"],
                )
                for endpoint, row in self._requests.items()
            }
        return {
            "uptime_seconds": self.uptime_seconds(),
            "endpoints": {
                endpoint: {
                    "count": count,
                    "errors": errors,
                    "cache_hits": cache_hits,
                    "cache_misses": cache_misses,
                    "latency": latency.snapshot(),
                }
                for endpoint, (
                    count,
                    errors,
                    cache_hits,
                    cache_misses,
                    latency,
                ) in rows.items()
            },
        }
