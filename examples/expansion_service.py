#!/usr/bin/env python
"""Serving tour: the repro.serve expansion service end to end.

Starts an in-process :class:`~repro.serve.ExpansionServer` (stdlib HTTP,
ephemeral port) with two named configurations, then walks the serving
story over real HTTP requests:

1. ``/healthz`` and ``/configs`` — liveness and discovery;
2. ``/expand`` twice — cold miss, then a warm cache hit;
3. ``/batch`` — repeated queries inside a batch hit the same cache;
4. ingestion into a ``backend=sqlite`` configuration (no ``store=``
   path, so a throwaway store) — the index generation in every cache
   key moves, so the next ``/expand`` is a *miss* with fresh (changed)
   content, never a stale answer, and that request frees the dead
   cached responses;
5. ``/metrics`` — request counters, all three cache tiers, and the
   per-stage latency histograms the pipeline records as it runs.

Run:  PYTHONPATH=src python examples/expansion_service.py
Shell equivalent: ``repro serve --configs wiki:dataset=wikipedia`` + curl.
"""

import json
import urllib.parse
import urllib.request

from repro.data.documents import make_text_document
from repro.serve import ServeConfig, create_server
from repro.text.analyzer import Analyzer


def get(base: str, path: str, **params) -> dict:
    url = base + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


def post(base: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    server = create_server(
        [
            ServeConfig(name="wiki", dataset="wikipedia", algorithm="iskr"),
            ServeConfig(name="live", dataset="wikipedia", backend="sqlite"),
        ],
        port=0,                # ephemeral: perfect for embedding
        cache_size=256,
        cache_ttl=300.0,
        workers=4,
    ).start()
    base = server.url
    print(f"serving on {base}\n")

    # 1. liveness + discovery
    health = get(base, "/healthz")
    print(f"healthz: {health['status']}, configs {health['configs']}")

    # 2. cold miss, then warm hit
    first = get(base, "/expand", config="wiki", query="java")
    second = get(base, "/expand", config="wiki", query="java")
    print(
        f"expand 'java': {first['cache']} in {first['seconds'] * 1e3:.1f} ms, "
        f"then {second['cache']} in {second['seconds'] * 1e3:.1f} ms"
    )
    for eq in second["report"]["expanded"]:
        print(f"  cluster {eq['cluster_id']}: {' '.join(eq['terms'])}")

    # 3. batches reuse the same per-query cache
    batch = post(
        base, "/batch",
        {"config": "wiki", "queries": ["java", "rockets", "java"], "workers": 2},
    )
    print(
        f"batch: {batch['n_ok']} ok, {batch['cache_hits']} served from cache"
    )

    # 4. ingestion invalidates — no stale cached expansions
    before = get(base, "/expand", config="live", query="java")
    get(base, "/expand", config="live", query="java")  # now cached
    analyzer = Analyzer(use_stemming=False)
    fresh = [
        make_text_document(
            doc_id=f"live-{i}",
            text="java coffee island brew java island arabica roast",
            analyzer=analyzer,
            title=f"live doc {i}",
        )
        for i in range(5)
    ]
    server.service.pool.ingest("live", fresh)
    after = get(base, "/expand", config="live", query="java")
    # Compare content, not wall clock: timing fields differ on every
    # recompute, so strip them before asking "did the answer change?".
    from repro.api.schema import report_content

    changed = report_content(after["report"]) != report_content(before["report"])
    print(
        f"after ingesting {len(fresh)} docs: cache={after['cache']} "
        f"(invalidated), content changed={changed}"
    )

    # 5. observability
    metrics = get(base, "/metrics")
    expand_stats = metrics["requests"]["expand"]
    cache_stats = metrics["cache"]["responses"]
    print(
        f"\nmetrics: {expand_stats['count']} /expand requests, "
        f"{expand_stats['cache_hits']} hits / "
        f"{expand_stats['cache_misses']} misses; response cache "
        f"{cache_stats['entries']}/{cache_stats['capacity']} entries, "
        f"{cache_stats['invalidations']} invalidations"
    )
    print("per-stage p50 latency (config 'wiki'):")
    for stage, hist in metrics["stages"]["wiki"].items():
        print(f"  {stage:12s} {hist['p50_seconds'] * 1e3:8.3f} ms "
              f"(n={hist['count']})")

    server.stop()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
