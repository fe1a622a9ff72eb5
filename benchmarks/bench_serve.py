"""Closed-loop load generator for the ``repro.serve`` expansion service.

Drives a real in-process :class:`~repro.serve.ExpansionServer` (stdlib
HTTP, ephemeral port) with a thread pool of closed-loop clients and
reports end-to-end latency percentiles plus cache behavior:

* **cold** — every distinct query once against an empty response cache
  (each request pays retrieval + clustering + expansion);
* **warm** — ``--threads`` concurrent clients each issuing
  ``--requests`` requests drawn from a Zipf-weighted mix of the same
  queries (the repeated-query regime a serving cache exists for);
* **ingest** — on a ``backend=sqlite`` configuration: expand, expand
  again (cache hit), ingest fresh documents, expand a third time — the
  third response must be a cache *miss* with *changed* content, proving
  the invalidation contract (no stale cached expansions).

Asserted gates (also the PR's acceptance criteria):

* warm-cache p50 ≤ cold-path p50 / 5;
* the post-ingestion response is a miss and differs from the
  pre-ingestion one.

``--cluster`` switches to the multi-replica mode: warm zipfian
throughput at 1, 2, and 4 replicas of :mod:`repro.serve.cluster` (same
workload, consistent-hash routing keeping per-replica caches warm), then
a past-saturation phase against a deliberately tiny queue depth proving
the admission-control contract — excess load is shed with *prompt* 429 +
``Retry-After`` responses, never an unbounded queue. The 4-vs-1 scaling
gate (>= 2.5x) is enforced only on machines with enough cores to make it
physically possible (>= 6); the measured numbers and the CPU count are
recorded either way, and the 429-promptness gate always applies.
Results land in ``results/bench_cluster.json`` and the PR-6 entry of
``BENCH_trajectory.json`` (via :mod:`trajectory`).

Run: ``PYTHONPATH=src python benchmarks/bench_serve.py [--smoke] [--cluster]``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import http.client
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np

from repro.api import schema
from repro.data.documents import make_text_document
from repro.datasets.vocab import WIKIPEDIA_SENSES
from repro.eval.reporting import format_table
from repro.serve import ServeConfig, create_server
from repro.text.analyzer import Analyzer

SPEEDUP_FLOOR = 5.0  # warm p50 must be at least this many times under cold

# Cluster gates: 4 replicas must deliver this multiple of 1-replica warm
# throughput — but only where the hardware can express it (a 1- or
# 2-core box cannot scale CPU-bound work 2.5x no matter how good the
# routing is). The shed gate has no such excuse and always applies.
SCALING_FLOOR = 2.5
SCALING_MIN_CPUS = 6
SHED_P95_CEILING_MS = 500.0  # a 429 must come back promptly, not queue

RESULTS_DIR = Path(__file__).parent / "results"


def _get(base: str, path: str, **params: str) -> dict:
    url = base + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


class _Client:
    """A keep-alive HTTP client (one persistent connection per thread)."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=60)

    def get(self, path: str, **params: str) -> dict:
        if params:
            path += "?" + urllib.parse.urlencode(params)
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return json.loads(response.read())

    def get_full(self, path: str, **params: str) -> tuple[int, str | None, dict]:
        """``(status, Retry-After header, payload)`` — for shed responses."""
        if params:
            path += "?" + urllib.parse.urlencode(params)
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        retry_after = response.getheader("Retry-After")
        return response.status, retry_after, json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def _zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


# Wall-clock fields differ on every recompute; the schema module owns
# the list, so the ingestion gate compares *content* (a recompute of
# unchanged data must NOT count as "changed").
_stable_content = schema.report_content


def run(smoke: bool) -> int:
    threads = 4 if smoke else 8
    requests_per_thread = 25 if smoke else 100
    queries = list(WIKIPEDIA_SENSES)  # the 10 ambiguous wikipedia terms

    # Serving-scale corpus: paper-scale wikipedia (40 docs/sense) with
    # expansion over the top 100 results, so the cold path does the real
    # retrieve -> cluster -> expand work a cache is meant to absorb.
    server = create_server(
        [
            _wiki_config(),
            ServeConfig(name="live", dataset="wikipedia", backend="sqlite"),
        ],
        port=0,
        cache_size=256,
        workers=threads,
    ).start()
    try:
        # Pay index + session construction up front so the cold phase
        # measures the request path, not one-time pool warmup.
        for name in ("wiki", "live"):
            server.service.pool.get(name)

        # The request mix: every ambiguous term x four expansion
        # algorithms (the default plus three overrides). results=none:
        # clients here want the expanded queries, not 100 full documents
        # per response (see API.md: Serving).
        combos = [
            (query, algorithm)
            for query in queries
            for algorithm in (None, "pebc", "fmeasure", "vsm")
        ]

        def request(conn: _Client, combo: tuple[str, str | None]) -> dict:
            query, algorithm = combo
            params = {"config": "wiki", "query": query, "results": "none"}
            if algorithm is not None:
                params["algorithm"] = algorithm
            return conn.get("/expand", **params)

        lock = threading.Lock()

        def run_phase(jobs_per_worker: list[list[tuple[str, str | None]]]):
            """Closed-loop clients, one keep-alive connection each."""
            laps: list[float] = []
            misses = 0

            def client(jobs: list[tuple[str, str | None]]) -> None:
                nonlocal misses
                conn = _Client(server.host, server.port)
                mine: list[float] = []
                missed = 0
                for combo in jobs:
                    t0 = time.perf_counter()
                    payload = request(conn, combo)
                    mine.append(time.perf_counter() - t0)
                    if payload["cache"] == "miss":
                        missed += 1
                conn.close()
                with lock:
                    laps.extend(mine)
                    misses += missed

            pool = [
                threading.Thread(target=client, args=(jobs,))
                for jobs in jobs_per_worker
                if jobs
            ]
            t0 = time.perf_counter()
            for worker in pool:
                worker.start()
            for worker in pool:
                worker.join()
            return laps, misses, time.perf_counter() - t0

        # -- cold: every distinct combo once, empty cache, same
        #    concurrency as the warm phase (so the two phases measure
        #    miss-vs-hit latency under identical load) -------------------
        cold, cold_misses, _ = run_phase(
            [combos[i::threads] for i in range(threads)]
        )
        assert cold_misses == len(combos), "cold phase must be all misses"

        # -- warm: closed-loop zipfian clients over the cached mix -----------
        weights = _zipf_weights(len(combos))
        jobs_per_worker = []
        for worker in range(threads):
            rng = np.random.default_rng(worker)
            jobs_per_worker.append(
                [
                    combos[int(rng.choice(len(combos), p=weights))]
                    for _ in range(requests_per_thread)
                ]
            )
        warm, warm_misses, warm_seconds = run_phase(jobs_per_worker)

        hit_rate = 1.0 - (warm_misses / len(warm)) if warm else 0.0
        metrics = _get(server.url, "/metrics")
        assert "retrieve" in metrics["stages"]["wiki"], "stage metrics missing"

        # -- ingest: the invalidation contract -------------------------------
        before = _get(server.url, "/expand", config="live", query="java")
        again = _get(server.url, "/expand", config="live", query="java")
        analyzer = Analyzer(use_stemming=False)
        fresh = [
            make_text_document(
                doc_id=f"bench-ingest-{i}",
                text="java coffee island brew java island arabica roast",
                analyzer=analyzer,
                title=f"bench ingest {i}",
            )
            for i in range(5)
        ]
        server.service.pool.ingest("live", fresh)
        after = _get(server.url, "/expand", config="live", query="java")

        # -- report -----------------------------------------------------------
        cold_p50 = _percentile(cold, 50)
        rows = [
            [
                "cold (distinct, empty cache)",
                len(cold),
                f"{cold_p50 * 1e3:.2f}",
                f"{_percentile(cold, 95) * 1e3:.2f}",
                f"{_percentile(cold, 99) * 1e3:.2f}",
                "—",
            ],
            [
                f"warm ({threads} threads, zipfian)",
                len(warm),
                f"{_percentile(warm, 50) * 1e3:.2f}",
                f"{_percentile(warm, 95) * 1e3:.2f}",
                f"{_percentile(warm, 99) * 1e3:.2f}",
                f"{hit_rate:.1%}",
            ],
        ]
        table = format_table(
            ["phase", "requests", "p50 (ms)", "p95 (ms)", "p99 (ms)", "hit rate"],
            rows,
            title=(
                f"repro.serve closed-loop load "
                f"({len(warm) / warm_seconds:.0f} req/s warm throughput)"
            ),
        )
        print(table)

        warm_p50 = _percentile(warm, 50)
        speedup = cold_p50 / warm_p50 if warm_p50 > 0 else float("inf")
        changed = _stable_content(after["report"]) != _stable_content(
            before["report"]
        )
        print(
            f"\nwarm p50 {warm_p50 * 1e3:.2f} ms vs cold p50 "
            f"{cold_p50 * 1e3:.2f} ms -> {speedup:.1f}x "
            f"(gate: >= {SPEEDUP_FLOOR:.0f}x)"
        )
        print(
            f"ingest invalidation: pre=({before['cache']}, {again['cache']}) "
            f"post={after['cache']} content changed={changed}"
        )

        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "bench_serve.json").write_text(
            json.dumps(
                {
                    "cold_p50_ms": cold_p50 * 1e3,
                    "warm_p50_ms": warm_p50 * 1e3,
                    "warm_p95_ms": _percentile(warm, 95) * 1e3,
                    "warm_p99_ms": _percentile(warm, 99) * 1e3,
                    "speedup": speedup,
                    "hit_rate": hit_rate,
                    "warm_rps": len(warm) / warm_seconds,
                    "ingest_changed": changed,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )

        failures = []
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"warm p50 only {speedup:.1f}x under cold "
                f"(need >= {SPEEDUP_FLOOR:.0f}x)"
            )
        if again["cache"] != "hit":
            failures.append("second identical /expand was not a cache hit")
        if after["cache"] != "miss":
            failures.append("post-ingestion /expand served a cached response")
        if not changed:
            failures.append("post-ingestion report identical to pre-ingestion")
        if failures:
            print("\nFAIL: " + "; ".join(failures))
            return 1
        print("\nall serve gates passed")
        return 0
    finally:
        server.stop()


def _wiki_config() -> ServeConfig:
    """The serving-scale configuration both modes benchmark."""
    return ServeConfig(
        name="wiki",
        dataset="wikipedia",
        algorithm="iskr",
        n_clusters=4,
        top_k_results=100,
        dataset_kwargs={"docs_per_sense": 40},
    )


def run_cluster(smoke: bool) -> int:
    from repro.serve.cluster import create_cluster

    threads = 4 if smoke else 8
    requests_per_thread = 25 if smoke else 100
    replica_counts = (1, 2, 4)
    queries = list(WIKIPEDIA_SENSES)
    combos = [
        (query, algorithm)
        for query in queries
        for algorithm in (None, "pebc", "fmeasure", "vsm")
    ]
    weights = _zipf_weights(len(combos))
    lock = threading.Lock()

    def warm_throughput(server) -> tuple[float, float]:
        """(requests/s, p50 seconds) for the zipfian closed loop."""
        # Fill phase: every combo once — each lands on (and warms) the
        # replica the hash ring routes it to.
        fill = _Client(server.host, server.port)
        for query, algorithm in combos:
            params = {"config": "wiki", "query": query, "results": "none"}
            if algorithm is not None:
                params["algorithm"] = algorithm
            fill.get("/expand", **params)
        fill.close()

        laps: list[float] = []

        def client(worker: int) -> None:
            rng = np.random.default_rng(worker)
            jobs = [
                combos[int(rng.choice(len(combos), p=weights))]
                for _ in range(requests_per_thread)
            ]
            conn = _Client(server.host, server.port)
            mine: list[float] = []
            for query, algorithm in jobs:
                params = {"config": "wiki", "query": query, "results": "none"}
                if algorithm is not None:
                    params["algorithm"] = algorithm
                t0 = time.perf_counter()
                status, _, _ = conn.get_full("/expand", **params)
                mine.append(time.perf_counter() - t0)
                assert status == 200, f"warm phase got {status}"
            conn.close()
            with lock:
                laps.extend(mine)

        pool = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(threads)
        ]
        t0 = time.perf_counter()
        for worker in pool:
            worker.start()
        for worker in pool:
            worker.join()
        seconds = time.perf_counter() - t0
        return len(laps) / seconds, _percentile(laps, 50)

    # -- throughput scaling at 1 / 2 / 4 replicas ----------------------------
    rps: dict[int, float] = {}
    p50: dict[int, float] = {}
    for replicas in replica_counts:
        print(f"hydrating {replicas} replica(s) ...", flush=True)
        with create_cluster(
            [_wiki_config()],
            replicas=replicas,
            port=0,
            workers=threads,
            queue_depth=max(64, 4 * threads),  # never shed in this phase
            cache_size=256,
        ) as server:
            rps[replicas], p50[replicas] = warm_throughput(server)
        print(
            f"  {replicas} replica(s): {rps[replicas]:.0f} req/s, "
            f"p50 {p50[replicas] * 1e3:.2f} ms",
            flush=True,
        )
    scaling = rps[4] / rps[1] if rps[1] > 0 else float("inf")

    # -- past saturation: a tiny queue bound must shed, promptly ------------
    # cache_size=1 makes nearly every request a real compute miss, so
    # in-flight work piles up against queue_depth=1 instantly.
    shed_laps: list[float] = []
    ok_count = 0
    shed_count = 0
    missing_retry_after = 0
    unexpected: list[int] = []
    saturation_clients = max(8, 2 * threads)
    saturation_requests = 10 if smoke else 25
    with create_cluster(
        [_wiki_config()],
        replicas=2,
        port=0,
        workers=2,
        queue_depth=1,
        cache_size=1,
        retry_after=1.0,
    ) as server:

        def hammer(worker: int) -> None:
            nonlocal ok_count, shed_count, missing_retry_after
            conn = _Client(server.host, server.port)
            for i in range(saturation_requests):
                query, algorithm = combos[(worker + i * 7) % len(combos)]
                params = {"config": "wiki", "query": query, "results": "none"}
                if algorithm is not None:
                    params["algorithm"] = algorithm
                t0 = time.perf_counter()
                status, retry_after, _ = conn.get_full("/expand", **params)
                lap = time.perf_counter() - t0
                with lock:
                    if status == 200:
                        ok_count += 1
                    elif status == 429:
                        shed_count += 1
                        shed_laps.append(lap)
                        if retry_after is None:
                            missing_retry_after += 1
                    else:
                        unexpected.append(status)
            conn.close()

        pool = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(saturation_clients)
        ]
        for worker in pool:
            worker.start()
        for worker in pool:
            worker.join()

    shed_p95_ms = _percentile(shed_laps, 95) * 1e3 if shed_laps else 0.0

    # -- report --------------------------------------------------------------
    cpu_count = os.cpu_count() or 1
    gate_scaling = cpu_count >= SCALING_MIN_CPUS
    rows = [
        [
            f"{replicas} replica(s)",
            f"{rps[replicas]:.0f}",
            f"{p50[replicas] * 1e3:.2f}",
            f"{rps[replicas] / rps[1]:.2f}x",
        ]
        for replicas in replica_counts
    ]
    print(
        format_table(
            ["fleet", "req/s", "p50 (ms)", "vs 1 replica"],
            rows,
            title=(
                f"repro.serve.cluster warm zipfian throughput "
                f"({threads} closed-loop clients, cpu_count={cpu_count})"
            ),
        )
    )
    total = ok_count + shed_count + len(unexpected)
    print(
        f"\nsaturation (queue_depth=1, cache_size=1, "
        f"{saturation_clients} clients): {ok_count} ok, {shed_count} shed "
        f"(429) of {total}; shed p95 {shed_p95_ms:.1f} ms"
    )
    print(
        f"4-replica scaling: {scaling:.2f}x vs 1 "
        f"(gate >= {SCALING_FLOOR}x "
        f"{'ENFORCED' if gate_scaling else f'recorded only: cpu_count={cpu_count} < {SCALING_MIN_CPUS}'})"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    results = {
        "cpu_count": cpu_count,
        "threads": threads,
        "throughput_rps": {str(r): rps[r] for r in replica_counts},
        "p50_ms": {str(r): p50[r] * 1e3 for r in replica_counts},
        "scaling_4_vs_1": scaling,
        "scaling_gate_enforced": gate_scaling,
        "saturation": {
            "clients": saturation_clients,
            "ok": ok_count,
            "shed": shed_count,
            "unexpected_statuses": unexpected,
            "shed_p95_ms": shed_p95_ms,
            "missing_retry_after": missing_retry_after,
        },
    }
    (RESULTS_DIR / "bench_cluster.json").write_text(
        json.dumps(results, indent=2) + "\n", encoding="utf-8"
    )

    # Smoke runs check the gates only: the trajectory keeps full runs,
    # so a smoke run leaves BENCH_trajectory.json as it is.
    if not smoke:
        import trajectory

        trajectory.record(
            pr=6,
            title="repro.serve.cluster — multi-process replicated serving",
            headline=(
                f"warm zipfian throughput {rps[1]:.0f}/{rps[2]:.0f}/{rps[4]:.0f} "
                f"req/s at 1/2/4 replicas ({scaling:.2f}x at 4, cpu_count={cpu_count}); "
                f"past saturation {shed_count}/{total} requests shed with 429 at "
                f"p95 {shed_p95_ms:.1f} ms (gate: prompt shed always; >= "
                f"{SCALING_FLOOR}x scaling on >= {SCALING_MIN_CPUS} cores)"
            ),
            metrics=results,
            source="benchmarks/bench_serve.py --cluster",
        )

    failures = []
    if gate_scaling and scaling < SCALING_FLOOR:
        failures.append(
            f"4-replica throughput only {scaling:.2f}x of 1-replica "
            f"(need >= {SCALING_FLOOR}x on {cpu_count} cores)"
        )
    if shed_count == 0:
        failures.append("saturation phase shed nothing (admission control inert)")
    if ok_count == 0:
        failures.append("saturation phase served nothing (cluster wedged)")
    if unexpected:
        failures.append(f"unexpected statuses past saturation: {sorted(set(unexpected))}")
    if shed_laps and shed_p95_ms > SHED_P95_CEILING_MS:
        failures.append(
            f"shed responses not prompt: p95 {shed_p95_ms:.1f} ms "
            f"(ceiling {SHED_P95_CEILING_MS:.0f} ms)"
        )
    if missing_retry_after:
        failures.append(
            f"{missing_retry_after} shed responses lacked Retry-After"
        )
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print("\nall cluster gates passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller load (CI): 4 threads x 25 requests",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="multi-replica mode: throughput scaling at 1/2/4 replicas "
             "plus past-saturation admission-control gates",
    )
    args = parser.parse_args(argv)
    if args.cluster:
        return run_cluster(smoke=args.smoke)
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
