"""Changefeed replication benchmark: staleness, query impact, gap drill.

Exercises :mod:`repro.feed` the way the cluster runs it, in two phases:

* **live replication** — a real 2-replica :mod:`repro.serve.cluster`
  in follow mode (each replica tails the coordinator's source store).
  A writer thread streams ``POST /ingest`` batches while a reader
  thread hammers ``GET /search``; ``GET /healthz`` is sampled
  throughout to track per-replica staleness (``feed_lag``, in
  generations). After the writer stops, the fleet must converge to the
  source generation.
* **gap drill** — in-process: a tailer is deliberately starved while
  the source's changelog prefix is truncated past its cursor, forcing
  the gap → snapshot-fallback → resume path exactly once; the replica
  must still converge.

Asserted gates (the PR's acceptance criteria):

* max observed replica lag during sustained ingest ``<=`` a fixed
  window (staleness is bounded, not best-effort);
* both replicas reach the source generation after ingest stops;
* **zero** snapshot re-hydrations and zero replica restarts in the
  steady state — convergence came from deltas, not re-snapshotting;
* search p99 while ingesting stays within a small multiple of the
  pre-ingest baseline (replication does not stall the read path);
* the gap drill performs exactly one snapshot fallback and converges.

Results land in ``results/feed_bench.json`` and the PR-8 entry of
``BENCH_trajectory.json`` (via :mod:`trajectory`).

Run: ``PYTHONPATH=src python benchmarks/bench_feed.py [--smoke]``
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request
from pathlib import Path

import numpy as np

from repro.data.documents import make_text_document
from repro.eval.reporting import format_table
from repro.feed import Changefeed, FeedTailer
from repro.store import DocumentStore, SQLiteIndexBackend

RESULTS_DIR = Path(__file__).parent / "results"

#: Staleness ceiling, in generations, while the writer is streaming.
#: The tailer polls every 50 ms and applies up to 256 records per poll,
#: so honest lag is "whatever committed inside one poll window"; this
#: bound allows heavy scheduler jitter on a loaded CI box and still
#: catches a broken tailer (which drifts by the full ingest count).
MAX_LAG_WINDOW = 24
#: Search p99 during ingest may not exceed this multiple of the
#: pre-ingest baseline (with an absolute floor so a sub-millisecond
#: baseline doesn't turn scheduler noise into a failure).
P99_MULTIPLE = 3.0
P99_FLOOR_S = 0.050
CONVERGE_DEADLINE_S = 30.0


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


class _Http:
    """Tiny urllib front for the cluster's endpoints."""

    def __init__(self, base_url: str) -> None:
        self._base = base_url

    def __call__(self, method: str, path: str, body=None, **params):
        url = self._base + path
        if params:
            url += "?" + urllib.parse.urlencode(params)
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())


def run_replication(smoke: bool) -> dict:
    """Phase A: live 2-replica follow-mode cluster under ingest load."""
    from repro.serve.cluster import create_cluster

    batches = 15 if smoke else 60
    docs_per_batch = 2 if smoke else 3
    baseline_searches = 40 if smoke else 120

    tmp = Path(tempfile.mkdtemp(prefix="bench-feed-"))
    store_path = tmp / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(
            [
                make_text_document(f"seed-{i}", f"alpha beta corpus word{i}")
                for i in range(40)
            ]
        )

    server = create_cluster(
        [f"db:dataset=wikipedia,backend=sqlite,store={store_path}"],
        replicas=2,
        port=0,
        workers=4,
        queue_depth=32,
        follow=True,
        feed_poll_interval=0.05,
        compaction_interval=0.5,
        changelog_keep=16,
    )
    server.start()
    http = _Http(server.url)
    try:
        # Pre-ingest search baseline (replicas are idle-tailing).
        baseline: list[float] = []
        for _ in range(baseline_searches):
            t0 = time.perf_counter()
            status, _ = http("GET", "/search", config="db", query="alpha")
            assert status == 200
            baseline.append(time.perf_counter() - t0)
        baseline_p99 = _percentile(baseline, 99)

        # Writer streams ingest batches; reader keeps searching; a
        # sampler tracks per-replica staleness from /healthz.
        stop = threading.Event()
        state: dict = {"max_lag": 0, "lags": [], "during": [], "source_gen": 0}
        lock = threading.Lock()

        def writer() -> None:
            for batch in range(batches):
                docs = [
                    {
                        "doc_id": f"live-{batch}-{i}",
                        "text": f"gamma delta stream{batch} item{i}",
                    }
                    for i in range(docs_per_batch)
                ]
                status, payload = http(
                    "POST", "/ingest", body={"documents": docs}
                )
                assert status == 202, payload
                with lock:
                    state["source_gen"] = payload["generation"]
                time.sleep(0.02)
            stop.set()

        def reader() -> None:
            while not stop.is_set():
                t0 = time.perf_counter()
                status, _ = http("GET", "/search", config="db", query="alpha")
                lap = time.perf_counter() - t0
                assert status == 200
                with lock:
                    state["during"].append(lap)

        def sampler() -> None:
            while not stop.is_set():
                _, health = http("GET", "/healthz")
                for info in health["replicas"].values():
                    lag = (info.get("feed_lag") or {}).get("db")
                    if lag is not None:
                        with lock:
                            state["lags"].append(lag)
                            state["max_lag"] = max(state["max_lag"], lag)
                time.sleep(0.05)

        threads = [
            threading.Thread(target=fn, name=f"bench-feed-{fn.__name__}")
            for fn in (writer, reader, sampler)
        ]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ingest_wall_s = time.perf_counter() - t0

        # Convergence: every replica reaches the source generation.
        source_gen = state["source_gen"]
        deadline = time.monotonic() + CONVERGE_DEADLINE_S
        converged = False
        generations: dict = {}
        while time.monotonic() < deadline:
            _, health = http("GET", "/healthz")
            generations = {
                name: (info.get("generations") or {}).get("db")
                for name, info in health["replicas"].items()
            }
            if all(gen == source_gen for gen in generations.values()):
                converged = True
                break
            time.sleep(0.1)
        converge_s = CONVERGE_DEADLINE_S - max(0.0, deadline - time.monotonic())

        # Steady-state accounting straight from the replicas' tailers.
        _, health = http("GET", "/healthz")
        fallbacks = 0
        entries_applied = 0
        for info in health["replicas"].values():
            feed = (info.get("feed") or {}).get("db") or {}
            fallbacks += feed.get("snapshot_fallbacks", 0)
            entries_applied += feed.get("entries_applied", 0)
        restarts = sum(
            info.get("restarts", 0) for info in health["replicas"].values()
        )
        _, metrics = http("GET", "/metrics")
        compaction = metrics["cluster"]["feed"]["compaction"]
    finally:
        server.stop()

    return {
        "batches": batches,
        "source_generation": source_gen,
        "ingest_wall_seconds": ingest_wall_s,
        "baseline_p99_s": baseline_p99,
        "during_p99_s": _percentile(state["during"], 99),
        "during_searches": len(state["during"]),
        "lag_samples": len(state["lags"]),
        "max_lag": state["max_lag"],
        "mean_lag": float(np.mean(state["lags"])) if state["lags"] else 0.0,
        "converged": converged,
        "converge_seconds": converge_s,
        "replica_generations": generations,
        "snapshot_fallbacks": fallbacks,
        "entries_applied": entries_applied,
        "restarts": restarts,
        "compaction": compaction,
    }


def run_gap_drill(smoke: bool) -> dict:
    """Phase B: truncate past a live cursor; prove fallback-and-resume."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-feed-gap-"))
    source = DocumentStore(tmp / "source.sqlite")
    source.upsert_all(
        [make_text_document(f"d{i}", f"alpha word{i}") for i in range(20)]
    )

    state = {"backend": SQLiteIndexBackend(tmp / "replica.sqlite")}

    def on_gap(tailer: FeedTailer, batch) -> int:
        # The production recovery path in miniature: throw the stale
        # replica away, hydrate from a fresh snapshot, resume from the
        # snapshot's generation.
        state["backend"].close()
        fresh = tmp / f"rehydrated-{batch.floor}.sqlite"
        source.snapshot(fresh)
        state["backend"] = SQLiteIndexBackend(fresh)
        tailer._backend = state["backend"]
        return source.generation

    feed = Changefeed(source.path)
    tailer = FeedTailer(
        feed, state["backend"], start_after=0, consumer="drill", on_gap=on_gap
    )
    t0 = time.perf_counter()
    tailer.catch_up()
    assert tailer.applied == source.generation
    # Write past the tailer, then truncate its resume range away —
    # exactly what an aggressive compaction does to a slow consumer.
    for i in range(8 if smoke else 24):
        source.upsert_all([make_text_document(f"late-{i}", f"beta late{i}")])
    source.truncate_changelog(source.generation)
    source.upsert_all([make_text_document("after-gap", "gamma resumed")])
    tailer.catch_up()
    drill_s = time.perf_counter() - t0

    stats = tailer.stats()
    live_match = state["backend"].store.num_live == source.num_live
    converged = tailer.applied == source.generation
    feed.close()
    state["backend"].close()
    source.close()
    return {
        "snapshot_fallbacks": stats["snapshot_fallbacks"],
        "converged": converged,
        "live_docs_match": live_match,
        "drill_seconds": drill_s,
    }


def run(smoke: bool) -> int:
    replication = run_replication(smoke)
    gap = run_gap_drill(smoke)

    p99_ceiling = max(replication["baseline_p99_s"] * P99_MULTIPLE, P99_FLOOR_S)
    rows = [
        ["ingest batches -> source generation",
         str(replication["source_generation"]),
         f"{replication['ingest_wall_seconds']:.2f} s wall"],
        ["max replica lag (generations)", str(replication["max_lag"]),
         f"mean {replication['mean_lag']:.2f} over "
         f"{replication['lag_samples']} samples (gate <= {MAX_LAG_WINDOW})"],
        ["converged after ingest stopped",
         str(replication["converged"]),
         f"{replication['converge_seconds']:.2f} s, "
         f"gens {replication['replica_generations']}"],
        ["snapshot fallbacks / restarts (steady state)",
         f"{replication['snapshot_fallbacks']} / {replication['restarts']}",
         "gate: 0 / 0"],
        ["search p99 during ingest",
         f"{replication['during_p99_s'] * 1e3:.2f} ms",
         f"baseline {replication['baseline_p99_s'] * 1e3:.2f} ms "
         f"(gate <= {p99_ceiling * 1e3:.0f} ms)"],
        ["gap drill fallbacks", str(gap["snapshot_fallbacks"]),
         f"converged={gap['converged']} in {gap['drill_seconds']:.2f} s"],
    ]
    table = format_table(
        ["measure", "value", "notes"],
        rows,
        title=f"repro.feed replication ({'smoke' if smoke else 'full'})",
    )
    print(table)

    results = {"smoke": smoke, "replication": replication, "gap_drill": gap}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "feed_bench.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    failures = []
    if replication["max_lag"] > MAX_LAG_WINDOW:
        failures.append(
            f"replica lag hit {replication['max_lag']} generations "
            f"(window {MAX_LAG_WINDOW})"
        )
    if not replication["converged"]:
        failures.append(
            f"replicas never reached source generation "
            f"{replication['source_generation']}: "
            f"{replication['replica_generations']}"
        )
    if replication["snapshot_fallbacks"] != 0:
        failures.append(
            f"{replication['snapshot_fallbacks']} snapshot fallback(s) in "
            "steady state (expected 0 — deltas only)"
        )
    if replication["restarts"] != 0:
        failures.append(f"{replication['restarts']} replica restart(s)")
    if replication["entries_applied"] == 0:
        failures.append("replicas applied no feed entries at all")
    if replication["during_p99_s"] > p99_ceiling:
        failures.append(
            f"search p99 under ingest {replication['during_p99_s'] * 1e3:.1f} ms "
            f"exceeds ceiling {p99_ceiling * 1e3:.1f} ms"
        )
    if gap["snapshot_fallbacks"] != 1:
        failures.append(
            f"gap drill made {gap['snapshot_fallbacks']} fallbacks (expected 1)"
        )
    if not (gap["converged"] and gap["live_docs_match"]):
        failures.append("gap drill did not converge to the source state")

    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1

    # Smoke runs check the gates only: the trajectory keeps full runs,
    # so a smoke run leaves BENCH_trajectory.json as it is.
    if not smoke:
        import trajectory

        trajectory.record(
            pr=8,
            title="repro.feed — changefeed + incremental replicas + compaction",
            headline=(
                f"2 tailing replicas stayed within {replication['max_lag']} "
                f"generation(s) of the source through {replication['source_generation']} "
                f"live ingest generations and converged in "
                f"{replication['converge_seconds']:.1f} s with 0 snapshot "
                f"re-hydrations (gates: lag <= {MAX_LAG_WINDOW}, 0 fallbacks, "
                f"gap drill = exactly 1 fallback then resume)"
            ),
            metrics={
                "max_lag_generations": replication["max_lag"],
                "lag_window_gate": MAX_LAG_WINDOW,
                "source_generation": replication["source_generation"],
                "converge_seconds": round(replication["converge_seconds"], 3),
                "snapshot_fallbacks_steady_state": replication["snapshot_fallbacks"],
                "baseline_p99_ms": round(replication["baseline_p99_s"] * 1e3, 3),
                "during_ingest_p99_ms": round(replication["during_p99_s"] * 1e3, 3),
                "gap_drill_fallbacks": gap["snapshot_fallbacks"],
            },
            source="benchmarks/bench_feed.py",
        )
    print(
        f"\nall feed gates passed: lag <= {MAX_LAG_WINDOW}, converged, "
        "0 steady-state fallbacks/restarts, p99 bounded, gap drill 1 fallback"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload for CI (quick, same gates)",
    )
    args = parser.parse_args(argv)
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
