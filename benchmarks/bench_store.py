"""Durable-store benchmark: ingest, cold-open, query, compact, snapshot.

Measures the persistence subsystem (:mod:`repro.store`) on a
paper-scale synthetic corpus:

* **ingest** — bulk upsert throughput into a fresh store (one
  transaction, documents/second);
* **rebuild** — the no-store baseline: regenerate the corpus from raw
  documents and build the in-memory :class:`InvertedIndex`, i.e. what a
  restart costs *without* persistence;
* **cold open** — open the persisted store file, load its corpus, and
  stand up the :class:`SQLiteIndexBackend` — what a restart costs
  *with* persistence;
* **query** — best-of-N AND/OR latency on high-df terms, sqlite vs
  memory (results must be identical);
* **delete + compact** and **snapshot** wall clock.

Asserted gates (the PR's acceptance criteria):

* cold-opening the persisted store is **>= 5x faster** than rebuilding
  the index from the raw documents, median of 5 against median of 5,
  so one load spike on a shared host cannot decide the gate;
* sqlite boolean queries return byte-identical ids to the memory
  backend, before and after delete/compact.

Run: ``PYTHONPATH=src python benchmarks/bench_store.py [--smoke]``
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.datasets.vocab import WIKIPEDIA_SENSES
from repro.datasets.wikipedia import build_wikipedia_corpus
from repro.eval.reporting import format_table
from repro.index.inverted_index import InvertedIndex
from repro.store import DocumentStore, SQLiteIndexBackend
from repro.text.analyzer import Analyzer

RESULTS_DIR = Path(__file__).parent / "results"

#: Required cold-open advantage over a from-scratch rebuild.
MIN_COLD_OPEN_SPEEDUP = 5.0
QUERY_REPS = 20
#: Rebuilds and cold opens timed for the gate; it compares their medians.
OPEN_REPS = 5


def _best_of(fn, reps: int = QUERY_REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _median_of(fn, reps: int = OPEN_REPS):
    """Median wall clock of ``reps`` calls of ``fn``, and every result.

    The results are kept until all calls are timed, so no call's clock
    includes freeing an earlier result.
    """
    times, results = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return statistics.median(times), results


def _build_corpus(docs_per_sense: int):
    return build_wikipedia_corpus(
        seed=0,
        docs_per_sense=docs_per_sense,
        terms=list(WIKIPEDIA_SENSES),
        analyzer=Analyzer(use_stemming=False),
    )


def run(smoke: bool) -> int:
    docs_per_sense = 40 if smoke else 80
    corpus = _build_corpus(docs_per_sense)
    tmp = Path(tempfile.mkdtemp(prefix="bench-store-"))
    store_path = tmp / "corpus.sqlite"

    # -- ingest ------------------------------------------------------------
    store = DocumentStore(store_path)
    t0 = time.perf_counter()
    store.upsert_all(list(corpus))
    ingest_s = time.perf_counter() - t0
    store.close()

    # -- rebuild baseline vs cold open ------------------------------------
    rebuild_s, rebuilds = _median_of(
        lambda: InvertedIndex(_build_corpus(docs_per_sense))
    )
    rebuilt = rebuilds[-1]
    cold_open_s, opened = _median_of(
        lambda: SQLiteIndexBackend(DocumentStore(store_path))
    )
    *extra, backend = opened
    for handle in extra:
        handle.close()
    reopened = backend.store
    assert backend.num_documents == rebuilt.num_documents
    speedup = rebuild_s / cold_open_s

    # -- query latency, sqlite vs memory ----------------------------------
    memory = InvertedIndex(backend.corpus)
    by_df = sorted(
        memory.vocabulary(), key=memory.document_frequency, reverse=True
    )
    and_terms, or_terms = by_df[:3], by_df[:8]
    assert backend.and_query(and_terms) == memory.and_query(and_terms)
    assert backend.or_query(or_terms) == memory.or_query(or_terms)
    sqlite_and_s = _best_of(lambda: backend.and_query(and_terms))
    sqlite_or_s = _best_of(lambda: backend.or_query(or_terms))
    memory_and_s = _best_of(lambda: memory.and_query(and_terms))
    memory_or_s = _best_of(lambda: memory.or_query(or_terms))

    # -- delete + compact + snapshot --------------------------------------
    doomed = [d.doc_id for i, d in enumerate(backend.corpus) if i % 10 == 0]
    t0 = time.perf_counter()
    reopened.delete_all(doomed)
    delete_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    dropped = reopened.compact()
    compact_s = time.perf_counter() - t0
    live = [d for i, d in enumerate(backend.corpus) if i % 10 != 0]
    from repro.data.corpus import Corpus

    ref_after = InvertedIndex(Corpus(live))
    got = [
        reopened.document(p).doc_id for p in backend.or_query(or_terms)
    ]
    want = [
        ref_after.corpus[p].doc_id for p in ref_after.or_query(or_terms)
    ]
    assert got == want, "post-compact OR results diverged from the reference"
    t0 = time.perf_counter()
    reopened.snapshot(tmp / "snap.sqlite")
    snapshot_s = time.perf_counter() - t0

    rows = [
        ["ingest (bulk upsert)", f"{ingest_s:.3f}",
         f"{len(corpus) / ingest_s:.0f} docs/s"],
        ["rebuild from raw documents", f"{rebuild_s:.3f}", ""],
        ["cold open of persisted store", f"{cold_open_s:.3f}",
         f"{speedup:.1f}x faster than rebuild"],
        ["and_query sqlite", f"{sqlite_and_s * 1000:.3f} ms",
         f"memory: {memory_and_s * 1000:.3f} ms"],
        ["or_query sqlite", f"{sqlite_or_s * 1000:.3f} ms",
         f"memory: {memory_or_s * 1000:.3f} ms"],
        ["delete 10% (tombstones)", f"{delete_s:.3f}", f"{len(doomed)} docs"],
        ["compact + VACUUM", f"{compact_s:.3f}",
         f"{dropped['postings_dropped']} postings dropped"],
        ["snapshot (backup API)", f"{snapshot_s:.3f}", ""],
    ]
    table = format_table(
        ["operation", "seconds", "notes"],
        rows,
        title=(
            f"repro.store on {len(corpus)} documents "
            f"({'smoke' if smoke else 'full'})"
        ),
    )
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "store_bench.txt").write_text(table + "\n", encoding="utf-8")
    (RESULTS_DIR / "store_bench.json").write_text(
        json.dumps(
            {
                "documents": len(corpus),
                "smoke": smoke,
                "ingest_seconds": ingest_s,
                "rebuild_seconds": rebuild_s,
                "cold_open_seconds": cold_open_s,
                "cold_open_speedup": speedup,
                "sqlite_and_seconds": sqlite_and_s,
                "sqlite_or_seconds": sqlite_or_s,
                "memory_and_seconds": memory_and_s,
                "memory_or_seconds": memory_or_s,
                "delete_seconds": delete_s,
                "compact_seconds": compact_s,
                "snapshot_seconds": snapshot_s,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    # The gate: persistence must beat recomputation decisively, or the
    # subsystem is not paying for its complexity.
    assert speedup >= MIN_COLD_OPEN_SPEEDUP, (
        f"cold open is only {speedup:.1f}x faster than rebuilding "
        f"(need >= {MIN_COLD_OPEN_SPEEDUP}x)"
    )
    print(
        f"\ngates passed: cold open {speedup:.1f}x faster than rebuild "
        f"(>= {MIN_COLD_OPEN_SPEEDUP}x); sqlite == memory on AND/OR probes"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small corpus for CI (quick, same gates)",
    )
    args = parser.parse_args(argv)
    return run(smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
