"""Golden expansions: the paper's method pinned bit-for-bit across commits.

Every benchmark query of Table 1 (``repro.datasets.queries``) runs on its
dataset at seed 0 — wikipedia at 40 documents per sense, shopping at
scale 1 — under the paper's setup (per-query k; top-30 results on
wikipedia, all results on shopping), once with ISKR and once with PEBC.
For each run the file pins the candidate tuple, the cluster labels, each
expanded query's terms and F-measure, and the Eq. 1 score. Floats are
compared through ``repr``, so any last-bit drift fails.

A second file pins the same fields at the system benchmark's
``expand_cold`` scale: every ``WIKIPEDIA_SENSES`` term × {iskr, pebc}
over 400 documents per sense, top-100 results, k = 4, corpus seed 0.

Regenerate (only when an intended behaviour change moves the pins)::

    PYTHONPATH=src python -m tests.test_expansion_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import Session
from repro.datasets.queries import all_queries
from repro.datasets.vocab import WIKIPEDIA_SENSES

GOLDEN = Path(__file__).parent / "data" / "expansion_golden.json"
BENCH_GOLDEN = Path(__file__).parent / "data" / "expansion_golden_bench.json"
ALGORITHMS = ("iskr", "pebc")
BENCH_KEYS = [f"{term}/{alg}" for term in sorted(WIKIPEDIA_SENSES) for alg in ALGORITHMS]


def _sessions() -> dict[str, Session]:
    return {
        "wikipedia": (
            Session.builder().dataset("wikipedia", docs_per_sense=40).seed(0).build()
        ),
        "shopping": Session.builder().dataset("shopping").seed(0).build(),
    }


def _run(
    session: Session,
    text: str,
    n_clusters: int,
    top_k_results: int | None,
    alg: str,
) -> dict:
    view = session.with_config(
        n_clusters=n_clusters, top_k_results=top_k_results, cluster_seed=0
    )
    ctx = view.run_stages(text, algorithm=alg)
    return {
        "candidates": list(ctx.candidates),
        "labels": [int(lab) for lab in ctx.labels],
        "expanded": [
            {"terms": list(eq.terms), "fmeasure": repr(float(eq.fmeasure))}
            for eq in ctx.expanded
        ],
        "score": repr(float(ctx.score)),
    }


def compute_golden() -> dict[str, dict]:
    """``"<qid>/<algorithm>" -> pins`` for every benchmark query."""
    sessions = _sessions()
    out = {}
    for query in all_queries():
        for alg in ALGORITHMS:
            out[f"{query.qid}/{alg}"] = _run(
                sessions[query.dataset],
                query.text,
                query.n_clusters,
                30 if query.dataset == "wikipedia" else None,
                alg,
            )
    return out


def compute_bench_golden() -> dict[str, dict]:
    """``"<term>/<algorithm>" -> pins`` at the ``expand_cold`` scale."""
    session = (
        Session.builder().dataset("wikipedia", docs_per_sense=400).seed(0).build()
    )
    out = {}
    for key in BENCH_KEYS:
        term, alg = key.rsplit("/", 1)
        out[key] = _run(session, term, 4, 100, alg)
    return out


@pytest.fixture(scope="module")
def actual() -> dict[str, dict]:
    return compute_golden()


@pytest.fixture(scope="module")
def expected() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def bench_actual() -> dict[str, dict]:
    return compute_bench_golden()


@pytest.fixture(scope="module")
def bench_expected() -> dict[str, dict]:
    return json.loads(BENCH_GOLDEN.read_text())


def test_covers_every_benchmark_query(expected):
    keys = {f"{q.qid}/{alg}" for q in all_queries() for alg in ALGORITHMS}
    assert set(expected) == keys


@pytest.mark.parametrize(
    "key", [f"{q.qid}/{alg}" for q in all_queries() for alg in ALGORITHMS]
)
def test_expansion_matches_golden(key, actual, expected):
    assert actual[key] == expected[key]


def test_bench_covers_every_sense_term(bench_expected):
    assert set(bench_expected) == set(BENCH_KEYS)


@pytest.mark.parametrize("key", BENCH_KEYS)
def test_bench_expansion_matches_golden(key, bench_actual, bench_expected):
    assert bench_actual[key] == bench_expected[key]


def _write(path: Path, golden: dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
        for key in sorted(golden)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_expansion_golden --write")
    _write(GOLDEN, compute_golden())
    _write(BENCH_GOLDEN, compute_bench_golden())
