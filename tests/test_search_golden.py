"""Golden rankings: ranked retrieval pinned bit-for-bit across commits.

At the system benchmark's scale (wikipedia, 400 documents per sense,
corpus seed 0, tf-idf) the file pins, on the ``memory`` and the
``sqlite`` backend:

* the 60 ``search_mix`` queries (30 OR, 30 AND) at top-10;
* every ``WIKIPEDIA_SENSES`` term as an AND query at top-100, the seed
  retrieval of the ``expand_cold`` workload's retrieve stage.

Each result is its corpus position and its score as ``float.hex``, so
a ranking that moves one document or one score bit fails. The query
texts live in the file, so the test needs nothing from the benchmark.

Regenerate (only when an intended behaviour change moves the pins)::

    PYTHONPATH=src:. python -m tests.test_search_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro import Session

GOLDEN = Path(__file__).parent / "data" / "search_golden.json"
BACKENDS = ("memory", "sqlite")
DOCS_PER_SENSE = 400


def _session(backend: str, tmp_dir: Path) -> Session:
    builder = (
        Session.builder().dataset("wikipedia", docs_per_sense=DOCS_PER_SENSE).seed(0)
    )
    if backend == "sqlite":
        builder = builder.backend("sqlite", path=tmp_dir / "golden.sqlite")
    return builder.build()


def _key(query: dict) -> str:
    return f"{query['semantics']}/{query['top_k']}/{query['text']}"


def benchmark_queries() -> list[dict]:
    """The pinned queries, taken from the system benchmark's workloads."""
    from benchmarks.system.workloads import AND_QUERIES, OR_QUERIES, TERMS

    queries = [{"text": q, "semantics": "or", "top_k": 10} for q in OR_QUERIES]
    queries += [{"text": q, "semantics": "and", "top_k": 10} for q in AND_QUERIES]
    queries += [{"text": t, "semantics": "and", "top_k": 100} for t in TERMS]
    return queries


def compute(queries: list[dict], backend: str, tmp_dir: Path) -> dict[str, list]:
    """``key -> [[position, score.hex()], ...]`` for every query."""
    session = _session(backend, tmp_dir)
    return {
        _key(q): [
            [r.position, float(r.score).hex()]
            for r in session.search(q["text"], top_k=q["top_k"], semantics=q["semantics"])
        ]
        for q in queries
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module", params=BACKENDS)
def actual(request, golden, tmp_path_factory) -> tuple[str, dict[str, list]]:
    backend = request.param
    tmp_dir = tmp_path_factory.mktemp(f"search-golden-{backend}")
    return backend, compute(golden["queries"], backend, tmp_dir)


def test_pins_the_benchmark_queries(golden):
    queries = golden["queries"]
    assert len(queries) == 70
    assert sum(q["top_k"] == 10 for q in queries) == 60
    assert set(golden["results"]) == set(BACKENDS)
    for backend in BACKENDS:
        assert set(golden["results"][backend]) == {_key(q) for q in queries}


def test_every_pinned_query_matches(actual, golden):
    backend, results = actual
    expected = golden["results"][backend]
    mismatched = [key for key in expected if results[key] != expected[key]]
    assert mismatched == []


def test_backends_agree(golden):
    assert golden["results"]["memory"] == golden["results"]["sqlite"]


def write(queries: list[dict], results: dict[str, dict[str, list]]) -> None:
    """One query or one ranking per line, so a diff shows what moved."""
    lines = ['{"queries": [']
    lines += [json.dumps(q, sort_keys=True) + "," for q in queries]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('], "results": {')
    for i, backend in enumerate(BACKENDS):
        lines.append(f"{json.dumps(backend)}: {{")
        ranked = results[backend]
        lines += [f"{json.dumps(key)}: {json.dumps(ranked[key])}," for key in ranked]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("}," if i < len(BACKENDS) - 1 else "}")
    lines.append("}}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_search_golden --write")
    queries = benchmark_queries()
    with tempfile.TemporaryDirectory() as tmp:
        write(queries, {b: compute(queries, b, Path(tmp)) for b in BACKENDS})
