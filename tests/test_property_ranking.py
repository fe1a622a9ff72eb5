"""Property tests: term-at-a-time ranking equals the document-at-a-time reference.

For every backend (memory, sqlite) and every
scorer (tfidf, bm25, lm), random small corpora are ranked through
``SearchEngine`` (AND, OR, and ``boolean_search`` with NOT) and through
``scorer.rank`` directly, and compared with the loops in
``tests/ranking_reference.py``. Scores are compared by ``float.hex``,
so every bit must match, not just the order.

The corpora are built to collide: three term frequencies and a handful
of document lengths make tied scores common. Queries may name unseen
terms, ``scorer.rank`` gets duplicated query terms, and the SQLite
backend tombstones documents after the library's scorers are built
(and before the reference, which snapshots its statistics).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registries import SCORERS
from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.index.inverted_index import InvertedIndex
from repro.index.queryparser import evaluate_query
from repro.index.search import SearchEngine
from repro.store import SQLiteIndexBackend
from repro.text.analyzer import Analyzer

from tests.ranking_reference import REFERENCE_SCORERS, reference_ranking

WORDS = ("alpha", "bravo", "charlie", "delta")
UNSEEN = "zulu"
QUERY_WORDS = WORDS + (UNSEEN,)
KS = (None, 0, 1, 3, 1000)
BACKENDS = ("memory", "sqlite")
MUTABLE = ("sqlite",)

documents = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(WORDS), st.integers(1, 3), max_size=4),
        st.integers(0, 3),  # filler terms: a few distinct lengths
    ),
    min_size=1,
    max_size=14,
)
queries = st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=4)


def _corpus(specs) -> Corpus:
    docs = []
    for i, (bag, filler) in enumerate(specs):
        terms = dict(bag)
        for j in range(filler + (0 if bag else 1)):
            terms[f"filler{j}"] = 1
        docs.append(Document(doc_id=f"d{i}", terms=terms))
    return Corpus(docs)


def _backend(name: str, corpus: Corpus, tmp: Path):
    if name == "memory":
        return InvertedIndex(corpus)
    return SQLiteIndexBackend(tmp / "store.sqlite", corpus=corpus)


def _bits(ranked) -> list[tuple[int, str]]:
    return [(pos, float(score).hex()) for pos, score in ranked]


def _distinct(words) -> list[str]:
    return list(dict.fromkeys(words))


@pytest.mark.parametrize("scoring", sorted(REFERENCE_SCORERS))
@pytest.mark.parametrize("backend_name", BACKENDS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(specs=documents, terms=queries, removed=st.sets(st.integers(0, 13), max_size=4))
def test_ranking_matches_reference(backend_name, scoring, specs, terms, removed):
    corpus = _corpus(specs)
    with tempfile.TemporaryDirectory() as tmp:
        backend = _backend(backend_name, corpus, Path(tmp))
        try:
            engine = SearchEngine(
                corpus, Analyzer(use_stemming=False), scoring=scoring, backend=backend
            )
            scorer = SCORERS.create(scoring, backend)
            if backend_name in MUTABLE:
                for pos in sorted(p for p in removed if p < len(corpus)):
                    backend.remove(pos)
            # The reference snapshots its statistics, so it is built over
            # the final state; the library's scorers, built before the
            # removals, must track the generation.
            reference = REFERENCE_SCORERS[scoring](backend)
            _check(backend, engine, scorer, reference, terms)
        finally:
            close = getattr(backend, "close", None)
            if close is not None:
                close()


def _check(backend, engine, scorer, reference, terms) -> None:
    distinct = _distinct(terms)
    for semantics, query in (("and", backend.and_query), ("or", backend.or_query)):
        positions = query(distinct)
        for k in KS + (-1,):
            expected = reference_ranking(reference, positions, distinct, k)
            got = engine.search_terms(distinct, top_k=k, semantics=semantics)
            assert _bits((r.position, r.score) for r in got) == _bits(expected)
            # Duplicated terms add twice; positions may come unsorted.
            doubled = terms + terms[:1]
            assert _bits(scorer.rank(positions[::-1], doubled, k)) == _bits(
                reference_ranking(reference, positions[::-1], doubled, k)
            )

    first, *rest = terms
    negated = rest[0] if rest else UNSEEN
    text = f"({first} OR {terms[-1]}) AND NOT {negated}"
    positions = evaluate_query(text, backend)
    words = _distinct([first, terms[-1]])
    for k in KS:
        got = engine.boolean_search(text, top_k=k)
        expected = reference_ranking(reference, positions, words, k)
        assert _bits((r.position, r.score) for r in got) == _bits(expected)
