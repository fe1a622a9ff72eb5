"""Document-at-a-time ranking, kept as the reference for the library's rankers.

The library scores term-at-a-time over each term's posting columns
(:mod:`repro.index.scoring`). These are the straightforward loops it
must agree with bit for bit: for every document, for every query term,
look the tf up in a ``{position: tf}`` map and add that term's
contribution. ``tests/test_property_ranking.py`` compares the two on
every backend.

Only the backend protocol is used (``postings``, ``document_frequency``,
``doc_length``, ``num_documents``), so a reference scorer runs over any
backend the library scorer runs over.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable


class ReferenceTermFrequencyCache:
    """Per-term ``{position: tf}`` maps, dropped when the backend's generation moves."""

    def __init__(self, backend) -> None:
        self._backend = backend
        self._cache: dict[str, dict[int, int]] = {}
        self._generation = getattr(backend, "generation", None)

    def frequencies(self, term: str) -> dict[int, int]:
        generation = getattr(self._backend, "generation", None)
        if generation != self._generation:
            self._cache = {}
            self._generation = generation
        hit = self._cache.get(term)
        if hit is None:
            hit = {p.doc: p.tf for p in self._backend.postings(term)}
            self._cache[term] = hit
        return hit

    def tf(self, term: str, pos: int) -> int:
        return self.frequencies(term).get(pos, 0)


def _sorted_scores(scorer, doc_positions, terms) -> list[tuple[int, float]]:
    term_list = list(terms)
    scored = [(pos, scorer.score(pos, term_list)) for pos in doc_positions]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


class ReferenceTfIdfScorer:
    def __init__(self, index) -> None:
        self._index = index
        self._n = max(index.num_documents, 1)
        self._tf = ReferenceTermFrequencyCache(index)

    def idf(self, term: str) -> float:
        df = self._index.document_frequency(term)
        return math.log(1.0 + self._n / max(df, 1))

    def tf_weight(self, tf: int) -> float:
        if tf <= 0:
            return 0.0
        return 1.0 + math.log(tf)

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        raw = 0.0
        for term in terms:
            tf = self._tf.tf(term, doc_pos)
            if tf:
                raw += self.tf_weight(tf) * self.idf(term)
        if raw == 0.0:
            return 0.0
        return raw / math.sqrt(max(self._index.doc_length(doc_pos), 1))

    def rank(self, doc_positions, terms) -> list[tuple[int, float]]:
        return _sorted_scores(self, doc_positions, terms)


class ReferenceBM25Scorer:
    def __init__(self, index, k1: float = 1.2, b: float = 0.75) -> None:
        self._index = index
        self._k1 = k1
        self._b = b
        self._tf = ReferenceTermFrequencyCache(index)
        n = max(index.num_documents, 1)
        total_len = sum(index.doc_length(i) for i in range(index.num_documents))
        self._avg_len = (total_len / n) if n else 1.0
        self._n = n

    def idf(self, term: str) -> float:
        df = self._index.document_frequency(term)
        return math.log(1.0 + (self._n - df + 0.5) / (df + 0.5))

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        dl = max(self._index.doc_length(doc_pos), 1)
        norm = self._k1 * (1.0 - self._b + self._b * dl / max(self._avg_len, 1e-9))
        total = 0.0
        for term in terms:
            tf = self._tf.tf(term, doc_pos)
            if tf:
                total += self.idf(term) * tf * (self._k1 + 1.0) / (tf + norm)
        return total

    def rank(self, doc_positions, terms) -> list[tuple[int, float]]:
        return _sorted_scores(self, doc_positions, terms)


class ReferenceLMDirichletScorer:
    def __init__(self, index, mu: float = 2000.0) -> None:
        self._index = index
        self._mu = mu
        self._tf = ReferenceTermFrequencyCache(index)
        counts = {
            term: sum(p.tf for p in index.postings(term))
            for term in index.vocabulary()
        }
        self._collection_counts = counts
        self._collection_total = max(sum(counts.values()), 1)

    def collection_probability(self, term: str) -> float:
        count = self._collection_counts.get(term, 0)
        return (count + 1.0) / (self._collection_total + len(self._collection_counts) + 1.0)

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        total = 0.0
        for term in terms:
            tf = self._tf.tf(term, doc_pos)
            if tf:
                p_c = self.collection_probability(term)
                total += math.log(1.0 + tf / (self._mu * p_c))
        return total

    def rank(self, doc_positions, terms) -> list[tuple[int, float]]:
        return _sorted_scores(self, doc_positions, terms)


def reference_top_k_ranked(
    doc_positions, score_fn: Callable[[int], float], k: int
) -> list[tuple[int, float]]:
    """The bounded-heap top-k: score desc, position asc, like ``rank()[:k]``."""
    if k <= 0:
        return []
    scored = ((pos, score_fn(pos)) for pos in doc_positions)
    return heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))


def reference_ranking(scorer, positions, terms, k: int | None) -> list[tuple[int, float]]:
    """What ``SearchEngine.search_terms`` ranked before term-at-a-time scoring."""
    term_list = list(terms)
    if k is None:
        return scorer.rank(positions, term_list)
    return reference_top_k_ranked(
        positions, lambda pos: scorer.score(pos, term_list), max(k, 0)
    )


REFERENCE_SCORERS = {
    "tfidf": ReferenceTfIdfScorer,
    "bm25": ReferenceBM25Scorer,
    "lm": ReferenceLMDirichletScorer,
}
