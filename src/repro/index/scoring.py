"""TF-IDF scoring for ranking query results, and the shared term-at-a-time ranker.

The paper ranks Wikipedia results "using tfidf of the keywords" (§C) and
feeds the ranking scores into the weighted precision/recall of §2. We use
the standard log-tf × smoothed-idf cosine-style score.

Scorers speak only the :class:`~repro.index.backend.IndexBackend`
protocol: term frequencies come from posting lists (read once per term
and generation via :class:`~repro.index.backend.TermFrequencyCache`), never from
the corpus, so every backend — in-memory or SQLite — ranks
identically.

Every scorer ranks term-at-a-time (:func:`rank_by_impacts`): it turns
each term's posting columns into a per-posting *impact* array once,
and a query adds its terms' impacts, in query-term order and starting
from ``0.0``, into one accumulator per document. The sums are the
same float operations in the same order as scoring each document
alone, so the scores are bit-identical to the document-at-a-time
definition. Logarithms stay scalar :func:`math.log`, evaluated once per
distinct term frequency (:func:`per_distinct`), because a vectorized
``log`` need not round exactly like libm.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from repro.index.backend import IndexBackend, TermFrequencyCache

#: ``finish(positions, raw)``: per-document scores from summed impacts.
FinishFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def per_distinct(values: np.ndarray, fn: Callable[[int], float]) -> np.ndarray:
    """``fn`` of every element, called once per distinct value, then gathered."""
    distinct, inverse = np.unique(values, return_inverse=True)
    table = np.array([fn(v) for v in distinct.tolist()], dtype=np.float64)
    return table[inverse]


def rank_by_impacts(
    cache: TermFrequencyCache,
    doc_positions: Iterable[int],
    terms: Iterable[str],
    k: int | None,
    finish: FinishFn | None = None,
) -> list[tuple[int, float]]:
    """Rank ``doc_positions`` by the impacts ``cache`` holds for ``terms``.

    ``doc_positions`` may be in any order and repeat. Each document's
    score is ``0.0`` plus the impact of every query term whose postings
    hold it, added in query-term order (a repeated term adds twice),
    then passed through ``finish`` if given. The sums live in one dense
    accumulator indexed by corpus position, so adding a term costs one
    scatter over its postings. Returns :func:`top_k_ranked` of the result.
    """
    positions = np.asarray(doc_positions, dtype=np.int64)
    if not len(positions):
        return []
    entries = [cache.entry(term) for term in terms]
    size = max([int(positions.max())] + [int(d[-1]) for d, _, _ in entries if len(d)])
    totals = np.zeros(size + 1, dtype=np.float64)
    for docs, _, impacts in entries:
        totals[docs] += impacts
    scores = totals[positions]
    if finish is not None:
        scores = finish(positions, scores)
    return top_k_ranked(positions, scores, k)


def top_k_ranked(
    doc_positions: Iterable[int],
    scores: Iterable[float],
    k: int | None,
) -> list[tuple[int, float]]:
    """The ``k`` best ``(position, score)`` pairs (``k=None``: all of them).

    Ordered by score descending, then position ascending, exactly like a
    full sort truncated to ``k``. Only the candidates scoring at least
    the ``k``-th best score (ties included) are sorted: a partition finds
    that score in linear time, so a broad query matching thousands of
    documents pays a full sort only over the few it keeps (§C keeps 30).
    """
    positions = np.asarray(doc_positions, dtype=np.int64)
    values = np.asarray(scores, dtype=np.float64)
    if k is not None:
        if k <= 0:
            return []
        if k < len(values):
            kth = np.partition(values, len(values) - k)[len(values) - k]
            keep = np.flatnonzero(values >= kth)
            positions, values = positions[keep], values[keep]
    order = np.lexsort((positions, -values))[:k]
    return list(zip(positions[order].tolist(), values[order].tolist()))


class TfIdfScorer:
    """Scores documents for a query against any :class:`IndexBackend`."""

    def __init__(self, index: IndexBackend) -> None:
        self._index = index
        self._tf = TermFrequencyCache(index, impact=self._impacts, stats=self._stats)

    @staticmethod
    def _stats(index: IndexBackend) -> int:
        """N, per generation."""
        return max(index.num_documents, 1)

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency: ``log(1 + N/df)``.

        Unseen terms get the maximum idf (df treated as 1) so that querying
        them is well-defined; they simply match no documents.
        """
        df = self._index.document_frequency(term)
        return math.log(1.0 + self._tf.stats() / max(df, 1))

    def tf_weight(self, tf: int) -> float:
        """Sub-linear term-frequency weight: ``1 + log(tf)``."""
        if tf <= 0:
            return 0.0
        return 1.0 + math.log(tf)

    def _impacts(self, term: str, docs: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        idf = self.idf(term)
        return per_distinct(tfs, lambda tf: self.tf_weight(tf) * idf)

    def _normalize(self, positions: np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Divide by ``sqrt(max(doc_length, 1))`` — a division, as defined."""
        lengths = self._tf.doc_lengths(int(positions.max()) + 1)[positions]
        return raw / np.sqrt(np.maximum(lengths, 1))

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        """TF-IDF score of document ``doc_pos`` for the query ``terms``.

        ``Σ_t tf_weight(tf)·idf(t)`` over the query terms the document
        holds, length-normalized by the square root of document length so
        verbose documents don't dominate (a cheap stand-in for full cosine
        normalization that keeps scores strictly positive for matches).
        """
        return self.rank([doc_pos], terms)[0][1]

    def rank(
        self,
        doc_positions: Iterable[int],
        terms: Iterable[str],
        k: int | None = None,
    ) -> list[tuple[int, float]]:
        """The ``k`` best ``(doc_pos, score)`` (all if ``k`` is None).

        Sorted by descending score; ties are broken by corpus position for
        determinism.
        """
        return rank_by_impacts(self._tf, doc_positions, terms, k, self._normalize)
