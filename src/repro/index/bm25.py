"""Okapi BM25 scoring: an alternative ranker to TF-IDF.

The paper ranks with TF-IDF (§C); BM25 is the standard stronger baseline
and exercises the pipeline's scorer pluggability. Same interface as
:class:`~repro.index.scoring.TfIdfScorer`.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.index.backend import IndexBackend, TermFrequencyCache
from repro.index.scoring import rank_by_impacts


class BM25Scorer:
    """Okapi BM25 with the conventional k1/b parameterization.

    Backend-agnostic: reads term frequencies through the
    :class:`IndexBackend` protocol only.
    """

    def __init__(self, index: IndexBackend, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0.0:
            raise ValueError(f"k1 must be >= 0, got {k1}")
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self._index = index
        self._k1 = k1
        self._b = b
        self._tf = TermFrequencyCache(index, impact=self._impacts, stats=self._stats)

    def _stats(self, index: IndexBackend) -> tuple[int, float]:
        """N and the average document length, per generation."""
        n = max(index.num_documents, 1)
        total_len = int(self._tf.doc_lengths().sum())
        return n, (total_len / n) if n else 1.0

    def idf(self, term: str) -> float:
        """BM25 idf: ``log(1 + (N - df + 0.5) / (df + 0.5))`` (never negative)."""
        df = self._index.document_frequency(term)
        n, _ = self._tf.stats()
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def _impacts(self, term: str, docs: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        """``idf · tf · (k1 + 1) / (tf + norm(doc))``, evaluated in that order."""
        if not len(docs):
            return np.zeros(0, dtype=np.float64)
        dl = np.maximum(self._tf.doc_lengths(int(docs[-1]) + 1)[docs], 1)
        _, avg_len = self._tf.stats()
        norm = self._k1 * (1.0 - self._b + self._b * dl / max(avg_len, 1e-9))
        return self.idf(term) * tfs * (self._k1 + 1.0) / (tfs + norm)

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        return self.rank([doc_pos], terms)[0][1]

    def rank(
        self,
        doc_positions: Iterable[int],
        terms: Iterable[str],
        k: int | None = None,
    ) -> list[tuple[int, float]]:
        """The ``k`` best (doc, score), descending score, position tie-break."""
        return rank_by_impacts(self._tf, doc_positions, terms, k)
