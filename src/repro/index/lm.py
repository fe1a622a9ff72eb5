"""Query-likelihood language-model scoring with Dirichlet smoothing.

The third ranker beside TF-IDF (paper §C) and BM25, from the probabilistic
family the paper's related work draws on ([20], [25] use LM-based term
selection). Documents are scored by the log-likelihood of generating the
query under a Dirichlet-smoothed unigram model::

    score(d, q) = Σ_t log( (tf(t, d) + μ p(t|C)) / (|d| + μ) )

where ``p(t|C)`` is the collection language model and μ the smoothing
mass. Because every factor is positive the score is a negative log
probability; for ranking compatibility with the other scorers (higher =
better, non-matching documents near zero) we report the *shifted* score
``Σ_t log(1 + tf(t,d) / (μ p(t|C))) `` — the standard rank-equivalent
rewrite whose per-term contribution is zero when tf = 0.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.errors import ConfigError
from repro.index.backend import (
    IndexBackend,
    TermFrequencyCache,
    collection_term_frequencies,
)
from repro.index.scoring import per_distinct, rank_by_impacts


class LMDirichletScorer:
    """Dirichlet-smoothed query-likelihood ranking.

    Same interface as :class:`~repro.index.scoring.TfIdfScorer`, and like
    it backend-agnostic: the collection language model is accumulated
    from posting lists through the :class:`IndexBackend` protocol. The
    ``mu`` default (2000) is the conventional TREC setting; small corpora
    work fine because the collection model is itself tiny.
    """

    def __init__(self, index: IndexBackend, mu: float = 2000.0) -> None:
        if mu <= 0.0:
            raise ConfigError(f"mu must be > 0, got {mu}")
        self._index = index
        self._mu = mu
        self._tf = TermFrequencyCache(index, impact=self._impacts, stats=self._stats)

    @staticmethod
    def _stats(index: IndexBackend) -> tuple[dict[str, int], int]:
        """The collection model (term counts and their total), per generation."""
        counts = collection_term_frequencies(index)
        return counts, max(sum(counts.values()), 1)

    @property
    def mu(self) -> float:
        return self._mu

    def collection_probability(self, term: str) -> float:
        """p(t|C) with add-one mass for unseen terms (never zero)."""
        counts, total = self._tf.stats()
        count = counts.get(term, 0)
        return (count + 1.0) / (total + len(counts) + 1.0)

    def idf(self, term: str) -> float:
        """Rarity proxy for interface parity: ``-log p(t|C)``."""
        return -math.log(self.collection_probability(term))

    def _impacts(self, term: str, docs: np.ndarray, tfs: np.ndarray) -> np.ndarray:
        """``log(1 + tf / (μ p(t|C)))`` per posting (scalar ``math.log``)."""
        scale = self._mu * self.collection_probability(term)
        return per_distinct(tfs, lambda tf: math.log(1.0 + tf / scale))

    def score(self, doc_pos: int, terms: Iterable[str]) -> float:
        """Shifted query likelihood: zero for documents matching no terms."""
        return self.rank([doc_pos], terms)[0][1]

    def log_likelihood(self, doc_pos: int, terms: Iterable[str]) -> float:
        """The unshifted log p(q|d) (always negative), for diagnostics."""
        dl = self._index.doc_length(doc_pos)
        total = 0.0
        for term in terms:
            tf = self._tf.tf(term, doc_pos)
            p_c = self.collection_probability(term)
            total += math.log((tf + self._mu * p_c) / (dl + self._mu))
        return total

    def rank(
        self,
        doc_positions: Iterable[int],
        terms: Iterable[str],
        k: int | None = None,
    ) -> list[tuple[int, float]]:
        """The ``k`` best (doc, score), descending score, position tie-break."""
        return rank_by_impacts(self._tf, doc_positions, terms, k)
