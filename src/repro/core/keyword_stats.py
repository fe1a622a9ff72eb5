"""Candidate-keyword selection and vectorized benefit/cost accounting.

§3 defines, for adding keyword k to query q::

    benefit(k, q) = S(R(q) ∩ U ∩ E(k))   # weight eliminated from U
    cost(k, q)    = S(R(q) ∩ C ∩ E(k))   # weight eliminated from C
    value(k, q)   = benefit / cost        # +inf if cost = 0 < benefit

The :class:`BenefitCostTable` below computes these for *batches* of keywords
with one boolean matrix operation, and recomputes only the keywords whose
value is affected by a query change — exactly those missing from at least
one delta result (§3's maintenance argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.universe import ResultUniverse
from repro.index.backend import IndexBackend


def value_ratio(benefit: float, cost: float) -> float:
    """The paper's benefit/cost value with its boundary conventions.

    benefit = 0              → 0 (never attractive, even if cost is 0)
    benefit > 0 and cost = 0 → +inf (strictly good: pure gain)
    otherwise                → benefit / cost
    """
    if benefit <= 0.0:
        return 0.0
    if cost <= 0.0:
        return math.inf
    return benefit / cost


@dataclass(frozen=True)
class KeywordValue:
    """A keyword's current benefit/cost snapshot.

    ``eliminated`` is the number of results the keyword would currently
    eliminate — the tie-break quantity of §4.3 ("choose the keyword that
    eliminates fewer results").
    """

    keyword: str
    benefit: float
    cost: float
    eliminated: int

    @property
    def value(self) -> float:
        return value_ratio(self.benefit, self.cost)

    def sort_key(self) -> tuple[float, int, str]:
        """Descending-value, then fewer-eliminated, then lexicographic."""
        return (-self.value, self.eliminated, self.keyword)


class BenefitCostTable:
    """Benefit/cost/value for a fixed candidate set, updatable in batches.

    The table owns the candidate incidence matrix H (one row per candidate,
    one column per result). Given the current R(q) mask it computes, per
    candidate k::

        elim_k  = R(q) & ~H[k]          # results eliminated by adding k
        benefit = weights[elim_k & U]
        cost    = weights[elim_k & C]

    ``refresh_affected`` recomputes only candidates with ``~H[k] & D ≠ ∅``
    for delta mask D, and returns how many were recomputed (the paper's
    efficiency claim over the delta-F variant is precisely this count).
    """

    def __init__(
        self,
        universe: ResultUniverse,
        candidates: tuple[str, ...],
        cluster_mask: np.ndarray,
    ) -> None:
        self._universe = universe
        self._candidates = list(candidates)
        self._H = universe.incidence_rows(self._candidates)
        self._cluster = np.asarray(cluster_mask, dtype=bool)
        self._other = ~self._cluster
        self._w = universe.weights
        self._benefit = np.zeros(len(self._candidates), dtype=np.float64)
        self._cost = np.zeros(len(self._candidates), dtype=np.float64)
        self._elim_count = np.zeros(len(self._candidates), dtype=np.int64)
        # Lexicographic rank per candidate: the last-resort tie-break.
        order = sorted(range(len(self._candidates)), key=lambda i: self._candidates[i])
        self._name_rank = np.zeros(len(self._candidates), dtype=np.int64)
        for rank, row in enumerate(order):
            self._name_rank[row] = rank
        self.total_updates = 0

    @property
    def candidates(self) -> list[str]:
        return list(self._candidates)

    def refresh_all(self, result_mask: np.ndarray) -> int:
        """Recompute every candidate against the current R(q)."""
        rows = np.arange(len(self._candidates))
        self._recompute(rows, result_mask)
        return len(rows)

    def refresh_affected(self, result_mask: np.ndarray, delta_mask: np.ndarray) -> int:
        """Recompute candidates missing from >= 1 delta result (§3).

        A candidate k' is unaffected iff it appears in *all* delta results
        (then its elimination behaviour on the remaining R(q) is unchanged).
        Returns the number of recomputed candidates.
        """
        if not delta_mask.any():
            return 0
        # k' affected  <=>  exists d in D with ~H[k', d]
        missing_somewhere = ~self._H[:, delta_mask].all(axis=1)
        rows = np.flatnonzero(missing_somewhere)
        self._recompute(rows, result_mask)
        return int(rows.size)

    def refresh_keywords(self, keywords: list[str], result_mask: np.ndarray) -> int:
        """Force-recompute specific keywords (e.g. the one just moved)."""
        row_of = {kw: i for i, kw in enumerate(self._candidates)}
        rows = np.array([row_of[k] for k in keywords if k in row_of], dtype=np.int64)
        self._recompute(rows, result_mask)
        return int(rows.size)

    def _recompute(self, rows: np.ndarray, result_mask: np.ndarray) -> None:
        if rows.size == 0:
            return
        elim = (~self._H[rows]) & result_mask[None, :]
        self._benefit[rows] = (elim & self._other[None, :]) @ self._w
        self._cost[rows] = (elim & self._cluster[None, :]) @ self._w
        self._elim_count[rows] = elim.sum(axis=1)
        self.total_updates += int(rows.size)

    def snapshot(self, row: int) -> KeywordValue:
        """The current value record of candidate ``row``."""
        return KeywordValue(
            keyword=self._candidates[row],
            benefit=float(self._benefit[row]),
            cost=float(self._cost[row]),
            eliminated=int(self._elim_count[row]),
        )

    def best_addition(self, excluded: set[str]) -> KeywordValue | None:
        """Highest-value candidate not in ``excluded`` (ties per §4.3).

        Vectorized: one lexsort over (value desc, eliminated asc, name asc).
        """
        if not self._candidates:
            return None
        values = self.values_array()
        if excluded:
            mask = np.array(
                [kw in excluded for kw in self._candidates], dtype=bool
            )
            if mask.all():
                return None
            values = np.where(mask, -np.inf, values)
        # lexsort: last key is primary.
        order = np.lexsort((self._name_rank, self._elim_count, -values))
        row = int(order[0])
        if values[row] == -np.inf:
            return None
        return self.snapshot(row)

    def values_array(self) -> np.ndarray:
        """Current value ratio per candidate (inf-aware), for strategies."""
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(
                self._benefit <= 0.0,
                0.0,
                np.where(self._cost <= 0.0, np.inf, self._benefit / self._cost),
            )
        return vals


def select_candidates(
    index: IndexBackend,
    universe: ResultUniverse,
    seed_terms: tuple[str, ...],
    fraction: float = 0.2,
    min_candidates: int = 10,
) -> tuple[str, ...]:
    """Top-``fraction`` of universe terms by TF-IDF, excluding seed terms.

    Reproduces the experimental setup of §C: "we consider the top-20% words
    in the results in terms of tfidf for query expansion". TF is the total
    term frequency over the universe's results (a column sum of its term
    counts); IDF comes from the full corpus index. Terms present in
    *every* universe result are excluded — they can never eliminate
    anything, under AND semantics they are dead weight.

    ``min_candidates`` keeps tiny universes useful: at least this many terms
    are returned (when available).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_docs = max(index.num_documents, 1)
    seed = set(seed_terms)
    counts = universe.counts
    tfs = counts.term_tf().tolist()
    present = np.count_nonzero(counts.counts, axis=0).tolist()
    scored: list[tuple[float, str]] = []
    for term, tf, n_has in zip(counts.vocabulary, tfs, present):
        if term in seed or n_has == universe.n:
            continue  # appears everywhere: E(k) empty, useless under AND
        df = max(index.document_frequency(term), 1)
        idf = math.log(1.0 + n_docs / df)
        scored.append((tf * idf, term))
    scored.sort(key=lambda item: (-item[0], item[1]))
    keep = max(int(round(len(scored) * fraction)), min(min_candidates, len(scored)))
    return tuple(term for _, term in scored[:keep])
