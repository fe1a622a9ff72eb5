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
from typing import Collection

import numpy as np

from repro.core.universe import CandidateIncidence, ResultUniverse
from repro.index.backend import IndexBackend
from repro.index.scoring import per_distinct


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

    The table reads the candidate incidence H (one row per candidate, one
    column per result) from a :class:`CandidateIncidence`. Given the
    current R(q) mask it computes, per candidate k::

        elim_k  = R(q) & ~H[k]          # results eliminated by adding k
        benefit = weights[elim_k & U]
        cost    = weights[elim_k & C]

    as matvecs ``~H[rows] @ (w·U·R)`` and ``~H[rows] @ (w·C·R)``: the same
    nonzero products as ``(elim & U) @ w``, so the same bits.

    Their last bits depend on the BLAS gemv kernel (OpenBLAS picks one per
    CPU type) and on row position: identical rows can get different sums. So
    rounding can decide §4.3's exact ties, and expansions are reproducible
    for one BLAS kernel, not across kernels (see ROADMAP).

    ``refresh_affected`` recomputes only candidates with ``~H[k] & D ≠ ∅``
    for delta mask D, and returns how many were recomputed (the paper's
    efficiency claim over the delta-F variant is precisely this count).
    """

    def __init__(
        self,
        universe: ResultUniverse,
        candidates: tuple[str, ...],
        cluster_mask: np.ndarray,
        incidence: CandidateIncidence | None = None,
    ) -> None:
        if incidence is None:
            incidence = CandidateIncidence(universe, candidates)
        self._candidates = list(candidates)
        self._inc = incidence
        cluster = np.asarray(cluster_mask, dtype=bool)
        w = universe.weights
        self._w_other = np.where(cluster, 0.0, w)
        self._w_cluster = np.where(cluster, w, 0.0)
        self._benefit = np.zeros(len(self._candidates), dtype=np.float64)
        self._cost = np.zeros(len(self._candidates), dtype=np.float64)
        self._elim_count = np.zeros(len(self._candidates), dtype=np.int64)
        self.total_updates = 0

    def refresh_all(self, result_mask: np.ndarray) -> int:
        """Recompute every candidate against the current R(q)."""
        return self._recompute(np.arange(len(self._candidates)), result_mask)

    def refresh_affected(self, result_mask: np.ndarray, delta_mask: np.ndarray) -> int:
        """Recompute candidates missing from >= 1 delta result (§3).

        A candidate k' is unaffected iff it appears in *all* delta results
        (then its elimination behaviour on the remaining R(q) is unchanged).
        Returns the number of recomputed candidates.
        """
        return self._recompute(np.flatnonzero(self._inc.missing @ delta_mask), result_mask)

    def refresh_keywords(self, keywords: list[str], result_mask: np.ndarray) -> int:
        """Force-recompute specific keywords (e.g. the one just moved)."""
        rows = [self._inc.row_of[k] for k in keywords if k in self._inc.row_of]
        return self._recompute(np.array(rows, dtype=np.intp), result_mask)

    def _recompute(self, rows: np.ndarray, result_mask: np.ndarray) -> int:
        if rows.size:
            elim = self._inc.missing_float[rows]
            self._benefit[rows] = elim @ (self._w_other * result_mask)
            self._cost[rows] = elim @ (self._w_cluster * result_mask)
            self._elim_count[rows] = elim @ result_mask.astype(np.float64)
            self.total_updates += int(rows.size)
        return int(rows.size)

    def snapshot(self, row: int) -> KeywordValue:
        """The current value record of candidate ``row``."""
        return KeywordValue(
            keyword=self._candidates[row],
            benefit=float(self._benefit[row]),
            cost=float(self._cost[row]),
            eliminated=int(self._elim_count[row]),
        )

    def best_addition(self, excluded: Collection[str]) -> KeywordValue | None:
        """Highest-value candidate not in ``excluded`` (ties per §4.3).

        Vectorized: one lexsort over (value desc, eliminated asc, name asc).
        """
        values = self.values_array()
        rows = [self._inc.row_of[k] for k in excluded if k in self._inc.row_of]
        values[rows] = -np.inf
        row = best_row(values, self._elim_count, self._inc.name_rank)
        return None if row is None else self.snapshot(row)

    def values_array(self) -> np.ndarray:
        """Current value ratio per candidate (inf-aware), for strategies."""
        return value_ratios(self._benefit, self._cost)


def value_ratios(benefit: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """:func:`value_ratio` of every (benefit, cost) pair, as one array."""
    values = np.full(benefit.shape, np.inf)
    np.divide(benefit, cost, out=values, where=cost > 0.0)
    values[benefit <= 0.0] = 0.0
    return values


def weigh(
    universe: ResultUniverse, changes: np.ndarray, benefit_side: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(benefit, cost, changed)`` of moves that change each row's results:
    the weight changed inside ``benefit_side``, the weight changed outside
    it (both bit-identical to :meth:`ResultUniverse.weight_of` per row),
    and the number of changed results."""
    return (
        universe.weights_of(changes & benefit_side),
        universe.weights_of(changes & ~benefit_side),
        np.count_nonzero(changes, axis=1),
    )


def best_row(
    values: np.ndarray, changed: np.ndarray, name_rank: np.ndarray
) -> int | None:
    """The row with the highest value, then fewest changed results, then
    first name; ``None`` when every value is ``-inf`` (nothing eligible).
    ``values`` holds no NaN (:func:`value_ratios` never makes one)."""
    if not values.size:
        return None
    row = int(values.argmax())
    tied = np.flatnonzero(values == values[row])
    if tied.size > 1:
        row = int(tied[np.lexsort((name_rank[tied], changed[tied]))[0]])
    return None if values[row] == -np.inf else row


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
    cols, scores = candidate_scores(index, universe, seed_terms)
    # Columns follow the sorted vocabulary: (-score, col) is (-score, term).
    order = cols[np.lexsort((cols, -scores))]
    keep = max(int(round(cols.size * fraction)), min(min_candidates, cols.size))
    return tuple(universe.counts.vocabulary[c] for c in order[:keep].tolist())


def candidate_scores(
    index: IndexBackend, universe: ResultUniverse, seed_terms: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_candidates`' columns, ascending, and their TF-IDF scores."""
    n_docs = max(index.num_documents, 1)
    counts = universe.counts
    keep_col = np.count_nonzero(counts.counts, axis=0) < universe.n
    keep_col[[counts.columns[t] for t in seed_terms if t in counts.columns]] = False
    cols = np.flatnonzero(keep_col)
    dfs = [index.document_frequency(counts.vocabulary[c]) for c in cols.tolist()]
    dfs = np.array(dfs, dtype=np.int64).clip(1)
    # Scalar ``math.log`` per distinct df: ``np.log`` need not round like libm.
    idf = per_distinct(dfs, lambda df: math.log(1.0 + n_docs / df))
    return cols, counts.term_tf()[cols] * idf
