"""Vectorized result-set algebra over a fixed universe of results.

For one expansion task, the universe is ``R(seed) = C ∪ U`` — the results of
the original user query (§2, Definition 2.2). Result sets are boolean masks
over the universe; the weighted set size ``S(·)`` is a dot product with the
ranking-weight vector; the elimination set ``E(k)`` (results *not* containing
keyword k) is the negated row of a term-incidence matrix.

This representation makes the per-keyword benefit/cost quantities of §3 and
the affected-keyword test ("keywords that do not appear in all delta
results") single vectorized operations.

One :class:`TermCounts` per seed result set feeds clustering (its TF
matrix), the universe (its incidence) and candidate mining (its tf).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.data.documents import Document
from repro.errors import ExpansionError

AND = "and"
OR = "or"


class TermCounts:
    """Integer doc × term counts of a fixed document list.

    ``counts[row, col]`` is the frequency of ``vocabulary[col]`` (the sorted
    distinct terms; ``columns`` maps term → col) in ``documents[row]``.
    Immutable (the array is read-only), so one instance is shared per run.
    """

    def __init__(self, documents: Sequence[Document]) -> None:
        if not documents:
            raise ExpansionError("term counts need at least one document")
        self.documents = tuple(documents)
        bags = [d.terms for d in self.documents]
        self.vocabulary = tuple(sorted(set().union(*bags)))
        column = {t: i for i, t in enumerate(self.vocabulary)}
        self.columns: Mapping[str, int] = MappingProxyType(column)
        # One scatter of every (row, col, count) triple, bags in order.
        rows = np.repeat(np.arange(len(bags)), [len(b) for b in bags])
        cols = [column[t] for t in chain(*bags)]
        self.counts = np.zeros((len(bags), len(column)), dtype=np.int64)
        self.counts[rows, cols] = list(chain(*(b.values() for b in bags)))
        self.counts.flags.writeable = False

    def tf_matrix(self) -> np.ndarray:
        """The L2-normalised ``(n_docs, n_terms)`` TF matrix (§C), a fresh copy."""
        mat = self.counts.astype(np.float64)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return mat / norms

    def incidence(self) -> np.ndarray:
        """Term-major bool incidence ``(n_terms, n_docs)``: ``counts > 0``."""
        return np.ascontiguousarray(self.counts.T > 0)

    def term_tf(self) -> np.ndarray:
        """Total frequency of each term over all documents (column sums)."""
        return self.counts.sum(axis=0)

    def term_columns(self, terms: Sequence[str]) -> np.ndarray:
        """``(n_docs, len(terms))`` counts of ``terms``; unseen terms count 0."""
        cols = np.array([self.columns.get(t, -1) for t in terms], dtype=np.intp)
        return np.where(cols >= 0, self.counts[:, cols], 0)


class ResultUniverse:
    """The result set of the seed query, with weights and term incidence.

    Parameters
    ----------
    documents:
        The seed query's results (order defines mask positions).
    weights:
        Optional ranking scores (§2's weighted precision/recall). ``None``
        means unweighted, i.e. unit weights. All weights must be positive —
        a zero-weight result would silently drop out of every ``S(·)``.
    counts:
        The :class:`TermCounts` of ``documents``, if already built.
    """

    def __init__(
        self,
        documents: list[Document],
        weights: list[float] | np.ndarray | None = None,
        counts: TermCounts | None = None,
    ) -> None:
        if not documents:
            raise ExpansionError("a result universe needs at least one result")
        if counts is None:
            counts = TermCounts(documents)
        elif counts.documents != tuple(documents):
            raise ExpansionError("term counts were built over other documents")
        self._counts = counts
        self._documents = counts.documents
        n = len(self._documents)
        if weights is None:
            w = np.ones(n, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (n,):
                raise ExpansionError(
                    f"weights shape {w.shape} does not match {n} documents"
                )
            if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise ExpansionError("weights must be positive and finite")
        self._weights = w
        # Term-major incidence; unseen terms gather the all-False last row.
        self._incidence = np.vstack((counts.incidence(), np.zeros((1, n), bool)))

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of results in the universe."""
        return len(self._documents)

    @property
    def documents(self) -> list[Document]:
        return list(self._documents)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def terms(self) -> list[str]:
        """All distinct terms over the universe, sorted."""
        return list(self._counts.vocabulary)

    @property
    def counts(self) -> TermCounts:
        """The doc × term counts the universe was built from."""
        return self._counts

    def document(self, pos: int) -> Document:
        return self._documents[pos]

    def all_mask(self) -> np.ndarray:
        """Mask selecting every result."""
        return np.ones(self.n, dtype=bool)

    def empty_mask(self) -> np.ndarray:
        return np.zeros(self.n, dtype=bool)

    # -- term incidence ------------------------------------------------------

    def __contains__(self, term: object) -> bool:
        return term in self._counts.columns

    def has_mask(self, term: str) -> np.ndarray:
        """Mask of results containing ``term`` (all-False for unseen terms)."""
        return self._incidence[self._counts.columns.get(term, -1)].copy()

    def elimination_mask(self, term: str) -> np.ndarray:
        """E(k): results *not* containing ``term`` (§3)."""
        return ~self.has_mask(term)

    def incidence_rows(self, terms: Sequence[str]) -> np.ndarray:
        """Stacked has-masks for ``terms`` (unseen terms become all-False rows)."""
        columns = self._counts.columns
        return self._incidence[[columns.get(t, -1) for t in terms]]

    # -- result-set evaluation ----------------------------------------------

    def results_mask(self, terms: list[str] | tuple[str, ...], semantics: str = AND) -> np.ndarray:
        """R(q) within the universe for the query ``terms``.

        AND: results containing every term (an empty query retrieves the
        whole universe — the seed query's terms are implicit because every
        universe member already matches the seed).
        OR: results containing at least one term (empty query → empty set).
        """
        if semantics == AND:
            return self.incidence_rows(terms).all(axis=0)
        if semantics == OR:
            return self.incidence_rows(terms).any(axis=0)
        raise ExpansionError(f"unknown semantics: {semantics!r}")

    def weight_of(self, mask: np.ndarray) -> float:
        """S(mask): total ranking score of the selected results (§2)."""
        return float(self._weights[mask].sum())

    def weights_of(self, masks: np.ndarray) -> np.ndarray:
        """``weight_of`` of every row of a ``(m, n)`` mask matrix, bit for bit.

        Each row is gathered and summed on its own: numpy sums a gathered
        1-D array pairwise, and a masked matvec (or any zero-padded block)
        would round differently.
        """
        w = self._weights
        return np.array([w[row].sum() for row in masks], dtype=np.float64)

    def count(self, mask: np.ndarray) -> int:
        return int(mask.sum())

    def total_weight(self) -> float:
        return float(self._weights.sum())


class CandidateIncidence:
    """Read-only candidate × result incidence, shared by a run's tasks.

    ``has[i]`` is the has-mask of ``candidates[i]`` (all-False when no
    result contains it), ``missing = ~has`` its elimination set E(k) (§3)
    and ``missing_float`` the same as float64 0/1, the operand of the
    benefit/cost matvecs. ``row_of`` maps a candidate to its row and
    ``name_rank`` ranks the rows by name (the last-resort tie-break).
    """

    def __init__(self, universe: ResultUniverse, candidates: Sequence[str]) -> None:
        self.universe = universe
        self.candidates = tuple(candidates)
        self.row_of: Mapping[str, int] = MappingProxyType(
            {kw: i for i, kw in enumerate(self.candidates)}
        )
        if len(self.row_of) != len(self.candidates):
            raise ExpansionError("candidates must be distinct")
        self.has = universe.incidence_rows(self.candidates)
        self.missing = ~self.has
        self.missing_float = self.missing.astype(np.float64)
        self.name_rank = np.argsort(np.argsort(self.candidates, kind="stable"))
        for array in (self.has, self.missing, self.missing_float, self.name_rank):
            array.flags.writeable = False


@dataclass(frozen=True)
class ExpansionTask:
    """One per-cluster expansion problem (Definition 2.2).

    Attributes
    ----------
    universe:
        All results of the seed query (``C ∪ U``).
    cluster_mask:
        Boolean mask of the target cluster C over the universe.
    seed_terms:
        The user query's normalized terms. These are always part of the
        expanded query and are never removed.
    candidates:
        Candidate expansion keywords (e.g. top-20% by TF-IDF, §C). Must not
        overlap the seed terms.
    semantics:
        ``"and"`` (paper default) or ``"or"`` (paper appendix).
    incidence:
        The :class:`CandidateIncidence` of ``candidates`` over ``universe``
        (built here when not given, so never ``None`` on a task).
    """

    universe: ResultUniverse
    cluster_mask: np.ndarray
    seed_terms: tuple[str, ...]
    candidates: tuple[str, ...]
    semantics: str = AND
    cluster_id: int = 0
    incidence: CandidateIncidence | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        mask = np.asarray(self.cluster_mask, dtype=bool)
        if mask.shape != (self.universe.n,):
            raise ExpansionError(
                f"cluster mask shape {mask.shape} != universe size {self.universe.n}"
            )
        object.__setattr__(self, "cluster_mask", mask)
        if not mask.any():
            raise ExpansionError("cluster C must contain at least one result")
        if set(self.candidates) & set(self.seed_terms):
            raise ExpansionError("candidates must not overlap seed terms")
        if self.semantics not in (AND, OR):
            raise ExpansionError(f"unknown semantics: {self.semantics!r}")
        inc = self.incidence or CandidateIncidence(self.universe, self.candidates)
        if inc.universe is not self.universe or inc.candidates != tuple(self.candidates):
            raise ExpansionError("incidence was built for other candidates")
        object.__setattr__(self, "incidence", inc)

    @property
    def other_mask(self) -> np.ndarray:
        """U: results of the seed query not in the cluster."""
        return ~self.cluster_mask

    def cluster_weight(self) -> float:
        """S(C)."""
        return self.universe.weight_of(self.cluster_mask)

    def other_weight(self) -> float:
        """S(U)."""
        return self.universe.weight_of(self.other_mask)


@dataclass(frozen=True)
class ExpansionOutcome:
    """Result of running one expansion algorithm on one task.

    ``terms`` is the full expanded query (seed terms first, then additions in
    the order they survived). ``trace`` records the add/remove steps for
    diagnostics. ``value_updates`` counts per-keyword value recomputations —
    the quantity the ISKR affected-keyword optimization reduces versus the
    delta-F-measure variant (§3, §5.3).
    """

    terms: tuple[str, ...]
    fmeasure: float
    precision: float
    recall: float
    iterations: int = 0
    value_updates: int = 0
    trace: tuple[str, ...] = field(default_factory=tuple)
    cluster_id: int = 0

    def to_dict(self) -> dict:
        """JSON-ready form (see repro.api.schema for the schema contract)."""
        from repro.api import schema

        return schema.outcome_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "ExpansionOutcome":
        """Inverse of :meth:`to_dict`."""
        from repro.api import schema

        return schema.outcome_from_dict(payload)
