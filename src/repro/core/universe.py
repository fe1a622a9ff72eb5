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
        self.vocabulary = tuple(sorted({t for d in self.documents for t in d.terms}))
        column = {t: i for i, t in enumerate(self.vocabulary)}
        self.columns: Mapping[str, int] = MappingProxyType(column)
        self.counts = np.zeros((len(self.documents), len(column)), dtype=np.int64)
        for row, doc in enumerate(self.documents):
            self.counts[row, [column[t] for t in doc.terms]] = list(doc.terms.values())
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
        out = np.zeros((len(self.documents), len(terms)), dtype=np.int64)
        for i, t in enumerate(terms):
            if t in self.columns:
                out[:, i] = self.counts[:, self.columns[t]]
        return out


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
        self._incidence = counts.incidence()

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
        row = self._counts.columns.get(term)
        if row is None:
            return np.zeros(self.n, dtype=bool)
        return self._incidence[row].copy()

    def elimination_mask(self, term: str) -> np.ndarray:
        """E(k): results *not* containing ``term`` (§3)."""
        return ~self.has_mask(term)

    def incidence_rows(self, terms: list[str]) -> np.ndarray:
        """Stacked has-masks for ``terms`` (unseen terms become all-False rows)."""
        out = np.zeros((len(terms), self.n), dtype=bool)
        for i, t in enumerate(terms):
            row = self._counts.columns.get(t)
            if row is not None:
                out[i] = self._incidence[row]
        return out

    # -- result-set evaluation ----------------------------------------------

    def results_mask(self, terms: list[str] | tuple[str, ...], semantics: str = AND) -> np.ndarray:
        """R(q) within the universe for the query ``terms``.

        AND: results containing every term (an empty query retrieves the
        whole universe — the seed query's terms are implicit because every
        universe member already matches the seed).
        OR: results containing at least one term (empty query → empty set).
        """
        if semantics == AND:
            mask = self.all_mask()
            for t in terms:
                mask &= self.has_mask(t)
            return mask
        if semantics == OR:
            mask = self.empty_mask()
            for t in terms:
                mask |= self.has_mask(t)
            return mask
        raise ExpansionError(f"unknown semantics: {semantics!r}")

    def weight_of(self, mask: np.ndarray) -> float:
        """S(mask): total ranking score of the selected results (§2)."""
        return float(self._weights[mask].sum())

    def count(self, mask: np.ndarray) -> int:
        return int(mask.sum())

    def total_weight(self) -> float:
        return float(self._weights.sum())


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
    """

    universe: ResultUniverse
    cluster_mask: np.ndarray
    seed_terms: tuple[str, ...]
    candidates: tuple[str, ...]
    semantics: str = AND
    cluster_id: int = 0

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

    def added_terms(self, seed_terms: tuple[str, ...]) -> tuple[str, ...]:
        """The non-seed terms of the expanded query."""
        seed = set(seed_terms)
        return tuple(t for t in self.terms if t not in seed)

    def to_dict(self) -> dict:
        """JSON-ready form (see repro.api.schema for the schema contract)."""
        from repro.api import schema

        return schema.outcome_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "ExpansionOutcome":
        """Inverse of :meth:`to_dict`."""
        from repro.api import schema

        return schema.outcome_from_dict(payload)
