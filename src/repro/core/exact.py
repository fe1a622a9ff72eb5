"""Exhaustive optimal expansion for small instances.

QEC is APX-hard (§2), so ISKR and PEBC are heuristics. On *small*
candidate sets the optimum is computable by enumerating keyword subsets;
this module provides that ground truth. It exists for validation — tests
and benchmarks measure how far the heuristics fall from optimal — and is
guarded against accidental exponential blowups.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.metrics import precision_recall_f
from repro.core.universe import AND, ExpansionOutcome, ExpansionTask
from repro.errors import ExpansionError

MAX_EXHAUSTIVE_CANDIDATES = 20


class ExhaustiveOptimalExpansion:
    """Finds the F-measure-optimal expanded query by subset enumeration.

    Parameters
    ----------
    max_candidates:
        Refuse tasks with more candidates than this (2^m subsets).
    max_added:
        Optionally cap the subset size (useful ground truth for "best query
        with at most j extra keywords").
    """

    name = "Exact"

    def __init__(
        self,
        max_candidates: int = MAX_EXHAUSTIVE_CANDIDATES,
        max_added: int | None = None,
    ) -> None:
        if max_candidates < 1 or max_candidates > MAX_EXHAUSTIVE_CANDIDATES:
            raise ExpansionError(
                f"max_candidates must be in [1, {MAX_EXHAUSTIVE_CANDIDATES}]"
            )
        if max_added is not None and max_added < 0:
            raise ExpansionError(f"max_added must be >= 0, got {max_added}")
        self._max_candidates = max_candidates
        self._max_added = max_added

    def expand(self, task: ExpansionTask) -> ExpansionOutcome:
        if task.semantics != AND:
            raise ExpansionError("exhaustive search supports AND semantics only")
        m = len(task.candidates)
        if m > self._max_candidates:
            raise ExpansionError(
                f"{m} candidates exceed the exhaustive limit "
                f"({self._max_candidates}); use ISKR/PEBC instead"
            )
        uni = task.universe
        has = task.incidence.has
        seed_mask = uni.results_mask(task.seed_terms, semantics=AND)

        best_terms: tuple[str, ...] = ()
        best_f = -1.0
        best_mask = seed_mask
        evaluated = 0
        max_size = m if self._max_added is None else min(m, self._max_added)
        for size in range(0, max_size + 1):
            for subset in combinations(range(m), size):
                mask = seed_mask.copy()
                for row in subset:
                    mask &= has[row]
                _, _, f = precision_recall_f(uni, mask, task.cluster_mask)
                evaluated += 1
                terms = tuple(task.candidates[i] for i in subset)
                # Strictly better F wins; ties go to fewer keywords (outer
                # loop order), then lexicographic for determinism.
                if f > best_f + 1e-12 or (
                    abs(f - best_f) <= 1e-12
                    and len(terms) == len(best_terms)
                    and terms < best_terms
                ):
                    best_terms = terms
                    best_f = f
                    best_mask = mask

        precision, recall, f = precision_recall_f(uni, best_mask, task.cluster_mask)
        return ExpansionOutcome(
            terms=tuple(task.seed_terms) + best_terms,
            fmeasure=f,
            precision=precision,
            recall=recall,
            iterations=evaluated,
            value_updates=evaluated,
            trace=("exhaustive:%d subsets" % evaluated,),
            cluster_id=task.cluster_id,
        )
