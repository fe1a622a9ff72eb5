"""Vector-space-model expansion (§7 future work).

"We would also like to study how to support vector space retrieval model."

Under the vector space model an expanded query retrieves a *ranked* list —
a result need not contain every keyword. This algorithm generates, per
cluster, a query whose ranked retrieval best matches the cluster:

1. documents of the universe get L2-normalized TF-IDF vectors (IDF from
   the universe itself, so the module is self-contained);
2. a query is a set of terms; a document's score is the sum of its vector
   components over the query terms;
3. R(q) is the best *prefix* of the score ranking — the F-measure-optimal
   cutoff is found by scanning prefixes (an O(n log n) sweep);
4. terms are added greedily while the best-prefix F-measure improves.

Because the cutoff adapts, recall is no longer hostage to AND semantics —
the vector-space analogue of the keyword-interaction problem disappears,
at the price of needing a ranking threshold at query time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.universe import AND, ExpansionOutcome, ExpansionTask
from repro.errors import ExpansionError


class VectorSpaceRefinement:
    """Greedy query construction under ranked (vector-space) retrieval."""

    name = "VSM"

    def __init__(self, max_terms: int = 8, epsilon: float = 1e-9) -> None:
        if max_terms < 1:
            raise ExpansionError(f"max_terms must be >= 1, got {max_terms}")
        self._max_terms = max_terms
        self._epsilon = epsilon

    def expand(self, task: ExpansionTask) -> ExpansionOutcome:
        if task.semantics != AND:
            raise ExpansionError(
                "VectorSpaceRefinement interprets the task under ranked "
                "retrieval; construct the task with semantics='and'"
            )
        uni = task.universe
        n = uni.n
        weights = uni.weights
        in_cluster = np.asarray(task.cluster_mask, dtype=bool)
        s_cluster = float(weights[in_cluster].sum())

        # Universe-level TF-IDF document vectors, one column per candidate.
        candidates = list(task.candidates)
        raw = uni.counts.term_columns(candidates)
        tf = np.zeros(raw.shape, dtype=np.float64)
        present = raw > 0
        tf[present] = [1.0 + math.log(count) for count in raw[present].tolist()]
        df = (tf > 0).sum(axis=0)
        idf = np.log(1.0 + n / np.maximum(df, 1))
        mat = tf * idf[None, :]
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        mat = mat / norms

        def best_prefix_f(scores: np.ndarray) -> tuple[float, np.ndarray]:
            """Max F over prefixes of the positive-score ranking."""
            order = np.argsort(-scores, kind="stable")
            positive = scores[order] > 0.0
            if not positive.any():
                return 0.0, np.zeros(n, dtype=bool)
            order = order[positive]
            w = weights[order]
            inter = np.cumsum(w * in_cluster[order])
            total = np.cumsum(w)
            precision = inter / total
            recall = inter / s_cluster
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.where(
                    precision + recall > 0.0,
                    2.0 * precision * recall / (precision + recall),
                    0.0,
                )
            best = int(np.argmax(f))
            mask = np.zeros(n, dtype=bool)
            mask[order[: best + 1]] = True
            return float(f[best]), mask

        selected: list[int] = []
        scores = np.zeros(n, dtype=np.float64)
        current_f = 0.0
        current_mask = np.zeros(n, dtype=bool)
        trace: list[str] = []
        evaluations = 0
        while len(selected) < self._max_terms:
            best_col = -1
            best_f = current_f
            best_scores: np.ndarray | None = None
            best_mask: np.ndarray | None = None
            for col in range(len(candidates)):
                if col in selected:
                    continue
                tentative = scores + mat[:, col]
                f, mask = best_prefix_f(tentative)
                evaluations += 1
                if f > best_f + self._epsilon:
                    best_col, best_f = col, f
                    best_scores, best_mask = tentative, mask
            if best_col < 0:
                break
            selected.append(best_col)
            scores = best_scores  # type: ignore[assignment]
            current_mask = best_mask  # type: ignore[assignment]
            current_f = best_f
            trace.append("+" + candidates[best_col])

        s_r = float(weights[current_mask].sum())
        s_inter = float(weights[current_mask & in_cluster].sum())
        precision = s_inter / s_r if s_r > 0 else 0.0
        recall = s_inter / s_cluster if s_cluster > 0 else 0.0
        f = (
            2.0 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        return ExpansionOutcome(
            terms=tuple(task.seed_terms)
            + tuple(candidates[c] for c in selected),
            fmeasure=f,
            precision=precision,
            recall=recall,
            iterations=len(selected),
            value_updates=evaluations,
            trace=tuple(trace),
            cluster_id=task.cluster_id,
        )
