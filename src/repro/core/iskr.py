"""Iterative Single-Keyword Refinement (ISKR, §3 / Algorithm 1).

Starting from the user query, repeatedly apply the single best keyword
addition or removal, where a keyword's value is its benefit/cost ratio:

* adding k eliminates results — benefit is the weight eliminated from U
  (precision up), cost is the weight eliminated from C (recall down);
* removing a previously added k regains results — benefit is the weight
  regained in C, cost is the weight regained in U.

The algorithm stops when no keyword has value > 1 (Algorithm 1, line 16).
After each change only the *affected* keywords — those missing from at
least one delta result — are re-valued (the paper's efficiency trick; see
:class:`~repro.core.keyword_stats.BenefitCostTable.refresh_affected`).

Seed terms are never removed: every example in the paper keeps the original
query inside the expanded query.

Under OR semantics (paper appendix) the problem is the mirror image: the
expanded query *collects* results instead of filtering them, so benefit and
cost swap sides; see :meth:`ISKR._expand_or`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.keyword_stats import (
    BenefitCostTable,
    KeywordValue,
    best_row,
    value_ratio,
    value_ratios,
    weigh,
)
from repro.core.metrics import precision_recall_f
from repro.core.universe import AND, OR, ExpansionOutcome, ExpansionTask
from repro.errors import ExpansionError


@dataclass(frozen=True)
class _Move:
    """A candidate refinement step: add or remove one keyword."""

    kind: str  # "add" | "remove"
    keyword: str
    benefit: float
    cost: float
    changed: int  # results eliminated (add) or regained (remove)

    @property
    def value(self) -> float:
        return value_ratio(self.benefit, self.cost)

    def sort_key(self) -> tuple[float, int, int, str]:
        """Best first: higher value, fewer changed results, adds before
        removes on exact ties, lexicographic last."""
        kind_rank = 0 if self.kind == "add" else 1
        return (-self.value, self.changed, kind_rank, self.keyword)


class ISKR:
    """The paper's first expansion algorithm.

    Parameters
    ----------
    max_iterations:
        Safety cap on refinement steps. The stop rule (best value <= 1)
        normally terminates long before this.
    allow_removal:
        Disable to ablate the keyword-removal step of §3 (Example 3.2);
        used by ``benchmarks/bench_ablation_iskr_removal.py``.
    """

    name = "ISKR"

    def __init__(self, max_iterations: int = 100, allow_removal: bool = True) -> None:
        if max_iterations < 1:
            raise ExpansionError(f"max_iterations must be >= 1, got {max_iterations}")
        self._max_iterations = max_iterations
        self._allow_removal = allow_removal

    def expand(self, task: ExpansionTask) -> ExpansionOutcome:
        """Generate the expanded query for ``task``'s cluster."""
        if task.semantics == AND:
            return self._expand_and(task)
        if task.semantics == OR:
            return self._expand_or(task)
        raise ExpansionError(f"unknown semantics: {task.semantics!r}")

    # -- AND semantics (paper core) ---------------------------------------

    def _expand_and(self, task: ExpansionTask) -> ExpansionOutcome:
        uni = task.universe
        inc = task.incidence
        table = BenefitCostTable(uni, task.candidates, task.cluster_mask, inc)

        added: list[str] = []
        seed_mask = uni.results_mask(task.seed_terms, semantics=AND)
        q_mask = seed_mask
        table.refresh_all(q_mask)

        trace: list[str] = []
        seen_states: set[frozenset[str]] = {frozenset()}
        iterations = 0

        while iterations < self._max_iterations:
            move = self._best_move(task, table, added, seed_mask)
            if move is None or move.value <= 1.0:
                break
            if move.kind == "add":
                new_added = added + [move.keyword]
            else:
                new_added = [k for k in added if k != move.keyword]
            state = frozenset(new_added)
            if state in seen_states:
                break  # would revisit a previous query: cycle guard
            seen_states.add(state)
            new_mask = uni.results_mask(tuple(task.seed_terms) + tuple(new_added))
            delta = q_mask ^ new_mask  # results eliminated (add) or regained
            added, q_mask = new_added, new_mask
            iterations += 1
            trace.append(("+" if move.kind == "add" else "-") + move.keyword)
            table.refresh_affected(q_mask, delta)
            # The moved keyword's own stats must be authoritative even if it
            # appears in every delta result.
            table.refresh_keywords([move.keyword], q_mask)

        precision, recall, f = precision_recall_f(uni, q_mask, task.cluster_mask)
        return ExpansionOutcome(
            terms=tuple(task.seed_terms) + tuple(added),
            fmeasure=f,
            precision=precision,
            recall=recall,
            iterations=iterations,
            value_updates=table.total_updates,
            trace=tuple(trace),
            cluster_id=task.cluster_id,
        )

    def _best_move(
        self,
        task: ExpansionTask,
        table: BenefitCostTable,
        added: list[str],
        seed_mask: np.ndarray,
    ) -> _Move | None:
        moves: list[_Move] = []
        best: KeywordValue | None = table.best_addition(excluded=added)
        if best is not None:
            moves.append(
                _Move("add", best.keyword, best.benefit, best.cost, best.eliminated)
            )
        if self._allow_removal and added:
            # D(k) = R(q \ k) \ R(q): the seed results lacking k and no
            # other added keyword. benefit = S(D ∩ C) (recall up), cost =
            # S(D ∩ U) (precision down).
            lacks = task.incidence.missing[[task.incidence.row_of[k] for k in added]]
            regained = lacks & (seed_mask & (lacks.sum(axis=0) == 1))
            moves.extend(_removals(task, added, regained, task.cluster_mask))
        if not moves:
            return None
        return min(moves, key=_Move.sort_key)

    # -- OR semantics (paper appendix) -------------------------------------

    def _expand_or(self, task: ExpansionTask) -> ExpansionOutcome:
        """Greedy refinement under OR semantics.

        Under OR the expanded query starts empty and *collects* results:
        adding k gains ``~R & has(k)`` — benefit is the gained weight in C,
        cost the gained weight in U; removal is the mirror image. The seed
        terms are carried in the output query for presentation but do not
        constrain R (every universe member already matches the seed).
        """
        uni = task.universe
        inc = task.incidence
        selected: list[str] = []
        chosen = np.zeros(len(task.candidates), dtype=bool)
        q_mask = uni.empty_mask()
        trace: list[str] = []
        seen_states: set[frozenset[str]] = {frozenset()}
        iterations = 0
        value_updates = 0

        while iterations < self._max_iterations:
            open_rows = np.flatnonzero(~chosen)
            gained = inc.has[open_rows] & ~q_mask
            weighed = weigh(uni, gained, task.cluster_mask)
            values = value_ratios(weighed[0], weighed[1])
            value_updates += open_rows.size
            best_add = _best_addition(task, open_rows, weighed, values)
            moves = [] if best_add is None else [best_add]
            # Removing the last keyword would empty R(q) — F = 0, the
            # global minimum — so a sole keyword is never a removal
            # candidate.
            if len(selected) > 1:
                has = inc.has[[inc.row_of[k] for k in selected]]
                lost = has & (has.sum(axis=0) == 1)  # results only k retrieves
                moves.extend(_removals(task, selected, lost, task.other_mask))
                value_updates += len(selected)
            if not moves:
                break
            move = min(moves, key=_Move.sort_key)
            if move.value <= 1.0:
                if selected:
                    break
                # Bootstrap: an empty OR query retrieves nothing (F = 0),
                # so any addition gaining cluster weight strictly improves
                # it even when its benefit/cost ratio is <= 1. Pick the
                # best-ratio move among the positive-benefit additions.
                useful = np.where(weighed[0] > 0.0, values, -np.inf)
                best_add = _best_addition(task, open_rows, weighed, useful)
                if best_add is None:
                    break
                move = best_add
            if move.kind == "add":
                selected.append(move.keyword)
            else:
                selected.remove(move.keyword)
            state = frozenset(selected)
            if state in seen_states:
                break
            seen_states.add(state)
            chosen[inc.row_of[move.keyword]] = move.kind == "add"
            q_mask = uni.results_mask(tuple(selected), semantics=OR)
            iterations += 1
            trace.append(("+" if move.kind == "add" else "-") + move.keyword)

        precision, recall, f = precision_recall_f(uni, q_mask, task.cluster_mask)
        return ExpansionOutcome(
            terms=tuple(task.seed_terms) + tuple(selected),
            fmeasure=f,
            precision=precision,
            recall=recall,
            iterations=iterations,
            value_updates=value_updates,
            trace=tuple(trace),
            cluster_id=task.cluster_id,
        )


def _best_addition(
    task: ExpansionTask,
    rows: np.ndarray,
    weighed: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
) -> _Move | None:
    """The best addition among candidate ``rows`` by ``values`` (``-inf``
    marks an ineligible row), ties per :meth:`_Move.sort_key`."""
    benefit, cost, changed = weighed
    i = best_row(values, changed, task.incidence.name_rank[rows])
    if i is None:
        return None
    keyword = task.candidates[rows[i]]
    return _Move("add", keyword, float(benefit[i]), float(cost[i]), int(changed[i]))


def _removals(
    task: ExpansionTask,
    keywords: list[str],
    changes: np.ndarray,
    benefit_side: np.ndarray,
) -> list[_Move]:
    """One removal move per keyword; ``changes[i]`` are the results that
    removing ``keywords[i]`` regains (AND) or loses (OR)."""
    benefit, cost, changed = weigh(task.universe, changes, benefit_side)
    return [
        _Move("remove", kw, float(b), float(c), int(n))
        for kw, b, c, n in zip(keywords, benefit, cost, changed)
    ]
