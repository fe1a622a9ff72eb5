"""Partial-elimination strategies for PEBC sample-query generation (§4).

Given a target x% — the share of U's weight to eliminate — build a query
(seed + keywords) that eliminates as close to x% of U as possible while
maximizing what is retained of C. Three strategies from the paper:

* :class:`FixedOrderStrategy` (§4.1) — always pick the globally best
  benefit/cost keyword. Inherently produces prefix queries of one fixed
  keyword order, so it cannot steer toward a target percentage (the paper's
  argument for why this is infeasible). Kept as an ablation baseline.
* :class:`RandomSubsetStrategy` (§4.2) — randomly select a subset of U
  worth ~x%, then greedily cover it; eliminating unselected results counts
  as cost. Quality depends heavily on the drawn subset.
* :class:`SingleResultStrategy` (§4.3) — the paper's choice: repeatedly
  pick one random not-yet-eliminated U result and the best-value keyword
  that eliminates it (ties → the keyword eliminating fewer results).

All strategies implement the stop rule of §4.3: once the target is crossed,
the last keyword is kept only if that leaves the eliminated share closer to
the target.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.keyword_stats import best_row, value_ratios, weigh
from repro.core.universe import AND, ExpansionTask
from repro.errors import ExpansionError


@dataclass(frozen=True)
class SampleQuery:
    """A generated sample query and its elimination bookkeeping."""

    terms: tuple[str, ...]  # seed + selected keywords
    selected: tuple[str, ...]  # the non-seed keywords, in selection order
    result_mask: np.ndarray  # R(terms) over the universe
    eliminated_share: float  # achieved share of S(U) eliminated, in [0, 1]


class _EliminationState:
    """Shared bookkeeping: current R(q), its eliminated share of S(U)."""

    def __init__(self, task: ExpansionTask) -> None:
        if task.semantics != AND:
            raise ExpansionError("partial elimination is defined for AND semantics")
        self.task = task
        self.uni = task.universe
        self.inc = task.incidence
        self.other = task.other_mask
        self.rows: list[int] = []  # selected candidate rows, in order
        self.chosen = np.zeros(len(task.candidates), dtype=bool)
        self.seed_mask = self.uni.results_mask(task.seed_terms, semantics=AND)
        self.total_u = task.other_weight()
        self._set_mask(self.seed_mask)
        self.missing_by_result = self.inc.missing.T.copy()  # row r: ~H[:, r]
        self._w_other = np.where(task.cluster_mask, 0.0, self.uni.weights)
        self._w_cluster = np.where(task.cluster_mask, self.uni.weights, 0.0)
        self._scored: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def _set_mask(self, mask: np.ndarray) -> None:
        self.mask = mask
        if self.total_u <= 0.0:
            self.share = 0.0
        else:
            remaining = self.uni.weight_of(mask & self.other)
            self.share = (self.total_u - remaining) / self.total_u

    def scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate's value and elimination count, once per R(q) of a task."""
        key = self.mask.tobytes()
        if key not in self._scored:
            missing, mask = self.inc.missing_float, self.mask
            # ~H @ (w·U·R) = (elim & U) @ w, same bits; a row subset need not be.
            benefits = missing @ (self._w_other * mask)
            costs = missing @ (self._w_cluster * mask)
            counts = missing @ mask.astype(np.float64)
            self._scored[key] = (value_ratios(benefits, costs), counts)
        return self._scored[key]

    def eliminations(self) -> np.ndarray:
        """Row k: the results adding candidate k would eliminate now."""
        return self.inc.missing & self.mask

    def add(self, row: int) -> None:
        self.rows.append(row)
        self.chosen[row] = True
        self._set_mask(self.mask & self.inc.has[row])

    def undo_last(self) -> None:
        self.chosen[self.rows.pop()] = False
        self._set_mask(self.seed_mask & self.inc.has[self.rows].all(axis=0))

    def finish(self) -> SampleQuery:
        selected = tuple(self.task.candidates[row] for row in self.rows)
        return SampleQuery(
            terms=tuple(self.task.seed_terms) + selected,
            selected=selected,
            result_mask=self.mask.copy(),
            eliminated_share=self.share,
        )

    def take(self, row: int | None, target_share: float) -> bool:
        """Add candidate ``row`` (``None``: nothing eligible); True to stop.

        Once the target is crossed the keyword stays only if that leaves
        the share closer to the target (§4.3's stop rule).
        """
        if row is None:
            return True
        before = self.share
        self.add(row)
        if self.share < target_share:
            return False
        if abs(before - target_share) < abs(self.share - target_share):
            self.undo_last()
        return True


class _Strategy:
    """A sample-query generator: trivial targets keep the seed query."""

    name = ""

    def generate(
        self, task: ExpansionTask, target_share: float, rng: np.random.Generator
    ) -> SampleQuery:
        return self.prepare(task)(target_share, rng)

    def prepare(
        self, task: ExpansionTask
    ) -> Callable[[float, np.random.Generator], SampleQuery]:
        """``sample(target_share, rng)``: copies of one seed state, one memo."""
        seed = _EliminationState(task)

        def sample(target_share: float, rng: np.random.Generator) -> SampleQuery:
            state = copy.copy(seed)
            state.rows, state.chosen = [], seed.chosen.copy()
            if target_share > 0.0 and state.total_u > 0.0:
                self._eliminate(state, min(target_share, 1.0), rng)
            return state.finish()

        return sample

    def _eliminate(
        self, state: _EliminationState, target: float, rng: np.random.Generator
    ) -> None:
        raise NotImplementedError


class SingleResultStrategy(_Strategy):
    """§4.3: select one random uneliminated U result, then the best keyword
    that eliminates it.

    The per-step keyword scan is vectorized over the candidate incidence
    matrix: one matvec pass computes every candidate's benefit, cost and
    elimination count against the current R(q) (:meth:`_EliminationState.scores`).
    """

    name = "single-result"

    def _eliminate(
        self, state: _EliminationState, target: float, rng: np.random.Generator
    ) -> None:
        task, inc = state.task, state.inc
        blocked = task.universe.empty_mask()  # U results no candidate eliminates
        guard = 0
        max_steps = len(task.candidates) + task.universe.n + 1
        while state.share < target and guard < max_steps:
            guard += 1
            pickable = np.flatnonzero(state.mask & state.other & ~blocked)
            if not pickable.size:
                break
            r = int(pickable[rng.integers(pickable.size)])  # = rng.choice(pickable)
            eligible = state.missing_by_result[r] & ~state.chosen
            if not eligible.any():
                blocked[r] = True
                continue
            ratios, counts = state.scores()
            values = np.where(eligible, ratios, -np.inf)
            row = best_row(values, counts, inc.name_rank)
            if row is None:
                blocked[r] = True
            elif state.take(row, target):
                break


class FixedOrderStrategy(_Strategy):
    """§4.1: repeatedly take the globally best benefit/cost keyword.

    Deterministic; the rng argument is accepted for interface uniformity.
    """

    name = "fixed-order"

    def _eliminate(
        self, state: _EliminationState, target: float, rng: np.random.Generator
    ) -> None:
        task = state.task
        while state.share < target:
            elim = state.eliminations()
            benefit, cost, changed = weigh(task.universe, elim, task.other_mask)
            # A keyword eliminating nothing from U is useless here.
            eligible = ~state.chosen & (benefit > 0.0)
            values = np.where(eligible, value_ratios(benefit, cost), -np.inf)
            if state.take(best_row(values, changed, state.inc.name_rank), target):
                break


class RandomSubsetStrategy(_Strategy):
    """§4.2: draw a random ~x% subset S of U, then greedily cover S.

    Keyword score is covered-weight of S divided by cost, where cost counts
    both eliminated C results and eliminated U results *outside* S (the
    benefit/cost adjustment illustrated in Example 4.3).
    """

    name = "random-subset"

    def _eliminate(
        self, state: _EliminationState, target: float, rng: np.random.Generator
    ) -> None:
        task, uni = state.task, state.uni
        subset = self._draw_subset(task, target, rng)
        guard = 0
        while state.share < target and guard <= len(task.candidates):
            guard += 1
            if not (state.mask & subset).any():
                break
            elim = state.eliminations()
            covered = uni.weights_of(elim & subset)
            # S lies in U, so elim \ S splits into all of elim ∩ C and the
            # stray U eliminations outside S.
            lost_c, stray, _ = weigh(uni, elim & ~subset, task.cluster_mask)
            eligible = ~state.chosen & (covered > 0.0)
            values = np.where(eligible, value_ratios(covered, lost_c + stray), -np.inf)
            changed = np.count_nonzero(elim, axis=1)
            if state.take(best_row(values, changed, state.inc.name_rank), target):
                break

    @staticmethod
    def _draw_subset(
        task: ExpansionTask, target_share: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Randomly accumulate U results until ~target_share of S(U)."""
        order = rng.permutation(np.flatnonzero(task.other_mask))
        target_w = target_share * task.other_weight()
        # Weight drawn before each position; cumsum adds left to right.
        drawn = np.cumsum(task.universe.weights[order])
        before = np.concatenate(([0.0], drawn[:-1]))
        subset = task.universe.empty_mask()
        subset[order[: np.count_nonzero(before < target_w)]] = True
        return subset


STRATEGIES = {
    SingleResultStrategy.name: SingleResultStrategy,
    FixedOrderStrategy.name: FixedOrderStrategy,
    RandomSubsetStrategy.name: RandomSubsetStrategy,
}


def make_strategy(name: str):
    """Instantiate a strategy by its paper-section name."""
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ExpansionError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
