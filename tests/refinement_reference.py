"""Reference implementations of the refinement loops, kept as test oracles.

These are the per-keyword loops that ISKR, PEBC's samplers and strategies,
the benefit/cost table and spherical k-means ran before their inner loops
became whole-matrix passes. They live only here: the property tests in
``tests/test_property_refinement.py`` require the shipped kernels to
reproduce them exactly — every outcome field, every ``value_updates``
count and every last float bit.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.kmeans import CosineKMeans, KMeansResult
from repro.core.iskr import ISKR, _Move
from repro.core.keyword_stats import KeywordValue, value_ratio
from repro.core.metrics import precision_recall_f
from repro.core.pebc import PEBC
from repro.core.strategies import SampleQuery
from repro.core.universe import AND, OR, ExpansionOutcome, ExpansionTask


# -- benefit/cost table ------------------------------------------------------


class ReferenceBenefitCostTable:
    """The table rebuilding its own incidence and masks on every call."""

    def __init__(self, universe, candidates, cluster_mask) -> None:
        self._candidates = list(candidates)
        self._H = np.zeros((len(self._candidates), universe.n), dtype=bool)
        for i, kw in enumerate(self._candidates):
            self._H[i] = universe.has_mask(kw)
        self._cluster = np.asarray(cluster_mask, dtype=bool)
        self._other = ~self._cluster
        self._w = universe.weights
        self._benefit = np.zeros(len(self._candidates), dtype=np.float64)
        self._cost = np.zeros(len(self._candidates), dtype=np.float64)
        self._elim_count = np.zeros(len(self._candidates), dtype=np.int64)
        order = sorted(range(len(self._candidates)), key=lambda i: self._candidates[i])
        self._name_rank = np.zeros(len(self._candidates), dtype=np.int64)
        for rank, row in enumerate(order):
            self._name_rank[row] = rank
        self.total_updates = 0

    def refresh_all(self, result_mask):
        rows = np.arange(len(self._candidates))
        self._recompute(rows, result_mask)
        return len(rows)

    def refresh_affected(self, result_mask, delta_mask):
        if not delta_mask.any():
            return 0
        rows = np.flatnonzero(~self._H[:, delta_mask].all(axis=1))
        self._recompute(rows, result_mask)
        return int(rows.size)

    def refresh_keywords(self, keywords, result_mask):
        row_of = {kw: i for i, kw in enumerate(self._candidates)}
        rows = np.array([row_of[k] for k in keywords if k in row_of], dtype=np.int64)
        self._recompute(rows, result_mask)
        return int(rows.size)

    def _recompute(self, rows, result_mask):
        if rows.size == 0:
            return
        elim = (~self._H[rows]) & result_mask[None, :]
        self._benefit[rows] = (elim & self._other[None, :]) @ self._w
        self._cost[rows] = (elim & self._cluster[None, :]) @ self._w
        self._elim_count[rows] = elim.sum(axis=1)
        self.total_updates += int(rows.size)

    def snapshot(self, row):
        return KeywordValue(
            keyword=self._candidates[row],
            benefit=float(self._benefit[row]),
            cost=float(self._cost[row]),
            eliminated=int(self._elim_count[row]),
        )

    def best_addition(self, excluded):
        if not self._candidates:
            return None
        values = self.values_array()
        if excluded:
            mask = np.array([kw in excluded for kw in self._candidates], dtype=bool)
            if mask.all():
                return None
            values = np.where(mask, -np.inf, values)
        order = np.lexsort((self._name_rank, self._elim_count, -values))
        row = int(order[0])
        if values[row] == -np.inf:
            return None
        return self.snapshot(row)

    def values_array(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self._benefit <= 0.0,
                0.0,
                np.where(self._cost <= 0.0, np.inf, self._benefit / self._cost),
            )


# -- ISKR ----------------------------------------------------------------------


class ReferenceISKR(ISKR):
    """ISKR re-deriving R(q \\ k) per removal and looping over candidates."""

    def _expand_and(self, task: ExpansionTask) -> ExpansionOutcome:
        uni = task.universe
        table = ReferenceBenefitCostTable(uni, task.candidates, task.cluster_mask)
        added: list[str] = []
        q_mask = uni.results_mask(task.seed_terms, semantics=AND)
        table.refresh_all(q_mask)
        trace: list[str] = []
        seen_states = {frozenset()}
        iterations = 0
        while iterations < self._max_iterations:
            moves = []
            best_add = table.best_addition(excluded=set(added))
            if best_add is not None:
                moves.append(
                    _Move("add", best_add.keyword, best_add.benefit, best_add.cost,
                          best_add.eliminated)
                )
            if self._allow_removal:
                for kw in added:
                    rest = [k for k in added if k != kw]
                    regained = self._mask_for(task, rest) & ~q_mask
                    moves.append(
                        _Move(
                            "remove",
                            kw,
                            uni.weight_of(regained & task.cluster_mask),
                            uni.weight_of(regained & task.other_mask),
                            int(regained.sum()),
                        )
                    )
            move = min(moves, key=_Move.sort_key) if moves else None
            if move is None or move.value <= 1.0:
                break
            if move.kind == "add":
                new_added = added + [move.keyword]
                new_mask = q_mask & uni.has_mask(move.keyword)
                delta = q_mask & ~new_mask
            else:
                new_added = [k for k in added if k != move.keyword]
                new_mask = self._mask_for(task, new_added)
                delta = new_mask & ~q_mask
            state = frozenset(new_added)
            if state in seen_states:
                break
            seen_states.add(state)
            added = new_added
            q_mask = new_mask
            iterations += 1
            trace.append(("+" if move.kind == "add" else "-") + move.keyword)
            table.refresh_affected(q_mask, delta)
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

    @staticmethod
    def _mask_for(task, added):
        return task.universe.results_mask(
            tuple(task.seed_terms) + tuple(added), semantics=AND
        )

    def _expand_or(self, task: ExpansionTask) -> ExpansionOutcome:
        uni = task.universe
        selected: list[str] = []
        q_mask = uni.empty_mask()
        trace: list[str] = []
        seen_states = {frozenset()}
        iterations = 0
        value_updates = 0
        while iterations < self._max_iterations:
            moves = []
            for kw in task.candidates:
                if kw in selected:
                    continue
                gained = ~q_mask & uni.has_mask(kw)
                benefit = uni.weight_of(gained & task.cluster_mask)
                cost = uni.weight_of(gained & task.other_mask)
                moves.append(_Move("add", kw, benefit, cost, int(gained.sum())))
                value_updates += 1
            removable = selected if len(selected) > 1 else []
            for kw in removable:
                rest = tuple(k for k in selected if k != kw)
                lost = q_mask & ~uni.results_mask(rest, semantics=OR)
                benefit = uni.weight_of(lost & task.other_mask)
                cost = uni.weight_of(lost & task.cluster_mask)
                moves.append(_Move("remove", kw, benefit, cost, int(lost.sum())))
                value_updates += 1
            if not moves:
                break
            move = min(moves, key=_Move.sort_key)
            if move.value <= 1.0:
                if selected:
                    break
                useful = [m for m in moves if m.kind == "add" and m.benefit > 0.0]
                if not useful:
                    break
                move = min(useful, key=_Move.sort_key)
            if move.kind == "add":
                selected.append(move.keyword)
            else:
                selected.remove(move.keyword)
            state = frozenset(selected)
            if state in seen_states:
                break
            seen_states.add(state)
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


# -- PEBC strategies -----------------------------------------------------------


class _ReferenceState:
    """Elimination bookkeeping over per-keyword has-masks."""

    def __init__(self, task: ExpansionTask) -> None:
        self.task = task
        self.uni = task.universe
        self.selected: list[str] = []
        self.mask = self.uni.results_mask(task.seed_terms, semantics=AND)
        self.total_u = task.other_weight()

    def share(self) -> float:
        if self.total_u <= 0.0:
            return 0.0
        remaining = self.uni.weight_of(self.mask & self.task.other_mask)
        return (self.total_u - remaining) / self.total_u

    def add(self, keyword: str) -> None:
        self.selected.append(keyword)
        self.mask = self.mask & self.uni.has_mask(keyword)

    def stop_rule(self, target: float, before: float) -> bool:
        if abs(before - target) < abs(self.share() - target):
            self.selected.pop()
            terms = tuple(self.task.seed_terms) + tuple(self.selected)
            self.mask = self.uni.results_mask(terms, semantics=AND)
            return True
        return False

    def finish(self) -> SampleQuery:
        return SampleQuery(
            terms=tuple(self.task.seed_terms) + tuple(self.selected),
            selected=tuple(self.selected),
            result_mask=self.mask.copy(),
            eliminated_share=self.share(),
        )


def reference_single_result(task, target_share, rng):
    state = _ReferenceState(task)
    if target_share <= 0.0 or state.total_u <= 0.0:
        return state.finish()
    target_share = min(target_share, 1.0)
    uni = task.universe
    candidates = task.candidates
    not_h = ~uni.incidence_rows(list(candidates))
    weights = uni.weights
    other = task.other_mask
    cluster = task.cluster_mask
    name_rank = np.argsort(np.argsort(np.array(candidates)))
    selected_rows = np.zeros(len(candidates), dtype=bool)
    blocked: set[int] = set()
    guard = 0
    max_steps = len(candidates) + uni.n + 1
    while state.share() < target_share and guard < max_steps:
        guard += 1
        remaining = np.flatnonzero(state.mask & task.other_mask)
        pickable = [int(i) for i in remaining if int(i) not in blocked]
        if not pickable:
            break
        r = int(rng.choice(np.asarray(pickable)))
        eligible = not_h[:, r] & ~selected_rows
        if not eligible.any():
            blocked.add(r)
            continue
        elim = not_h & state.mask[None, :]
        benefits = (elim & other[None, :]) @ weights
        costs = (elim & cluster[None, :]) @ weights
        counts = elim.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(
                benefits <= 0.0, 0.0, np.where(costs <= 0.0, np.inf, benefits / costs)
            )
        values = np.where(eligible, values, -np.inf)
        row = int(np.lexsort((name_rank, counts, -values))[0])
        if values[row] == -np.inf:
            blocked.add(r)
            continue
        before = state.share()
        state.add(candidates[row])
        selected_rows[row] = True
        if state.share() >= target_share:
            if state.stop_rule(target_share, before):
                selected_rows[row] = False
            break
    return state.finish()


def reference_fixed_order(task, target_share, rng):
    state = _ReferenceState(task)
    if target_share <= 0.0 or state.total_u <= 0.0:
        return state.finish()
    target_share = min(target_share, 1.0)
    uni = task.universe
    while state.share() < target_share:
        best_kw = ""
        best_key = None
        for kw in task.candidates:
            if kw in state.selected:
                continue
            elim = state.mask & ~uni.has_mask(kw)
            benefit = uni.weight_of(elim & task.other_mask)
            cost = uni.weight_of(elim & task.cluster_mask)
            if benefit <= 0.0:
                continue
            key = (-value_ratio(benefit, cost), int(elim.sum()), kw)
            if best_key is None or key < best_key:
                best_key, best_kw = key, kw
        if best_key is None:
            break
        before = state.share()
        state.add(best_kw)
        if state.share() >= target_share:
            state.stop_rule(target_share, before)
            break
    return state.finish()


def reference_random_subset(task, target_share, rng):
    state = _ReferenceState(task)
    if target_share <= 0.0 or state.total_u <= 0.0:
        return state.finish()
    target_share = min(target_share, 1.0)
    uni = task.universe
    order = rng.permutation(np.flatnonzero(task.other_mask))
    target_w = target_share * task.other_weight()
    subset = uni.empty_mask()
    acc = 0.0
    for pos in order:
        if acc >= target_w:
            break
        subset[pos] = True
        acc += float(uni.weights[pos])
    guard = 0
    while state.share() < target_share and guard <= len(task.candidates):
        guard += 1
        if not (state.mask & subset).any():
            break
        best_kw = ""
        best_key = None
        for kw in task.candidates:
            if kw in state.selected:
                continue
            elim = state.mask & ~uni.has_mask(kw)
            covered = uni.weight_of(elim & subset)
            if covered <= 0.0:
                continue
            stray = uni.weight_of(elim & task.other_mask & ~subset)
            cost = uni.weight_of(elim & task.cluster_mask) + stray
            key = (-value_ratio(covered, cost), int(elim.sum()), kw)
            if best_key is None or key < best_key:
                best_key, best_kw = key, kw
        if best_key is None:
            break
        before = state.share()
        state.add(best_kw)
        if state.share() >= target_share:
            state.stop_rule(target_share, before)
            break
    return state.finish()


REFERENCE_STRATEGIES = {
    "single-result": reference_single_result,
    "fixed-order": reference_fixed_order,
    "random-subset": reference_random_subset,
}


class ReferencePEBC(PEBC):
    """PEBC whose sample queries come from the reference loops above."""

    def __init__(self, strategy: str = "single-result", **kwargs) -> None:
        super().__init__(strategy=strategy, **kwargs)
        self._reference = REFERENCE_STRATEGIES[strategy]

    def _and_sampler(self, task):
        rng = np.random.default_rng(self._seed)
        return lambda fraction: self._reference(task, fraction, rng)

    def _or_sampler(self, task):
        uni = task.universe
        rng = np.random.default_rng(self._seed)
        cluster_weight = task.cluster_weight()

        def generate(fraction):
            target = fraction * cluster_weight
            selected: list[str] = []
            covered = uni.empty_mask()
            blocked: set[int] = set()
            prev_gap = abs(uni.weight_of(covered & task.cluster_mask) - target)
            while True:
                if uni.weight_of(covered & task.cluster_mask) >= target:
                    break
                open_positions = [
                    int(p)
                    for p in np.nonzero(task.cluster_mask & ~covered)[0]
                    if int(p) not in blocked
                ]
                if not open_positions:
                    break
                pick = open_positions[int(rng.integers(len(open_positions)))]
                best_kw = None
                best_key = None
                for kw in task.candidates:
                    if kw in selected or not uni.has_mask(kw)[pick]:
                        continue
                    gained = ~covered & uni.has_mask(kw)
                    benefit = uni.weight_of(gained & task.cluster_mask)
                    cost = uni.weight_of(gained & task.other_mask)
                    ratio = benefit / cost if cost > 0 else np.inf
                    key = (-ratio, int(gained.sum()), kw)
                    if best_key is None or key < best_key:
                        best_key, best_kw = key, kw
                if best_kw is None:
                    blocked.add(pick)
                    continue
                with_kw = covered | uni.has_mask(best_kw)
                new_gap = abs(uni.weight_of(with_kw & task.cluster_mask) - target)
                if (
                    uni.weight_of(with_kw & task.cluster_mask) >= target
                    and new_gap > prev_gap
                ):
                    break
                selected.append(best_kw)
                covered = with_kw
                prev_gap = new_gap
            mask = uni.results_mask(tuple(selected), semantics=OR)
            achieved = (
                uni.weight_of(mask & task.cluster_mask) / cluster_weight
                if cluster_weight > 0
                else 0.0
            )
            return SampleQuery(
                terms=tuple(task.seed_terms) + tuple(selected),
                selected=tuple(selected),
                result_mask=mask,
                eliminated_share=achieved,
            )

        return generate


# -- k-means -------------------------------------------------------------------


def reference_run_once(kmeans: CosineKMeans, matrix, k, rng) -> KMeansResult:
    """One seeded Lloyd run with a boolean gather, ``.mean`` and
    ``linalg.norm`` per cluster."""
    centroids = kmeans._seed_centroids(matrix, k, rng)
    labels = np.zeros(matrix.shape[0], dtype=np.int64)
    iterations = 0
    for iterations in range(1, kmeans._max_iter + 1):
        new_labels = np.argmax(matrix @ centroids.T, axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            members = matrix[new_labels == c]
            if members.shape[0] == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0:
                new_centroids[c] = mean / norm
        if np.array_equal(new_labels, labels) and iterations > 1:
            centroids = new_centroids
            break
        labels = new_labels
        centroids = new_centroids
    used = np.unique(labels)
    remap = {int(old): new for new, old in enumerate(used)}
    labels = np.array([remap[int(lab)] for lab in labels], dtype=np.int64)
    centroids = centroids[used]
    sims = matrix @ centroids.T
    inertia = float(matrix.shape[0] - sims[np.arange(matrix.shape[0]), labels].sum())
    return KMeansResult(
        labels=labels, centroids=centroids, inertia=inertia, iterations=iterations
    )
