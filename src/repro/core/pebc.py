"""Partial Elimination Based Convergence (PEBC, §4 / Algorithm 2).

Treat the F-measure as an unknown function of "how much of U the query
eliminates". Sample that axis at several percentages, generate one sample
query per percentage with a partial-elimination strategy (§4.3 by default),
then zoom into the adjacent pair of sample points with the highest average
F-measure and repeat. The best query seen anywhere is returned — the
iteration refines the search but never forgets a good sample.

The paper's experimental setup uses 3 points per iteration and 3 iterations
(§C); both are constructor parameters here.
"""

from __future__ import annotations

import numpy as np

from repro.core.keyword_stats import best_row, weigh
from repro.core.metrics import precision_recall_f
from repro.core.strategies import SampleQuery, make_strategy
from repro.core.universe import AND, OR, ExpansionOutcome, ExpansionTask
from repro.errors import ExpansionError


class PEBC:
    """The paper's second expansion algorithm.

    Parameters
    ----------
    n_segments:
        Number of intervals each iteration's range is split into; the
        iteration tests ``n_segments + 1`` points. Paper §C tests 3 points
        per iteration, i.e. ``n_segments=2``.
    n_iterations:
        Zoom-in rounds (paper §C: 3).
    strategy:
        Sample-query generation strategy: ``"single-result"`` (§4.3,
        default), ``"fixed-order"`` (§4.1) or ``"random-subset"`` (§4.2).
    seed:
        RNG seed for the randomized strategies; fixed seed → fixed output.
    """

    name = "PEBC"

    def __init__(
        self,
        n_segments: int = 2,
        n_iterations: int = 3,
        strategy: str = "single-result",
        seed: int = 0,
    ) -> None:
        if n_segments < 1:
            raise ExpansionError(f"n_segments must be >= 1, got {n_segments}")
        if n_iterations < 1:
            raise ExpansionError(f"n_iterations must be >= 1, got {n_iterations}")
        self._n_segments = n_segments
        self._n_iterations = n_iterations
        self._strategy = make_strategy(strategy)
        self._seed = seed

    def expand(self, task: ExpansionTask) -> ExpansionOutcome:
        if task.semantics == AND:
            return self._converge(task, self._and_sampler(task))
        if task.semantics == OR:
            return self._converge(task, self._or_sampler(task))
        raise ExpansionError(f"unknown semantics: {task.semantics!r}")

    # -- sample-query generators -------------------------------------------

    def _and_sampler(self, task: ExpansionTask):
        """AND semantics (§4): eliminate ~x% of U via the chosen strategy."""
        rng = np.random.default_rng(self._seed)
        sample = self._strategy.prepare(task)
        return lambda fraction: sample(fraction, rng)

    def _or_sampler(self, task: ExpansionTask):
        """OR semantics (paper appendix): the mirror image of §4.3.

        A sample query at x covers ~x% of the cluster's weight: repeatedly
        pick a random uncovered cluster result, then the candidate keyword
        containing it with the best (gained C weight) / (gained U weight)
        ratio, fewest-gained tie-break — exactly the single-result
        procedure with retrieval and elimination swapped.
        """
        uni = task.universe
        inc = task.incidence
        cluster = task.cluster_mask
        rng = np.random.default_rng(self._seed)
        cluster_weight = task.cluster_weight()

        def generate(fraction: float) -> SampleQuery:
            target = fraction * cluster_weight
            rows: list[int] = []  # selected candidate rows, in order
            chosen = np.zeros(len(task.candidates), dtype=bool)
            covered = uni.empty_mask()
            blocked = uni.empty_mask()  # cluster results no candidate contains
            prev_gap = abs(uni.weight_of(covered & cluster) - target)
            while uni.weight_of(covered & cluster) < target:
                open_positions = np.flatnonzero(cluster & ~covered & ~blocked)
                if not open_positions.size:
                    break
                pick = open_positions[int(rng.integers(open_positions.size))]
                eligible = np.flatnonzero(inc.has[:, pick] & ~chosen)
                gained = inc.has[eligible] & ~covered
                benefit, cost, changed = weigh(uni, gained, cluster)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(cost > 0, benefit / cost, np.inf)
                best = best_row(ratio, changed, inc.name_rank[eligible])
                if best is None:
                    blocked[pick] = True
                    continue
                row = int(eligible[best])
                with_kw = covered | inc.has[row]
                with_c = uni.weight_of(with_kw & cluster)
                new_gap = abs(with_c - target)
                # §4.3's closing rule, mirrored: keep the last keyword only
                # if it lands closer to the target coverage.
                if with_c >= target and new_gap > prev_gap:
                    break
                rows.append(row)
                chosen[row] = True
                covered = with_kw
                prev_gap = new_gap
            selected = tuple(task.candidates[row] for row in rows)
            achieved = (
                uni.weight_of(covered & cluster) / cluster_weight
                if cluster_weight > 0
                else 0.0
            )
            return SampleQuery(
                terms=tuple(task.seed_terms) + selected,
                selected=selected,
                result_mask=covered,
                eliminated_share=achieved,  # here: covered share of S(C)
            )

        return generate

    # -- the convergence loop -------------------------------------------------

    def _converge(self, task: ExpansionTask, generate) -> ExpansionOutcome:
        uni = task.universe
        cache: dict[float, tuple[SampleQuery, float]] = {}
        evaluations = 0

        def sample_at(x: float) -> tuple[SampleQuery, float]:
            nonlocal evaluations
            x = round(x, 9)
            if x not in cache:
                sq = generate(x / 100.0)
                _, _, f = precision_recall_f(uni, sq.result_mask, task.cluster_mask)
                cache[x] = (sq, f)
                evaluations += 1
            return cache[x]

        left, right = 0.0, 100.0
        best_sq, best_f = sample_at(0.0)
        trace: list[str] = []
        iterations_done = 0
        for _ in range(self._n_iterations):
            xs = np.linspace(left, right, self._n_segments + 1)
            points: list[tuple[float, SampleQuery, float]] = []
            for x in xs:
                sq, f = sample_at(float(x))
                points.append((float(x), sq, f))
                if f > best_f:
                    best_sq, best_f = sq, f
            iterations_done += 1
            trace.append(
                "it%d [%.1f,%.1f]: " % (iterations_done, left, right)
                + " ".join("%.0f%%→F=%.3f" % (x, f) for x, _, f in points)
            )
            # Zoom into the adjacent pair with the highest average F.
            best_pair = max(
                range(len(points) - 1),
                key=lambda i: (points[i][2] + points[i + 1][2]) / 2.0,
            )
            left, right = points[best_pair][0], points[best_pair + 1][0]
            if right - left < 1e-6:
                break

        precision, recall, f = precision_recall_f(
            uni, best_sq.result_mask, task.cluster_mask
        )
        return ExpansionOutcome(
            terms=best_sq.terms,
            fmeasure=f,
            precision=precision,
            recall=recall,
            iterations=iterations_done,
            value_updates=evaluations,
            trace=tuple(trace),
            cluster_id=task.cluster_id,
        )
