"""The built-in pipeline stages (the paper's method, one step per stage).

Each stage is a small, stateless object with a ``name`` and a
``run(ctx) -> ctx`` that reads artifacts and runtime components off the
:class:`~repro.pipeline.context.ExecutionContext` and returns an evolved
context. Statelessness is what lets one stage object be shared by every
call site (sessions, the compat expander, the interleaved loop, the
experiment suite) and across threads.

Default order (see :func:`repro.pipeline.default_pipeline`):

==============  ==========================================================
``retrieve``    seed-query search (AND semantics, ranked, top-k)
``cluster``     build the results' term counts; cluster over TF vectors
``universe``    the (optionally ranking-weighted) result universe
``candidates``  candidate-keyword mining (top-fraction TF-IDF)
``tasks``       one :class:`ExpansionTask` per cluster, largest first,
                all sharing one candidate incidence
``expand``      run the expansion algorithm per task; Eq. 1 score
==============  ==========================================================

plus ``reassign`` (not in the default pipeline), the §7 interleaving
step that moves each result to the best-F expanded query claiming it.

``cluster`` builds the results' :class:`~repro.core.universe.TermCounts`
once and leaves it on the context as ``counts``; ``universe`` reuses it.
Either stage run without it builds it from ``ctx.results``.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.cluster.kmeans import CosineKMeans
from repro.core.keyword_stats import select_candidates
from repro.core.metrics import eq1_score
from repro.core.universe import ExpansionTask, ResultUniverse, TermCounts
from repro.errors import ExpansionError, PipelineError
from repro.obs.tracing import current_span
from repro.pipeline.context import ExecutionContext


def _term_counts(ctx: ExecutionContext) -> TermCounts:
    """The context's ``counts`` artifact, or a fresh build over its results."""
    docs = tuple(r.document for r in ctx.results)
    if ctx.counts is not None and ctx.counts.documents == docs:
        return ctx.counts
    return TermCounts(docs)


@dataclass(eq=False, slots=True)
class Analysis:
    """A result set's labels and candidates, shared by every algorithm run."""

    labels: np.ndarray
    candidates: tuple[str, ...] | None = None


def _analysis_key(ctx: ExecutionContext, documents: Sequence[Any]) -> tuple:
    """What a result set's labels and candidates depend on; no algorithm."""
    try:  # clusterers are built per call: key on their class and settings
        clusterer: Any = pickle.dumps(ctx.clusterer)
    except (pickle.PicklingError, TypeError, AttributeError):
        clusterer = ctx.clusterer  # unpicklable: equal only to itself
    ids = tuple(doc.doc_id for doc in documents)
    return (ctx.generation, ctx.seed_terms, ids, ctx.config, clusterer)


class RetrieveStage:
    """Run the seed query: ranked AND retrieval of the configured top-k."""

    name = "retrieve"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        # Read before searching: results that straddle an ingest then
        # carry the older generation, which no later run looks up.
        generation = getattr(ctx.engine.index, "generation", None)
        results = ctx.engine.search(ctx.query, top_k=ctx.config.top_k_results)
        if not results:
            raise ExpansionError(
                f"seed query {ctx.query!r} retrieved no results"
            )
        return ctx.evolve(
            generation=generation,
            results=tuple(results),
            seed_terms=tuple(ctx.engine.parse(ctx.query)),
        )


class ClusterStage:
    """Cluster the results into <= k clusters over TF vectors (§C).

    With an analysis cache, results already clustered at this generation
    reuse their :class:`Analysis` (span tag ``analysis=hit|miss``).
    """

    name = "cluster"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        counts = _term_counts(ctx)
        cache = ctx.analysis_cache
        key = None if cache is None else _analysis_key(ctx, counts.documents)
        analysis = None if key is None else cache.get(key)
        stage_span = current_span()
        if stage_span is not None and stage_span.name == "stage.cluster":
            stage_span.set_attr("analysis", "miss" if analysis is None else "hit")
        if analysis is None:
            analysis = Analysis(self._fit(ctx, counts.tf_matrix()))
            if key is not None:
                analysis.labels.flags.writeable = False  # shared by every hit
                cache[key] = analysis
        return ctx.evolve(labels=analysis.labels, counts=counts, analysis=analysis)

    @staticmethod
    def _fit(ctx: ExecutionContext, matrix: np.ndarray) -> np.ndarray:
        if ctx.clusterer is None:
            kmeans = CosineKMeans(
                n_clusters=ctx.config.n_clusters, seed=ctx.config.cluster_seed
            )
            labels = kmeans.fit(matrix).labels
        else:
            labels = ctx.clusterer.fit_predict(matrix)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (len(ctx.results),):
            raise ExpansionError(
                f"clusterer returned labels of shape {labels.shape} "
                f"for {len(ctx.results)} results"
            )
        return labels


class UniverseStage:
    """Build the result universe, weighted by ranking scores if configured."""

    name = "universe"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        counts = _term_counts(ctx)
        weights: np.ndarray | None = None
        if ctx.config.use_ranking_weights:
            # Guard against zero scores (can happen only for degenerate
            # scorers); shift into positive territory.
            raw = np.array([r.score for r in ctx.results], dtype=np.float64)
            floor = raw[raw > 0.0].min() * 0.5 if np.any(raw > 0.0) else 1.0
            weights = np.maximum(raw, floor)
        universe = ResultUniverse(list(counts.documents), weights, counts=counts)
        return ctx.evolve(universe=universe, counts=counts)


class CandidateStage:
    """Mine candidate expansion keywords (top-fraction TF-IDF).

    The first run fills them in on the ``cluster`` stage's analysis, so
    later algorithms on the same results reuse them (a racing
    double-compute stores equal values).
    """

    name = "candidates"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        analysis = ctx.analysis
        if analysis is not None and analysis.candidates is not None:
            return ctx.evolve(candidates=analysis.candidates)
        candidates = select_candidates(
            ctx.engine.index,
            ctx.universe,
            ctx.seed_terms,
            fraction=ctx.config.candidate_fraction,
            min_candidates=ctx.config.min_candidates,
        )
        if analysis is not None:
            analysis.candidates = candidates
        return ctx.evolve(candidates=candidates)


class TasksStage:
    """One :class:`ExpansionTask` per cluster, largest-weight first."""

    name = "tasks"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        if ctx.candidates is None:
            raise PipelineError(
                "stage 'tasks' needs ctx.candidates; run the 'candidates' "
                "stage first (or set candidates on the context)"
            )
        labels = ctx.labels
        tasks: list[ExpansionTask] = []
        for cid in sorted(set(int(lab) for lab in labels)):
            tasks.append(
                ExpansionTask(
                    universe=ctx.universe,
                    cluster_mask=labels == cid,
                    seed_terms=ctx.seed_terms,
                    candidates=ctx.candidates,
                    semantics=ctx.config.semantics,
                    cluster_id=cid,
                    # The first task's candidate incidence serves them all.
                    incidence=tasks[0].incidence if tasks else None,
                )
            )
        tasks.sort(key=lambda t: -t.cluster_weight())
        return ctx.evolve(
            tasks=tuple(tasks[: ctx.config.max_expanded_queries])
        )


class ExpandStage:
    """Run the expansion algorithm on every task; compute the Eq. 1 score."""

    name = "expand"

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        from repro.core.expander import ExpandedQuery

        expanded = []
        for task in ctx.tasks:
            outcome = ctx.algorithm.expand(task)
            expanded.append(
                ExpandedQuery(
                    terms=outcome.terms,
                    cluster_id=task.cluster_id,
                    cluster_size=int(task.cluster_mask.sum()),
                    fmeasure=outcome.fmeasure,
                    precision=outcome.precision,
                    recall=outcome.recall,
                    outcome=outcome,
                )
            )
        score = eq1_score([eq.fmeasure for eq in expanded])
        return ctx.evolve(expanded=tuple(expanded), score=score)


class ReassignStage:
    """§7 interleaving: move each result to the best-F query claiming it.

    Queries claim results in decreasing F-measure order; a result no
    query retrieves keeps its cluster, as do results of clusters that
    were truncated away by ``max_expanded_queries``. Writes the moved
    count to ``ctx.extras["n_moved"]``.
    """

    name = "reassign"

    @staticmethod
    def reassign(
        universe: ResultUniverse,
        labels: np.ndarray,
        tasks: "Sequence[ExpansionTask]",
        outcomes: "Sequence[Any]",
    ) -> "tuple[np.ndarray, int]":
        """Core reassignment: ``(new_labels, n_moved)`` from one round."""
        new_labels = labels.copy()
        order = sorted(range(len(tasks)), key=lambda i: -outcomes[i].fmeasure)
        claimed = universe.empty_mask()
        for i in order:
            mask = universe.results_mask(
                outcomes[i].terms, semantics=tasks[i].semantics
            )
            take = mask & ~claimed
            new_labels[take] = tasks[i].cluster_id
            claimed |= mask
        moved = int((new_labels != labels).sum())
        return new_labels, moved

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        new_labels, moved = self.reassign(
            ctx.universe,
            ctx.labels,
            ctx.tasks,
            [eq.outcome for eq in ctx.expanded],
        )
        return ctx.evolve(labels=new_labels).with_extra("n_moved", moved)


def default_stages() -> tuple:
    """Fresh instances of the default stage sequence."""
    return (
        RetrieveStage(),
        ClusterStage(),
        UniverseStage(),
        CandidateStage(),
        TasksStage(),
        ExpandStage(),
    )
