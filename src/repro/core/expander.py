"""End-to-end expansion: search → cluster → one expanded query per cluster.

This is the library's main entry point. Given a search engine, a seed
query, and a granularity k, it retrieves the (optionally top-k) results,
clusters them with a pluggable backend (k-means over TF vectors by default,
§C), builds one :class:`~repro.core.universe.ExpansionTask` per cluster, and
runs the configured expansion algorithm on each.

Since the pipeline redesign, :class:`ClusterQueryExpander` is a thin
binding of runtime components (engine, algorithm, config, clusterer,
caches) to a :class:`~repro.pipeline.Pipeline` of stage objects — every
step method executes the same stage instances that ``expand`` runs, and
per-stage wall clock is recorded by ``Pipeline.run`` itself
(``ExpansionReport.stage_timings``), retrieval included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from repro.core.config import ExpansionConfig
from repro.core.universe import ExpansionOutcome, ExpansionTask, ResultUniverse
from repro.errors import ExpansionError
from repro.index.search import SearchEngine, SearchResult

if TYPE_CHECKING:  # pragma: no cover — lazy at runtime (import cycle)
    from repro.pipeline import ExecutionContext, Pipeline, StageTiming


class ExpansionAlgorithm(Protocol):
    """Anything with a ``name`` and an ``expand(task) -> ExpansionOutcome``."""

    name: str

    def expand(self, task: ExpansionTask) -> ExpansionOutcome:  # pragma: no cover
        ...


class ClusteringBackend(Protocol):
    """Anything that maps a row matrix to integer labels."""

    def fit_predict(self, matrix: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


@dataclass(frozen=True)
class ExpandedQuery:
    """One expanded query with its per-cluster quality measures."""

    terms: tuple[str, ...]
    cluster_id: int
    cluster_size: int
    fmeasure: float
    precision: float
    recall: float
    outcome: ExpansionOutcome

    def display(self) -> str:
        """Human-readable form, feature triplets kept verbatim."""
        return ", ".join(self.terms)

    def to_dict(self) -> dict:
        """JSON-ready form (see repro.api.schema for the schema contract)."""
        from repro.api import schema

        return schema.expanded_query_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "ExpandedQuery":
        """Inverse of :meth:`to_dict`."""
        from repro.api import schema

        return schema.expanded_query_from_dict(payload)


@dataclass(frozen=True)
class ExpansionReport:
    """Everything produced for one seed query."""

    seed_query: str
    seed_terms: tuple[str, ...]
    expanded: tuple[ExpandedQuery, ...]
    score: float  # Eq. 1 over the returned expanded queries
    n_results: int
    n_clusters: int
    cluster_labels: tuple[int, ...]
    clustering_seconds: float
    expansion_seconds: float
    results: tuple[SearchResult, ...] = field(default_factory=tuple, repr=False)
    #: Per-stage wall clock, execution order (schema v2; empty for v1 payloads).
    stage_timings: tuple["StageTiming", ...] = field(default_factory=tuple)

    def queries(self) -> list[str]:
        return [eq.display() for eq in self.expanded]

    @property
    def retrieval_seconds(self) -> float:
        """Seconds spent in the retrieve stage (0.0 for legacy payloads)."""
        return sum(t.seconds for t in self.stage_timings if t.stage == "retrieve")

    def to_dict(self) -> dict:
        """Versioned JSON envelope (``schema_version``; repro.api.schema)."""
        from repro.api import schema

        return schema.report_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "ExpansionReport":
        """Inverse of :meth:`to_dict`; rejects unsupported versions."""
        from repro.api import schema

        return schema.report_from_dict(payload)


def report_from_context(ctx: "ExecutionContext") -> ExpansionReport:
    """Assemble the :class:`ExpansionReport` from a completed pipeline run.

    The legacy coarse timing fields are derived from the per-stage
    timings: ``clustering_seconds`` is the ``cluster`` stage,
    ``expansion_seconds`` covers candidate mining, task construction, and
    the per-cluster expansion (what the pre-pipeline code timed as one
    block).
    """
    return ExpansionReport(
        seed_query=ctx.query,
        seed_terms=ctx.seed_terms,
        expanded=tuple(ctx.expanded),
        score=float(ctx.score),
        n_results=len(ctx.results),
        n_clusters=len(set(int(lab) for lab in ctx.labels)),
        cluster_labels=tuple(int(lab) for lab in ctx.labels),
        clustering_seconds=ctx.seconds_for("cluster"),
        expansion_seconds=(
            ctx.seconds_for("candidates")
            + ctx.seconds_for("tasks")
            + ctx.seconds_for("expand")
        ),
        results=tuple(ctx.results),
        stage_timings=ctx.timings,
    )


class ClusterQueryExpander:
    """Cluster-then-expand query expansion (the paper's framework).

    Parameters
    ----------
    engine:
        The search substrate over the corpus.
    algorithm:
        The per-cluster expansion algorithm (ISKR, PEBC, or the delta-F
        variant), or its name in :data:`repro.api.ALGORITHMS`.
    config:
        Pipeline knobs; see :class:`~repro.core.config.ExpansionConfig`.
    clusterer:
        Optional clustering backend override (must provide ``fit_predict``),
        or its name in :data:`repro.api.CLUSTERERS`.
    analysis_cache:
        Optional mutable mapping memoizing each result set's labels and
        candidates per index generation; :class:`repro.api.Session`
        passes one so every algorithm on a seed query clusters once.
    pipeline:
        Optional :class:`~repro.pipeline.Pipeline` override (custom or
        reordered stages). Defaults to
        :func:`repro.pipeline.default_pipeline`.
    """

    def __init__(
        self,
        engine: SearchEngine,
        algorithm: ExpansionAlgorithm | str,
        config: ExpansionConfig | None = None,
        clusterer: ClusteringBackend | str | None = None,
        analysis_cache: dict | None = None,
        pipeline: "Pipeline | None" = None,
    ) -> None:
        self._engine = engine
        self._config = config or ExpansionConfig()
        if isinstance(algorithm, str):
            from repro.api.registries import ALGORITHMS

            algorithm = ALGORITHMS.create(
                algorithm, seed=self._config.cluster_seed
            )
        self._algorithm = algorithm
        if isinstance(clusterer, str):
            from repro.api.registries import CLUSTERERS

            clusterer = CLUSTERERS.create(
                clusterer,
                self._config.n_clusters,
                seed=self._config.cluster_seed,
            )
        self._clusterer = clusterer
        self._analysis_cache = analysis_cache
        if pipeline is None:
            from repro.pipeline import default_pipeline

            pipeline = default_pipeline()
        self._pipeline = pipeline

    @property
    def config(self) -> ExpansionConfig:
        return self._config

    @property
    def algorithm(self) -> ExpansionAlgorithm:
        return self._algorithm

    @property
    def pipeline(self) -> "Pipeline":
        """The stage pipeline this expander executes."""
        return self._pipeline

    # -- pipeline plumbing ---------------------------------------------------

    def context(self, query: str = "") -> "ExecutionContext":
        """A fresh :class:`ExecutionContext` bound to this expander."""
        from repro.pipeline import ExecutionContext

        return ExecutionContext(
            engine=self._engine,
            config=self._config,
            algorithm=self._algorithm,
            clusterer=self._clusterer,
            analysis_cache=self._analysis_cache,
            query=query,
        )

    def run_stages(
        self, query: str, until: str | None = None
    ) -> "ExecutionContext":
        """Run the pipeline for ``query``, optionally stopping early.

        ``until`` names the last stage to execute (e.g. ``"tasks"``);
        harnesses that need intermediate artifacts get them off the
        returned context with per-stage timings already recorded.
        """
        return self._pipeline.run(self.context(query), stop_after=until)

    # -- pipeline steps (compat; each executes the shared stage object) ------

    def retrieve(self, query: str) -> list[SearchResult]:
        """Step 1: run the seed query (AND semantics, ranked, top-k).

        Returns ``[]`` when nothing matches — callers probing queries
        can branch; the empty-result guard fires only inside full
        pipeline runs (:meth:`expand`), where the stage raises.
        """
        try:
            stage = self._pipeline.get_stage("retrieve")
            return list(stage.run(self.context(query)).results)
        except ExpansionError:
            return []

    def cluster(self, results: Sequence[SearchResult]) -> np.ndarray:
        """Step 2: cluster results into <= k clusters over TF vectors."""
        # Uncached: the step has no seed terms or generation to key on.
        ctx = self.context().evolve(results=tuple(results), analysis_cache=None)
        return self._pipeline.get_stage("cluster").run(ctx).labels

    def build_universe(self, results: Sequence[SearchResult]) -> ResultUniverse:
        """Step 3: the result universe, weighted by ranking if configured."""
        ctx = self.context().evolve(results=tuple(results))
        return self._pipeline.get_stage("universe").run(ctx).universe

    def tasks(
        self,
        universe: ResultUniverse,
        labels: np.ndarray,
        seed_terms: tuple[str, ...],
    ) -> list[ExpansionTask]:
        """Step 4: one task per cluster, largest-weight clusters first."""
        ctx = self.context().evolve(
            universe=universe,
            labels=np.asarray(labels, dtype=np.int64),
            seed_terms=tuple(seed_terms),
        )
        ctx = self._pipeline.get_stage("candidates").run(ctx)
        return list(self._pipeline.get_stage("tasks").run(ctx).tasks)

    # -- the whole thing ------------------------------------------------------

    def expand(self, query: str) -> ExpansionReport:
        """Run the full pipeline for ``query``."""
        return report_from_context(self.run_stages(query))
