"""The library's front door: a validated, cached, batchable session.

A :class:`Session` binds one corpus + search engine + expansion setup
behind a fluent builder::

    session = (Session.builder()
               .dataset("wikipedia")
               .retrieval("bm25")
               .backend("sqlite", path="corpus.sqlite")
               .clusterer("bisecting")
               .algorithm("pebc")
               .config(n_clusters=4)
               .build())
    report = session.expand("java")
    batch = session.expand_many(["java", "columbia", "rockets"], workers=4)

All component names resolve through the registries in
:mod:`repro.api.registries`, so anything a plugin registers is reachable
here. The builder validates names, component kwargs, and known-bad
combinations at :meth:`~SessionBuilder.build` time — a misconfigured
session fails before any retrieval work happens.

What a session caches across queries:

* the corpus, analyzer, engine, and index (built once);
* per index generation, seed-query retrievals and one analysis per
  result set (k-means labels and candidate keywords) — shared by every
  algorithm run on the same seed query.

Algorithm and clusterer instances are created fresh per ``expand`` call
from their registered factories, so stateful components (PEBC's RNG,
AutoClustering's selection) never leak state between queries or between
:meth:`~Session.expand_many` worker threads — batch output is identical
to running :meth:`~Session.expand` per query.

Execution itself is a :class:`~repro.pipeline.Pipeline` of stage
objects (retrieve → cluster → universe → candidates → tasks → expand),
shared by every path through the session — ``expand``, batches,
interleaving, and the step methods. Compose it at build time::

    session = (Session.builder()
               .dataset("wikipedia")
               .stage(MyReranker(), after="retrieve")
               .replace_stage("candidates", MyMiner())
               .build())
    ctx = session.run_stages("java", until="tasks")   # partial run
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api import schema
from repro.api.registries import (
    ALGORITHMS,
    BACKENDS,
    CLUSTERERS,
    DATASETS,
    SCORERS,
    STAGES,
)
from repro.caching import LRUTTLCache
from repro.core.config import ExpansionConfig
from repro.core.expander import ClusterQueryExpander, ExpansionReport
from repro.core.universe import ResultUniverse
from repro.errors import ConfigError, SchemaError
from repro.index.search import SearchEngine, SearchResult
from repro.pipeline import ExecutionContext, Pipeline, default_pipeline
from repro.text.analyzer import Analyzer

if TYPE_CHECKING:
    from repro.core.interleaved import InterleavedReport
    from repro.core.universe import ExpansionTask
    from repro.data.corpus import Corpus
    from repro.index.backend import IndexBackend


#: Default bounds: plenty for experiment sweeps, finite for services.
DEFAULT_RETRIEVAL_CACHE_SIZE = 1024
DEFAULT_ANALYSIS_CACHE_SIZE = 1024


def _cache_info(cache: LRUTTLCache) -> dict[str, int]:
    stats = cache.stats()
    return {key: stats[key] for key in ("entries", "capacity", "hits", "misses")}


class CachingSearchEngine:
    """A :class:`SearchEngine` proxy that memoizes ``search()`` calls.

    Sessions route every retrieval through one of these, so repeated seed
    queries (common in batches and experiment sweeps) hit the index once.
    Keys hold the index generation read before the search, so results
    that straddle an ingest are never served at the new generation.
    Thread-safe (the cache is a locked :class:`~repro.caching.
    LRUTTLCache`); cached result lists are copied on the way out; at
    most ``maxsize`` retrievals are kept, least-recently-used first out.
    """

    def __init__(
        self,
        engine: SearchEngine,
        maxsize: int = DEFAULT_RETRIEVAL_CACHE_SIZE,
    ) -> None:
        self._engine = engine
        self._cache = LRUTTLCache(maxsize=maxsize)

    @property
    def corpus(self) -> "Corpus":
        return self._engine.corpus

    @property
    def index(self) -> "IndexBackend":
        return self._engine.index

    @property
    def analyzer(self) -> Analyzer:
        return self._engine.analyzer

    @property
    def scorer(self) -> Any:
        return self._engine.scorer

    @property
    def inner(self) -> SearchEngine:
        """The wrapped engine."""
        return self._engine

    def cache_info(self) -> dict[str, int]:
        return _cache_info(self._cache)

    def cache_clear(self) -> None:
        self._cache.clear()

    def parse(self, query: str) -> list[str]:
        return self._engine.parse(query)

    def search(
        self,
        query: str,
        top_k: int | None = None,
        semantics: str = "and",
    ) -> list[SearchResult]:
        generation = getattr(self._engine.index, "generation", None)
        key = (generation, query, top_k, semantics)
        hit, cached = self._cache.lookup(key)
        if hit:
            return list(cached)
        results = self._engine.search(query, top_k=top_k, semantics=semantics)
        self._cache.put(key, list(results))
        return results

    def search_terms(
        self,
        terms: list[str],
        top_k: int | None = None,
        semantics: str = "and",
    ) -> list[SearchResult]:
        return self._engine.search_terms(terms, top_k=top_k, semantics=semantics)

    def boolean_search(
        self, query: str, top_k: int | None = None
    ) -> list[SearchResult]:
        return self._engine.boolean_search(query, top_k=top_k)


# -- batch results -----------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One query's outcome in a batch: a report or a structured error."""

    query: str
    report: ExpansionReport | None
    error_type: str | None = None
    error_message: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.report is not None

    # analyze: ignore[SCHEMA003] - 'ok' is a derived convenience key
    # (report is not None); from_dict re-derives it from 'report'
    def to_dict(self) -> dict[str, Any]:
        return {
            "query": self.query,
            "ok": self.ok,
            "report": schema.report_to_dict(self.report) if self.report else None,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "seconds": float(self.seconds),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchItem":
        report = payload.get("report")
        return cls(
            query=schema.require(payload, "query"),
            report=schema.report_from_dict(report) if report else None,
            error_type=payload.get("error_type"),
            error_message=payload.get("error_message"),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class BatchReport:
    """Outcome of :meth:`Session.expand_many`, item order = input order."""

    items: tuple[BatchItem, ...]
    workers: int
    seconds: float

    @property
    def n_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        return len(self.items) - self.n_ok

    def reports(self) -> list[ExpansionReport]:
        """The successful reports, in input order."""
        return [item.report for item in self.items if item.report is not None]

    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if not item.ok]

    def to_dict(self) -> dict[str, Any]:
        return schema.make_envelope(
            schema.KIND_BATCH,
            {
                "items": [item.to_dict() for item in self.items],
                "workers": int(self.workers),
                "seconds": float(self.seconds),
            },
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchReport":
        schema.check_envelope(payload, schema.KIND_BATCH)
        return cls(
            items=tuple(
                BatchItem.from_dict(i) for i in schema.require(payload, "items")
            ),
            workers=int(schema.require(payload, "workers")),
            seconds=float(schema.require(payload, "seconds")),
        )


# -- builder -----------------------------------------------------------------


class SessionBuilder:
    """Fluent configuration for a :class:`Session`; see module docstring."""

    def __init__(self) -> None:
        self._dataset: str | None = None
        self._dataset_kwargs: dict[str, Any] = {}
        self._corpus = None
        self._engine: SearchEngine | None = None
        self._retrieval: str | None = None
        self._retrieval_kwargs: dict[str, Any] = {}
        self._backend: str | None = None
        self._backend_kwargs: dict[str, Any] = {}
        self._clusterer: str | None = None
        self._clusterer_kwargs: dict[str, Any] = {}
        self._algorithm: str = "iskr"
        self._algorithm_kwargs: dict[str, Any] = {}
        self._config_kwargs: dict[str, Any] = {}
        self._analyzer: Analyzer | None = None
        self._seed: int = 0
        self._retrieval_cache_size: int = DEFAULT_RETRIEVAL_CACHE_SIZE
        self._analysis_cache_size: int = DEFAULT_ANALYSIS_CACHE_SIZE
        self._stage_inserts: list[tuple[Any, str | None, str | None]] = []
        self._stage_replacements: list[tuple[str, Any]] = []

    @staticmethod
    def _norm(name: str) -> str:
        # Registries are case-insensitive; normalize here too so name
        # comparisons (build-time guards, per-call overrides) agree.
        return name.strip().lower() if isinstance(name, str) else name

    def dataset(self, name: str, **kwargs: Any) -> "SessionBuilder":
        """Build the corpus from the dataset registry (kwargs → factory)."""
        self._dataset = self._norm(name)
        self._dataset_kwargs = dict(kwargs)
        return self

    def corpus(self, corpus: "Corpus") -> "SessionBuilder":
        """Use a prebuilt corpus instead of a registered dataset."""
        self._corpus = corpus
        return self

    def engine(self, engine: SearchEngine) -> "SessionBuilder":
        """Use a prebuilt engine (mutually exclusive with dataset/corpus/retrieval)."""
        self._engine = engine
        return self

    def retrieval(self, name: str, **kwargs: Any) -> "SessionBuilder":
        """Retrieval scorer by registry name (default ``"tfidf"``)."""
        self._retrieval = self._norm(name)
        self._retrieval_kwargs = dict(kwargs)
        return self

    def backend(self, name: str, **kwargs: Any) -> "SessionBuilder":
        """Index storage backend by registry name (default ``"memory"``).

        Built-ins: ``"memory"`` (flat inverted index) and ``"sqlite"``
        (durable and mutable; pass ``path=...`` to persist, or an open
        ``store=...``). kwargs go to the backend factory in
        :data:`repro.api.registries.BACKENDS`.
        """
        self._backend = self._norm(name)
        self._backend_kwargs = dict(kwargs)
        return self

    def clusterer(self, name: str, **kwargs: Any) -> "SessionBuilder":
        """Clustering backend by registry name (default: spherical k-means)."""
        self._clusterer = self._norm(name)
        self._clusterer_kwargs = dict(kwargs)
        return self

    def algorithm(self, name: str, **kwargs: Any) -> "SessionBuilder":
        """Expansion algorithm by registry name (default ``"iskr"``)."""
        self._algorithm = self._norm(name)
        self._algorithm_kwargs = dict(kwargs)
        return self

    def config(self, **kwargs: Any) -> "SessionBuilder":
        """:class:`ExpansionConfig` knobs (``n_clusters=...``, ...)."""
        self._config_kwargs.update(kwargs)
        return self

    def analyzer(self, analyzer: Analyzer) -> "SessionBuilder":
        """Text analyzer shared by dataset generation and the engine."""
        self._analyzer = analyzer
        return self

    def seed(self, seed: int) -> "SessionBuilder":
        """Master RNG seed (datasets, clustering, stochastic algorithms)."""
        self._seed = int(seed)
        return self

    def cache_capacity(
        self,
        retrieval: int | None = None,
        analysis: int | None = None,
    ) -> "SessionBuilder":
        """LRU capacities for the session's per-seed caches.

        ``retrieval`` bounds memoized seed-query retrievals; ``analysis``
        bounds cached result-set analyses (k-means labels and candidate
        keywords). Both default to 1024 entries — plenty for experiment
        sweeps, finite for long-lived serving traffic. Current sizes are
        visible in :meth:`Session.describe` under ``"caches"``.
        """
        for tier, size in (("retrieval", retrieval), ("analysis", analysis)):
            if size is not None and int(size) < 1:
                raise ConfigError(f"{tier} cache capacity must be >= 1, got {size}")
        if retrieval is not None:
            self._retrieval_cache_size = int(retrieval)
        if analysis is not None:
            self._analysis_cache_size = int(analysis)
        return self

    # -- pipeline composition ------------------------------------------------

    def stage(
        self,
        stage: Any,
        after: str | None = None,
        before: str | None = None,
    ) -> "SessionBuilder":
        """Insert a custom pipeline stage (appended unless anchored).

        ``stage`` is a :class:`~repro.pipeline.Stage` instance or a name
        in :data:`repro.api.STAGES`; ``after``/``before`` name an anchor
        stage in the default pipeline (e.g. a reranker with
        ``after="retrieve"``). Inserted stages run on every *pipeline*
        execution path — ``expand``, ``expand_many``,
        ``expand_interleaved``, ``run_stages`` — and show up in
        :meth:`Session.describe` and the report's ``stage_timings``.
        (The individual step methods ``retrieve``/``cluster``/... each
        execute exactly one named stage, by design.)
        """
        self._stage_inserts.append((stage, after, before))
        return self

    def replace_stage(self, name: str, stage: Any) -> "SessionBuilder":
        """Swap a default stage (e.g. the ``candidates`` miner) by name."""
        self._stage_replacements.append((name, stage))
        return self

    # -- validation + construction ------------------------------------------

    def build(self) -> "Session":
        """Validate the combination and construct the session.

        Raises :class:`~repro.errors.ConfigError` (or its subclass
        :class:`~repro.errors.RegistryError`) on unknown component names,
        bad component kwargs, conflicting sources, or known-bad
        algorithm/config combinations.
        """
        sources = [
            s for s, set_ in (
                ("dataset", self._dataset is not None),
                ("corpus", self._corpus is not None),
                ("engine", self._engine is not None),
            ) if set_
        ]
        if not sources:
            raise ConfigError(
                "session needs a corpus source: .dataset(name), .corpus(c), "
                f"or .engine(e); registered datasets: {', '.join(DATASETS.names())}"
            )
        if len(sources) > 1:
            raise ConfigError(
                f"conflicting corpus sources: {' and '.join(sources)}; pick one"
            )
        if self._engine is not None and self._retrieval is not None:
            raise ConfigError(
                "retrieval() has no effect on a prebuilt engine(); "
                "configure scoring when constructing the engine instead"
            )
        if self._engine is not None and self._backend is not None:
            raise ConfigError(
                "backend() has no effect on a prebuilt engine(); "
                "configure storage when constructing the engine instead"
            )

        # Resolve names early so typos fail here, not mid-batch.
        ALGORITHMS.get(self._algorithm)
        if self._clusterer is not None:
            CLUSTERERS.get(self._clusterer)
        retrieval = self._retrieval or "tfidf"
        if self._engine is None:
            SCORERS.get(retrieval)
        backend = self._backend or "memory"
        if self._engine is None:
            BACKENDS.get(backend)
        if self._dataset is not None:
            DATASETS.get(self._dataset)

        config = self._build_config()
        if self._algorithm == "exact" and config.semantics != "and":
            raise ConfigError(
                "algorithm 'exact' supports AND semantics only; "
                f"got semantics={config.semantics!r}"
            )

        analyzer = self._analyzer or Analyzer(use_stemming=False)
        engine = self._build_engine(analyzer, retrieval, backend)
        session = Session(
            engine=engine,
            analyzer=analyzer,
            config=config,
            algorithm=self._algorithm,
            algorithm_kwargs=self._algorithm_kwargs,
            clusterer=self._clusterer,
            clusterer_kwargs=self._clusterer_kwargs,
            dataset=self._dataset,
            backend=None if self._engine is not None else backend,
            seed=self._seed,
            pipeline=self._build_pipeline(),
            retrieval_cache_size=self._retrieval_cache_size,
            analysis_cache_size=self._analysis_cache_size,
        )
        # Trial-create the per-query components once: bad kwargs and bad
        # (clusterer, config) combinations surface at build time.
        session._make_algorithm()
        session._make_clusterer()
        return session

    @staticmethod
    def _resolve_stage(stage: Any) -> Any:
        """A Stage instance from a registry name or a ready instance."""
        if isinstance(stage, str):
            return STAGES.create(SessionBuilder._norm(stage))
        if not isinstance(getattr(stage, "name", None), str) or not callable(
            getattr(stage, "run", None)
        ):
            raise ConfigError(
                f"custom stages need .name and .run(ctx); got {stage!r}"
            )
        return stage

    def _build_pipeline(self) -> Pipeline:
        """The session's pipeline: default stages + replacements + inserts.

        Unknown stage names and bad anchors raise at build time
        (:class:`~repro.errors.PipelineError` is a :class:`ConfigError`).
        """
        pipeline = default_pipeline()
        for name, stage in self._stage_replacements:
            pipeline = pipeline.replace_stage(
                self._norm(name), self._resolve_stage(stage)
            )
        for stage, after, before in self._stage_inserts:
            pipeline = pipeline.with_stage(
                self._resolve_stage(stage), after=after, before=before
            )
        return pipeline

    def _build_config(self) -> ExpansionConfig:
        kwargs = {"cluster_seed": self._seed}
        kwargs.update(self._config_kwargs)
        try:
            return ExpansionConfig(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad config() option: {exc}") from None

    def _build_engine(
        self, analyzer: Analyzer, retrieval: str, backend: str
    ) -> SearchEngine:
        if self._engine is not None:
            return self._engine
        if self._corpus is not None:
            corpus = self._corpus
        else:
            try:
                corpus = DATASETS.create(
                    self._dataset,
                    seed=self._seed,
                    analyzer=analyzer,
                    **self._dataset_kwargs,
                )
            except TypeError as exc:
                raise ConfigError(
                    f"bad dataset option for {self._dataset!r}: {exc}"
                ) from None
        if self._retrieval_kwargs:
            kwargs = self._retrieval_kwargs

            def scoring(index: Any) -> Any:
                return SCORERS.create(retrieval, index, **kwargs)

        else:
            scoring = retrieval
        if self._backend_kwargs:
            backend_kwargs = self._backend_kwargs

            def make_backend(corpus_: "Corpus") -> Any:
                try:
                    return BACKENDS.create(backend, corpus_, **backend_kwargs)
                except TypeError as exc:
                    raise ConfigError(
                        f"bad backend option for {backend!r}: {exc}"
                    ) from None

            backend_arg = make_backend
        else:
            backend_arg = backend
        return SearchEngine(corpus, analyzer, scoring=scoring, backend=backend_arg)


# -- the session -------------------------------------------------------------


class Session:
    """A configured expansion service over one corpus; see module docstring.

    Construct via :meth:`Session.builder`; the constructor is considered
    internal. Sessions are safe to share across threads.
    """

    def __init__(
        self,
        *,
        engine: SearchEngine | CachingSearchEngine,
        analyzer: Analyzer,
        config: ExpansionConfig,
        algorithm: str,
        algorithm_kwargs: Mapping[str, Any] | None = None,
        clusterer: str | None = None,
        clusterer_kwargs: Mapping[str, Any] | None = None,
        dataset: str | None = None,
        backend: str | None = None,
        seed: int = 0,
        pipeline: Pipeline | None = None,
        retrieval_cache_size: int = DEFAULT_RETRIEVAL_CACHE_SIZE,
        analysis_cache_size: int = DEFAULT_ANALYSIS_CACHE_SIZE,
    ) -> None:
        if isinstance(engine, CachingSearchEngine):
            self._engine = engine
        else:
            self._engine = CachingSearchEngine(engine, maxsize=retrieval_cache_size)
        self._analyzer = analyzer
        self._config = config
        self._algorithm = algorithm
        self._algorithm_kwargs = dict(algorithm_kwargs or {})
        self._clusterer = clusterer
        self._clusterer_kwargs = dict(clusterer_kwargs or {})
        self._dataset = dataset
        self._backend = backend
        self._seed = seed
        self._pipeline = pipeline if pipeline is not None else default_pipeline()
        self._analysis_cache = LRUTTLCache(maxsize=analysis_cache_size)

    @staticmethod
    def builder() -> SessionBuilder:
        return SessionBuilder()

    # -- introspection -------------------------------------------------------

    @property
    def engine(self) -> CachingSearchEngine:
        return self._engine

    @property
    def analyzer(self) -> Analyzer:
        return self._analyzer

    @property
    def config(self) -> ExpansionConfig:
        return self._config

    @property
    def algorithm_name(self) -> str:
        return self._algorithm

    @property
    def clusterer_name(self) -> str | None:
        return self._clusterer

    @property
    def dataset_name(self) -> str | None:
        return self._dataset

    @property
    def backend_name(self) -> str | None:
        """Registry name of the index backend (None for prebuilt engines)."""
        return self._backend

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def execution_pipeline(self) -> Pipeline:
        """The stage pipeline every expansion path of this session runs."""
        return self._pipeline

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Stage names in execution order (custom stages included)."""
        return self._pipeline.names

    def clear_caches(self) -> None:
        """Drop cached retrievals and result-set analyses.

        Siblings created with :meth:`with_config` share these caches, so
        clearing one session clears them for the whole family.
        """
        self._engine.cache_clear()
        self._analysis_cache.clear()

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary of the session's configuration."""
        return {
            "dataset": self._dataset,
            "backend": self._backend,
            "algorithm": self._algorithm,
            "clusterer": self._clusterer or "kmeans",
            "n_clusters": self._config.n_clusters,
            "top_k_results": self._config.top_k_results,
            "semantics": self._config.semantics,
            "seed": self._seed,
            "stages": self._pipeline.describe(),
            "caches": self.cache_info(),
        }

    def cache_info(self) -> dict[str, dict[str, int]]:
        """Entry counts, capacities, and hit/miss tallies per cache tier."""
        return {
            "retrieval": self._engine.cache_info(),
            "analysis": _cache_info(self._analysis_cache),
        }

    def with_config(self, **overrides: Any) -> "Session":
        """A sibling session with config overrides, sharing engine + caches."""
        try:
            config = replace(self._config, **overrides)
        except TypeError as exc:
            raise ConfigError(f"bad config override: {exc}") from None
        sibling = copy.copy(self)
        sibling._config = config
        return sibling

    # -- component creation (fresh per call; see module docstring) -----------

    def _make_algorithm(self, name: str | None = None) -> Any:
        if name is not None:
            name = SessionBuilder._norm(name)
        if name is None or name == self._algorithm:
            kwargs = self._algorithm_kwargs
            name = self._algorithm
        else:
            kwargs = {}
        try:
            return ALGORITHMS.create(name, seed=self._seed, **kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad algorithm option for {name!r}: {exc}") from None

    def _make_clusterer(self) -> Any:
        if self._clusterer is None:
            return None
        try:
            return CLUSTERERS.create(
                self._clusterer,
                self._config.n_clusters,
                seed=self._seed,
                **self._clusterer_kwargs,
            )
        except TypeError as exc:
            raise ConfigError(
                f"bad clusterer option for {self._clusterer!r}: {exc}"
            ) from None

    def pipeline(self, algorithm: str | None = None) -> ClusterQueryExpander:
        """A fresh single-query expander wired to this session's caches.

        The expander binds fresh per-call components (algorithm,
        clusterer) to the session's shared :attr:`execution_pipeline`,
        so every expander executes the same stage objects.
        """
        return ClusterQueryExpander(
            self._engine,
            self._make_algorithm(algorithm),
            self._config,
            self._make_clusterer(),
            analysis_cache=self._analysis_cache,
            pipeline=self._pipeline,
        )

    def run_stages(
        self,
        query: str,
        until: str | None = None,
        algorithm: str | None = None,
    ) -> ExecutionContext:
        """Run the pipeline for ``query``; return the final context.

        ``until`` names the last stage to execute (e.g. ``"tasks"``) for
        harnesses that need intermediate artifacts — the PRF comparison
        and the experiment suite consume retrievals, labels, universe,
        and tasks from the returned context, with per-stage timings
        already recorded.
        """
        return self.pipeline(algorithm).run_stages(query, until=until)

    # -- retrieval + pipeline steps ------------------------------------------

    def search(
        self, query: str, top_k: int | None = None, semantics: str = "and"
    ) -> list[SearchResult]:
        """Plain ranked retrieval (cached per session)."""
        return self._engine.search(query, top_k=top_k, semantics=semantics)

    def retrieve(self, query: str) -> list[SearchResult]:
        """Step 1 of the pipeline: seed-query results under the config."""
        return self.pipeline().retrieve(query)

    def cluster(self, results: Sequence[SearchResult]) -> np.ndarray:
        """Step 2: cluster the results with the configured backend."""
        return self.pipeline().cluster(results)

    def build_universe(self, results: Sequence[SearchResult]) -> ResultUniverse:
        """Step 3: the (optionally ranking-weighted) result universe."""
        return self.pipeline().build_universe(results)

    def tasks(
        self,
        universe: ResultUniverse,
        labels: np.ndarray,
        seed_terms: tuple[str, ...],
    ) -> "list[ExpansionTask]":
        """Step 4: per-cluster expansion tasks over fresh candidates."""
        return self.pipeline().tasks(universe, labels, seed_terms)

    # -- expansion ------------------------------------------------------------

    def expand(self, query: str, algorithm: str | None = None) -> ExpansionReport:
        """Run the full pipeline for one seed query.

        ``algorithm`` overrides the session's algorithm by registry name
        for this call only (retrieval and analysis caches are shared, so
        a second algorithm on one query neither searches nor clusters).
        """
        return self.pipeline(algorithm).expand(query)

    def expand_interleaved(
        self,
        query: str,
        max_rounds: int = 4,
        algorithm: str | None = None,
    ) -> "InterleavedReport":
        """§7 interleaved clustering/expansion on this session's components."""
        from repro.core.interleaved import InterleavedExpander

        return InterleavedExpander(
            self._engine,
            self._make_algorithm(algorithm),
            self._config,
            clusterer=self._make_clusterer(),
            max_rounds=max_rounds,
            pipeline=self._pipeline,
        ).expand(query)

    def expand_many(
        self,
        queries: Iterable[str],
        workers: int = 1,
        algorithm: str | None = None,
    ) -> BatchReport:
        """Expand a batch of seed queries with per-query error isolation.

        Failed queries become :class:`BatchItem` error records (never
        exceptions), so one empty-result query cannot sink a batch.
        ``workers > 1`` fans out over threads; outputs are identical to
        sequential per-query :meth:`expand` calls and keep input order.
        """
        queries = list(queries)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")

        def run_one(query: str) -> BatchItem:
            t0 = time.perf_counter()
            try:
                report = self.expand(query, algorithm=algorithm)
                return BatchItem(
                    query=query,
                    report=report,
                    seconds=time.perf_counter() - t0,
                )
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                return BatchItem(
                    query=query,
                    report=None,
                    error_type=type(exc).__name__,
                    error_message=str(exc),
                    seconds=time.perf_counter() - t0,
                )

        t0 = time.perf_counter()
        if workers == 1 or len(queries) <= 1:
            items = [run_one(q) for q in queries]
        else:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(queries))
            ) as pool:
                items = list(pool.map(run_one, queries))
        return BatchReport(
            items=tuple(items),
            workers=workers,
            seconds=time.perf_counter() - t0,
        )
