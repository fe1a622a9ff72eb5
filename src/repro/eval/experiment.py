"""Experiment runner: all systems × the 20 benchmark queries (§5).

The six systems of the paper's evaluation:

====================  =====================================================
ISKR                  §3 (benefit/cost refinement)
PEBC                  §4 (partial-elimination convergence, §4.3 strategy)
F-measure             ISKR control loop with exact delta-F values (§5.1)
CS                    TF-ICF cluster labels [6]
DataClouds            popular words over ranked results [15]
QueryLog              Google stand-in (synthetic query log)
====================  =====================================================

For comparability all cluster-based systems (ISKR, PEBC, F-measure, CS)
share the same retrieval and the same k-means clustering of each query's
results, mirroring the paper's setup. Per system we record the expanded
queries, per-cluster F-measures, the Eq. 1 score (cluster-based systems
only, §5.2.2), wall time, and the coverage/diversity signals consumed by
the user-study simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import ALGORITHMS, Session
from repro.baselines.cluster_summarization import ClusterSummarization
from repro.baselines.dataclouds import DataClouds
from repro.baselines.querylog import QueryLogSuggester
from repro.core.config import ExpansionConfig
from repro.core.metrics import eq1_score, precision_recall_f
from repro.core.universe import ResultUniverse
from repro.datasets.queries import BenchmarkQuery, all_queries
from repro.datasets.querylog_data import build_query_log
from repro.errors import ConfigError
from repro.index.search import SearchEngine
from repro.text.analyzer import Analyzer

CLUSTER_SYSTEMS = ("ISKR", "PEBC", "F-measure", "CS")
ALL_SYSTEMS = ("ISKR", "PEBC", "F-measure", "CS", "DataClouds", "QueryLog")

# Expansion-algorithm systems → their repro.api.ALGORITHMS registry names.
_SYSTEM_ALGORITHMS = {"ISKR": "iskr", "PEBC": "pebc", "F-measure": "fmeasure"}


@dataclass(frozen=True)
class SystemRun:
    """One system's output on one benchmark query."""

    system: str
    queries: tuple[tuple[str, ...], ...]
    fmeasures: tuple[float, ...]  # vs own cluster; empty if cluster-agnostic
    score: float | None  # Eq. 1; None for cluster-agnostic systems
    seconds: float
    # User-study signals (see repro.eval.user_study):
    best_f_per_query: tuple[float, ...] = field(default_factory=tuple)
    coverage: float = 0.0
    diversity: float = 0.0
    popularity: tuple[float, ...] = field(default_factory=tuple)

    def display_queries(self) -> list[str]:
        return [", ".join(q) for q in self.queries]


@dataclass(frozen=True)
class QueryExperiment:
    """All systems' outputs for one benchmark query."""

    query: BenchmarkQuery
    n_results: int
    n_clusters: int
    clustering_seconds: float
    runs: dict[str, SystemRun]


class ExperimentSuite:
    """Builds the corpora/engines once and runs per-query experiments.

    Parameters
    ----------
    seed:
        Master seed for corpus generation and the algorithms' RNGs.
    shopping_scale / wiki_docs_per_sense:
        Corpus sizing (defaults match DESIGN.md's workload shaping).
    use_stemming:
        The synthetic corpora emit canonical word forms, so experiments
        default to no stemming for readable expanded queries; retrieval is
        unaffected because queries and documents share the analyzer.
    """

    def __init__(
        self,
        seed: int = 0,
        shopping_scale: float = 1.0,
        wiki_docs_per_sense: int = 40,
        use_stemming: bool = False,
    ) -> None:
        self._seed = seed
        self._analyzer = Analyzer(use_stemming=use_stemming)
        self._sessions = {
            "shopping": (
                Session.builder()
                .dataset("shopping", scale=shopping_scale)
                .analyzer(self._analyzer)
                .seed(seed)
                .build()
            ),
            "wikipedia": (
                Session.builder()
                .dataset("wikipedia", docs_per_sense=wiki_docs_per_sense)
                .analyzer(self._analyzer)
                .seed(seed)
                .build()
            ),
        }
        self._query_log = build_query_log()

    @property
    def analyzer(self) -> Analyzer:
        return self._analyzer

    def session(self, dataset: str) -> Session:
        try:
            return self._sessions[dataset]
        except KeyError:
            raise ConfigError(f"unknown dataset {dataset!r}") from None

    def engine(self, dataset: str) -> SearchEngine:
        return self.session(dataset).engine

    def config_for(self, query: BenchmarkQuery) -> ExpansionConfig:
        """Paper setup: top-30 results on Wikipedia, all results on shopping."""
        return ExpansionConfig(
            n_clusters=query.n_clusters,
            top_k_results=30 if query.dataset == "wikipedia" else None,
            cluster_seed=self._seed,
        )

    # -- single query ---------------------------------------------------------

    def run_query(
        self,
        query: BenchmarkQuery,
        systems: tuple[str, ...] = ALL_SYSTEMS,
    ) -> QueryExperiment:
        """Run the requested systems on one benchmark query."""
        unknown = set(systems) - set(ALL_SYSTEMS)
        if unknown:
            raise ConfigError(f"unknown systems: {sorted(unknown)}")
        config = self.config_for(query)
        # Shared retrieval + clustering for all cluster-based systems, via a
        # config-override view of the dataset's session (engine and caches
        # are shared across queries; retrieval of repeated queries is free).
        session = self.session(query.dataset).with_config(
            n_clusters=config.n_clusters, top_k_results=config.top_k_results
        )
        engine = session.engine
        # One partial pipeline run supplies every cluster-based system with
        # identical artifacts; clustering time comes from the stage
        # timings Pipeline.run records instead of an ad-hoc stopwatch.
        ctx = session.run_stages(query.text, until="tasks")
        results = list(ctx.results)
        labels = ctx.labels
        clustering_seconds = ctx.seconds_for("cluster")
        universe = ctx.universe
        tasks = list(ctx.tasks)
        cluster_masks = [t.cluster_mask for t in tasks]

        runs: dict[str, SystemRun] = {}
        for system in systems:
            if system in ("ISKR", "PEBC", "F-measure"):
                runs[system] = self._run_expansion_algorithm(
                    system, tasks, universe, cluster_masks
                )
            elif system == "CS":
                runs[system] = self._run_cs(
                    engine, query, results, labels, universe, cluster_masks, config
                )
            elif system == "DataClouds":
                runs[system] = self._run_dataclouds(
                    engine, query, results, universe, cluster_masks
                )
            else:  # QueryLog
                runs[system] = self._run_querylog(query, universe, cluster_masks)
        return QueryExperiment(
            query=query,
            n_results=len(results),
            n_clusters=len(set(int(lab) for lab in labels)),
            clustering_seconds=clustering_seconds,
            runs=runs,
        )

    def run_all(
        self,
        systems: tuple[str, ...] = ALL_SYSTEMS,
        queries: tuple[BenchmarkQuery, ...] | None = None,
    ) -> list[QueryExperiment]:
        """Run the requested systems on every benchmark query."""
        return [
            self.run_query(q, systems=systems) for q in (queries or all_queries())
        ]

    # -- per-system runners --------------------------------------------------

    def _make_algorithm(self, system: str):
        return ALGORITHMS.create(_SYSTEM_ALGORITHMS[system], seed=self._seed)

    def _run_expansion_algorithm(
        self, system, tasks, universe, cluster_masks
    ) -> SystemRun:
        algorithm = self._make_algorithm(system)
        t0 = time.perf_counter()
        outcomes = [algorithm.expand(task) for task in tasks]
        seconds = time.perf_counter() - t0
        queries = tuple(o.terms for o in outcomes)
        fmeasures = tuple(o.fmeasure for o in outcomes)
        return self._finish_run(
            system, queries, fmeasures, eq1_score(fmeasures), seconds,
            universe, cluster_masks,
        )

    def _run_cs(
        self, engine, query, results, labels, universe, cluster_masks, config
    ) -> SystemRun:
        cs = ClusterSummarization()
        t0 = time.perf_counter()
        suggestions = cs.suggest(
            engine, query.text, results, labels, universe,
            max_queries=config.max_expanded_queries,
        )
        seconds = time.perf_counter() - t0
        return self._finish_run(
            "CS", suggestions.queries, suggestions.fmeasures,
            eq1_score(suggestions.fmeasures) if suggestions.fmeasures else None,
            seconds, universe, cluster_masks,
        )

    def _run_dataclouds(
        self, engine, query, results, universe, cluster_masks
    ) -> SystemRun:
        dc = DataClouds(n_queries=query.n_clusters)
        t0 = time.perf_counter()
        suggestions = dc.suggest(engine, query.text, results)
        seconds = time.perf_counter() - t0
        return self._finish_run(
            "DataClouds", suggestions.queries, (), None, seconds,
            universe, cluster_masks,
        )

    def _run_querylog(self, query, universe, cluster_masks) -> SystemRun:
        suggester = QueryLogSuggester(
            self._query_log, n_queries=query.n_clusters, analyzer=self._analyzer
        )
        t0 = time.perf_counter()
        suggestions = suggester.suggest(query.text)
        seconds = time.perf_counter() - t0
        # Familiarity is relative to this query's suggestion list: the top
        # suggestion is maximally familiar (raters see ranked suggestions,
        # not absolute log counts).
        counts = [
            self._query_log.popularity(" ".join(q)) for q in suggestions.queries
        ]
        peak = max(counts, default=0)
        popularity = tuple(
            (c / peak if peak > 0 else 0.0) for c in counts
        )
        return self._finish_run(
            "QueryLog", suggestions.queries, (), None, seconds,
            universe, cluster_masks, popularity=popularity,
        )

    # -- shared signal computation ---------------------------------------------

    def _finish_run(
        self,
        system: str,
        queries: tuple[tuple[str, ...], ...],
        fmeasures: tuple[float, ...],
        score: float | None,
        seconds: float,
        universe: ResultUniverse,
        cluster_masks: list[np.ndarray],
        popularity: tuple[float, ...] = (),
    ) -> SystemRun:
        masks = [universe.results_mask(q) for q in queries]
        best_f = tuple(
            max(
                (precision_recall_f(universe, m, cm)[2] for cm in cluster_masks),
                default=0.0,
            )
            for m in masks
        )
        coverage = 0.0
        diversity = 0.0
        if masks:
            union = universe.empty_mask()
            for m in masks:
                union |= m
            total = universe.total_weight()
            coverage = universe.weight_of(union) / total if total > 0 else 0.0
            diversity = 1.0 - _mean_pairwise_overlap(universe, masks)
        if not popularity:
            popularity = tuple(0.0 for _ in queries)
        return SystemRun(
            system=system,
            queries=queries,
            fmeasures=fmeasures,
            score=score,
            seconds=seconds,
            best_f_per_query=best_f,
            coverage=coverage,
            diversity=diversity,
            popularity=popularity,
        )


def _mean_pairwise_overlap(
    universe: ResultUniverse, masks: list[np.ndarray]
) -> float:
    """Mean weighted Jaccard overlap between the queries' result sets.

    A single query (or all-empty results) counts as zero overlap: one
    suggestion cannot be redundant with itself.
    """
    if len(masks) < 2:
        return 0.0
    overlaps: list[float] = []
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            union = universe.weight_of(masks[i] | masks[j])
            if union <= 0.0:
                overlaps.append(0.0)
            else:
                inter = universe.weight_of(masks[i] & masks[j])
                overlaps.append(inter / union)
    return float(np.mean(overlaps))
