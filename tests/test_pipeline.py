"""Tests for repro.pipeline: stages, composer, stage stats, session wiring."""

from __future__ import annotations

import pytest

from repro.api import STAGES, Session
from repro.core.config import ExpansionConfig
from repro.core.expander import ClusterQueryExpander
from repro.core.metrics import eq1_score
from repro.datasets.wikipedia import build_wikipedia_corpus
from repro.errors import ExpansionError, PipelineError
from repro.index.search import SearchEngine
from repro.pipeline import (
    CandidateStage,
    ExecutionContext,
    Pipeline,
    StageStats,
    StageTiming,
    default_pipeline,
)
from repro.text.analyzer import Analyzer

ALGORITHMS_UNDER_TEST = ("iskr", "pebc", "exact", "fmeasure", "vsm")
CLUSTERERS_UNDER_TEST = (
    None, "kmeans", "bisecting", "agglomerative", "kmedoids", "auto", "kselect",
)


@pytest.fixture(scope="module")
def small_engine() -> SearchEngine:
    """A small single-term corpus; candidate sets stay exhaustive-friendly."""
    corpus = build_wikipedia_corpus(
        seed=0, docs_per_sense=8, terms=["java"], analyzer=Analyzer(use_stemming=False)
    )
    return SearchEngine(corpus, Analyzer(use_stemming=False))


def _small_config() -> ExpansionConfig:
    return ExpansionConfig(
        n_clusters=3,
        top_k_results=16,
        candidate_fraction=0.05,
        min_candidates=8,
    )


@pytest.fixture(scope="module")
def wiki_session() -> Session:
    return (
        Session.builder()
        .dataset("wikipedia", docs_per_sense=10, terms=["java", "eclipse"])
        .config(n_clusters=3, top_k_results=20)
        .build()
    )


# -- stage/timing semantics ---------------------------------------------------


class TestStageExecution:
    def test_default_stage_order(self):
        assert default_pipeline().names == (
            "retrieve", "cluster", "universe", "candidates", "tasks", "expand",
        )

    def test_every_stage_timed_including_retrieval(self, wiki_session):
        report = wiki_session.expand("java")
        assert [t.stage for t in report.stage_timings] == list(
            wiki_session.stage_names
        )
        assert all(t.seconds >= 0.0 for t in report.stage_timings)
        # The pre-pipeline code never measured retrieval at all.
        assert report.retrieval_seconds == report.stage_timings[0].seconds

    def test_legacy_fields_derive_from_stage_timings(self, wiki_session):
        report = wiki_session.expand("java")
        timed = {t.stage: t.seconds for t in report.stage_timings}
        assert report.clustering_seconds == timed["cluster"]
        assert report.expansion_seconds == pytest.approx(
            timed["candidates"] + timed["tasks"] + timed["expand"]
        )

    def test_run_stages_partial(self, wiki_session):
        ctx = wiki_session.run_stages("java", until="tasks")
        assert ctx.results and ctx.universe is not None and ctx.tasks
        assert ctx.expanded == () and ctx.score is None
        assert [t.stage for t in ctx.timings] == [
            "retrieve", "cluster", "universe", "candidates", "tasks",
        ]

    def test_run_stages_unknown_until(self, wiki_session):
        with pytest.raises(PipelineError, match="unknown stage"):
            wiki_session.run_stages("java", until="nope")

    def test_empty_retrieval_raises_from_stage(self, wiki_session):
        with pytest.raises(ExpansionError, match="no results"):
            wiki_session.expand("zzz-no-such-term")


class TestEvolve:
    def test_copies_with_changes_and_leaves_the_original(self):
        ctx = ExecutionContext(query="java", seed_terms=("java",))
        out = ctx.evolve(score=0.5, candidates=("a",))
        assert out is not ctx and type(out) is ExecutionContext
        assert (out.query, out.seed_terms, out.score, out.candidates) == (
            "java", ("java",), 0.5, ("a",)
        )
        assert ctx.score is None and ctx.candidates is None
        assert out == ExecutionContext(
            query="java", seed_terms=("java",), score=0.5, candidates=("a",)
        )

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            ExecutionContext().evolve(not_a_field=1)


def test_tasks_share_one_candidate_incidence(wiki_session):
    tasks = wiki_session.run_stages("java", until="tasks").tasks
    assert len(tasks) > 1
    assert all(task.incidence is tasks[0].incidence for task in tasks)
    assert tasks[0].incidence.candidates == tasks[0].candidates


# -- composition --------------------------------------------------------------


class _Stamp:
    def __init__(self, name="stamp"):
        self.name = name

    def run(self, ctx):
        return ctx.with_extra(self.name, True)


class TestComposition:
    def test_with_stage_positions(self):
        pipe = default_pipeline()
        assert pipe.with_stage(_Stamp(), after="retrieve").names[1] == "stamp"
        assert pipe.with_stage(_Stamp(), before="retrieve").names[0] == "stamp"
        assert pipe.with_stage(_Stamp()).names[-1] == "stamp"

    def test_with_stage_bad_anchor(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            default_pipeline().with_stage(_Stamp(), after="nope")
        with pytest.raises(PipelineError, match="not both"):
            default_pipeline().with_stage(_Stamp(), after="a", before="b")

    def test_replace_and_remove(self):
        pipe = default_pipeline().replace_stage("candidates", _Stamp("candidates"))
        assert isinstance(pipe.get_stage("candidates"), _Stamp)
        assert default_pipeline().without_stage("expand").names[-1] == "tasks"

    def test_replace_must_keep_the_name(self):
        # Timings, lookups, and report fields are keyed by stage name; a
        # renamed replacement would silently break all of them.
        with pytest.raises(PipelineError, match="must keep its name"):
            default_pipeline().replace_stage("candidates", _Stamp("my_miner"))

    def test_name_lookups_case_insensitive(self):
        pipe = default_pipeline()
        assert pipe.get_stage("CLUSTER").name == "cluster"
        assert pipe.with_stage(_Stamp(), after="Retrieve").names[1] == "stamp"
        assert pipe.slice("Tasks", "EXPAND").names == ("tasks", "expand")

    def test_split(self):
        prefix, rounds = default_pipeline().split("tasks")
        assert prefix.names == ("retrieve", "cluster", "universe", "candidates")
        assert rounds.names == ("tasks", "expand")
        first, rest = default_pipeline().split("retrieve")
        assert first is None and rest.names[0] == "retrieve"

    def test_slice_shares_stage_objects(self):
        pipe = default_pipeline()
        part = pipe.slice("tasks", "expand")
        assert part.names == ("tasks", "expand")
        assert part.get_stage("tasks") is pipe.get_stage("tasks")
        assert part.stage_stats is pipe.stage_stats
        with pytest.raises(PipelineError, match="after"):
            pipe.slice("expand", "tasks")

    def test_duplicate_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline((_Stamp(), _Stamp()))

    def test_malformed_stage_rejected(self):
        with pytest.raises(PipelineError, match="name"):
            Pipeline((object(),))

    def test_composition_is_nondestructive(self):
        base = default_pipeline()
        base.with_stage(_Stamp())
        assert "stamp" not in base.names


# -- stage stats -------------------------------------------------------------


def _fresh_session() -> Session:
    return (
        Session.builder()
        .dataset("wikipedia", docs_per_sense=8, terms=["java"])
        .config(n_clusters=3, top_k_results=16)
        .build()
    )


class TestStageStats:
    def test_stage_errors_counted_without_polluting_latency(self):
        stats = StageStats()
        stats.observe("cluster", 0.25)
        stats.error("cluster")
        snap = stats.snapshot()
        assert snap["cluster"]["errors"] == 1
        assert snap["cluster"]["count"] == 1  # only the real sample
        assert snap["cluster"]["p50_seconds"] == pytest.approx(0.25)

    def test_records_stage_latencies_from_a_pipeline(self):
        session = (
            Session.builder()
            .dataset("wikipedia")
            .config(n_clusters=3)
            .build()
        )
        session.expand("java")
        snap = session.execution_pipeline.stage_stats.snapshot()
        assert list(snap) == [
            "retrieve", "cluster", "universe", "candidates", "tasks", "expand",
        ]
        assert all(stats["count"] == 1 for stats in snap.values())

    def test_partial_run_counts_only_the_stages_it_ran(self):
        session = _fresh_session()
        ctx = session.run_stages("java", until="tasks")
        snap = session.execution_pipeline.stage_stats.snapshot()
        assert list(snap) == [t.stage for t in ctx.timings]
        assert all(stats["count"] == 1 for stats in snap.values())

    def test_timings_accumulate_across_split_runs(self):
        session = _fresh_session()
        prefix, rest = session.execution_pipeline.split("tasks")
        ctx = prefix.run(session.pipeline().context("java"))
        ctx = rest.run(rest.run(ctx))
        assert [t.stage for t in ctx.timings] == [
            "retrieve", "cluster", "universe", "candidates",
            "tasks", "expand", "tasks", "expand",
        ]
        snap = session.execution_pipeline.stage_stats.snapshot()
        assert snap["tasks"]["count"] == snap["expand"]["count"] == 2

    def test_interleaved_rounds_feed_the_session_stats(self):
        session = _fresh_session()
        report = session.expand_interleaved("java", max_rounds=3)
        snap = session.execution_pipeline.stage_stats.snapshot()
        assert snap["retrieve"]["count"] == 1
        for stage in ("tasks", "expand", "reassign"):
            assert snap[stage]["count"] == len(report.rounds)

    def test_stage_error_is_counted_and_propagates(self):
        session = _fresh_session()
        with pytest.raises(ExpansionError, match="no results"):
            session.expand("zzz-no-such-term")
        snap = session.execution_pipeline.stage_stats.snapshot()
        assert snap == {"retrieve": {"count": 0, "errors": 1}}


# -- session-level composition ------------------------------------------------


class TestSessionStages:
    def _builder(self):
        return (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=8, terms=["java"])
            .config(n_clusters=3, top_k_results=16)
        )

    def test_custom_stage_observable_everywhere(self):
        session = self._builder().stage(_Stamp(), after="retrieve").build()
        assert session.describe()["stages"] == [
            "retrieve", "stamp", "cluster", "universe", "candidates",
            "tasks", "expand",
        ]
        report = session.expand("java")
        assert "stamp" in [t.stage for t in report.stage_timings]
        payload = report.to_dict()
        assert "stamp" in [t["stage"] for t in payload["stage_timings"]]

    def test_custom_stage_runs_in_batches_and_steps(self):
        session = self._builder().stage(_Stamp()).build()
        batch = session.expand_many(["java", "java"], workers=2)
        for item in batch.items:
            assert "stamp" in [t.stage for t in item.report.stage_timings]
        assert "stamp" in [t.stage for t in session.run_stages("java").timings]

    def test_stage_by_registry_name(self):
        # Registered stages are insertable by name, like any other axis.
        STAGES.register("stamp2", lambda **kw: _Stamp("stamp2"))
        try:
            session = self._builder().stage("stamp2", before="expand").build()
            assert "stamp2" in session.stage_names
        finally:
            STAGES.unregister("stamp2")

    def test_replace_candidate_miner(self):
        class TruncatedMiner:
            name = "candidates"

            def __init__(self):
                self._inner = CandidateStage()

            def run(self, ctx):
                out = self._inner.run(ctx)
                return out.evolve(candidates=out.candidates[:3])

        session = self._builder().replace_stage("candidates", TruncatedMiner()).build()
        ctx = session.run_stages("java", until="candidates")
        assert len(ctx.candidates) == 3
        report = session.expand("java")  # still produces a full report
        assert report.expanded

    def test_bad_insert_anchor_fails_at_build(self):
        with pytest.raises(PipelineError, match="unknown stage"):
            self._builder().stage(_Stamp(), after="nope").build()

    def test_malformed_custom_stage_fails_at_build(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="custom stages"):
            self._builder().stage(object()).build()

    def test_with_config_preserves_pipeline(self):
        session = self._builder().stage(_Stamp()).build()
        sibling = session.with_config(n_clusters=2)
        assert sibling.stage_names == session.stage_names

    def test_interleaved_runs_custom_stage(self):
        session = self._builder().stage(_Stamp(), after="retrieve").build()
        report = session.expand_interleaved("java", max_rounds=2)
        assert len(report.rounds) >= 1

    def test_interleaved_covers_inserted_stages_on_both_sides(self):
        # The loop splits the pipeline at "tasks": stages inserted before
        # the split run once, stages after it run every round.
        class Counter:
            def __init__(self, name):
                self.name = name
                self.calls = 0

            def run(self, ctx):
                self.calls += 1
                return ctx

        once = Counter("once")
        per_round = Counter("per_round")
        session = (
            self._builder()
            .stage(once, before="tasks")
            .stage(per_round, after="expand")
            .build()
        )
        report = session.expand_interleaved("java", max_rounds=3)
        assert once.calls == 1
        assert per_round.calls == len(report.rounds)

    def test_step_retrieve_returns_empty_list(self):
        # The step method keeps the probing contract; only full pipeline
        # runs raise on empty retrievals.
        session = self._builder().build()
        assert session.retrieve("zzz-no-such-term") == []
        with pytest.raises(ExpansionError):
            session.expand("zzz-no-such-term")


# -- equivalence: stepwise method chain == pipeline run -----------------------


def _strip_timing_values(report):
    from dataclasses import replace

    return replace(
        report,
        clustering_seconds=0.0,
        expansion_seconds=0.0,
        stage_timings=tuple(
            StageTiming(t.stage, 0.0) for t in report.stage_timings
        ),
    )


class TestEquivalence:
    """The pre-pipeline method chain and Pipeline.run agree everywhere."""

    @pytest.mark.parametrize("clusterer", CLUSTERERS_UNDER_TEST)
    @pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
    def test_stepwise_equals_pipeline(self, small_engine, algorithm, clusterer):
        config = _small_config()

        def expander():
            # Fresh instances per path: stochastic components (PEBC's RNG)
            # must not share state between the two executions.
            return ClusterQueryExpander(small_engine, algorithm, config, clusterer)

        # Old path: the explicit method chain, step by step.
        old = expander()
        results = old.retrieve("java")
        labels = old.cluster(results)
        universe = old.build_universe(results)
        seed_terms = tuple(small_engine.parse("java"))
        tasks = old.tasks(universe, labels, seed_terms)
        outcomes = [old.algorithm.expand(t) for t in tasks]

        # New path: one Pipeline.run through expand().
        report = expander().expand("java")

        assert report.cluster_labels == tuple(int(lab) for lab in labels)
        assert [eq.outcome for eq in report.expanded] == outcomes
        assert report.score == eq1_score([o.fmeasure for o in outcomes])
        assert report.n_results == len(results)

    def test_expand_deterministic_and_context_reusable(self, small_engine):
        config = _small_config()
        a = ClusterQueryExpander(small_engine, "iskr", config).expand("java")
        b = ClusterQueryExpander(small_engine, "iskr", config).expand("java")
        assert _strip_timing_values(a) == _strip_timing_values(b)

    def test_direct_pipeline_run_matches_expander(self, small_engine):
        config = _small_config()
        expander = ClusterQueryExpander(small_engine, "iskr", config)
        report = ClusterQueryExpander(small_engine, "iskr", config).expand("java")
        ctx = default_pipeline().run(
            ExecutionContext(
                engine=small_engine,
                config=config,
                algorithm=expander.algorithm,
                query="java",
            )
        )
        assert tuple(eq.terms for eq in ctx.expanded) == tuple(
            eq.terms for eq in report.expanded
        )
        assert ctx.score == report.score
