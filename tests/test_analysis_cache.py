"""The session's analysis cache: one clustering per result set and generation.

A session memoises each seed result set's k-means labels and candidate
keywords. The key is the index generation read before retrieval, the
seed terms, the result doc ids, the whole ``ExpansionConfig`` and the
clusterer, so every algorithm run on the same results reuses them.

The Hypothesis tests draw a seed query, an ordered pair of registered
algorithms (so both run orders occur), the ``memory`` or ``sqlite``
backend, and whether an ingest lands between the two runs (``sqlite``
only: ``memory`` is immutable). They check that

* ``expand(q, a)`` after ``expand(q, b)`` on one session equals a fresh
  session's ``expand(q, a)`` under ``schema.report_content``;
* the second algorithm on the same seed runs zero k-means fits, and
  exactly one when an ingest moved the generation in between;
* ``clear_caches()`` drops the analysis cache;
* a ``with_config(n_clusters=...)`` sibling does not reuse another
  config's labels;
* a reused analysis keeps the one-stage-measurement invariant: report
  timings, ``stage.*`` spans and ``StageStats`` agree, and the
  ``stage.cluster`` span is tagged ``analysis=hit``.

A deterministic regression covers the retrieval cache on ``sqlite``,
whose reads take no lock: a search that straddles an ingest must not be
served at the new generation.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session, schema
from repro.api.registries import ALGORITHMS
from repro.cluster.kmeans import CosineKMeans
from repro.data.documents import Document
from repro.obs import TraceBuffer, Tracer

QUERIES = ("java", "columbia", "rockets", "eclipse", "cell", "mouse")
BACKENDS = ("memory", "sqlite")
ALGORITHM_NAMES = ALGORITHMS.names()
ALGORITHM_PAIRS = tuple(itertools.permutations(ALGORITHM_NAMES, 2))
# A short candidate list keeps the exhaustive ``exact`` algorithm in range.
CONFIG = {"n_clusters": 3, "top_k_results": 20, "candidate_fraction": 0.05}
SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_doc_ids = itertools.count()


@contextlib.contextmanager
def kmeans_fits():
    """Record the row count of every ``CosineKMeans.fit`` in the block."""
    calls: list[int] = []
    fit = CosineKMeans.fit

    def counting(self, matrix):
        calls.append(matrix.shape[0])
        return fit(self, matrix)

    CosineKMeans.fit = counting
    try:
        yield calls
    finally:
        CosineKMeans.fit = fit


def _build(backend: str, tmp_path_factory) -> Session:
    builder = Session.builder().dataset("wikipedia").config(**CONFIG)
    if backend == "sqlite":
        path = tmp_path_factory.mktemp("analysis") / "store.sqlite"
        builder.backend("sqlite", path=path)
    return builder.build()


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    return {backend: _build(backend, tmp_path_factory) for backend in BACKENDS}


def fresh(session: Session, **overrides) -> Session:
    """A session with empty caches over the same engine and index."""
    return (
        Session.builder()
        .engine(session.engine.inner)
        .config(**{**CONFIG, **overrides})
        .build()
    )


def content(report) -> dict:
    return schema.report_content(schema.report_to_dict(report))


def ingest(session: Session, query: str) -> None:
    n = next(_doc_ids)
    session.engine.index.add_all(
        [Document(doc_id=f"ingest-{n}", terms={query: 6, "espresso": 2})]
    )


class TestAnalysisReuse:
    @SETTINGS
    @given(
        query=st.sampled_from(QUERIES),
        pair=st.sampled_from(ALGORITHM_PAIRS),
        backend=st.sampled_from(BACKENDS),
        ingest_between=st.booleans(),
    )
    def test_second_algorithm_matches_a_fresh_session(
        self, sessions, query, pair, backend, ingest_between
    ):
        first, second = pair
        session = sessions[backend]
        session.expand(query, algorithm=first)
        moved = ingest_between and backend == "sqlite"
        if moved:
            ingest(session, query)
        with kmeans_fits() as fits:
            report = session.expand(query, algorithm=second)
        assert len(fits) == (1 if moved else 0)
        expected = fresh(session).expand(query, algorithm=second)
        assert content(report) == content(expected)

    @SETTINGS
    @given(
        query=st.sampled_from(QUERIES),
        algorithm=st.sampled_from(ALGORITHM_NAMES),
        backend=st.sampled_from(BACKENDS),
        drop=st.sampled_from(("clear_caches",)),
    )
    def test_clear_and_refresh_drop_the_analysis(
        self, sessions, query, algorithm, backend, drop
    ):
        session = sessions[backend]
        session.expand(query, algorithm=algorithm)
        assert session.cache_info()["analysis"]["entries"] >= 1
        getattr(session, drop)()
        assert session.cache_info()["analysis"]["entries"] == 0
        with kmeans_fits() as fits:
            session.expand(query, algorithm=algorithm)
        assert len(fits) == 1

    @SETTINGS
    @given(
        query=st.sampled_from(QUERIES),
        pair=st.sampled_from(ALGORITHM_PAIRS),
        backend=st.sampled_from(BACKENDS),
        n_clusters=st.sampled_from((2, 4, 5)),
    )
    def test_sibling_config_does_not_reuse_labels(
        self, sessions, query, pair, backend, n_clusters
    ):
        first, second = pair
        session = sessions[backend]
        session.clear_caches()
        session.expand(query, algorithm=first)
        sibling = session.with_config(n_clusters=n_clusters)
        with kmeans_fits() as fits:
            report = sibling.expand(query, algorithm=second)
            sibling.expand(query, algorithm=first)  # the sibling's own reuse
        assert len(fits) == 1
        expected = fresh(session, n_clusters=n_clusters).expand(
            query, algorithm=second
        )
        assert content(report) == content(expected)

    @SETTINGS
    @given(
        query=st.sampled_from(QUERIES),
        pair=st.sampled_from(ALGORITHM_PAIRS),
        backend=st.sampled_from(BACKENDS),
    )
    def test_reused_analysis_is_measured_once(
        self, sessions, query, pair, backend
    ):
        first, second = pair
        session = sessions[backend]
        session.clear_caches()
        stats = session.execution_pipeline.stage_stats
        tracer = Tracer(buffer=TraceBuffer())
        tags = []
        for trace_id, algorithm in (("first", first), ("second", second)):
            before = stats.snapshot()
            with tracer.request("expand", trace_id=trace_id):
                report = session.expand(query, algorithm=algorithm)
            after = stats.snapshot()
            timed = [t.stage for t in report.stage_timings]
            spans = tracer.buffer.get(trace_id)["spans"]
            stage_spans = [s for s in spans if s["name"].startswith("stage.")]
            assert [s["name"] for s in stage_spans] == [
                f"stage.{t}" for t in timed
            ]
            for stage in timed:
                was = before.get(stage, {}).get("count", 0)
                assert after[stage]["count"] == was + 1
            tags += [
                s["attrs"]["analysis"]
                for s in stage_spans
                if s["name"] == "stage.cluster"
            ]
        assert tags == ["miss", "hit"]


class TestSingleSessionCache:
    def test_describe_reports_the_analysis_tier(self, sessions):
        session = sessions["memory"]
        session.clear_caches()
        session.expand("java", algorithm="iskr")
        session.expand("java", algorithm="pebc")
        caches = session.describe()["caches"]
        assert set(caches) == {"retrieval", "analysis"}
        assert caches["analysis"]["entries"] == 1
        assert caches["analysis"]["hits"] >= 1

    def test_cached_labels_are_read_only(self, sessions):
        session = sessions["memory"]
        ctx = session.run_stages("java", until="cluster")
        with pytest.raises(ValueError):
            ctx.labels[0] = 99

    def test_step_methods_cluster_without_the_cache(self, sessions):
        session = sessions["memory"]
        session.clear_caches()
        results = session.retrieve("java")
        with kmeans_fits() as fits:
            session.cluster(results)
            session.cluster(results)
        assert len(fits) == 2
        assert session.cache_info()["analysis"]["entries"] == 0


class TestConcurrentReuse:
    def test_threads_sharing_analyses_match_fresh_sessions(self, sessions):
        # More workers than cores, and a short switch interval, so runs
        # race on the same cache entries and on filling in candidates.
        session = sessions["memory"]
        session.clear_caches()
        jobs = [(q, a) for q in QUERIES for a in ("iskr", "pebc", "fmeasure")] * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(session.expand, q, algorithm=a) for q, a in jobs
                ]
                reports = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        reference = fresh(session)
        for (query, algorithm), report in zip(jobs, reports):
            expected = reference.expand(query, algorithm=algorithm)
            assert content(report) == content(expected)
        assert session.cache_info()["analysis"]["entries"] == len(QUERIES)


# -- retrieval that straddles an ingest --------------------------------------


class _IngestingEngine:
    """A search engine that commits one ingest from inside ``search``.

    The armed search reads its results first and ingests second, so it
    hands back previous-generation results after the ingest has
    committed: an unlocked ``sqlite`` read that straddles a write, made
    deterministic. No listener is subscribed; the generation alone must
    keep those results from being served at the new one.
    """

    def __init__(self, engine, document: Document) -> None:
        self._engine = engine
        self._pending: Document | None = document

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def search(self, query, top_k=None, semantics="and"):
        results = self._engine.search(query, top_k=top_k, semantics=semantics)
        document, self._pending = self._pending, None
        if document is not None:
            self._engine.index.add_all([document])
        return results


class TestStraddlingIngest:
    @pytest.mark.parametrize("call", ["search", "expand"])
    def test_next_generation_matches_a_fresh_session(self, tmp_path, call):
        base = (
            Session.builder()
            .dataset("wikipedia")
            .backend("sqlite", path=tmp_path / "store.sqlite")
            .config(**CONFIG)
            .build()
        )
        document = Document(doc_id="straddler", terms={"java": 9, "espresso": 3})
        engine = _IngestingEngine(base.engine.inner, document)
        session = Session.builder().engine(engine).config(**CONFIG).build()
        generation = engine.index.generation

        getattr(session, call)("java")  # straddles the ingest

        assert engine.index.generation == generation + 1
        reference = fresh(base)
        if call == "search":
            got, want = session.search("java"), reference.search("java")
            assert [(r.document.doc_id, r.score) for r in got] == [
                (r.document.doc_id, r.score) for r in want
            ]
            assert "straddler" in {r.document.doc_id for r in got}
        else:
            got, want = session.expand("java"), reference.expand("java")
            assert content(got) == content(want)
            assert "straddler" in {r.document.doc_id for r in got.results}
