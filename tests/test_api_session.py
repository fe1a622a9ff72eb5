"""Tests for repro.api.session: builder validation, caching, batches."""

from dataclasses import replace

import pytest

from repro.api import ALGORITHMS, BatchReport, Session
from repro.errors import ConfigError, RegistryError


@pytest.fixture(scope="module")
def wiki_session():
    return (
        Session.builder()
        .dataset("wikipedia")
        .algorithm("iskr")
        .config(n_clusters=3)
        .build()
    )


def _strip_timings(report):
    # Zero every wall-clock value but keep the stage-timing *structure*
    # (which stages ran, in which order) comparable.
    return replace(
        report,
        clustering_seconds=0.0,
        expansion_seconds=0.0,
        stage_timings=tuple(
            replace(t, seconds=0.0) for t in report.stage_timings
        ),
    )


class TestBuilderValidation:
    def test_needs_a_corpus_source(self):
        with pytest.raises(ConfigError, match="corpus source"):
            Session.builder().build()

    def test_conflicting_sources_rejected(self, tiny_engine):
        with pytest.raises(ConfigError, match="conflicting"):
            (Session.builder()
             .dataset("wikipedia")
             .engine(tiny_engine)
             .build())

    def test_unknown_algorithm(self):
        with pytest.raises(RegistryError, match="unknown algorithm"):
            Session.builder().dataset("wikipedia").algorithm("magic").build()

    def test_unknown_clusterer(self):
        with pytest.raises(RegistryError, match="unknown clusterer"):
            Session.builder().dataset("wikipedia").clusterer("dbscan").build()

    def test_unknown_scorer(self):
        with pytest.raises(RegistryError, match="unknown scorer"):
            Session.builder().dataset("wikipedia").retrieval("pagerank").build()

    def test_unknown_dataset(self):
        with pytest.raises(RegistryError, match="unknown dataset"):
            Session.builder().dataset("imagenet").build()

    def test_bad_config_key(self):
        with pytest.raises(ConfigError, match="config"):
            Session.builder().dataset("wikipedia").config(n_cluster=3).build()

    def test_bad_config_value(self):
        with pytest.raises(ConfigError):
            Session.builder().dataset("wikipedia").config(n_clusters=0).build()

    def test_exact_with_or_semantics_rejected(self):
        with pytest.raises(ConfigError, match="exact"):
            (Session.builder()
             .dataset("wikipedia")
             .algorithm("exact")
             .config(semantics="or")
             .build())

    def test_combination_guard_is_case_insensitive(self):
        # Registries lowercase names; the build-time guards must agree.
        with pytest.raises(ConfigError, match="exact"):
            (Session.builder()
             .dataset("wikipedia")
             .algorithm("EXACT")
             .config(semantics="or")
             .build())

    def test_kselect_with_one_cluster_rejected(self):
        with pytest.raises(RegistryError, match="kselect"):
            (Session.builder()
             .dataset("wikipedia")
             .clusterer("kselect")
             .config(n_clusters=1)
             .build())

    def test_bad_algorithm_kwargs_fail_at_build(self):
        with pytest.raises((ConfigError, TypeError)):
            (Session.builder()
             .dataset("wikipedia")
             .algorithm("iskr", banana=True)
             .build())

    def test_retrieval_conflicts_with_prebuilt_engine(self, tiny_engine):
        with pytest.raises(ConfigError, match="retrieval"):
            Session.builder().engine(tiny_engine).retrieval("bm25").build()


class TestCombinationMatrix:
    """Every (algorithm × clusterer × scorer) the registries expose builds."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS.names()))
    @pytest.mark.parametrize("clusterer", [
        "kmeans", "bisecting", "agglomerative", "kmedoids", "auto", "kselect",
    ])
    @pytest.mark.parametrize("scorer", ["tfidf", "bm25", "lm"])
    def test_builds(self, algorithm, clusterer, scorer):
        session = (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=2, terms=["java"])
            .retrieval(scorer)
            .clusterer(clusterer)
            .algorithm(algorithm)
            .config(n_clusters=2)
            .build()
        )
        assert session.algorithm_name == algorithm
        assert session.clusterer_name == clusterer

    @pytest.mark.parametrize("clusterer", ["bisecting", "auto", "kselect"])
    def test_expands_with_each_clusterer(self, clusterer):
        session = (
            Session.builder()
            .dataset("wikipedia")
            .clusterer(clusterer)
            .config(n_clusters=3)
            .build()
        )
        report = session.expand("java")
        assert report.n_results > 0
        assert len(report.expanded) >= 1


class TestSessionBasics:
    def test_search_and_expand(self, wiki_session):
        results = wiki_session.search("java", top_k=5)
        assert len(results) == 5
        report = wiki_session.expand("java")
        assert report.seed_query == "java"
        assert report.n_clusters >= 2

    def test_algorithm_override_per_call(self, wiki_session):
        iskr = wiki_session.expand("java")
        pebc = wiki_session.expand("java", algorithm="pebc")
        assert iskr.n_results == pebc.n_results  # shared retrieval
        assert wiki_session.algorithm_name == "iskr"  # default untouched

    def test_algorithm_override_case_insensitive(self, wiki_session):
        # "ISKR" must hit the session's configured algorithm path, not a
        # kwargs-less sibling.
        a = _strip_timings(wiki_session.expand("java", algorithm="ISKR"))
        b = _strip_timings(wiki_session.expand("java"))
        assert a == b

    def test_caches_bounded_and_clearable(self, wiki_session):
        wiki_session.expand("java")
        assert wiki_session.engine.cache_info()["entries"] >= 1
        wiki_session.clear_caches()
        assert wiki_session.engine.cache_info()["entries"] == 0
        # Still works (and repopulates) after a clear.
        wiki_session.expand("java")
        assert wiki_session.engine.cache_info()["entries"] >= 1

    def test_bounded_cache_evicts_beyond_capacity(self):
        # Session caches are the shared repro.caching.LRUTTLCache.
        from repro.caching import LRUTTLCache

        cache = LRUTTLCache(maxsize=2)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        assert "a" not in cache
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_bounded_cache_is_lru_not_fifo(self):
        from repro.caching import LRUTTLCache

        cache = LRUTTLCache(maxsize=2)
        cache["a"], cache["b"] = 1, 2
        assert cache.get("a") == 1  # refresh a's recency
        cache["c"] = 3  # evicts b, the least recently used
        assert "a" in cache and "b" not in cache and "c" in cache

    def test_bounded_cache_overwrite_refreshes_recency(self):
        from repro.caching import LRUTTLCache

        cache = LRUTTLCache(maxsize=2)
        cache["a"], cache["b"] = 1, 2
        cache["a"] = 10
        cache["c"] = 3
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get("a") == 10

    def test_shared_caches_survive_concurrent_hammering(self):
        # LRU reads mutate (recency refresh); the shared cache must
        # stay consistent under the thread fan-out sessions advertise.
        import threading

        from repro.caching import LRUTTLCache

        cache = LRUTTLCache(maxsize=8)
        errors = []

        def hammer(worker: int) -> None:
            try:
                for i in range(2000):
                    key = f"k{(worker + i) % 12}"
                    cache[key] = i
                    cache.get(key)
                    cache.get(f"k{i % 12}")
            except Exception as exc:  # noqa: BLE001 — the test is "no exception"
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 8

    def test_cache_capacity_configurable_and_described(self):
        session = (
            Session.builder()
            .dataset("wikipedia")
            .cache_capacity(retrieval=2, analysis=3)
            .config(n_clusters=3)
            .build()
        )
        caches = session.describe()["caches"]
        assert caches["retrieval"]["capacity"] == 2
        assert caches["analysis"]["capacity"] == 3
        # both tiers report the full documented shape
        for tier in ("retrieval", "analysis"):
            assert set(caches[tier]) >= {"entries", "capacity", "hits", "misses"}
        # Capacity is enforced: three distinct retrievals keep two.
        for query in ("java", "rockets", "columbia"):
            session.search(query)
        assert session.cache_info()["retrieval"]["entries"] == 2

    def test_cache_capacity_validates(self):
        with pytest.raises(ConfigError):
            Session.builder().cache_capacity(retrieval=0)
        with pytest.raises(ConfigError):
            Session.builder().cache_capacity(analysis=-1)

    def test_describe_reports_hits_and_misses(self, wiki_session):
        wiki_session.clear_caches()
        before = wiki_session.describe()["caches"]["retrieval"]
        wiki_session.search("java")
        wiki_session.search("java")
        after = wiki_session.describe()["caches"]["retrieval"]
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert after["entries"] == 1
        assert after["capacity"] >= 1

    def test_retrieval_cache_shared(self, wiki_session):
        before = wiki_session.engine.cache_info()["entries"]
        wiki_session.expand("rockets")
        mid = wiki_session.engine.cache_info()["entries"]
        wiki_session.expand("rockets")
        after = wiki_session.engine.cache_info()["entries"]
        assert mid == before + 1
        assert after == mid  # repeated seed query did not re-search

    def test_expand_deterministic_across_calls(self, wiki_session):
        a = _strip_timings(wiki_session.expand("java", algorithm="pebc"))
        b = _strip_timings(wiki_session.expand("java", algorithm="pebc"))
        assert a == b

    def test_with_config_shares_engine(self, wiki_session):
        narrow = wiki_session.with_config(n_clusters=2)
        assert narrow.engine is wiki_session.engine
        assert narrow.config.n_clusters == 2
        assert wiki_session.config.n_clusters == 3
        report = narrow.expand("java")
        assert report.n_clusters <= 2

    def test_with_config_bad_key(self, wiki_session):
        with pytest.raises(ConfigError):
            wiki_session.with_config(nope=1)

    def test_expand_interleaved(self, wiki_session):
        report = wiki_session.expand_interleaved("java", max_rounds=2)
        assert len(report.rounds) >= 1

    def test_describe_is_jsonable(self, wiki_session):
        import json

        desc = wiki_session.describe()
        assert json.loads(json.dumps(desc)) == desc
        assert desc["dataset"] == "wikipedia"
        assert desc["algorithm"] == "iskr"

    def test_prebuilt_engine_session(self, tiny_engine):
        session = (
            Session.builder()
            .engine(tiny_engine)
            .config(n_clusters=2, top_k_results=None, min_candidates=1)
            .build()
        )
        results = session.search("apple")
        assert results


class TestExpandMany:
    def test_matches_per_query_expand(self, wiki_session):
        queries = [
            "java", "rockets", "columbia", "eclipse", "domino",
            "cvs", "cell", "mouse", "java", "rockets",
        ]
        batch = wiki_session.expand_many(queries, workers=1)
        assert [item.query for item in batch.items] == queries
        for item in batch.items:
            assert item.ok
            assert _strip_timings(item.report) == _strip_timings(
                wiki_session.expand(item.query)
            )

    def test_parallel_matches_sequential(self, wiki_session):
        queries = ["java", "rockets", "columbia"]
        seq = wiki_session.expand_many(queries, workers=1)
        par = wiki_session.expand_many(queries, workers=3)
        for a, b in zip(seq.items, par.items):
            assert _strip_timings(a.report) == _strip_timings(b.report)

    def test_error_isolation(self, wiki_session):
        batch = wiki_session.expand_many(
            ["java", "zzz-no-such-term", "rockets"], workers=2
        )
        assert batch.n_ok == 2
        assert batch.n_failed == 1
        bad = batch.failures()[0]
        assert bad.query == "zzz-no-such-term"
        assert bad.report is None
        assert bad.error_type == "ExpansionError"
        assert "no results" in bad.error_message
        # Order preserved around the failure.
        assert [item.query for item in batch.items] == [
            "java", "zzz-no-such-term", "rockets",
        ]

    def test_all_failures_do_not_raise(self, wiki_session):
        batch = wiki_session.expand_many(["qqqq", "wwww"], workers=2)
        assert batch.n_ok == 0
        assert batch.n_failed == 2

    def test_empty_batch(self, wiki_session):
        batch = wiki_session.expand_many([])
        assert batch.items == ()
        assert batch.n_ok == 0

    def test_bad_workers(self, wiki_session):
        with pytest.raises(ConfigError):
            wiki_session.expand_many(["java"], workers=0)

    def test_batch_report_roundtrip(self, wiki_session):
        import json

        batch = wiki_session.expand_many(["java", "zzz-no-such-term"])
        payload = json.loads(json.dumps(batch.to_dict()))
        restored = BatchReport.from_dict(payload)
        assert restored == batch

    def test_batch_from_dict_missing_keys_schema_error(self):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError, match="items"):
            BatchReport.from_dict({"schema_version": 1, "kind": "batch_report"})
        with pytest.raises(SchemaError, match="query"):
            BatchReport.from_dict(
                {
                    "schema_version": 1,
                    "kind": "batch_report",
                    "items": [{}],
                    "workers": 1,
                    "seconds": 0.0,
                }
            )
