"""Tests for repro.serve: cache, metrics, pool, service, and HTTP layer."""

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import BACKENDS, schema
from repro.data.documents import make_text_document
from repro.errors import ConfigError, ServeError
from repro.obs import LatencyHistogram
from repro.serve import (
    ExpansionService,
    LRUTTLCache,
    ServeConfig,
    ServerMetrics,
    SessionPool,
    create_server,
)
from repro.text.analyzer import Analyzer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- tier-0 cache ------------------------------------------------------------


class TestLRUTTLCache:
    def test_put_get_roundtrip(self):
        cache = LRUTTLCache(maxsize=4)
        cache.put("a", {"x": 1})
        assert cache.lookup("a") == (True, {"x": 1})
        assert cache.get("missing", "default") == "default"

    def test_falsy_values_are_cacheable(self):
        cache = LRUTTLCache(maxsize=4)
        cache.put("empty", [])
        hit, value = cache.lookup("empty")
        assert hit is True and value == []

    def test_lru_eviction_order(self):
        cache = LRUTTLCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.lookup("a")  # refresh a's recency
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.lookup("a")[0] is True
        assert cache.lookup("b")[0] is False
        assert cache.lookup("c")[0] is True
        assert cache.stats()["evictions"] == 1

    def test_overwrite_same_key_keeps_capacity(self):
        cache = LRUTTLCache(maxsize=2)
        cache.put("a", 1)
        cache.put("a", 2)
        cache.put("b", 3)
        assert len(cache) == 2
        assert cache.get("a") == 2
        assert cache.stats()["evictions"] == 0

    def test_ttl_expiry_is_lazy_and_counted(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.999)
        assert cache.lookup("a")[0] is True
        clock.advance(1.0)
        assert cache.lookup("a")[0] is False
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["entries"] == 0

    def test_purge_expired(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=5.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        clock.advance(6.0)
        cache.put("c", 3)
        assert cache.purge_expired() == 2
        assert len(cache) == 1

    def test_contains_respects_ttl(self):
        clock = FakeClock()
        cache = LRUTTLCache(maxsize=4, ttl=5.0, clock=clock)
        cache.put("a", 1)
        assert "a" in cache
        clock.advance(5.0)
        assert "a" not in cache

    def test_invalidate_all_and_by_predicate(self):
        cache = LRUTTLCache(maxsize=8)
        cache.put(("wiki", "expand", "java"), 1)
        cache.put(("wiki", "search", "java"), 2)
        cache.put(("shop", "expand", "tv"), 3)
        assert cache.invalidate_prefix(("wiki",)) == 2
        assert cache.lookup(("shop", "expand", "tv"))[0] is True
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 3

    def test_hit_rate_in_stats(self):
        cache = LRUTTLCache(maxsize=4)
        cache.put("a", 1)
        cache.lookup("a")
        cache.lookup("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            LRUTTLCache(maxsize=0)
        with pytest.raises(ValueError):
            LRUTTLCache(maxsize=4, ttl=0.0)


# -- metrics -----------------------------------------------------------------


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        assert LatencyHistogram().snapshot() == {"count": 0}

    def test_percentiles_and_counts(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.observe(ms / 1000.0)
        snap = hist.snapshot()
        assert snap["count"] == 100
        assert snap["p50_seconds"] == pytest.approx(0.050, abs=0.002)
        assert snap["p95_seconds"] == pytest.approx(0.095, abs=0.002)
        assert snap["p99_seconds"] == pytest.approx(0.099, abs=0.002)
        assert snap["max_seconds"] == pytest.approx(0.100)
        assert sum(snap["buckets"].values()) == 100

    def test_bucket_assignment(self):
        hist = LatencyHistogram(buckets=(0.001, 0.01))
        hist.observe(0.0005)
        hist.observe(0.005)
        hist.observe(5.0)
        snap = hist.snapshot()
        assert snap["buckets"] == {"le_0.001": 1, "le_0.01": 1, "le_inf": 1}


# -- configs and pool --------------------------------------------------------


class TestServeConfigParse:
    def test_name_only_uses_defaults(self):
        config = ServeConfig.parse("wiki")
        assert config.name == "wiki"
        assert config.dataset == "wikipedia"
        assert config.algorithm == "iskr"

    def test_full_spec(self):
        config = ServeConfig.parse(
            "fast:dataset=shopping,algorithm=pebc,clusterer=bisecting,"
            "scoring=bm25,backend=sqlite,k=4,top=50,seed=7"
        )
        assert config.dataset == "shopping"
        assert config.algorithm == "pebc"
        assert config.clusterer == "bisecting"
        assert config.retrieval == "bm25"
        assert config.backend == "sqlite"
        assert config.n_clusters == 4
        assert config.top_k_results == 50
        assert config.seed == 7

    def test_top_zero_means_all_results(self):
        assert ServeConfig.parse("w:top=0").top_k_results is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown serve config key"):
            ServeConfig.parse("w:flavor=spicy")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            ServeConfig.parse("w:dataset")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            ServeConfig.parse("   ")

    def test_bad_component_fails_at_build_not_parse(self):
        config = ServeConfig.parse("w:algorithm=nonsense")
        with pytest.raises(ConfigError):
            config.build_session()

    @pytest.mark.parametrize("backend", ["sharded", "disk", "dynamic"])
    def test_retired_backends_rejected_naming_the_registered_ones(self, backend):
        config = ServeConfig.parse(f"w:backend={backend}")
        with pytest.raises(ConfigError) as excinfo:
            config.build_session()
        message = str(excinfo.value)
        assert backend in message
        for name in BACKENDS.names():
            assert name in message

    def test_shards_key_rejected_naming_the_key(self):
        with pytest.raises(ConfigError, match="unknown serve config key 'shards'"):
            ServeConfig.parse("w:shards=8")

    def test_component_names_case_insensitive_like_registries(self):
        config = ServeConfig.parse("w:backend=SQLite,dataset=WIKIPEDIA")
        assert config.backend == "sqlite"
        assert config.dataset == "wikipedia"

    def test_nameless_spec_rejected(self):
        with pytest.raises(ConfigError, match="has no name"):
            ServeConfig.parse("dataset=shopping")

    def test_string_fields_keep_integer_looking_values_as_strings(self):
        # int() coercion applies to integer fields only; "dataset=2024"
        # must stay a string so the failure names the unknown dataset
        # instead of a baffling type error.
        config = ServeConfig.parse("w:dataset=2024")
        assert config.dataset == "2024"

    def test_numeric_keys_reject_non_integers_at_parse_time(self):
        # Pool builds are lazy; a typo must fail at startup, not as a
        # 400 on the first request.
        for spec in ("w:k=abc", "w:seed=x", "w:top=ten"):
            with pytest.raises(ConfigError, match="needs an integer"):
                ServeConfig.parse(spec)


class TestSessionPool:
    def test_lazy_build_and_sharing(self):
        pool = SessionPool([ServeConfig(name="wiki")])
        assert pool.built_names() == ()
        entry = pool.get("wiki")
        assert pool.built_names() == ("wiki",)
        assert pool.get("wiki") is entry

    def test_unknown_config_raises_serve_error(self):
        pool = SessionPool([ServeConfig(name="wiki")])
        with pytest.raises(ServeError, match="unknown serve config"):
            pool.get("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            SessionPool([ServeConfig(name="a"), ServeConfig(name="a")])

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigError):
            SessionPool([])

    def test_ingest_requires_mutable_backend(self):
        pool = SessionPool([ServeConfig(name="wiki")])
        with pytest.raises(ServeError, match="backend=sqlite"):
            pool.ingest("wiki", [])

    def test_ingest_refreshes_and_fires_hook(self):
        # Nothing is pushed on ingest: the first request after it sees
        # the new generation, clears the entry's session caches and
        # drops the config's dead responses.
        service = ExpansionService(
            SessionPool([ServeConfig(name="live", backend="sqlite")])
        )
        try:
            pool = service.pool
            for query in ("java", "rockets", "columbia"):
                service.handle("GET", "/expand", {"config": "live", "query": query})
            entry = pool.get("live")
            generation = entry.generation()
            before = service.cache.stats()
            assert before["entries"] == 6  # both variants per query
            analyzer = Analyzer(use_stemming=False)
            doc = make_text_document(
                doc_id="t-1", text="java island brew", analyzer=analyzer, title="t"
            )
            assert pool.ingest("live", [doc]) == 1
            assert entry.generation() == generation + 1
            assert entry.session.cache_info()["analysis"]["entries"] == 3
            assert service.cache.stats()["entries"] == 6

            status, body = service.handle(
                "GET", "/expand", {"config": "live", "query": "java"}
            )
            assert status == 200 and json.loads(body)["cache"] == "miss"
            after = service.cache.stats()
            assert after["invalidations"] == before["invalidations"] + 6
            assert after["entries"] == 2 < before["entries"]
            # Only the new generation's own work is left.
            assert entry.session.cache_info()["analysis"]["entries"] == 1
            assert entry.session.cache_info()["retrieval"]["entries"] == 1
        finally:
            service.close()

    def test_refresh_after_another_handle_wrote_frees_dead_entries(
        self, tmp_path
    ):
        from repro.store import DocumentStore

        path = tmp_path / "shared.sqlite"
        service = ExpansionService(
            SessionPool([ServeConfig(name="db", store=str(path))])
        )
        try:
            params = {"config": "db", "query": "java"}
            service.handle("GET", "/expand", params)
            entry = service.pool.get("db")
            store = entry.index.store
            generation = entry.generation()
            before = service.cache.stats()
            assert before["entries"] == 2
            analyzer = Analyzer(use_stemming=False)
            with DocumentStore(path) as other:
                other.upsert(
                    make_text_document(
                        doc_id="elsewhere", text="java elsewhere",
                        analyzer=analyzer, title="e",
                    )
                )
            assert entry.generation() == generation  # not seen yet
            store.refresh()
            assert entry.generation() == generation + 1
            service.handle("GET", "/search", params)
            after = service.cache.stats()
            assert after["invalidations"] == before["invalidations"] + 2
            assert entry.session.cache_info()["analysis"]["entries"] == 0
        finally:
            service.close()

    @staticmethod
    def _shared_store_service(path) -> ExpansionService:
        """Configs ``a`` and ``b`` on one store path."""
        return ExpansionService(
            SessionPool(
                [ServeConfig.parse(f"{name}:store={path}") for name in "ab"]
            )
        )

    @staticmethod
    def _search(service, config: str, query: str) -> list[dict]:
        status, payload = service.handle(
            "GET", "/search", {"config": config, "query": query}
        )
        assert status == 200
        return json.loads(payload)["results"]

    def test_ingest_through_one_config_is_retrieved_by_another(self, tmp_path):
        service = self._shared_store_service(tmp_path / "shared.sqlite")
        try:
            for config in "ab":  # both built before the ingest
                assert self._search(service, config, "java")
            status, _ = service.handle(
                "POST", "/ingest",
                {"config": "a", "documents": [{"doc_id": "n1", "text": "zzqx java"}]},
            )
            assert status == 200
            for config in "ab":
                hits = self._search(service, config, "zzqx")
                assert [hit["document"]["doc_id"] for hit in hits] == ["n1"]
        finally:
            service.close()

    def test_upsert_through_one_config_shows_the_stored_payload_in_another(
        self, tmp_path
    ):
        service = self._shared_store_service(tmp_path / "shared.sqlite")
        try:
            for config in "ab":
                assert self._search(service, config, "java")
            store = service.pool.get("a").index.store
            doc_id = store.document(0).doc_id
            status, _ = service.handle(
                "POST", "/ingest",
                {
                    "config": "a",
                    "documents": [{"doc_id": doc_id, "text": "qqvv wholly new"}],
                },
            )
            assert status == 200
            stored = schema.document_to_dict(store.document(0))
            assert stored["terms"] == {"qqvv": 1, "wholly": 1, "new": 1}
            for config in "ab":
                hits = self._search(service, config, "qqvv")
                assert [hit["position"] for hit in hits] == [0]
                assert hits[0]["document"] == stored
        finally:
            service.close()

    def test_refresh_after_another_handle_wrote_retrieves_its_document(
        self, tmp_path
    ):
        from repro.store import DocumentStore

        path = tmp_path / "shared.sqlite"
        service = ExpansionService(
            SessionPool([ServeConfig(name="db", store=str(path))])
        )
        try:
            assert self._search(service, "db", "java")
            store = service.pool.get("db").index.store
            with DocumentStore(path) as other:
                other.upsert(
                    make_text_document(
                        doc_id="elsewhere", text="zzqx java",
                        analyzer=Analyzer(use_stemming=False),
                    )
                )
            store.refresh()
            assert store.document_frequency("zzqx") == 1
            hits = self._search(service, "db", "zzqx")
            assert [hit["document"]["doc_id"] for hit in hits] == ["elsewhere"]
        finally:
            service.close()

    def test_describe_includes_live_state(self):
        pool = SessionPool([ServeConfig(name="wiki"), ServeConfig(name="b")])
        pool.get("wiki")
        info = pool.describe()
        assert info["wiki"]["built"] is True
        assert info["b"]["built"] is False
        assert "session" in info["wiki"]
        assert info["wiki"]["session"]["stages"][0] == "retrieve"


# -- service (transport-free) ------------------------------------------------


@pytest.fixture(scope="module")
def service():
    return ExpansionService(
        SessionPool(
            [
                ServeConfig(name="wiki", n_clusters=3),
                ServeConfig(name="live", backend="sqlite", n_clusters=3),
            ]
        ),
        cache_size=64,
        workers=2,
    )


class TestExpansionService:
    def test_unknown_path_404(self, service):
        status, payload = service.handle("GET", "/nope", {})
        assert status == 404
        assert "/expand" in payload["paths"]

    def test_method_not_allowed(self, service):
        status, payload = service.handle("GET", "/batch", {})
        assert status == 405

    def test_missing_query_400(self, service):
        status, payload = service.handle("GET", "/expand", {"config": "wiki"})
        assert status == 400
        assert "query" in payload["message"]

    def test_unknown_config_404(self, service):
        status, payload = service.handle(
            "GET", "/expand", {"config": "nope", "query": "java"}
        )
        assert status == 404

    def test_expand_miss_then_hit_and_schema_roundtrip(self, service):
        status, first = service.handle(
            "GET", "/expand", {"config": "wiki", "query": "java"}
        )
        first = json.loads(first)
        assert status == 200 and first["cache"] == "miss"
        status, second = service.handle(
            "GET", "/expand", {"config": "wiki", "query": "java"}
        )
        second = json.loads(second)
        assert status == 200 and second["cache"] == "hit"
        assert second["report"] == first["report"]
        report = schema.report_from_dict(second["report"])
        assert report.seed_query == "java"
        assert report.stage_timings  # v2 observability present

    def test_results_none_drops_documents_but_stays_v2(self, service):
        status, payload = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "java", "results": "none"},
        )
        payload = json.loads(payload)
        assert status == 200
        assert "results" not in payload["report"]
        report = schema.report_from_dict(payload["report"])
        assert report.results == ()
        assert report.expanded

    def test_results_none_derives_from_cached_full_payload(self, service):
        _, full = service.handle(
            "GET", "/expand", {"config": "wiki", "query": "rockets"}
        )
        full = json.loads(full)
        # The miss cached both variants; the trimmed one must be a hit,
        # never recomputed.
        _, trimmed = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "rockets", "results": "none"},
        )
        trimmed = json.loads(trimmed)
        assert trimmed["cache"] == "hit"
        assert "results" not in trimmed["report"]
        assert trimmed["report"]["expanded"] == full["report"]["expanded"]

    def test_results_none_miss_caches_the_full_report_too(
        self, service, monkeypatch
    ):
        entry = service.pool.get("wiki")
        expand = entry.session.expand
        computes = []

        def spy(query, algorithm=None):
            computes.append(query)
            return expand(query, algorithm=algorithm)

        monkeypatch.setattr(entry.session, "expand", spy)
        status, trimmed = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "eclipse", "results": "none"},
        )
        assert status == 200 and json.loads(trimmed)["cache"] == "miss"
        # /batch items are always results=full: the same expansion must
        # be a hit, not a second k-means + ISKR run.
        status, body = service.handle(
            "POST", "/batch", {"config": "wiki", "queries": ["eclipse"]}
        )
        assert status == 200
        (item,) = json.loads(body)["report"]["items"]
        assert item["cache"] == "hit"
        assert item["report"]["results"]
        assert computes == ["eclipse"]

    def test_bad_results_mode_400(self, service):
        status, _ = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "java", "results": "some"},
        )
        assert status == 400

    def test_algorithm_override_is_separate_cache_entry(self, service):
        status, payload = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "java", "algorithm": "fmeasure"},
        )
        payload = json.loads(payload)
        assert status == 200
        assert payload["algorithm"] == "fmeasure"

    def test_explicit_default_algorithm_shares_cache_entry(self, service):
        _, implicit = service.handle(
            "GET", "/expand", {"config": "wiki", "query": "columbia"}
        )
        implicit = json.loads(implicit)
        # Naming the config's default algorithm (any case) must hit the
        # same entry, not pay a duplicate recompute.
        _, explicit = service.handle(
            "GET",
            "/expand",
            {"config": "wiki", "query": "columbia", "algorithm": "ISKR"},
        )
        explicit = json.loads(explicit)
        assert explicit["cache"] == "hit"
        assert explicit["report"] == implicit["report"]

    def test_search_endpoint(self, service):
        status, payload = service.handle(
            "GET", "/search", {"config": "wiki", "query": "java", "top_k": "5"}
        )
        payload = json.loads(payload)
        assert status == 200
        assert payload["n_results"] == 5
        result = schema.search_result_from_dict(payload["results"][0])
        assert result.score > 0

    def test_search_validates_semantics_and_top_k(self, service):
        status, _ = service.handle(
            "GET",
            "/search",
            {"config": "wiki", "query": "java", "semantics": "xor"},
        )
        assert status == 400
        status, _ = service.handle(
            "GET",
            "/search",
            {"config": "wiki", "query": "java", "top_k": "lots"},
        )
        assert status == 400

    def test_batch_isolates_failures_and_reports_hits(self, service):
        status, payload = service.handle(
            "POST",
            "/batch",
            {
                "config": "wiki",
                "queries": ["java", "qqqqzzzz", "java"],
                "workers": 2,
            },
        )
        payload = json.loads(payload)
        assert status == 200
        assert payload["n_ok"] == 2 and payload["n_failed"] == 1
        assert payload["cache_hits"] >= 1
        assert payload["report"]["kind"] == "batch_report"
        items = payload["report"]["items"]
        assert [item["ok"] for item in items] == [True, False, True]
        assert items[1]["error_type"]
        # per-item lookups surface in the request metrics row too
        row = service.metrics.snapshot()["endpoints"]["batch"]
        assert row["cache_hits"] >= 1

    def test_batch_requires_queries(self, service):
        status, _ = service.handle("POST", "/batch", {"config": "wiki"})
        assert status == 400

    def test_single_config_is_implicit(self):
        lone = ExpansionService(
            SessionPool([ServeConfig(name="only", n_clusters=3)]), workers=1
        )
        status, payload = lone.handle("GET", "/expand", {"query": "java"})
        payload = json.loads(payload)
        assert status == 200
        assert payload["config"] == "only"

    def test_healthz_and_configs(self, service):
        status, payload = service.handle("GET", "/healthz", {})
        assert status == 200
        assert payload["status"] == "ok"
        assert set(payload["configs"]) == {"wiki", "live"}
        status, payload = service.handle("GET", "/configs", {})
        assert status == 200
        assert payload["configs"]["wiki"]["built"] is True

    def test_metrics_shape(self, service):
        status, payload = service.handle("GET", "/metrics", {})
        assert status == 200
        expand = payload["requests"]["expand"]
        assert expand["count"] >= 2
        assert expand["cache_hits"] >= 1
        # latency describes successful requests only (errors are counted
        # but never observed into the histogram)
        assert expand["latency"]["count"] == expand["count"] - expand["errors"]
        responses = payload["cache"]["responses"]
        assert responses["hits"] >= 1 and responses["capacity"] == 64
        stages = payload["stages"]["wiki"]
        assert set(stages) >= {"retrieve", "cluster", "expand"}
        sessions = payload["cache"]["sessions"]["wiki"]
        assert sessions["retrieval"]["capacity"] >= 1

    def test_ingestion_invalidates_cached_expansions(self, service):
        _, before = service.handle(
            "GET", "/expand", {"config": "live", "query": "java"}
        )
        before = json.loads(before)
        _, cached = service.handle(
            "GET", "/expand", {"config": "live", "query": "java"}
        )
        cached = json.loads(cached)
        assert cached["cache"] == "hit"
        analyzer = Analyzer(use_stemming=False)
        service.pool.ingest(
            "live",
            [
                make_text_document(
                    doc_id=f"svc-{i}",
                    text="java coffee island brew java arabica",
                    analyzer=analyzer,
                    title=f"svc {i}",
                )
                for i in range(4)
            ],
        )
        _, after = service.handle(
            "GET", "/expand", {"config": "live", "query": "java"}
        )
        after = json.loads(after)
        assert after["cache"] == "miss"

        # Content (not wall clock) must have changed: the ingested
        # documents rank into the results and shift the expansions.
        assert schema.report_content(after["report"]) != schema.report_content(
            before["report"]
        )
        doc_ids = [
            r["document"]["doc_id"] for r in after["report"]["results"]
        ]
        assert any(doc_id.startswith("svc-") for doc_id in doc_ids)

    def test_bad_workers_rejected(self):
        with pytest.raises(ServeError):
            ExpansionService(SessionPool([ServeConfig(name="x")]), workers=0)

    def test_bad_cache_params_raise_serve_error(self):
        # ValueError from the cache is translated into the ReproError
        # family, so `repro serve --cache-size 0` fails cleanly (exit 2).
        with pytest.raises(ServeError):
            ExpansionService(
                SessionPool([ServeConfig(name="x")]), cache_size=0
            )
        with pytest.raises(ServeError):
            ExpansionService(
                SessionPool([ServeConfig(name="x")]), cache_ttl=-1.0
            )

    def test_unknown_config_error_is_a_serve_error(self):
        from repro.errors import UnknownConfigError

        pool = SessionPool([ServeConfig(name="x")])
        with pytest.raises(UnknownConfigError):
            pool.get("missing")
        assert issubclass(UnknownConfigError, ServeError)

    def test_metrics_endpoint_counts_its_own_scrapes(self, service):
        service.handle("GET", "/metrics", {})
        _, payload = service.handle("GET", "/metrics", {})
        row = payload["requests"]["metrics"]
        assert row["count"] >= 1
        assert row["latency"]["count"] >= 1

    def test_error_requests_do_not_pollute_latency_percentiles(self, service):
        def expand_row():
            return service.metrics.snapshot()["endpoints"]["expand"]

        service.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        before = expand_row()
        for _ in range(5):
            status, _ = service.handle("GET", "/expand", {"config": "wiki"})
            assert status == 400
        after = expand_row()
        assert after["errors"] == before["errors"] + 5
        assert after["count"] == before["count"] + 5
        # The latency histogram only describes successful requests.
        assert after["latency"]["count"] == before["latency"]["count"]


# -- HTTP layer --------------------------------------------------------------


class TestBatchRepeats:
    """A query repeated in one ``/batch`` runs its first occurrence on the
    worker pool and its repeats after it, whatever the worker count."""

    @staticmethod
    def _service(workers: int) -> ExpansionService:
        config = ServeConfig(
            name="wiki",
            n_clusters=3,
            dataset_kwargs={"docs_per_sense": 4, "terms": ["java"]},
        )
        service = ExpansionService(SessionPool([config]), workers=workers)
        session = service.pool.get("wiki").session
        expand = session.expand
        barrier = threading.Barrier(2, timeout=1.0)

        def meet_then_expand(query, algorithm=None):
            # Two computes at once pass the barrier together, so both
            # miss; a compute on its own waits out the timeout.
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return expand(query, algorithm=algorithm)

        session.expand = meet_then_expand
        return service

    def test_a_repeat_hits_its_first_occurrence_on_any_worker_count(self):
        seen = []
        for workers in (1, 2):
            service = self._service(workers)
            try:
                status, body = service.handle(
                    "POST", "/batch",
                    {"queries": ["java", "java"], "workers": workers},
                )
                assert status == 200
                body = json.loads(body)
                stats = service.cache.stats()
                seen.append((
                    [item["cache"] for item in body["report"]["items"]],
                    body["cache_hits"],
                    (stats["hits"], stats["misses"]),
                ))
            finally:
                service.close(drain_timeout=1.0)
        assert seen == [(["miss", "hit"], 1, (1, 1))] * 2


@pytest.fixture(scope="module")
def server():
    server = create_server(
        ["wiki:dataset=wikipedia,k=3"], port=0, cache_size=32, workers=2
    ).start()
    yield server
    server.stop()


def _http_get(server, path, **params):
    url = server.url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestHTTPServer:
    def test_stop_before_start_returns_promptly(self):
        import threading

        unstarted = create_server(["w:dataset=wikipedia"], port=0)
        done = threading.Event()

        def stopper():
            unstarted.stop()
            done.set()

        threading.Thread(target=stopper, daemon=True).start()
        assert done.wait(timeout=5), "stop() hung on a never-started server"

    def test_healthz_over_http(self, server):
        status, payload = _http_get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == schema.SCHEMA_VERSION

    def test_expand_get_miss_then_hit(self, server):
        status, first = _http_get(
            server, "/expand", config="wiki", query="columbia"
        )
        assert status == 200 and first["cache"] == "miss"
        status, second = _http_get(
            server, "/expand", config="wiki", query="columbia"
        )
        assert second["cache"] == "hit"
        assert schema.report_from_dict(second["report"]).seed_query == "columbia"

    def test_expand_post_json_body(self, server):
        request = urllib.request.Request(
            server.url + "/expand",
            data=json.dumps({"config": "wiki", "query": "rockets"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            payload = json.loads(response.read())
        assert payload["query"] == "rockets"

    def test_error_statuses_over_http(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _http_get(server, "/expand", config="wiki")  # missing query
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _http_get(server, "/definitely-not-a-route")
        assert err.value.code == 404

    def test_bad_json_body_400(self, server):
        request = urllib.request.Request(
            server.url + "/batch",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=60)
        assert err.value.code == 400

    def test_metrics_over_http_carry_stage_timings(self, server):
        _http_get(server, "/expand", config="wiki", query="java")
        status, payload = _http_get(server, "/metrics")
        assert status == 200
        assert payload["stages"]["wiki"]["retrieve"]["count"] >= 1
        assert payload["requests"]["expand"]["count"] >= 1


class TestGracefulShutdown:
    """ExpansionService.close(): drain in-flight work, then refuse new work."""

    def _fresh_service(self):
        pool = SessionPool([ServeConfig(name="wiki", n_clusters=3)])
        return ExpansionService(pool, cache_size=8, workers=2)

    def test_close_refuses_new_requests_with_503(self):
        service = self._fresh_service()
        status, _ = service.handle("GET", "/healthz", {})
        assert status == 200
        service.close(drain_timeout=5.0)
        assert service.closing
        status, payload = service.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        assert status == 503
        assert payload["error"] == "shutting_down"

    def test_close_waits_for_in_flight_request(self, monkeypatch):
        service = self._fresh_service()
        started = threading.Event()
        release = threading.Event()

        def slow_healthz(params, tenant=None):
            started.set()
            assert release.wait(10.0), "test gate never released"
            return 200, {"status": "slow"}

        monkeypatch.setattr(service, "healthz", slow_healthz)
        results = []
        request = threading.Thread(
            target=lambda: results.append(service.handle("GET", "/healthz", {}))
        )
        request.start()
        assert started.wait(10.0)

        closer = threading.Thread(target=lambda: service.close(drain_timeout=10.0))
        closer.start()
        # The in-flight request holds close() open until the gate lifts.
        closer.join(0.3)
        assert closer.is_alive()
        release.set()
        request.join(10.0)
        closer.join(10.0)
        assert not closer.is_alive()
        assert results and results[0][0] == 200

    def test_close_is_idempotent_and_releases_pool(self):
        service = self._fresh_service()
        status, _ = service.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        assert status == 200
        assert service.pool.built_names() == ("wiki",)
        service.close(drain_timeout=5.0)
        assert service.pool.built_names() == ()
        service.close(drain_timeout=5.0)  # second close is a no-op

    def test_pool_close_calls_backend_close(self):
        closed = []

        class _Recorder:
            def close(self):
                closed.append(True)

        pool = SessionPool([ServeConfig(name="wiki", n_clusters=3)])
        pool.get("wiki")
        entry = pool._entries["wiki"]
        entry.index.close = _Recorder().close  # type: ignore[attr-defined]
        pool.close()
        assert closed == [True]
        assert pool.built_names() == ()

    def test_server_stop_closes_service(self):
        server = create_server(
            ["wiki:dataset=wikipedia,k=3"], port=0, cache_size=8, workers=2
        ).start()
        try:
            status, _ = _http_get(server, "/healthz")
            assert status == 200
        finally:
            server.stop()
        assert server.service.closing
        assert server.service.pool.built_names() == ()


class TestServerMetricsSnapshotConsistency:
    """Regression: snapshot() must not tear rows while record() runs."""

    def test_snapshot_rows_are_internally_consistent(self):
        metrics = ServerMetrics()
        stop = threading.Event()

        def hammer():
            flip = 0
            while not stop.is_set():
                metrics.record("expand", 0.001, cache="hit" if flip & 1 else "miss")
                flip += 1

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in writers:
            t.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                row = metrics.snapshot()["endpoints"].get("expand")
                if row is None:
                    continue
                # Every record() call counts exactly one lookup, and both
                # counters move under the same lock hold — a torn read
                # shows up as the sum drifting off the request count.
                assert row["cache_hits"] + row["cache_misses"] == row["count"]
        finally:
            stop.set()
            for t in writers:
                t.join(10.0)

    def test_snapshot_totals_settle_after_writers_finish(self):
        metrics = ServerMetrics()

        def hammer(n):
            for i in range(n):
                metrics.record("batch", None, cache_hits=2, cache_misses=1)

        writers = [threading.Thread(target=hammer, args=(200,)) for _ in range(4)]
        for t in writers:
            t.start()
        for t in writers:
            t.join(10.0)
        row = metrics.snapshot()["endpoints"]["batch"]
        assert row["count"] == 800
        assert row["cache_hits"] == 1600
        assert row["cache_misses"] == 800


class TestBlockingServeForeverStop:
    """stop() must wake a blocking serve_forever (the CLI/signal path)."""

    def test_stop_unblocks_foreground_serve_forever(self):
        server = create_server(
            ["wiki:dataset=wikipedia,k=3"], port=0, cache_size=8, workers=2
        )
        loop = threading.Thread(target=server.serve_forever)
        loop.start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    status, _ = _http_get(server, "/healthz")
                    if status == 200:
                        break
                except OSError:
                    time.sleep(0.05)
            else:
                pytest.fail("server never came up")
        finally:
            server.stop()
        loop.join(10.0)
        assert not loop.is_alive(), "serve_forever did not return after stop()"
        assert server.service.closing
