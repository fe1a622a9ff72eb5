"""Tests for repro.tenancy: specs, registry, rate limits, quotas, and
tenant isolation across both serve tiers."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.data.documents import make_text_document
from repro.errors import (
    QuotaExceededError,
    TenancyError,
    TenantAccessError,
    UnknownTenantError,
)
from repro.serve import ExpansionService, ServeConfig, SessionPool
from repro.serve.admission import AdmissionController, shed_payload
from repro.serve.app import ExpansionServer
from repro.serve.cluster import ClusterCoordinator
from repro.serve.cluster.transport import encode_reply
from repro.serve.edge import encode, encode_batch
from repro.store import DocumentStore
from repro.tenancy import (
    QuotaManager,
    RateLimiter,
    TenantRegistry,
    TenantSpec,
    resolve_tenant,
    tenant_name,
)
from repro.text.analyzer import Analyzer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _doc(doc_id: str, text: str):
    return make_text_document(
        doc_id=doc_id, text=text,
        analyzer=Analyzer(use_stemming=False), title=doc_id,
    )


# -- specs and registry ------------------------------------------------------


class TestTenantSpec:
    def test_name_validation(self):
        with pytest.raises(TenancyError, match="tenant name"):
            TenantSpec(name="Bad Name")
        with pytest.raises(TenancyError, match="tenant name"):
            TenantSpec(name="")
        # "::" is the pool-key separator; ":" can never appear in a name.
        with pytest.raises(TenancyError, match="tenant name"):
            TenantSpec(name="a:b")

    def test_limits_must_be_positive(self):
        with pytest.raises(TenancyError, match="max_documents"):
            TenantSpec(name="t", max_documents=0)
        with pytest.raises(TenancyError, match="qps"):
            TenantSpec(name="t", qps=-1)

    def test_empty_allowlist_allows_everything(self):
        spec = TenantSpec(name="t")
        assert spec.allows("anything")
        scoped = TenantSpec(name="t", configs=("wiki",))
        assert scoped.allows("wiki") and not scoped.allows("other")

    def test_with_limits_rejects_unknown_fields(self):
        spec = TenantSpec(name="t")
        assert spec.with_limits(qps=2.0).qps == 2.0
        with pytest.raises(TenancyError, match="unknown quota fields"):
            spec.with_limits(flavor="spicy")

    def test_dict_round_trip(self):
        spec = TenantSpec(
            name="acme", configs=("wiki",), stores={"wiki": "/tmp/a.sqlite"},
            max_documents=10, max_ingest_batch=5, qps=2.5, burst=3,
            max_in_flight=2,
        )
        assert TenantSpec.from_dict(spec.to_dict()) == spec


class TestTenantRegistry:
    def test_create_get_delete(self):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="a"))
        assert "a" in registry and len(registry) == 1
        with pytest.raises(TenancyError, match="already exists"):
            registry.create(TenantSpec(name="a"))
        registry.delete("a")
        with pytest.raises(UnknownTenantError):
            registry.get("a")
        with pytest.raises(UnknownTenantError):
            registry.delete("a")

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "tenants.json"
        registry = TenantRegistry(path)
        registry.create(TenantSpec(name="acme", qps=5.0, max_documents=100))
        registry.create(TenantSpec(name="beta", configs=("wiki",)))
        registry.update("acme", max_in_flight=4)

        # A fresh registry on the same file sees everything, typed.
        reloaded = TenantRegistry(path)
        assert reloaded.names() == ["acme", "beta"]
        acme = reloaded.get("acme")
        assert acme.qps == 5.0
        assert acme.max_documents == 100
        assert acme.max_in_flight == 4
        assert reloaded.get("beta").configs == ("wiki",)

        # The file itself is versioned JSON (forward-compat anchor).
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert len(payload["tenants"]) == 2

    def test_resolve_tenant_contract(self):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="a"))
        assert resolve_tenant(None, {"tenant": "a"}) is None  # tenancy off
        assert resolve_tenant(registry, {}) is None
        assert resolve_tenant(registry, {"tenant": ["a"]}).name == "a"
        assert tenant_name({"tenant": "  "}) is None
        with pytest.raises(TenancyError):
            resolve_tenant(registry, {}, required=True)
        with pytest.raises(UnknownTenantError):
            resolve_tenant(registry, {"tenant": "ghost"})


# -- token-bucket rate limiter -----------------------------------------------


class TestRateLimiter:
    def test_burst_then_refill(self):
        clock = FakeClock()
        limiter = RateLimiter(clock=clock)
        spec = TenantSpec(name="t", qps=2.0, burst=2)
        assert limiter.try_acquire(spec) == (True, 0.0)
        assert limiter.try_acquire(spec)[0] is True
        ok, retry_after = limiter.try_acquire(spec)  # bucket dry
        assert ok is False
        assert retry_after == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert limiter.try_acquire(spec)[0] is True
        assert limiter.try_acquire(spec)[0] is False  # only 1 token accrued

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(clock=clock)
        spec = TenantSpec(name="t", qps=10.0, burst=3)
        clock.advance(60.0)  # idle forever: still only `burst` tokens
        admitted = sum(limiter.try_acquire(spec)[0] for _ in range(10))
        assert admitted == 3

    def test_no_qps_means_unlimited(self):
        limiter = RateLimiter(clock=FakeClock())
        spec = TenantSpec(name="t")
        assert all(limiter.try_acquire(spec)[0] for _ in range(100))

    def test_burst_defaults_to_ceil_qps(self):
        limiter = RateLimiter(clock=FakeClock())
        spec = TenantSpec(name="t", qps=2.5)
        admitted = sum(limiter.try_acquire(spec)[0] for _ in range(10))
        assert admitted == 3  # ceil(2.5)


# -- quotas ------------------------------------------------------------------


class TestQuotaManager:
    def test_batch_cap(self):
        quota = QuotaManager()
        spec = TenantSpec(name="t", max_ingest_batch=2)
        quota.check_batch(spec, 2)
        with pytest.raises(QuotaExceededError, match="max_ingest_batch"):
            quota.check_batch(spec, 3)

    def test_store_guard_rejects_transactionally(self, tmp_path):
        """An over-quota batch leaves the store byte-for-byte untouched."""
        store = DocumentStore(tmp_path / "q.sqlite")
        try:
            spec = TenantSpec(name="t", max_documents=2)
            guard = QuotaManager().store_guard(spec)
            store.upsert_all([_doc("d1", "one"), _doc("d2", "two")], guard=guard)
            generation = store.generation
            with pytest.raises(QuotaExceededError, match="max_documents"):
                store.upsert_all([_doc("d3", "three")], guard=guard)
            # No partial write, no generation bump, no phantom rows.
            assert store.generation == generation
            assert store.num_live == 2
            assert "d3" not in store
            # Rewriting a live document does not count against the quota.
            store.upsert_all([_doc("d1", "one updated")], guard=guard)
            assert store.num_live == 2
        finally:
            store.close()

    def test_store_guard_counts_batch_duplicates_once(self, tmp_path):
        store = DocumentStore(tmp_path / "dup.sqlite")
        try:
            spec = TenantSpec(name="t", max_documents=1)
            guard = QuotaManager().store_guard(spec)
            store.upsert_all([_doc("d1", "a"), _doc("d1", "b")], guard=guard)
            assert store.num_live == 1
        finally:
            store.close()

    def test_no_limit_means_no_guard(self):
        assert QuotaManager().store_guard(TenantSpec(name="t")) is None


# -- unified shed shape ------------------------------------------------------


class TestShedPayload:
    def test_one_shape_for_both_tiers(self):
        rate = shed_payload("over rate", 0.25, tenant="a")
        admission = shed_payload("saturated", 1.0, tenant="a", replica="r0")
        assert rate["error"] == admission["error"] == "overloaded"
        assert set(rate) == {"error", "message", "retry_after", "tenant"}
        assert set(admission) == set(rate) | {"replica"}

    def test_admission_controller_per_key_depth(self):
        gate = AdmissionController(queue_depth=8)
        assert gate.try_acquire("t", depth=1)
        assert not gate.try_acquire("t", depth=1)  # tenant bound wins
        assert gate.try_acquire("other")  # default depth for other keys
        gate.release("t")
        assert gate.try_acquire("t", depth=1)


# -- serve tier --------------------------------------------------------------


@pytest.fixture()
def tenant_service():
    registry = TenantRegistry()
    registry.create(TenantSpec(name="a"))
    registry.create(TenantSpec(name="b"))
    registry.create(TenantSpec(name="scoped", configs=("nope",)))
    service = ExpansionService(
        SessionPool([ServeConfig(name="live", backend="sqlite", n_clusters=3)]),
        cache_size=64,
        workers=2,
        tenants=registry,
    )
    yield service
    service.close(drain_timeout=2.0)


class TestServiceTenancy:
    def test_data_routes_require_a_tenant(self, tenant_service):
        status, payload = tenant_service.handle(
            "GET", "/expand", {"config": "live", "query": "java"}
        )
        assert status == 400
        assert payload["error"] == "tenant_required"

    def test_unknown_tenant_404(self, tenant_service):
        status, payload = tenant_service.handle(
            "GET", "/expand",
            {"config": "live", "query": "java", "tenant": "ghost"},
        )
        assert status == 404
        assert payload["error"] == "unknown_tenant"

    def test_allowlist_enforced_403(self, tenant_service):
        status, payload = tenant_service.handle(
            "GET", "/expand",
            {"config": "live", "query": "java", "tenant": "scoped"},
        )
        assert status == 403
        assert payload["error"] == "forbidden"
        assert payload["tenant"] == "scoped"

    def test_admin_routes_answer_without_a_tenant(self, tenant_service):
        status, payload = tenant_service.handle("GET", "/healthz", {})
        assert status == 200
        assert set(payload["tenants"]) == {"a", "b", "scoped"}
        status, payload = tenant_service.handle("GET", "/configs", {})
        assert status == 200
        assert payload["tenants"] == ["a", "b", "scoped"]

    def test_responses_are_tenant_tagged(self, tenant_service):
        status, payload = tenant_service.handle(
            "GET", "/search", {"config": "live", "query": "java", "tenant": "a"}
        )
        payload = json.loads(payload)
        assert status == 200
        assert payload["tenant"] == "a"

    def test_cross_tenant_isolation(self, tenant_service):
        """A's ingest must not invalidate B's cache or move B's metrics."""
        params = {"config": "live", "query": "java"}
        for name in ("a", "b"):
            status, payload = tenant_service.handle(
                "GET", "/expand", dict(params, tenant=name)
            )
            payload = json.loads(payload)
            assert status == 200 and payload["cache"] == "miss"
        b_requests_before = tenant_service.tenant_metrics("b").snapshot()[
            "endpoints"
        ]["expand"]["count"]

        status, payload = tenant_service.handle(
            "POST", "/ingest",
            {
                "config": "live", "tenant": "a",
                "documents": [{"doc_id": "n1", "text": "java island brew zzqx"}],
            },
        )
        payload = json.loads(payload)
        assert status == 200 and payload["tenant"] == "a"

        # B's cached expansion survives A's ingest; A recomputes.
        status, payload = tenant_service.handle(
            "GET", "/expand", dict(params, tenant="b")
        )
        payload = json.loads(payload)
        assert status == 200 and payload["cache"] == "hit"
        status, payload = tenant_service.handle(
            "GET", "/expand", dict(params, tenant="a")
        )
        payload = json.loads(payload)
        assert status == 200 and payload["cache"] == "miss"

        # A's document lands in A's store only: B cannot retrieve it.
        hits = {}
        for name in ("a", "b"):
            status, payload = tenant_service.handle(
                "GET", "/search",
                {"config": "live", "query": "zzqx", "tenant": name},
            )
            assert status == 200
            hits[name] = json.loads(payload)["n_results"]
        assert hits == {"a": 1, "b": 0}

        # And A's traffic never appears in B's metrics partition.
        b_metrics = tenant_service.tenant_metrics("b").snapshot()["endpoints"]
        assert b_metrics["expand"]["count"] == b_requests_before + 1
        assert "ingest" not in b_metrics

    def test_dedicated_dynamic_entries_per_tenant(self, tenant_service):
        pool = tenant_service.pool
        tenant_service.handle(
            "GET", "/search", {"config": "live", "query": "java", "tenant": "a"}
        )
        assert "a::live" in pool.built_names()

    def test_metrics_snapshot_partitions_tenants(self, tenant_service):
        tenant_service.handle(
            "GET", "/search", {"config": "live", "query": "java", "tenant": "a"}
        )
        status, payload = tenant_service.handle("GET", "/metrics", {})
        assert status == 200
        assert "a" in payload["tenants"]
        assert payload["tenants"]["a"]["requests"]["search"]["count"] >= 1
        assert "tenant_in_flight" in payload


class TestServiceLimits:
    def _service(self, registry, clock):
        return ExpansionService(
            SessionPool([ServeConfig(name="wiki", n_clusters=3)]),
            cache_size=16,
            tenants=registry,
            rate_limiter=RateLimiter(clock=clock),
        )

    def test_rate_limit_shed_shape_and_recovery(self):
        clock = FakeClock()
        registry = TenantRegistry()
        registry.create(TenantSpec(name="agg", qps=1.0, burst=1))
        service = self._service(registry, clock)
        try:
            params = {"config": "wiki", "query": "java", "tenant": "agg"}
            status, _ = service.handle("GET", "/search", params)
            assert status == 200
            status, payload = service.handle("GET", "/search", params)
            assert status == 429
            assert payload["error"] == "overloaded"
            assert payload["tenant"] == "agg"
            assert payload["retry_after"] > 0
            clock.advance(1.0)
            status, _ = service.handle("GET", "/search", params)
            assert status == 200
        finally:
            service.close(drain_timeout=2.0)

    def test_in_flight_bound_sheds_and_releases(self):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="t", max_in_flight=1))
        service = self._service(registry, FakeClock())
        try:
            params = {"config": "wiki", "query": "java", "tenant": "t"}
            # Hold t's only slot open, as a slow in-flight request would.
            assert service._tenant_admission.try_acquire("t", depth=1)
            status, payload = service.handle("GET", "/search", params)
            assert status == 429
            assert payload["tenant"] == "t"
            service._tenant_admission.release("t")
            status, _ = service.handle("GET", "/search", params)
            assert status == 200
            # The slot came back after the request finished.
            assert service._tenant_admission.snapshot().get("t", 0) == 0
        finally:
            service.close(drain_timeout=2.0)

    def test_quota_rejection_is_atomic_through_the_service(self, tmp_path):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="t", max_documents=2))
        service = ExpansionService(
            SessionPool(
                [ServeConfig(name="c", store=str(tmp_path / "c.sqlite"))]
            ),
            tenants=registry,
        )
        try:
            def ingest(docs):
                return service.handle(
                    "POST", "/ingest",
                    {"config": "c", "tenant": "t", "documents": docs},
                )

            entry = service.pool.get("c")
            base_live = entry.index.num_live_documents
            generation = entry.generation()
            status, payload = ingest(
                [{"doc_id": f"d{i}", "text": "word"} for i in range(3)]
            )
            assert status == 413
            assert payload["error"] == "quota_exceeded"
            assert payload["tenant"] == "t"
            # Nothing landed: count and generation are both untouched.
            assert entry.index.num_live_documents == base_live
            assert entry.generation() == generation
        finally:
            service.close(drain_timeout=2.0)


class TestHTTPTenancy:
    def test_header_resolution_and_retry_after(self):
        clock = FakeClock()
        registry = TenantRegistry()
        registry.create(TenantSpec(name="acme", qps=1.0, burst=1))
        service = ExpansionService(
            SessionPool([ServeConfig(name="wiki", n_clusters=3)]),
            cache_size=16,
            tenants=registry,
            rate_limiter=RateLimiter(clock=clock),
        )
        server = ExpansionServer(service, port=0).start()
        try:
            url = f"{server.url}/search?config=wiki&query=java"
            request = urllib.request.Request(
                url, headers={"X-Repro-Tenant": "acme"}
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                payload = json.loads(response.read())
            assert payload["tenant"] == "acme"

            # Token bucket is dry: 429 with the standard back-off header.
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    urllib.request.Request(
                        url, headers={"X-Repro-Tenant": "acme"}
                    ),
                    timeout=10,
                )
            error = info.value
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
            body = json.loads(error.read())
            assert body["error"] == "overloaded"
            assert body["tenant"] == "acme"
        finally:
            server.stop()


# -- pool: tenant store views ------------------------------------------------


class TestPoolTenantViews:
    def test_describe_reports_tenant_ownership(self, tmp_path):
        config = ServeConfig(name="c", store=str(tmp_path / "base.sqlite"))
        pool = SessionPool([config])
        tenant = TenantSpec(
            name="t", stores={"c": str(tmp_path / "t.sqlite")}
        )
        try:
            pool.get("c")
            entry = pool.get("c", tenant)
            assert entry.key == "t::c"
            info = pool.describe()["c"]
            assert info["built"] is True
            assert info["tenants"]["t"]["built"] is True
            assert info["tenants"]["t"]["store"] == str(tmp_path / "t.sqlite")
        finally:
            pool.close()

    def test_shared_store_closed_exactly_once(self, tmp_path, monkeypatch):
        """Base + tenant views on one path share one handle; close() is
        exactly-once per handle however many entries reference it."""
        path = str(tmp_path / "shared.sqlite")
        pool = SessionPool([ServeConfig(name="c", store=path)])
        tenant = TenantSpec(name="t", stores={"c": path})  # same file
        base = pool.get("c")
        view = pool.get("c", tenant)
        assert base.index.store is view.index.store  # one connection

        closes = []
        original = DocumentStore.close

        def counting_close(self):
            closes.append(id(self))
            original(self)

        monkeypatch.setattr(DocumentStore, "close", counting_close)
        pool.close()
        assert len(closes) == len(set(closes)) == 1

    def test_tenant_without_override_shares_base_entry(self, tmp_path):
        pool = SessionPool(
            [ServeConfig(name="c", store=str(tmp_path / "c.sqlite"))]
        )
        try:
            tenant = TenantSpec(name="t")
            assert pool.get("c", tenant) is pool.get("c")
        finally:
            pool.close()


# -- cluster tier ------------------------------------------------------------


class _FakeReplica:
    """In-process stand-in for ProcessReplica (see tests/test_cluster.py)."""

    def __init__(self, name, spec_factory=None):
        self.name = name
        self._state = "down"
        self.restarts = -1
        self.requests = []
        self.pid = None

    def start(self):
        self._state = "serving"
        self.restarts += 1

    def stop(self, graceful=True, join_timeout=10.0):
        self._state = "down"

    def mark_down(self):
        self._state = "down"

    @property
    def state(self):
        return self._state

    def alive(self):
        return self._state == "serving"

    def request(self, method, path, params, timeout=None):
        self.requests.append((method, path, dict(params)))
        return 200, json.dumps({"replica": self.name, "path": path}).encode(), {}


class _TenantedBatchReplica(_FakeReplica):
    """Answers ``/batch`` like a replica under a tenant registry: a
    sub-batch that names no tenant is refused, exactly as the replica's
    edge refuses it."""

    def request(self, method, path, params, timeout=None):
        self.requests.append((method, path, dict(params)))
        if "tenant" not in params:
            body = {"error": "tenant_required", "message": "tenant required"}
            return 400, json.dumps(body).encode(), {}
        items = [
            {"query": q, "ok": True, "report": {"from": self.name},
             "error_type": None, "error_message": None,
             "seconds": 0.0, "cache": "miss"}
            for q in params["queries"]
        ]
        body = {"report": {"items": [encode(i) for i in items]}, "cache_hits": 0,
                "n_ok": len(items), "n_failed": 0,
                "tenant": params["tenant"]}
        return (200, *encode_reply(encode_batch(body)))


def _fake_coordinator(registry, clock, replica=_FakeReplica, **kwargs):
    coordinator = ClusterCoordinator(
        ["c:dataset=wikipedia"],
        replicas=2,
        replica_factory=replica,
        tenants=registry,
        rate_limiter=RateLimiter(clock=clock),
        **kwargs,
    )
    coordinator.start()
    return coordinator


class TestClusterTenancy:
    def test_edge_enforcement_and_unified_shed_shape(self):
        clock = FakeClock()
        registry = TenantRegistry()
        registry.create(TenantSpec(name="agg", qps=1.0, burst=1))
        registry.create(TenantSpec(name="victim"))
        coordinator = _fake_coordinator(registry, clock)
        try:
            params = {"config": "c", "query": "java", "tenant": "agg"}
            status, _ = coordinator.handle("GET", "/expand", params)
            assert status == 200
            status, payload = coordinator.handle("GET", "/expand", params)
            assert status == 429
            # Identical shape to the serve tier's rate-limit shed (plus
            # the trace_id every traced error payload carries).
            assert set(payload) == {
                "error", "message", "retry_after", "tenant", "trace_id",
            }
            assert payload["error"] == "overloaded"
            assert payload["tenant"] == "agg"

            # The aggressor's dry bucket never touches the victim.
            for _ in range(3):
                status, _ = coordinator.handle(
                    "GET", "/expand",
                    {"config": "c", "query": "java", "tenant": "victim"},
                )
                assert status == 200
        finally:
            coordinator.stop()

    def test_tenant_required_and_unknown_at_the_edge(self):
        coordinator = _fake_coordinator(TenantRegistry(), FakeClock())
        try:
            status, payload = coordinator.handle(
                "GET", "/expand", {"config": "c", "query": "java"}
            )
            assert status == 400
            assert payload["error"] == "tenant_required"
            status, payload = coordinator.handle(
                "GET", "/expand",
                {"config": "c", "query": "java", "tenant": "ghost"},
            )
            assert status == 404
            assert payload["error"] == "unknown_tenant"
        finally:
            coordinator.stop()

    def test_allowlist_forbidden_at_the_edge(self):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="scoped", configs=("elsewhere",)))
        coordinator = _fake_coordinator(registry, FakeClock())
        try:
            status, payload = coordinator.handle(
                "GET", "/expand",
                {"config": "c", "query": "java", "tenant": "scoped"},
            )
            assert status == 403
            assert payload["error"] == "forbidden"
        finally:
            coordinator.stop()

    def test_cluster_metrics_partition_tenants(self):
        clock = FakeClock()
        registry = TenantRegistry()
        registry.create(TenantSpec(name="agg", qps=1.0, burst=1))
        registry.create(TenantSpec(name="victim"))
        coordinator = _fake_coordinator(registry, clock)
        try:
            for name in ("agg", "agg", "victim"):
                coordinator.handle(
                    "GET", "/expand",
                    {"config": "c", "query": "java", "tenant": name},
                )
            status, payload = coordinator.handle("GET", "/metrics", {})
            assert status == 200
            tenants = payload["cluster"]["tenants"]
            assert tenants["agg"]["sheds"] == 1
            assert tenants["agg"]["requests"] == 1
            assert tenants["victim"]["requests"] == 1
            assert tenants["victim"]["sheds"] == 0
        finally:
            coordinator.stop()

    def test_batch_forwards_the_tenant_to_every_replica(self):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="t"))
        coordinator = _fake_coordinator(
            registry, FakeClock(), replica=_TenantedBatchReplica
        )
        try:
            queries = ["java", "rockets", "columbia", "eclipse", "mouse"]
            status, body = coordinator.handle(
                "POST", "/batch",
                {"config": "c", "queries": queries, "tenant": "t"},
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["n_failed"] == 0, payload["report"]["items"]
            assert payload["n_ok"] == len(queries)
            assert payload["tenant"] == "t"
            sent = [
                params for replica in coordinator._replicas.values()
                for _method, path, params in replica.requests
                if path == "/batch"
            ]
            assert sent and all(params["tenant"] == "t" for params in sent)
        finally:
            coordinator.stop()

    def test_500_bodies_carry_the_tenant_on_both_tiers(self, tenant_service):
        def explode(params, tenant=None):
            raise RuntimeError("boom")

        tenant_service.search = explode
        status, payload = tenant_service.handle(
            "GET", "/search", {"config": "live", "query": "java", "tenant": "a"}
        )
        assert status == 500
        assert payload["error"] == "internal"
        assert payload["tenant"] == "a"

        # The plain fake answers /batch without its items, which breaks
        # the coordinator's gather: its catch-all 500.
        registry = TenantRegistry()
        registry.create(TenantSpec(name="t"))
        coordinator = _fake_coordinator(registry, FakeClock())
        try:
            status, payload = coordinator.handle(
                "POST", "/batch",
                {"config": "c", "queries": ["java"], "tenant": "t"},
            )
            assert status == 500
            assert payload["error"] == "internal"
            assert payload["tenant"] == "t"
        finally:
            coordinator.stop()

    def test_replica_specs_carry_tenants_without_stores(self, tmp_path):
        registry = TenantRegistry()
        registry.create(
            TenantSpec(name="t", stores={"c": str(tmp_path / "t.sqlite")})
        )
        coordinator = ClusterCoordinator(
            ["c:dataset=wikipedia"],
            replicas=1,
            replica_factory=lambda name, factory: _FakeReplica(name, factory),
            tenants=registry,
        )
        spec = coordinator._make_spec("r0")
        assert len(spec.tenant_specs) == 1
        assert spec.tenant_specs[0]["name"] == "t"
        assert "stores" not in spec.tenant_specs[0]

    def test_quota_guard_on_cluster_ingest(self, tmp_path):
        registry = TenantRegistry()
        registry.create(TenantSpec(name="t", max_documents=1))
        coordinator = ClusterCoordinator(
            [f"c:store={tmp_path / 'src.sqlite'}"],
            replicas=1,
            replica_factory=lambda name, factory: _FakeReplica(name, factory),
            tenants=registry,
        )
        coordinator.start()
        try:
            status, payload = coordinator.handle(
                "POST", "/ingest",
                {
                    "config": "c", "tenant": "t",
                    "documents": [{"doc_id": "d1", "text": "one"}],
                },
            )
            payload = json.loads(payload)
            assert status == 202 and payload["tenant"] == "t"
            generation = payload["generation"]
            status, payload = coordinator.handle(
                "POST", "/ingest",
                {
                    "config": "c", "tenant": "t",
                    "documents": [{"doc_id": "d2", "text": "two"}],
                },
            )
            assert status == 413
            assert payload["error"] == "quota_exceeded"
            store = coordinator._source_store(str(tmp_path / "src.sqlite"))
            assert store.generation == generation
            assert store.num_live == 1
        finally:
            coordinator.stop()


@pytest.mark.slow
class TestTwoTenantClusterSmoke:
    def test_noisy_neighbor_is_contained(self, tmp_path):
        """Real 2-tenant cluster: the aggressor sheds, the victim's
        latency stays bounded and its requests all succeed."""
        registry = TenantRegistry()
        registry.create(TenantSpec(name="aggressor", qps=2.0, burst=2))
        registry.create(TenantSpec(name="victim"))
        coordinator = ClusterCoordinator(
            ["c:dataset=wikipedia,k=3"],
            replicas=1,
            tenants=registry,
        )
        coordinator.start()
        try:
            def run(tenant, query):
                t0 = time.perf_counter()
                status, _ = coordinator.handle(
                    "GET", "/expand",
                    {"config": "c", "query": query, "tenant": tenant},
                )
                return status, time.perf_counter() - t0

            # Warm the replica's cache for the victim's query.
            run("victim", "java")
            aggressor_status = [
                run("aggressor", "java")[0] for _ in range(8)
            ]
            victim = [run("victim", "java") for _ in range(8)]

            assert aggressor_status.count(429) >= 1  # burst exhausted
            assert all(status == 200 for status, _ in victim)
            latencies = sorted(seconds for _, seconds in victim)
            p95 = latencies[int(0.95 * (len(latencies) - 1))]
            assert p95 < 5.0  # cached hits; generous CI bound
        finally:
            coordinator.stop()
