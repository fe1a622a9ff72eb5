"""Tests for repro.serve.cluster — replicated serving.

Four layers, cheapest first:

* pure units — :class:`HashRing`, cursors, :class:`AdmissionController`;
* ``limit``/``cursor`` pagination over an in-process service;
* :class:`ClusterCoordinator` behavior (routing affinity, load shedding,
  failover, supervision) against *fake* replica handles, so admission
  control is tested deterministically without processes;
* one real 2-replica process cluster over a store-backed configuration
  (module-scoped): HTTP round-trips, aggregation, and the
  kill → degraded → restart → re-hydrated-from-fresh-snapshot story.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import schema
from repro.data.documents import Document
from repro.errors import ClusterError, ConfigError, ServeError
from repro.serve import ExpansionService, ServeConfig, SessionPool
from repro.serve.cluster import (
    AdmissionController,
    ClusterCoordinator,
    HashRing,
    create_cluster,
    decode_cursor,
    encode_cursor,
    resolve_page,
)
from repro.serve.cluster.transport import (
    ReplicaClient,
    ReplicaTransport,
    encode_reply,
)
from repro.serve.edge import encode, encode_batch
from repro.serve.paging import apply_batch_page, resolve_batch_page
from repro.store import DocumentStore
from repro.tenancy import TenantRegistry, TenantSpec


# -- hash ring ----------------------------------------------------------------


class TestHashRing:
    def test_deterministic_and_member(self):
        ring = HashRing(["a", "b", "c"])
        for key in ("x", "y", "z", "", "long key with spaces"):
            owner = ring.node_for(key)
            assert owner in ("a", "b", "c")
            assert ring.node_for(key) == owner  # stable

    def test_reasonable_balance(self):
        ring = HashRing(["a", "b", "c", "d"])
        counts = {n: 0 for n in "abcd"}
        for i in range(4000):
            counts[ring.node_for(f"key-{i}")] += 1
        for n, count in counts.items():
            assert 0.5 * 1000 < count < 2.0 * 1000, (n, counts)

    def test_minimal_remap_on_node_removal(self):
        ring = HashRing(["a", "b", "c", "d"])
        before = {f"key-{i}": ring.node_for(f"key-{i}") for i in range(2000)}
        ring.remove("d")
        moved = 0
        for key, owner in before.items():
            now = ring.node_for(key)
            if owner == "d":
                assert now != "d"
            elif now != owner:
                moved += 1
        # Consistent hashing: keys not owned by the removed node stay put.
        assert moved == 0

    def test_preference_walk_covers_all_nodes_once(self):
        ring = HashRing(["a", "b", "c"])
        pref = ring.preference("some key")
        assert sorted(pref) == ["a", "b", "c"]
        assert pref[0] == ring.node_for("some key")

    def test_preference_equals_ring_without_dead_node(self):
        # Routing to the first *live* preference entry is the same as
        # consistent-hashing over the surviving membership.
        ring = HashRing(["a", "b", "c"])
        smaller = HashRing(["a", "b"])
        for i in range(500):
            key = f"key-{i}"
            live = [n for n in ring.preference(key) if n != "c"]
            assert live[0] == smaller.node_for(key)

    def test_errors(self):
        with pytest.raises(ClusterError):
            HashRing([]).node_for("x")
        ring = HashRing(["a"])
        with pytest.raises(ClusterError):
            ring.add("a")
        with pytest.raises(ClusterError):
            ring.remove("zzz")


# -- cursors ------------------------------------------------------------------


class TestCursors:
    def test_roundtrip(self):
        state = {
            "endpoint": "search",
            "params": {"config": "c", "query": "java"},
            "offset": 10,
            "limit": 5,
        }
        token = encode_cursor(state)
        assert decode_cursor(token, "search") == state

    def test_tampered_and_malformed_tokens_rejected(self):
        good = encode_cursor(
            {"endpoint": "search", "params": {}, "offset": 0, "limit": 5}
        )
        for bad in ("", "!!!not-base64!!!", good[:-4] + "AAAA", "aGVsbG8"):
            with pytest.raises(ServeError):
                decode_cursor(bad, "search")

    def test_wrong_endpoint_rejected(self):
        token = encode_cursor(
            {"endpoint": "batch", "params": {}, "offset": 0, "limit": 5}
        )
        with pytest.raises(ServeError):
            decode_cursor(token, "search")

    def test_bad_offset_or_limit_rejected(self):
        for offset, limit in ((-1, 5), (0, 0), ("x", 5), (0, None)):
            token = encode_cursor(
                {
                    "endpoint": "search",
                    "params": {},
                    "offset": offset,
                    "limit": limit,
                }
            )
            with pytest.raises(ServeError):
                decode_cursor(token, "search")

    def test_resolve_page_shapes(self):
        legacy = resolve_page({"query": "q"}, "search", ("query",))
        assert not legacy.paginated and legacy.offset == 0
        first = resolve_page(
            {"query": "q", "limit": "3"}, "search", ("query",)
        )
        assert first.paginated and first.limit == 3 and first.params == {
            "query": "q"
        }
        with pytest.raises(ServeError):
            resolve_page({"limit": "0"}, "search", ())
        with pytest.raises(ServeError):
            resolve_page({"limit": "nope"}, "search", ())


# -- routed pagination over a real (single-process) service -------------------


@pytest.fixture(scope="module")
def routed():
    service = ExpansionService(
        [
            ServeConfig(
                name="wiki",
                dataset="wikipedia",
                algorithm="iskr",
                dataset_kwargs={"docs_per_sense": 6},
            )
        ],
        cache_size=64,
    )
    yield service
    service.close(drain_timeout=2.0)


class TestRoutedPagination:
    def test_unpaginated_requests_unchanged(self, routed):
        status, payload = routed.handle(
            "GET", "/search", {"config": "wiki", "query": "java"}
        )
        payload = json.loads(payload)
        assert status == 200
        assert "page" not in payload
        assert payload["n_results"] == len(payload["results"])

    def test_search_pages_reassemble_the_full_result(self, routed):
        status, full = routed.handle(
            "GET", "/search", {"config": "wiki", "query": "java"}
        )
        full = json.loads(full)
        everything = [r["document"]["doc_id"] for r in full["results"]]
        assert len(everything) > 2

        collected = []
        params = {"config": "wiki", "query": "java", "limit": "2"}
        pages = 0
        while True:
            status, payload = routed.handle("GET", "/search", params)
            payload = json.loads(payload)
            assert status == 200
            page = payload["page"]
            assert page["limit"] == 2
            assert len(payload["results"]) == page["returned"] <= 2
            assert page["total"] == len(everything)
            collected.extend(r["document"]["doc_id"] for r in payload["results"])
            pages += 1
            if page["next_cursor"] is None:
                break
            params = {"cursor": page["next_cursor"]}
        assert collected == everything
        assert pages == -(-len(everything) // 2)  # ceil division

    def test_batch_pagination_carries_queries_in_cursor(self, routed):
        queries = ["java", "python", "apple", "mercury"]
        status, payload = routed.handle(
            "POST",
            "/batch",
            {"config": "wiki", "queries": queries, "limit": 2},
        )
        payload = json.loads(payload)
        assert status == 200
        page = payload["page"]
        items = payload["report"]["items"]
        assert [i["query"] for i in items] == queries[:2]
        assert page["total"] == 4 and page["next_cursor"]

        # A bare cursor POST is a complete continuation request.
        status, second = routed.handle(
            "POST", "/batch", {"cursor": page["next_cursor"]}
        )
        second = json.loads(second)
        assert status == 200
        assert [i["query"] for i in second["report"]["items"]] == queries[2:]
        assert second["page"]["next_cursor"] is None

    def test_bad_limit_is_400_not_500(self, routed):
        status, payload = routed.handle(
            "GET",
            "/search",
            {"config": "wiki", "query": "java", "limit": "banana"},
        )
        assert status == 400
        assert payload["error"] == "serve_error"

    def test_bad_cursor_is_400(self, routed):
        status, payload = routed.handle(
            "GET", "/search", {"cursor": "definitely-not-a-cursor"}
        )
        assert status == 400

    def test_non_paginated_routes_delegate(self, routed):
        status, payload = routed.handle("GET", "/healthz", {})
        assert status == 200 and payload["status"] == "ok"


# -- admission controller -----------------------------------------------------


class TestAdmissionController:
    def test_bound_respected(self):
        gate = AdmissionController(queue_depth=2)
        assert gate.try_acquire("r0")
        assert gate.try_acquire("r0")
        assert not gate.try_acquire("r0")
        assert gate.try_acquire("r1")  # independent budgets
        gate.release("r0")
        assert gate.try_acquire("r0")

    def test_release_never_goes_negative(self):
        gate = AdmissionController(queue_depth=1)
        gate.release("r0")
        assert gate.snapshot().get("r0", 0) == 0
        assert gate.try_acquire("r0")

    def test_bad_depth_rejected(self):
        with pytest.raises(ClusterError):
            AdmissionController(queue_depth=0)


# -- transport ----------------------------------------------------------------


WIRE_BATCH_ITEMS = [{"query": "a", "ok": True}, {"query": "b", "ok": False}]


@pytest.fixture(scope="class")
def wire():
    """A client of one live transport: ``/batch`` answers a two-item
    batch payload, every other path a 32 KB body."""

    def handle(method, path, params):
        if path == "/batch":
            report = {"items": [encode(item) for item in WIRE_BATCH_ITEMS]}
            return 200, encode_batch({"n_ok": 1, "n_failed": 1, "report": report})
        return 200, {"blob": "r" * 32768}

    transport = ReplicaTransport(handle)
    server = threading.Thread(target=transport.serve, daemon=True)
    server.start()
    client = ReplicaClient(transport.address, transport.authkey)
    yield client
    client.close()
    transport.close()
    server.join(timeout=5)


class TestTransport:
    def test_roundtrip_and_bytes_passthrough(self):
        def handle(method, path, params):
            if path == "/bytes":
                return 200, b'{"raw":true}'
            return 200, {"method": method, "path": path, "params": dict(params)}

        transport = ReplicaTransport(handle)
        server = threading.Thread(target=transport.serve, daemon=True)
        server.start()
        try:
            client = ReplicaClient(transport.address, transport.authkey)
            status, body, extras = client.request("GET", "/echo", {"a": 1})
            assert status == 200
            assert extras == {}
            assert json.loads(body) == {
                "method": "GET",
                "path": "/echo",
                "params": {"a": 1},
            }
            status, body, extras = client.request("GET", "/bytes", {})
            assert body == b'{"raw":true}'
            assert extras == {}
            client.close()
        finally:
            transport.close()
            server.join(timeout=5)

    def test_handler_exception_becomes_500_not_a_dead_loop(self):
        def handle(method, path, params):
            raise RuntimeError("boom")

        transport = ReplicaTransport(handle)
        server = threading.Thread(target=transport.serve, daemon=True)
        server.start()
        try:
            client = ReplicaClient(transport.address, transport.authkey)
            status, body, _ = client.request("GET", "/x", {})
            assert status == 500
            assert "boom" in json.loads(body)["message"]
            # The connection loop survived; a second request still works.
            status, _, _ = client.request("GET", "/y", {})
            assert status == 500
            client.close()
        finally:
            transport.close()
            server.join(timeout=5)

    def test_large_messages_do_not_wait_on_delayed_ack(self, wire):
        # Past 16 KB a message goes out as two sends (length header, then
        # payload); without TCP_NODELAY the payload waits ~40 ms for the
        # peer's delayed ACK, so 20 round trips would need >= 0.8 s.
        params = {"blob": "q" * 32768}
        wire.request("GET", "/big", params)  # connect + handshake
        t0 = time.perf_counter()
        for _ in range(20):
            status, body, _ = wire.request("GET", "/big", params)
            assert status == 200 and len(body) > 32768
        assert time.perf_counter() - t0 < 0.4

    def test_pooled_connection_sets_tcp_nodelay(self, wire):
        wire.request("GET", "/x", {})
        (conn,) = wire._idle
        # A socket object over the connection's fd, detached after, so
        # the pooled connection keeps sole ownership.
        sock = socket.socket(fileno=conn.fileno())
        try:
            nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            sock.detach()
        assert nodelay == 1
        status, _, _ = wire.request("GET", "/y", {})  # still usable
        assert status == 200

    def test_batch_reply_ships_items_pre_encoded(self, wire):
        status, body, extras = wire.request("POST", "/batch", {})
        assert status == 200
        assert json.loads(body) == {"n_ok": 1, "n_failed": 1}
        assert [json.loads(i) for i in extras["items"]] == WIRE_BATCH_ITEMS

    def test_connect_to_dead_replica_is_cluster_error(self):
        transport = ReplicaTransport(lambda m, p, q: (200, {}))
        address = transport.address
        transport.close()
        client = ReplicaClient(address, b"wrong-key", timeout=2.0)
        with pytest.raises(ClusterError):
            client.request("GET", "/x", {})


# -- coordinator with fake replicas ------------------------------------------


class FakeReplica:
    """In-process stand-in for ProcessReplica: instant, controllable."""

    def __init__(self, name: str, spec_factory=None) -> None:
        self.name = name
        self._state = "down"
        self.restarts = -1
        self.requests: list[tuple[str, str, dict]] = []
        self.gate: threading.Event | None = None  # block requests while set
        self.fail = False  # raise ClusterError on request
        self.batch_status = 200  # answer /batch with this status
        self.pid = None

    def start(self) -> None:
        self._state = "serving"
        self.restarts += 1

    def stop(self, graceful: bool = True, join_timeout: float = 10.0) -> None:
        self._state = "down"

    def mark_down(self) -> None:
        self._state = "down"

    @property
    def state(self) -> str:
        return self._state

    def die(self) -> None:
        """Simulate the process exiting underneath the coordinator."""
        self._state = "dead"

    def alive(self) -> bool:
        return self._state == "serving"

    def request(self, method, path, params, timeout=None):
        if not self.alive() or self.fail:
            raise ClusterError(f"{self.name} is down")
        self.requests.append((method, path, dict(params)))
        if self.gate is not None:
            self.gate.wait(10)
        if path == "/batch" and self.batch_status != 200:
            payload = {"error": "internal", "message": "boom"}
            return self.batch_status, json.dumps(payload).encode("utf-8"), {}
        if path == "/batch":
            items = [_fake_batch_item(self.name, q) for q in params["queries"]]
            payload = {
                "config": params.get("config"),
                "cache_hits": sum(1 for i in items if i["cache"] == "hit"),
                "n_ok": sum(1 for i in items if i["ok"]),
                "n_failed": sum(1 for i in items if not i["ok"]),
                "report": schema.make_envelope(
                    schema.KIND_BATCH,
                    {
                        "items": [encode(item) for item in items],
                        "workers": 1,
                        "seconds": 0.001,
                    },
                ),
            }
            payload = encode_batch(payload)
        else:
            payload = {"replica": self.name, "path": path}
        return (200, *encode_reply(payload))


def _fake_batch_item(replica: str, query: str) -> dict:
    """A replica's /batch item: ``bad-*`` queries fail, the rest hit."""
    ok = not query.startswith("bad-")
    return {
        "query": query,
        "ok": ok,
        "report": {"from": replica, "query": query} if ok else None,
        "error_type": None if ok else "ExpansionError",
        "error_message": None if ok else "no results",
        "seconds": 0.001,
        "cache": "hit" if ok else "miss",
    }


@pytest.fixture()
def fake_cluster():
    coordinator = ClusterCoordinator(
        ["c:dataset=wikipedia"],
        replicas=3,
        queue_depth=2,
        retry_after=1.0,
        replica_factory=lambda name, factory: FakeReplica(name, factory),
    )
    coordinator.start()
    yield coordinator
    coordinator.stop()


def _routed_replica(coordinator, query: str, config: str = "c") -> str:
    key = coordinator.routing_key("/expand", {"config": config, "query": query})
    return coordinator.ring.node_for(key)


class TestCoordinatorWithFakes:
    def test_affinity_same_query_same_replica(self, fake_cluster):
        owner = _routed_replica(fake_cluster, "java")
        for _ in range(5):
            status, body = fake_cluster.handle(
                "GET", "/expand", {"config": "c", "query": "java"}
            )
            assert status == 200
            assert json.loads(body)["replica"] == owner

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterCoordinator([], replicas=2)
        with pytest.raises(ConfigError):
            ClusterCoordinator(["c:dataset=wikipedia"], replicas=0)

    def test_saturated_replica_sheds_429_promptly_and_recovers(
        self, fake_cluster
    ):
        owner_name = _routed_replica(fake_cluster, "java")
        owner = fake_cluster.replicas[owner_name]
        owner.gate = threading.Event()  # hold requests open

        inflight = []
        def occupy():
            inflight.append(
                fake_cluster.handle(
                    "GET", "/expand", {"config": "c", "query": "java"}
                )
            )

        holders = [threading.Thread(target=occupy) for _ in range(2)]
        for t in holders:
            t.start()
        deadline = time.time() + 5
        while len(owner.requests) < 2 and time.time() < deadline:
            time.sleep(0.01)
        assert len(owner.requests) == 2  # queue_depth fully occupied

        # The next request must shed immediately — no queue, no spill.
        t0 = time.perf_counter()
        status, payload = fake_cluster.handle(
            "GET", "/expand", {"config": "c", "query": "java"}
        )
        shed_seconds = time.perf_counter() - t0
        assert status == 429
        assert payload["error"] == "overloaded"
        assert payload["retry_after"] == 1.0
        assert shed_seconds < 1.0, f"429 took {shed_seconds:.2f}s (queued?)"
        assert len(owner.requests) == 2  # the shed request never landed

        owner.gate.set()
        for t in holders:
            t.join(timeout=5)
        assert all(s == 200 for s, _ in inflight)
        status, _ = fake_cluster.handle(
            "GET", "/expand", {"config": "c", "query": "java"}
        )
        assert status == 200  # slots released, serving again
        assert fake_cluster.metrics.snapshot()["shed"] == 1

    def test_queue_depth_bound_never_exceeded(self, fake_cluster):
        owner_name = _routed_replica(fake_cluster, "java")
        owner = fake_cluster.replicas[owner_name]
        owner.gate = threading.Event()
        results = []
        lock = threading.Lock()

        def fire():
            result = fake_cluster.handle(
                "GET", "/expand", {"config": "c", "query": "java"}
            )
            with lock:
                results.append(result[0])
                if len(results) >= 6:  # all sheddable requests answered
                    owner.gate.set()

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        # Nothing hung, the bound held: every request was answered, the
        # excess was shed, and the replica only ever saw admitted work.
        assert len(results) == 8
        assert results.count(429) >= 1
        assert results.count(200) + results.count(429) == 8
        assert len(owner.requests) == results.count(200)

    def test_failover_to_next_live_replica(self, fake_cluster):
        owner_name = _routed_replica(fake_cluster, "java")
        pref = fake_cluster.ring.preference(
            fake_cluster.routing_key(
                "/expand", {"config": "c", "query": "java"}
            )
        )
        fake_cluster.replicas[owner_name].fail = True
        status, body = fake_cluster.handle(
            "GET", "/expand", {"config": "c", "query": "java"}
        )
        assert status == 200
        assert json.loads(body)["replica"] == pref[1]
        assert fake_cluster.metrics.snapshot()["failovers"] == {owner_name: 1}

    def test_all_dead_is_503_not_hang(self, fake_cluster):
        for handle in fake_cluster.replicas.values():
            handle.stop()
        t0 = time.perf_counter()
        status, payload = fake_cluster.handle(
            "GET", "/expand", {"config": "c", "query": "java"}
        )
        assert status == 503
        assert payload["error"] == "unavailable"
        assert time.perf_counter() - t0 < 1.0

    def test_dead_replica_is_restarted_by_supervisor(self, fake_cluster):
        victim = fake_cluster.replicas["r1"]
        victim.die()
        deadline = time.time() + 10
        while not victim.alive() and time.time() < deadline:
            time.sleep(0.05)
        assert victim.alive(), "supervisor never restarted the dead replica"
        assert victim.restarts == 1

    def test_batch_scatter_gather_preserves_order(self, fake_cluster):
        queries = [f"query-{i}" for i in range(12)]
        status, body = fake_cluster.handle(
            "POST", "/batch", {"config": "c", "queries": queries}
        )
        assert status == 200
        payload = json.loads(body)
        items = payload["report"]["items"]
        assert [i["query"] for i in items] == queries
        assert payload["n_ok"] == len(queries)
        assert len(payload["replicas"]) >= 2  # actually scattered

    def test_batch_on_saturated_fleet_sheds_then_recovers(self, fake_cluster):
        # Exhaust every replica's admission budget directly — no threads,
        # fully deterministic.
        for name in fake_cluster.replicas:
            while fake_cluster.admission.try_acquire(name):
                pass

        t0 = time.perf_counter()
        status, payload = fake_cluster.handle(
            "POST", "/batch", {"config": "c", "queries": ["a", "b", "c"]}
        )
        assert status == 429
        assert payload["error"] == "overloaded"
        assert time.perf_counter() - t0 < 1.0  # shed, not queued

        for name, held in fake_cluster.admission.snapshot().items():
            for _ in range(held):
                fake_cluster.admission.release(name)
        status, _ = fake_cluster.handle(
            "POST", "/batch", {"config": "c", "queries": ["a", "b", "c"]}
        )
        assert status == 200

    def test_ingest_without_store_backed_config_is_400(self, fake_cluster):
        # Config "c" has no store=<path>: nothing durable to write to.
        status, payload = fake_cluster.handle(
            "POST", "/ingest", {"config": "c", "documents": [{}]}
        )
        assert status == 400
        assert "store" in payload["message"]

    def test_changefeed_without_store_backed_config_is_400(self, fake_cluster):
        status, payload = fake_cluster.handle("GET", "/changefeed", {})
        assert status == 400
        assert "store" in payload["message"]

    def test_unknown_path_404_lists_cluster_routes(self, fake_cluster):
        status, payload = fake_cluster.handle("GET", "/nope", {})
        assert status == 404
        assert "/cluster" in payload["paths"]
        assert "/expand" in payload["paths"]

    def test_wrong_method_405(self, fake_cluster):
        status, _ = fake_cluster.handle("GET", "/batch", {})
        assert status == 405
        status, _ = fake_cluster.handle("POST", "/healthz", {})
        assert status == 405

    def test_stop_drains_in_flight_request_and_refuses_new_ones(
        self, fake_cluster
    ):
        owner = fake_cluster.replicas[_routed_replica(fake_cluster, "java")]
        owner.gate = threading.Event()  # the replica answers slowly
        params = {"config": "c", "query": "java"}
        results = []
        request = threading.Thread(
            target=lambda: results.append(
                fake_cluster.handle("GET", "/expand", params)
            )
        )
        request.start()
        deadline = time.time() + 5
        while not owner.requests and time.time() < deadline:
            time.sleep(0.01)
        assert owner.requests, "the request never reached its replica"

        closer = threading.Thread(
            target=lambda: fake_cluster.stop(drain_timeout=10.0)
        )
        closer.start()
        while not fake_cluster.closing and time.time() < deadline:
            time.sleep(0.01)
        # Draining: new work is refused at once, replicas keep serving.
        status, payload = fake_cluster.handle("GET", "/expand", params)
        assert status == 503
        assert payload["error"] == "shutting_down"
        closer.join(0.3)
        assert closer.is_alive()
        assert owner.alive()

        owner.gate.set()
        request.join(10.0)
        closer.join(10.0)
        assert not closer.is_alive()
        assert results and results[0][0] == 200
        assert not owner.alive()  # stopped only after the drain

    def test_healthz_degrades_with_dead_replicas(self, fake_cluster):
        status, payload = fake_cluster.handle("GET", "/healthz", {})
        assert payload["status"] == "ok"
        fake_cluster.replicas["r2"].stop()
        status, payload = fake_cluster.handle("GET", "/healthz", {})
        assert payload["status"] == "degraded"
        assert payload["replicas_live"] == 2


# -- /batch gather: spliced item bytes ----------------------------------------

#: Four queries that alternate r0, r1, r0, r1 on a 2-node ring; the
#: ``bad-`` one fails inside its replica (an ok=False item, not a 500).
GATHER_QUERIES = ["java", "cell", "bad-rockets", "domino"]


@pytest.fixture()
def gather_cluster():
    registry = TenantRegistry()
    registry.create(TenantSpec(name="t"))
    coordinator = ClusterCoordinator(
        ["c:dataset=wikipedia"],
        replicas=2,
        replica_factory=lambda name, factory: FakeReplica(name, factory),
        tenants=registry,
    )
    coordinator.start()
    yield coordinator
    coordinator.stop()


def _reference_batch(coordinator, params: dict) -> dict:
    """The merged /batch body, built the way the gather did before it
    spliced bytes: items decoded and placed in request order, a
    non-200 replica's items as ClusterError items, totals counted over
    all items before paging."""
    page = resolve_batch_page(params)
    items, used = [], set()
    for query in page.params["queries"]:
        owner = next(
            name for name in coordinator.ring.preference(f"c\x00{query}")
            if coordinator.replicas[name].alive()
        )
        used.add(owner)
        if coordinator.replicas[owner].batch_status != 200:
            items.append({
                "query": query, "ok": False, "report": None,
                "error_type": "ClusterError",
                "error_message": f"replica {owner}: boom",
                "seconds": 0.0, "cache": "miss",
            })
        else:
            items.append(_fake_batch_item(owner, query))
    body = {
        "config": "c",
        "cache_hits": sum(1 for i in items if i["cache"] == "hit"),
        "n_ok": sum(1 for i in items if i["ok"]),
        "n_failed": sum(1 for i in items if not i["ok"]),
        "replicas": sorted(used),
        "report": schema.make_envelope(
            schema.KIND_BATCH,
            {"items": items, "workers": len(used), "seconds": 0.0},
        ),
        "tenant": "t",
    }
    if page.paginated:
        apply_batch_page(body, page)
    return body


def _masked(body: dict) -> dict:
    """``body`` with every ``seconds`` field zeroed."""
    body["report"]["seconds"] = 0.0
    for item in body["report"]["items"]:
        item["seconds"] = 0.0
    return body


class TestBatchGather:
    def _batch(self, coordinator, params: dict) -> dict:
        status, body = coordinator.handle("POST", "/batch", dict(params))
        assert status == 200
        assert isinstance(body, bytes)  # spliced, not a dict to re-encode
        return _masked(json.loads(body))

    def test_all_ok(self, gather_cluster):
        params = {"config": "c", "queries": GATHER_QUERIES, "tenant": "t"}
        got = self._batch(gather_cluster, params)
        assert got == _masked(_reference_batch(gather_cluster, params))
        assert [i["query"] for i in got["report"]["items"]] == GATHER_QUERIES
        assert (got["n_ok"], got["n_failed"], got["cache_hits"]) == (3, 1, 3)
        assert got["replicas"] == ["r0", "r1"]
        assert got["tenant"] == "t"

    def test_replica_500_becomes_cluster_error_items(self, gather_cluster):
        gather_cluster.replicas["r1"].batch_status = 500
        params = {"config": "c", "queries": GATHER_QUERIES, "tenant": "t"}
        got = self._batch(gather_cluster, params)
        assert got == _masked(_reference_batch(gather_cluster, params))
        failed = [i["query"] for i in got["report"]["items"]
                  if i["error_type"] == "ClusterError"]
        assert failed == ["cell", "domino"]
        assert (got["n_ok"], got["n_failed"], got["cache_hits"]) == (1, 3, 1)
        assert got["replicas"] == ["r0", "r1"]

    def test_down_replica_fails_over_on_the_ring(self, gather_cluster):
        gather_cluster.replicas["r1"].stop()
        params = {"config": "c", "queries": GATHER_QUERIES, "tenant": "t"}
        got = self._batch(gather_cluster, params)
        assert got == _masked(_reference_batch(gather_cluster, params))
        assert got["replicas"] == ["r0"]
        served = {i["report"]["from"] for i in got["report"]["items"] if i["ok"]}
        assert served == {"r0"}
        assert (got["n_ok"], got["n_failed"], got["cache_hits"]) == (3, 1, 3)

    def test_limit_and_cursor_pages(self, gather_cluster):
        gather_cluster.replicas["r1"].batch_status = 500
        params = {"config": "c", "queries": GATHER_QUERIES, "tenant": "t", "limit": 3}
        first = self._batch(gather_cluster, params)
        assert first == _masked(_reference_batch(gather_cluster, params))
        assert [i["query"] for i in first["report"]["items"]] == GATHER_QUERIES[:3]
        # Totals are over the whole batch, not the page.
        assert (first["n_ok"], first["n_failed"]) == (1, 3)
        cursor = first["page"]["next_cursor"]
        params = {"cursor": cursor, "tenant": "t"}
        second = self._batch(gather_cluster, params)
        assert second == _masked(_reference_batch(gather_cluster, params))
        assert [i["query"] for i in second["report"]["items"]] == GATHER_QUERIES[3:]
        assert second["page"]["next_cursor"] is None


# -- the real thing: a 2-replica process cluster over a store -----------------


def _seed_documents(n: int = 10) -> list[Document]:
    vocab = ["java", "coffee", "island", "python", "snake", "language"]
    return [
        Document(
            doc_id=f"doc-{i}",
            terms={vocab[i % len(vocab)]: 2, vocab[(i + 1) % len(vocab)]: 1,
                   f"term-{i}": 1},
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def process_cluster(tmp_path_factory):
    store_path = tmp_path_factory.mktemp("cluster") / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(_seed_documents())
    server = create_cluster(
        [f"db:dataset=wikipedia,backend=sqlite,store={store_path}"],
        replicas=2,
        port=0,
        workers=2,
        queue_depth=8,
        start_timeout=120.0,
    )
    server.start()
    yield server, str(store_path)
    server.stop()


def _http(server, method: str, path: str, body: dict | None = None, **params):
    url = server.url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


@pytest.mark.slow
class TestProcessCluster:
    def test_healthz_aggregates_all_replicas(self, process_cluster):
        server, _ = process_cluster
        status, _, payload = _http(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["replicas_live"] == payload["replicas_total"] == 2
        for info in payload["replicas"].values():
            assert info["alive"]
            assert info["generations"] == {"db": 1}

    def test_expand_affinity_hit_over_http(self, process_cluster):
        server, _ = process_cluster
        status, _, first = _http(
            server, "GET", "/expand", config="db", query="java"
        )
        assert status == 200 and first["cache"] == "miss"
        status, _, second = _http(
            server, "GET", "/expand", config="db", query="java"
        )
        assert status == 200 and second["cache"] == "hit"

    def test_search_pagination_over_http(self, process_cluster):
        server, _ = process_cluster
        status, _, full = _http(
            server, "GET", "/search", config="db", query="java"
        )
        assert status == 200
        everything = [r["document"]["doc_id"] for r in full["results"]]
        assert len(everything) >= 2

        collected, cursor = [], None
        while True:
            if cursor is None:
                status, _, payload = _http(
                    server, "GET", "/search",
                    config="db", query="java", limit=1,
                )
            else:
                status, _, payload = _http(
                    server, "GET", "/search", cursor=cursor
                )
            assert status == 200
            collected.extend(r["document"]["doc_id"] for r in payload["results"])
            cursor = payload["page"]["next_cursor"]
            if cursor is None:
                break
        assert collected == everything

    def test_batch_over_http(self, process_cluster):
        server, _ = process_cluster
        status, _, payload = _http(
            server, "POST", "/batch",
            body={"config": "db", "queries": ["java", "python", "coffee"]},
        )
        assert status == 200
        assert [i["query"] for i in payload["report"]["items"]] == [
            "java", "python", "coffee",
        ]

    def test_batch_items_match_single_node(self, process_cluster, tmp_path):
        server, store_path = process_cluster
        queries = ["java", "python", "coffee", "island"]
        status, _, clustered = _http(
            server, "POST", "/batch", body={"config": "db", "queries": queries}
        )
        assert status == 200
        snapshot = tmp_path / "single.sqlite"
        with DocumentStore(store_path) as source:
            source.snapshot(snapshot)
        single = ExpansionService(
            SessionPool([ServeConfig.parse(
                f"db:dataset=wikipedia,backend=sqlite,store={snapshot}"
            )]),
            workers=1,
        )
        try:
            status, alone = single.handle(
                "POST", "/batch", {"config": "db", "queries": queries}
            )
            alone = json.loads(alone)
        finally:
            single.close()
        assert status == 200
        assert (clustered["n_ok"], clustered["n_failed"]) == (alone["n_ok"], 0)

        def content(item):
            return (item["query"], item["ok"], schema.report_content(item["report"]))

        assert [content(i) for i in clustered["report"]["items"]] == [
            content(i) for i in json.loads(json.dumps(alone["report"]["items"]))
        ]

    def test_metrics_aggregated_across_replicas(self, process_cluster):
        server, _ = process_cluster
        status, _, payload = _http(server, "GET", "/metrics")
        assert status == 200
        assert payload["requests"]["expand"]["count"] >= 2
        assert payload["cluster"]["queue_depth"] == 8
        assert set(payload["replicas"]) == {"r0", "r1"}

    def test_configs_and_cluster_topology(self, process_cluster):
        server, _ = process_cluster
        status, _, configs = _http(server, "GET", "/configs")
        assert status == 200 and "db" in configs["configs"]
        status, _, topology = _http(server, "GET", "/cluster")
        assert status == 200
        assert set(topology["replicas"]) == {"r0", "r1"}
        for info in topology["replicas"].values():
            assert isinstance(info["pid"], int)
        assert topology["ring"]["nodes"] == ["r0", "r1"]

    def test_ingest_writes_through_to_source_store(self, process_cluster):
        # Live routed ingest (satellite of the feed PR): the write commits
        # to the *source* store and answers 202 with the new generation.
        # This fleet does not follow the changefeed, so the replicas keep
        # serving their hydration snapshot — durable convergence arrives
        # at their next restart (and incrementally with --follow).
        server, store_path = process_cluster
        status, _, payload = _http(
            server, "POST", "/ingest",
            body={
                "config": "db",
                "documents": [{"doc_id": "ingested-1", "text": "java beans"}],
            },
        )
        assert status == 202
        assert payload["ingested"] == 1
        assert payload["follow"] is False
        with DocumentStore(store_path) as store:
            assert store.generation == payload["generation"]
            assert "ingested-1" in store

    def test_changefeed_served_from_source_store(self, process_cluster):
        server, _ = process_cluster
        status, _, payload = _http(
            server, "GET", "/changefeed", config="db", since=0
        )
        assert status == 200
        assert payload["gap"] is False
        assert payload["count"] >= 1
        first = payload["entries"][0]
        assert first["generation"] == 1
        assert first["kind"] == "upsert"
        assert [d["doc_id"] for d in first["documents"]] == first["doc_ids"]
        # The cursor resumes past everything the first page returned.
        status, _, page2 = _http(
            server, "GET", "/changefeed", cursor=payload["next_cursor"]
        )
        assert status == 200
        assert page2["since"] == payload["entries"][-1]["generation"]

    def test_kill_replica_failover_then_rehydrated_restart(
        self, process_cluster
    ):
        import os
        import signal

        server, store_path = process_cluster

        # Mutate the source store while the cluster is serving: the
        # restarted replica must pick this up, the survivor must not.
        with DocumentStore(store_path) as store:
            store.upsert_all(
                [Document(doc_id="fresh-1", terms={"java": 1, "fresh": 1})]
            )
            fresh_generation = store.generation
        assert fresh_generation > 1

        status, _, topology = _http(server, "GET", "/cluster")
        victim_pid = topology["replicas"]["r0"]["pid"]
        os.kill(victim_pid, signal.SIGKILL)

        # The cluster keeps answering immediately (failover, no hang).
        t0 = time.perf_counter()
        status, _, payload = _http(
            server, "GET", "/expand", config="db", query="java"
        )
        assert status == 200
        assert time.perf_counter() - t0 < 30

        # Supervisor restarts r0, re-hydrated from a *fresh* snapshot.
        deadline = time.time() + 60
        r0 = {}
        while time.time() < deadline:
            status, _, health = _http(server, "GET", "/healthz")
            r0 = health["replicas"]["r0"]
            if (
                health["replicas_live"] == 2
                and r0.get("generations", {}).get("db") == fresh_generation
            ):
                break
            time.sleep(0.5)
        assert r0.get("generations", {}).get("db") == fresh_generation, (
            "restarted replica did not re-hydrate from the latest snapshot"
        )
        assert r0["restarts"] == 1
        # The survivor still serves its original hydration.
        assert health["replicas"]["r1"]["generations"]["db"] == 1
        assert health["status"] == "ok"


_ORPHAN_COORDINATOR = """
import json, multiprocessing, sys, time
from multiprocessing import resource_tracker
from repro.serve.cluster import create_cluster

server = create_cluster(
    [f"db:dataset=wikipedia,backend=sqlite,store={sys.argv[1]}"],
    replicas=2, port=0, workers=1, start_timeout=120.0,
)
server.start()
pids = [p.pid for p in multiprocessing.active_children()]
print(json.dumps(pids + [resource_tracker._resource_tracker._pid]), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_replicas_and_tracker_exit_when_the_coordinator_is_killed(tmp_path):
    import os
    import signal

    store_path = tmp_path / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(_seed_documents())
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_COORDINATOR, str(store_path)],
        stdout=subprocess.PIPE,
        text=True,
    )
    children: list[int] = []
    try:
        children = json.loads(coordinator.stdout.readline())
        assert len(children) == 3  # two replicas and the resource tracker
        assert all(_running(pid) for pid in children)
        coordinator.kill()  # SIGKILL: no exit handler runs
        coordinator.wait(10)
        deadline = time.monotonic() + 8.0
        while any(map(_running, children)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in children if _running(pid)]
    finally:
        coordinator.kill()
        coordinator.wait(10)
        coordinator.stdout.close()
        for pid in children:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.slow
def test_gapped_follow_replica_exits_and_is_rehydrated(tmp_path):
    """A changefeed gap ends the replica process; the supervisor respawns it.

    The source changelog is truncated past the replica's position (two
    commits, then a truncation to the newest generation). The tailer
    sees the gap at its next poll, the replica must exit rather than
    keep serving its stale copy, and the supervisor must restart it
    from a fresh snapshot at the source's generation.
    """
    store_path = tmp_path / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(_seed_documents())
    server = create_cluster(
        [f"db:dataset=wikipedia,backend=sqlite,store={store_path}"],
        replicas=1,
        port=0,
        workers=1,
        follow=True,
        feed_poll_interval=0.5,
        compaction_interval=3600.0,
        start_timeout=120.0,
    )
    server.start()

    def r0() -> dict:
        return _http(server, "GET", "/cluster")[2]["replicas"]["r0"]

    def poll(done, seconds: float) -> dict:
        deadline = time.monotonic() + seconds
        state = r0()
        while not done(state) and time.monotonic() < deadline:
            time.sleep(0.1)
            state = r0()
        return state

    try:
        first_pid = r0()["pid"]

        def exited(state: dict) -> bool:
            return not (state["alive"] and state["pid"] == first_pid)

        with DocumentStore(store_path) as store:
            for n in range(3):
                # A tailer that polls between the last commit and the
                # truncation sees no gap; the next round makes one.
                store.upsert(Document(doc_id=f"gap-{n}-a", terms={"java": 1}))
                store.upsert(Document(doc_id=f"gap-{n}-b", terms={"java": 1}))
                store.truncate_changelog(store.generation)
                generation = store.generation
                if exited(poll(exited, 3.0)):
                    break
        state = r0()
        assert exited(state), "the gapped replica kept running instead of exiting"
        state = poll(lambda s: s["alive"] and s["state"] == "serving", 60.0)
        assert state["alive"] and state["pid"] != first_pid
        assert state["restarts"] == 1
        _, _, health = _http(server, "GET", "/healthz")
        assert health["replicas"]["r0"]["generations"]["db"] == generation
    finally:
        server.stop()


class TestBlockingClusterServeForeverStop:
    """stop() must wake a blocking serve_forever (the CLI/signal path)."""

    class _StubCoordinator:
        def __init__(self) -> None:
            self.stops = 0

        def start(self):
            return self

        def stop(self) -> None:
            self.stops += 1

        def handle(self, method, path, params):
            return 200, {"ok": True}

    def test_stop_unblocks_foreground_serve_forever(self):
        from repro.serve.cluster import ClusterServer

        stub = self._StubCoordinator()
        server = ClusterServer(stub, port=0)
        loop = threading.Thread(target=server.serve_forever)
        loop.start()
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        server.url + "/healthz", timeout=5
                    ) as response:
                        if response.status == 200:
                            break
                except OSError:
                    time.sleep(0.05)
            else:
                pytest.fail("cluster server never came up")
        finally:
            server.stop()
        loop.join(10.0)
        assert not loop.is_alive(), "serve_forever did not return after stop()"
        assert stub.stops >= 1
        server.serve_forever()  # closed server: returns immediately
