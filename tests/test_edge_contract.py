"""The request-envelope contract, pinned once for both serve tiers.

Every case runs against the single-node :class:`ExpansionService` (with
a tenant registry) and the :class:`ClusterCoordinator` over in-process
fake replicas, and asserts the same status, ``error`` code, ``tenant``
and ``trace_id``. The HTTP cases add the ``Retry-After`` header, the
``X-Repro-Trace`` echo, and malformed ``Content-Length`` handling on a
raw socket. The table these tests pin is API.md's "Request envelope".
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs import TRACE_HEADER, TRACE_PARAM
from repro.serve import ExpansionServer, ExpansionService, ServeConfig, SessionPool
from repro.serve.cluster import ClusterCoordinator, ClusterServer
from repro.tenancy import RateLimiter, TenantRegistry, TenantSpec

TIERS = ("serve", "cluster")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeReplica:
    """In-process replica: answers every proxied read with 200."""

    def __init__(self, name, spec_factory=None):
        self.name = name
        self._state = "down"
        self.restarts = -1
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
        return 200, json.dumps({"replica": self.name, "path": path}).encode(), {}


def _registry() -> TenantRegistry:
    registry = TenantRegistry()
    registry.create(TenantSpec(name="a"))
    registry.create(TenantSpec(name="scoped", configs=("elsewhere",)))
    registry.create(TenantSpec(name="agg", qps=1.0, burst=1))
    registry.create(TenantSpec(name="small", max_ingest_batch=1))
    return registry


def _build(kind: str, tmp_path):
    """An unstarted tier over one store-backed config ``c``, plus its
    HTTP front class."""
    store = str(tmp_path / f"{kind}.sqlite")
    limiter = RateLimiter(clock=FakeClock())
    if kind == "serve":
        service = ExpansionService(
            SessionPool([ServeConfig(name="c", store=store)]),
            cache_size=16,
            workers=1,
            tenants=_registry(),
            rate_limiter=limiter,
        )
        return service, ExpansionServer
    coordinator = ClusterCoordinator(
        [f"c:store={store}"],
        replicas=2,
        replica_factory=FakeReplica,
        tenants=_registry(),
        rate_limiter=limiter,
    )
    return coordinator, ClusterServer


@pytest.fixture(params=TIERS)
def edge(request, tmp_path):
    tier, _front = _build(request.param, tmp_path)
    if request.param == "cluster":
        tier.start()
    yield tier
    tier.close(drain_timeout=2.0)  # ClusterCoordinator.close is its stop


def _call(edge, method, path, params=None):
    params = dict(params or {})
    params[TRACE_PARAM] = "contract-trace"
    return edge.handle(method, path, params)


def _assert_error(payload, code, tenant=None):
    assert payload["error"] == code
    assert payload["trace_id"] == "contract-trace"
    assert payload.get("tenant") == tenant


class TestEnvelope:
    def test_400_tenant_required(self, edge):
        status, payload = _call(edge, "GET", "/expand", {"config": "c", "query": "q"})
        assert status == 400
        _assert_error(payload, "tenant_required")

    def test_400_bad_parameter_names_the_tenant(self, edge):
        status, payload = _call(
            edge, "GET", "/metrics", {"format": "xml", "tenant": "a"}
        )
        assert status == 400
        _assert_error(payload, "serve_error", "a")

    def test_403_outside_the_allow_list(self, edge):
        status, payload = _call(
            edge, "GET", "/expand", {"config": "c", "query": "q", "tenant": "scoped"}
        )
        assert status == 403
        _assert_error(payload, "forbidden", "scoped")

    def test_404_unknown_tenant(self, edge):
        status, payload = _call(
            edge, "GET", "/expand", {"config": "c", "query": "q", "tenant": "ghost"}
        )
        assert status == 404
        _assert_error(payload, "unknown_tenant")

    def test_404_unknown_config(self, edge):
        status, payload = _call(
            edge, "POST", "/ingest",
            {"config": "missing", "tenant": "a",
             "documents": [{"doc_id": "d", "text": "java island"}]},
        )
        assert status == 404
        _assert_error(payload, "unknown_config", "a")

    def test_404_route_before_tenant_resolution(self, edge):
        status, payload = _call(edge, "GET", "/nope", {"tenant": "ghost"})
        assert status == 404
        _assert_error(payload, "not_found")
        assert "/expand" in payload["paths"]

    def test_405_route_before_tenant_resolution(self, edge):
        # No tenant on a data route: the method is wrong first.
        status, payload = _call(edge, "GET", "/batch")
        assert status == 405
        _assert_error(payload, "method_not_allowed")

    def test_413_over_quota(self, edge):
        status, payload = _call(
            edge, "POST", "/ingest",
            {"config": "c", "tenant": "small",
             "documents": [
                 {"doc_id": f"d{i}", "text": "java island"} for i in range(2)
             ]},
        )
        assert status == 413
        _assert_error(payload, "quota_exceeded", "small")

    def test_429_rate_limit_shed(self, edge):
        params = {"config": "c", "query": "q", "tenant": "agg"}
        _call(edge, "GET", "/search", params)  # spends the only token
        status, payload = _call(edge, "GET", "/search", params)
        assert status == 429
        _assert_error(payload, "overloaded", "agg")
        assert payload["retry_after"] > 0

    def test_500_handler_crash_names_the_tenant(self, edge):
        def explode(params, tenant=None):
            raise RuntimeError("boom")

        edge.search = explode
        status, payload = _call(
            edge, "GET", "/search", {"config": "c", "query": "q", "tenant": "a"}
        )
        assert status == 500
        _assert_error(payload, "internal", "a")

    def test_tenant_read_is_listed_in_its_traces(self, edge):
        # A 200 data-route body is bytes on both tiers (the coordinator
        # proxies a replica's): the root span's tenant must come from
        # the resolved tenant, not from the body.
        status, body = edge.handle(
            "GET", "/search",
            {"config": "c", "query": "java", "top_k": "3", "tenant": "a",
             TRACE_PARAM: "a-read"},
        )
        assert status == 200 and isinstance(body, bytes)
        status, payload = edge.handle("GET", "/debug/traces", {"tenant": "a"})
        assert status == 200
        assert "a-read" in [trace["trace_id"] for trace in payload["traces"]]

    def test_503_while_draining(self, edge):
        edge.close(drain_timeout=2.0)
        assert edge.closing
        status, payload = _call(edge, "GET", "/healthz")
        assert status == 503
        _assert_error(payload, "shutting_down")


# -- over HTTP ---------------------------------------------------------------


@pytest.fixture(params=TIERS)
def server(request, tmp_path):
    tier, front = _build(request.param, tmp_path)
    srv = front(tier, port=0).start()
    yield srv
    srv.stop()


def _get(server, path, headers=None):
    request = urllib.request.Request(server.url + path, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.headers, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, error.headers, json.loads(error.read())


def _raw_post(server, content_length: str) -> tuple[int, dict]:
    """POST with a hand-written Content-Length; the server must answer
    (and close) without waiting for a body."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(
            b"POST /batch HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode()
        )
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


class TestEnvelopeOverHTTP:
    def test_retry_after_header_on_429(self, server):
        headers = {"X-Repro-Tenant": "agg"}
        _get(server, "/search?config=c&query=q", headers)
        status, response_headers, payload = _get(
            server, "/search?config=c&query=q", headers
        )
        assert status == 429
        assert int(response_headers["Retry-After"]) >= 1
        assert payload["tenant"] == "agg"

    def test_trace_header_echoed_on_success_and_error(self, server):
        status, headers, _ = _get(
            server, "/healthz", {TRACE_HEADER: "http-contract-1"}
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "http-contract-1"
        status, headers, payload = _get(
            server, "/nope", {TRACE_HEADER: "http-contract-2"}
        )
        assert status == 404
        assert headers[TRACE_HEADER] == "http-contract-2"
        assert payload["trace_id"] == "http-contract-2"

    @pytest.mark.parametrize("content_length", ["-1", "abc"])
    def test_malformed_content_length_is_400(self, server, content_length):
        status, payload = _raw_post(server, content_length)
        assert status == 400
        assert payload["error"] == "bad_request"
        # The server is still healthy afterwards.
        status, _, _ = _get(server, "/healthz")
        assert status == 200
