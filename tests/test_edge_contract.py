"""The request-envelope contract, pinned once for both serve tiers.

Every case runs against the single-node :class:`ExpansionService` (with
a tenant registry) and the :class:`ClusterCoordinator` over in-process
fake replicas, and asserts the same status, ``error`` code, ``tenant``
and ``trace_id``. The HTTP cases add the ``Retry-After`` header, the
``X-Repro-Trace`` echo, and malformed ``Content-Length`` handling on a
raw socket. The raw-socket classes pin the HTTP front itself: the
request-head checks it keeps from the stdlib, keep-alive and closing,
body framing, every method reaching the route table, and one write per
response. The table these tests pin is API.md's "Request envelope".
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs import TRACE_HEADER, TRACE_PARAM
from repro.serve import ExpansionServer, ExpansionService, ServeConfig, SessionPool
from repro.serve import edge as edge_module
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
        if path == "/batch":  # a sub-batch's head, and its items as extras
            items = [
                json.dumps({"query": q, "ok": True}).encode()
                for q in params["queries"]
            ]
            head = {"cache_hits": 0, "n_ok": len(items), "n_failed": 0}
            return 200, json.dumps(head).encode(), {"items": items}
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


# -- the shared /batch, /ingest and /changefeed ------------------------------

#: A small memory config ``m`` and a store-backed ``db``.
_SMALL = {"docs_per_sense": 4, "terms": ["java"]}
_DOCS = [{"doc_id": "edge-1", "text": "java island"}]


@pytest.fixture(params=TIERS)
def two_configs(request, tmp_path):
    configs = [
        ServeConfig(name="m", dataset_kwargs=_SMALL),
        ServeConfig(
            name="db", store=str(tmp_path / "db.sqlite"), dataset_kwargs=_SMALL
        ),
    ]
    if request.param == "serve":
        tier = ExpansionService(SessionPool(configs), workers=1)
    else:
        tier = ClusterCoordinator(configs, replicas=2, replica_factory=FakeReplica)
        tier.start()
    yield request.param, tier
    tier.close(drain_timeout=2.0)


class TestSharedRoutes:
    def test_batch_without_config_names_the_only_one(self, edge):
        status, body = _call(
            edge, "POST", "/batch", {"queries": ["java", "mouse"], "tenant": "a"}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["config"] == "c"
        assert [i["query"] for i in payload["report"]["items"]] == ["java", "mouse"]

    def test_metrics_count_ingest_changefeed_and_their_errors(self, edge):
        params = {"config": "c", "tenant": "a"}
        status, _ = _call(edge, "POST", "/ingest", {**params, "documents": _DOCS})
        assert status in (200, 202)
        status, _ = _call(edge, "GET", "/changefeed", {**params, "since": "0"})
        assert status == 200
        status, _ = _call(edge, "POST", "/ingest", {**params, "documents": []})
        assert status == 400
        status, payload = _call(edge, "GET", "/metrics")
        assert status == 200
        rows = {
            name: (row["count"], row["errors"])
            for name, row in payload["requests"].items()
            if name in ("ingest", "changefeed")
        }
        assert rows == {"ingest": (2, 1), "changefeed": (1, 0)}

    def test_ingest_body(self, two_configs):
        tier, edge = two_configs
        status, body = _call(
            edge, "POST", "/ingest", {"config": "db", "documents": _DOCS}
        )
        own = "persistent" if tier == "serve" else "follow"
        assert status == (200 if tier == "serve" else 202)
        payload = json.loads(body)
        assert list(payload) == ["config", "ingested", "generation", own, "seconds"]
        assert (payload["config"], payload["ingested"]) == ("db", 1)

    @pytest.mark.parametrize("method, path", [
        ("POST", "/ingest"), ("GET", "/changefeed"),
    ])
    def test_a_config_without_a_store_is_400(self, two_configs, method, path):
        _, edge = two_configs
        status, payload = _call(
            edge, method, path, {"config": "m", "documents": _DOCS}
        )
        assert status == 400
        _assert_error(payload, "serve_error")
        assert "store" in payload["message"]

    @pytest.mark.parametrize("method, path", [
        ("POST", "/ingest"), ("GET", "/changefeed"),
    ])
    def test_config_is_required_among_several(self, two_configs, method, path):
        _, edge = two_configs
        status, payload = _call(edge, method, path, {"documents": _DOCS})
        assert status == 400
        _assert_error(payload, "serve_error")
        assert "'config' is required" in payload["message"]


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


# -- the HTTP front on a raw socket ------------------------------------------


class _RawConnection:
    """One raw socket to the front; reads each response by its
    ``Content-Length``, so keep-alive and closing are both visible."""

    def __init__(self, server) -> None:
        self.sock = socket.create_connection((server.host, server.port), timeout=10)
        self.buf = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self, body: bool = True) -> tuple[int, dict[str, str], bytes]:
        """``(status, lowercased headers (first wins), body)``; pass
        ``body=False`` for a bodiless answer (``HEAD``, ``100``)."""
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers.setdefault(name.strip().lower(), value.strip())
        length = int(headers.get("content-length", 0)) if body else 0
        while len(self.buf) < length:
            self._fill()
        data, self.buf = self.buf[:length], self.buf[length:]
        return int(lines[0].split()[1]), headers, data

    def request(self, data: bytes) -> tuple[int, dict[str, str], bytes]:
        self.send(data)
        return self.response()

    def closed(self) -> bool:
        """True once the server has closed its side with nothing unread."""
        return self.buf == b"" and self.sock.recv(1) == b""

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def raw(server):
    connection = _RawConnection(server)
    yield connection
    connection.close()


def _get_line(target: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {target} {version}", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1")


def _post(target: str, body: bytes, *headers: str) -> bytes:
    lines = [f"POST {target} HTTP/1.1", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode("latin-1") + body


_SEARCH = "/search?config=c&query=java"
_ENVELOPE_HEADERS = ("server", "date", "content-type", "content-length", "x-repro-trace")


def _assert_front_error(raw, status, code):
    got, headers, body = raw.response()
    assert got == status
    assert headers["content-type"].startswith("application/json")
    assert headers["connection"] == "close"
    payload = json.loads(body)
    assert payload["error"] == code and payload["message"]
    assert raw.closed()


class TestHTTPFront:
    """The one-pass request reader keeps every stdlib check, and adds
    body framing, on both tiers."""

    def test_414_request_line_too_long(self, raw):
        # Exactly one byte over the limit and no newline: the front has
        # read everything, so it closes without a reset.
        raw.send(b"GET /" + b"a" * (65537 - 5))
        _assert_front_error(raw, 414, "uri_too_long")

    def test_431_header_line_too_long(self, raw):
        raw.send(b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8))
        _assert_front_error(raw, 431, "headers_too_large")

    def test_431_more_than_100_headers(self, raw):
        raw.send(_get_line("/healthz", *(f"X-H{i}: v" for i in range(101))))
        _assert_front_error(raw, 431, "headers_too_large")

    def test_100_headers_are_accepted(self, raw):
        # Host plus 99 more.
        status, _, _ = raw.request(
            _get_line("/healthz", *(f"X-H{i}: v" for i in range(99)))
        )
        assert status == 200

    @pytest.mark.parametrize(
        "request_line",
        ["GET /healthz HTTP/1.x", "GET /healthz HTTP/1.1.1", "GET /healthz FTP/1.1"],
    )
    def test_400_bad_version(self, raw, request_line):
        raw.send(f"{request_line}\r\n\r\n".encode())
        _assert_front_error(raw, 400, "bad_request")

    def test_505_http_2_and_later(self, raw):
        raw.send(_get_line("/healthz", version="HTTP/2.0"))
        _assert_front_error(raw, 505, "version_not_supported")

    @pytest.mark.parametrize("request_line", ["GET", "GET /healthz extra HTTP/1.1"])
    def test_400_request_line_of_two_or_three_words(self, raw, request_line):
        raw.send(f"{request_line}\r\n\r\n".encode())
        _assert_front_error(raw, 400, "bad_request")

    def test_400_http_0_9_non_get(self, raw):
        raw.send(b"POST /batch\r\n\r\n")
        _assert_front_error(raw, 400, "bad_request")

    def test_http_0_9_get_is_served_and_closes(self, raw):
        status, _, body = raw.request(b"GET /healthz\r\n\r\n")
        assert status == 200 and "status" in json.loads(body)
        assert raw.closed()

    def test_double_slash_path_is_reduced(self, raw):
        status, _, body = raw.request(_get_line("//healthz"))
        assert status == 200 and "status" in json.loads(body)

    def test_three_requests_on_one_keep_alive_socket(self, raw):
        for target in ("/healthz", "/nope", "/configs"):
            status, headers, _ = raw.request(_get_line(target))
            assert status in (200, 404)
            assert "connection" not in headers

    def test_http_1_0_closes(self, raw):
        status, _, _ = raw.request(_get_line("/healthz", version="HTTP/1.0"))
        assert status == 200
        assert raw.closed()

    def test_connection_close_closes(self, raw):
        status, headers, _ = raw.request(_get_line("/healthz", "Connection: close"))
        assert status == 200 and headers["connection"] == "close"
        assert raw.closed()

    def test_http_1_0_keep_alive_stays_open(self, raw):
        line = _get_line("/healthz", "Connection: keep-alive", version="HTTP/1.0")
        assert raw.request(line)[0] == 200
        assert raw.request(line)[0] == 200

    def test_expect_100_continue_before_the_body(self, raw):
        body = json.dumps({"config": "c", "query": "java"}).encode()
        raw.send(_post(
            "/search", b"", "X-Repro-Tenant: a", "Expect: 100-continue",
            f"Content-Length: {len(body)}",
        ))
        status, _, _ = raw.response(body=False)
        assert status == 100
        raw.send(body)
        status, _, _ = raw.response()
        assert status == 200

    def test_header_names_are_case_insensitive_first_tenant_wins(self, raw):
        status, _, _ = raw.request(
            _get_line(_SEARCH, "x-repro-tenant: a", "X-REPRO-TENANT: ghost")
        )
        assert status == 200
        status, _, body = raw.request(
            _get_line(_SEARCH, "X-Repro-Tenant: ghost", "x-repro-tenant: a")
        )
        assert status == 404 and json.loads(body)["error"] == "unknown_tenant"
        body = json.dumps({"config": "c", "query": "java"}).encode()
        status, _, _ = raw.request(_post(
            "/search", body, "x-repro-tenant: a", f"content-LENGTH: {len(body)}"
        ))
        assert status == 200

    def test_every_response_carries_the_envelope_headers(self, server):
        requests = [
            _get_line("/healthz"),
            _get_line("/nope"),
            _get_line(_SEARCH, "X-Repro-Tenant: a"),
            b"PUT /expand HTTP/1.1\r\nHost: test\r\n\r\n",
            _get_line("/healthz", version="HTTP/2.0"),
        ]
        for data in requests:
            connection = _RawConnection(server)
            try:
                _, headers, _ = connection.request(data)
            finally:
                connection.close()
            for name in _ENVELOPE_HEADERS:
                assert headers[name], name

    def test_each_response_is_one_write(self, server, monkeypatch):
        writes: list[int] = []

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(len(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        original_setup = edge_module._Handler.setup

        def setup(handler):
            original_setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(edge_module._Handler, "setup", setup)
        connection = _RawConnection(server)
        try:
            answered = 0
            for data in (
                _get_line("/healthz"),
                _get_line(_SEARCH, "X-Repro-Tenant: a"),
                _get_line("/nope"),
                _post("/search", b"[1]", "X-Repro-Tenant: a", "Content-Length: 3"),
                b"DELETE /search HTTP/1.1\r\nHost: test\r\n\r\n",
            ):
                connection.request(data)
                answered += 1
                assert len(writes) == answered
            connection.request(_get_line("/healthz", version="HTTP/2.0"))
            assert len(writes) == answered + 1
        finally:
            connection.close()


class TestMethodsAndFraming:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_405_on_any_method_with_the_allowed_ones(self, raw, method):
        status, headers, body = raw.request(
            f"{method} /expand?config=c&query=java HTTP/1.1\r\nHost: t\r\n\r\n"
            .encode()
        )
        assert status == 405
        assert headers["allow"] == "GET, POST"
        assert headers["x-repro-trace"]
        payload = json.loads(body)
        assert payload["error"] == "method_not_allowed"
        assert payload["allow"] == ["GET", "POST"]
        assert payload["trace_id"] == headers["x-repro-trace"]

    def test_404_on_any_method_on_an_unknown_path(self, raw):
        status, _, body = raw.request(b"PUT /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        assert status == 404 and json.loads(body)["error"] == "not_found"

    def test_head_answers_the_status_and_headers_without_a_body(self, raw):
        raw.send(b"HEAD /expand HTTP/1.1\r\nHost: t\r\n\r\n")
        status, headers, body = raw.response(body=False)
        assert status == 405 and int(headers["content-length"]) > 0
        assert headers["content-type"].startswith("application/json")
        # No body followed: the next response starts right here.
        status, _, _ = raw.request(_get_line("/healthz"))
        assert status == 200

    def test_411_on_a_chunked_body_and_close(self, raw):
        raw.send(_post(
            "/batch", b"1c\r\n" + b'{"queries":[{"query":"x"}]}\n' + b"\r\n0\r\n\r\n",
            "X-Repro-Tenant: a", "Transfer-Encoding: chunked",
        ))
        _assert_front_error(raw, 411, "length_required")

    def test_400_on_disagreeing_content_lengths_and_close(self, raw):
        raw.send(_post(
            "/search", b'{"config":"c","query":"java"}',
            "X-Repro-Tenant: a", "Content-Length: 29", "Content-Length: 5",
        ))
        _assert_front_error(raw, 400, "bad_request")
