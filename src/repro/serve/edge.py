"""The request edge both serve tiers share.

:class:`~repro.serve.app.ExpansionService` (one node) and
:class:`~repro.serve.cluster.coordinator.ClusterCoordinator` (the front
of a replica fleet) answer the same HTTP surface with the same request
envelope. This module owns that envelope, once:

* trace-param unpacking and the root ``http.request`` span
  (:meth:`RequestEdge.handle`);
* the drain gate: ``503 shutting_down`` once :meth:`RequestEdge._drain`
  has begun, plus the in-flight count the drain waits on;
* :data:`ROUTES`, the one declarative route table, and its 404/405
  bodies;
* tenant resolution (each tier's :meth:`RequestEdge._check_tenant`
  hook) and the per-tenant rate-limit plus in-flight gate;
* :func:`error_response`, the one exception -> status ladder;
* the ``/debug/traces`` and ``/debug/slow`` handlers, and the
  ``/metrics`` ``format`` check and Prometheus render;
* the encoder: :func:`encode` (compact JSON) and :func:`splice`, which
  builds a body around members that are already JSON bytes, so a cached
  report is never encoded twice;
* the response cache: one :class:`~repro.serve.cache.LRUTTLCache` per
  tier, its keys, and the ``/expand`` and ``/search`` handlers that
  splice their bodies around what it holds. A miss is the tier's: the
  single node computes it, the coordinator routes it to a replica and
  fills the entry from the reply;
* the ``/batch``, ``/ingest`` and ``/changefeed`` handlers, with one
  changefeed reader per store path. ``/batch`` looks each item up once
  and leaves the misses to the tier, which runs a query's repeats after
  its first occurrence; ``/ingest`` leaves the parsed batch's write;
* the HTTP front: :class:`HTTPFront`, one stdlib listener lifecycle
  both tiers' servers share. It speaks HTTP/1.1 with keep-alive
  (HTTP/1.0 and ``Connection: close`` close after the response) and
  reads each request head in one pass, with the stdlib's limits: a
  request or header line of at most 65,536 bytes (414, 431), at most
  100 headers (431), HTTP/1.x only (505). A body needs exactly one
  ``Content-Length``; ``Transfer-Encoding`` gets 411. Every method
  reaches the route table (404/405; ``HEAD`` answers without a body),
  and every response, front-level errors included, is the JSON
  envelope written in one write.

A tier subclasses :class:`RequestEdge` and supplies the other handlers
its route table names, each ``handler(params, tenant) -> (status,
payload)``, and the hooks named for what differs (``_check_tenant``,
``_read_scope``, ``_store``, ``_batch_misses``, ``_ingest``,
``_metrics_payload``, ``_account``, ``_record``). A data route's success
body is JSON ``bytes``; errors and admin routes answer dicts, which the
HTTP front encodes. API.md ("Request envelope") lists every status the
envelope answers.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.api import schema
from repro.data.documents import document_from_payload
from repro.errors import (
    ClusterError,
    DataError,
    QuotaExceededError,
    ReproError,
    SchemaError,
    ServeError,
    TenancyError,
    TenantAccessError,
    UnknownConfigError,
    UnknownTenantError,
)
from repro.feed import Changefeed, batch_to_payload
from repro.feed.changefeed import resolve_read_args
from repro.obs import (
    DEFAULT_SLOW_THRESHOLD,
    TRACE_HEADER,
    TRACE_PARAM,
    TRACE_PARENT_PARAM,
    JsonLogger,
    PrometheusText,
    SlowLog,
    Span,
    TraceBuffer,
    Tracer,
    current_span,
    leaf_span,
    new_trace_id,
    render_prometheus,
    sanitize_trace_id,
    span,
)
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.serve.admission import AdmissionController, shed_payload
from repro.serve.cache import LRUTTLCache
from repro.serve.metrics import ServerMetrics
from repro.tenancy import (
    TENANT_HEADER,
    QuotaManager,
    RateLimiter,
    TenantRegistry,
    TenantSpec,
)
from repro.text.analyzer import Analyzer

#: How ``/ingest`` analyzes a ``text`` payload: the analyzer every served
#: session and ``repro store ingest`` use, so all of them tokenize alike.
_INGEST_ANALYZER = Analyzer(use_stemming=False)


def scalar(params: Mapping[str, Any], key: str, default: Any = None) -> Any:
    """``params[key]`` with ``parse_qs`` list unwrapping (first element)."""
    value = params.get(key, default)
    if isinstance(value, list):
        value = value[0] if value else default
    return value


def config_name(params: Mapping[str, Any], names: Sequence[str]) -> str:
    """The configuration a request names, or the only one there is."""
    name = scalar(params, "config")
    if name is None and len(names) == 1:
        return names[0]
    if name is None:
        raise ServeError(
            f"parameter 'config' is required with multiple "
            f"configurations; configured: {', '.join(names)}"
        )
    if str(name) not in names:
        raise UnknownConfigError(
            f"unknown serve config {name!r}; configured: {', '.join(names)}"
        )
    return str(name)


# -- the encoder -------------------------------------------------------------

_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode(payload: Any) -> bytes:
    """Compact JSON bytes: the encoding of every body either tier sends."""
    return _encode(payload).encode("utf-8")


def splice(members: Mapping[str, Any]) -> bytes:
    """``members`` as one JSON object, byte for byte what :func:`encode`
    gives for the decoded equivalent; a ``bytes`` value is already JSON
    and goes in verbatim."""
    parts: list[bytes] = []
    run: dict[str, Any] = {}
    for key, value in members.items():
        if isinstance(value, bytes):
            if run:
                parts.append(encode(run)[1:-1])
                run = {}
            parts.append(encode(key) + b":" + value)
        else:
            run[key] = value
    if run:
        parts.append(encode(run)[1:-1])
    return b"{" + b",".join(parts) + b"}"


def splice_array(chunks: Iterable[bytes]) -> bytes:
    """A JSON array of already-encoded elements."""
    return b"[" + b",".join(chunks) + b"]"


class BatchBody(bytes):
    """An encoded ``/batch`` body that keeps its parts: ``head``, the
    body's members other than ``report``, and ``items``, each report
    item's JSON. A replica ships the parts instead of the body
    (:func:`~repro.serve.cluster.transport.encode_reply`), so the
    coordinator splices the items into its own envelope undecoded."""

    head: dict[str, Any]
    items: list[bytes]


def encode_batch(body: Mapping[str, Any]) -> BatchBody:
    """Encode a ``/batch`` body whose ``report["items"]`` are JSON bytes."""
    report = dict(body["report"])
    items = report["items"]
    report["items"] = splice_array(items)
    out = BatchBody(splice({**body, "report": splice(report)}))
    out.head = {k: v for k, v in body.items() if k != "report"}
    out.items = items
    return out


def batch_item(
    query: str,
    report: bytes | None,
    seconds: float,
    cache: str = "miss",
    error_type: str | None = None,
    error_message: str | None = None,
) -> dict[str, Any]:
    """One ``/batch`` report item; ``report=None`` is a failed one."""
    return {
        "query": query,
        "ok": report is not None,
        "report": report,
        "error_type": error_type,
        "error_message": error_message,
        "seconds": seconds,
        "cache": cache,
    }


# -- the response cache ------------------------------------------------------


class ReadScope(NamedTuple):
    """What a cached read keys on beyond its own parameters: the resolved
    config, the algorithm it runs by default, and the index generation.
    ``entry`` is the tier's own handle on the config: the single node's
    pooled session, the coordinator's :class:`~repro.serve.pool.ServeConfig`."""

    config: str
    algorithm: str
    generation: int
    entry: Any = None


class ReadBody(bytes):
    """An encoded ``/expand`` or ``/search`` body that keeps its cacheable
    ``part`` (the report, or the result chunks) and the ``generation``
    that part was keyed under. A replica ships both in its reply's
    extras (:func:`~repro.serve.cluster.transport.encode_reply`), so the
    coordinator fills its own cache without decoding the body."""

    part: Any
    generation: int


class BatchAnswer(NamedTuple):
    """A tier's answer to a ``/batch``'s misses (see ``_batch_misses``);
    ``counted`` when the processes that answered them count the batch in
    their own ``/metrics`` (the coordinator's replicas do)."""

    items: list[bytes]
    cache_hits: int
    n_ok: int
    workers: int
    members: Mapping[str, Any]
    counted: bool = False


def fan_out(fn: Callable[[Any], Any], args: Sequence[Any], workers: int) -> list:
    """``[fn(a) for a in args]``, on up to ``workers`` threads when there
    are two or more. Each thread runs in a copy of the caller's context,
    so the request's span parents what ``fn`` opens."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    parent = current_span()
    if parent is not None:
        parent.span_id  # minted lazily: mint it before the threads race to
    contexts = [contextvars.copy_context() for _ in args]
    with ThreadPoolExecutor(min(workers, len(args))) as pool:
        return list(pool.map(lambda context, a: context.run(fn, a), contexts, args))


def _read_body(members: Mapping[str, Any], part: Any, generation: int) -> ReadBody:
    out = ReadBody(splice(members))
    out.part, out.generation = part, generation
    return out


def _explicit(algorithm: str | None) -> str | None:
    """An ``algorithm`` parameter as registries compare it; None (blank)
    runs the config's default. An explicit name equal to the default, or
    differing only in case, so shares the default's cache entry."""
    return (algorithm or "").strip().lower() or None


def _tag_cache(cache: str) -> None:
    """Tag the request's root span with the response cache outcome."""
    root = current_span()
    if root is not None:
        root.attrs["cache"] = cache


# -- the route table ---------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """One path: its methods, its handler's attribute name, its plane.

    The handler is looked up on the tier per request, so an instance
    attribute (a test double, a wrapper) overrides the method. ``data``
    marks the data plane: with a tenant registry, those routes require
    a tenant and pass its rate-limit and in-flight gate; admin routes
    accept an optional tenant and always answer.
    """

    methods: tuple[str, ...]
    handler: str
    data: bool = False


#: The routes both tiers serve. The coordinator adds ``/cluster``.
ROUTES: Mapping[str, Route] = {
    "/expand": Route(("GET", "POST"), "expand", data=True),
    "/search": Route(("GET", "POST"), "search", data=True),
    "/batch": Route(("POST",), "batch", data=True),
    "/ingest": Route(("POST",), "ingest", data=True),
    "/changefeed": Route(("GET",), "changefeed", data=True),
    "/configs": Route(("GET",), "configs"),
    "/healthz": Route(("GET",), "healthz"),
    "/metrics": Route(("GET",), "metrics_snapshot"),
    "/debug/traces": Route(("GET",), "debug_traces"),
    "/debug/slow": Route(("GET",), "debug_slow"),
}


# -- the error ladder --------------------------------------------------------

#: ``(exception type, status, error code)``, most specific first; other
#: :class:`ReproError` types answer 400 under their class name, anything
#: else 500 ``internal``.
_LADDER: tuple[tuple[type[Exception], int, str], ...] = (
    (UnknownTenantError, 404, "unknown_tenant"),
    (TenantAccessError, 403, "forbidden"),
    (QuotaExceededError, 413, "quota_exceeded"),
    (TenancyError, 400, "tenant_required"),
    (UnknownConfigError, 404, "unknown_config"),
    (ClusterError, 503, "unavailable"),
    (ServeError, 400, "serve_error"),
)


def error_body(code: str, message: str, tenant: str | None = None) -> dict[str, Any]:
    """The one error payload shape: ``error``, ``message``, ``tenant``."""
    body: dict[str, Any] = {"error": code, "message": message}
    if tenant is not None:
        body["tenant"] = tenant
    return body


def error_response(
    exc: BaseException, tenant: TenantSpec | None = None
) -> tuple[int, dict[str, Any]]:
    """Map a handler's exception to ``(status, error body)``.

    The body names ``tenant`` when the request resolved one, or when
    the error itself names the tenant it refused (the coordinator's
    allow-list check runs before the edge holds the tenant).
    """
    for kind, status, code in _LADDER:
        if isinstance(exc, kind):
            break
    else:
        status, code = (
            (400, type(exc).__name__) if isinstance(exc, ReproError)
            else (500, "internal")
        )
    name = tenant.name if tenant is not None else getattr(exc, "tenant", None)
    return status, error_body(code, str(exc), name)


def _limit_param(params: Mapping[str, Any]) -> int:
    raw = scalar(params, "limit", 50)
    try:
        return max(1, min(int(raw), 500))
    except (TypeError, ValueError):
        raise ServeError(f"limit must be an integer, got {raw!r}") from None


# -- the envelope ------------------------------------------------------------


class RequestEdge:
    """The request envelope (see module docstring); tiers subclass it.

    ``tenant_retry_after`` is the ``Retry-After`` advertised on
    in-flight sheds (rate-limit sheds advertise the exact token-refill
    time). ``enforce_limits=False`` skips the rate-limit and in-flight
    gate: cluster replicas, whose coordinator already enforced it.
    """

    routes: Mapping[str, Route] = ROUTES

    def __init__(
        self,
        *,
        tier: str,
        tenants: TenantRegistry | None,
        rate_limiter: RateLimiter | None,
        tenant_retry_after: float,
        enforce_limits: bool = True,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        log_json: bool = False,
        log_stream: Any = None,
    ) -> None:
        self._clock = clock
        self._tracer = Tracer(
            buffer=TraceBuffer(trace_capacity),
            slow_log=SlowLog(slow_threshold),
            logger=(
                JsonLogger(log_stream)
                if (log_json or log_stream is not None)
                else None
            ),
            enabled=tracing,
            tags={"tier": tier},
        )
        self._tenants = tenants
        self._rate_limiter = (
            rate_limiter if rate_limiter is not None else RateLimiter()
        )
        self._tenant_retry_after = tenant_retry_after
        self._enforce_limits = bool(enforce_limits)
        # Every acquire passes the tenant's own max_in_flight as the
        # depth, so the controller default is never consulted.
        self._tenant_admission = AdmissionController(queue_depth=1)
        self._tenant_lock = threading.Lock()
        self._tenant_sheds: dict[str, int] = {}
        self._closing = threading.Event()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._feeds: dict[str, Changefeed] = {}  # keyed by store path
        self._feeds_lock = threading.Lock()
        self._requests = ServerMetrics()  # what this tier answered itself
        self._quota = QuotaManager()
        try:
            self._cache = LRUTTLCache(maxsize=cache_size, ttl=cache_ttl)
        except ValueError as exc:
            # One catchable error family for the CLI and embedders.
            raise ServeError(str(exc)) from None

    @property
    def tracer(self) -> Tracer:
        return self._tracer

    def trace_export(self, trace_id: str) -> "list[dict[str, Any]] | None":
        """Span records of a finished trace (the RPC stitching hook)."""
        return self._tracer.export(trace_id)

    @property
    def tenants(self) -> TenantRegistry | None:
        return self._tenants

    @property
    def cache(self) -> LRUTTLCache:
        return self._cache

    @property
    def closing(self) -> bool:
        """True once the drain has begun; new requests get 503."""
        return self._closing.is_set()

    # -- tier hooks ----------------------------------------------------------

    def _check_tenant(
        self, params: Mapping[str, Any], data: bool
    ) -> TenantSpec | None:
        """Resolve the request's tenant (registry configured only).

        ``data`` marks a data-plane route: a tenant is required there.
        Raises the tenancy errors :func:`error_response` maps.
        """
        raise NotImplementedError

    def _account(
        self,
        endpoint: str,
        tenant: TenantSpec | None,
        event: str,
        seconds: float = 0.0,
    ) -> None:
        """Count one ``admit``, ``shed`` or ``error`` (default: nothing).

        ``seconds`` is the shed decision's latency (``shed`` only).
        """

    def _record(
        self,
        endpoint: str,
        seconds: float | None,
        tenant: TenantSpec | None,
        **counts: Any,
    ) -> None:
        """Count one request this tier answered; ``counts`` go to
        :meth:`~repro.serve.metrics.ServerMetrics.record`."""
        self._requests.record(endpoint, seconds, **counts)

    def _read_scope(
        self, params: Mapping[str, Any], tenant: TenantSpec | None
    ) -> ReadScope:
        """A read's :class:`ReadScope`. The first read after the config's
        generation moved frees the config's dead cache entries."""
        raise NotImplementedError

    def _compute_expand(
        self, scope: ReadScope, query: str, algorithm: str | None
    ) -> dict[str, Any] | None:
        """A miss's schema-v2 report payload; None (the default) where
        this tier does not compute: the coordinator's replicas do."""
        return None

    def _compute_search(
        self, scope: ReadScope, query: str, top_k: int | None, semantics: str
    ) -> tuple[bytes, ...] | None:
        """A miss's encoded results; None as for :meth:`_compute_expand`."""
        return None

    def _route(
        self,
        path: str,
        params: Mapping[str, Any],
        tenant: TenantSpec | None,
        key: tuple,
    ) -> tuple[int, Any]:
        """Answer a miss the compute hooks left to another process (the
        coordinator routes it to a replica; the reply may fill ``key``)."""
        raise NotImplementedError

    def _batch_misses(
        self,
        scope: ReadScope,
        misses: list[str],
        algorithm: str | None,
        params: Mapping[str, Any],
        tenant: TenantSpec | None,
    ) -> BatchAnswer | tuple[int, Any]:
        """Answer the ``/batch`` queries the cache lacks, each query's
        first occurrence before its repeats; or refuse the batch with a
        ready ``(status, payload)``. ``params`` are its canonical ones."""
        raise NotImplementedError

    def _store(self, scope: ReadScope) -> Any:
        """The store ``/ingest`` writes and ``/changefeed`` reads, or None
        where this tier has none for the config."""
        raise NotImplementedError

    def _ingest(
        self, scope: ReadScope, store: Any, documents: list, tenant: TenantSpec | None
    ) -> tuple[int, int, int, Mapping[str, Any]]:
        """Write a parsed batch: ``(status, documents written, generation
        after the write, the tier's own body members)``."""
        raise NotImplementedError

    def _metrics_payload(self) -> dict[str, Any]:
        raise NotImplementedError

    # -- the response cache --------------------------------------------------

    @staticmethod
    def _require(params: Mapping[str, Any], key: str) -> Any:
        value = scalar(params, key)
        if value in (None, ""):
            raise ServeError(f"missing required parameter {key!r}")
        return value

    @staticmethod
    def _key(
        scope: ReadScope, tenant: TenantSpec | None, endpoint: str, *params: Any
    ) -> tuple:
        """``(config, tenant, endpoint, *params, generation)``: leading with
        the tenant, one tenant's hits, misses and invalidations never
        touch another's (anonymous reads key on ``None``)."""
        scoped = None if tenant is None else tenant.name
        return (scope.config, scoped, endpoint, *params, scope.generation)

    def _expand_key(
        self,
        scope: ReadScope,
        query: str,
        algorithm: str | None,
        results: str,
        tenant: TenantSpec | None,
    ) -> tuple:
        name = _explicit(algorithm) or scope.algorithm
        return self._key(scope, tenant, "expand", query, name, results)

    def _lookup(self, key: tuple) -> tuple[bool, Any]:
        # leaf_span, not span(): the probe is a straight dict operation
        # that never parents children, and this is the warmest line in
        # either tier — the ctxvar push/pop would be pure overhead.
        lookup_span = leaf_span("cache.lookup", endpoint=key[2])
        hit, value = self._cache.lookup(key)
        if lookup_span is not None:
            lookup_span.attrs["result"] = "hit" if hit else "miss"
            lookup_span.end()
        return hit, value

    def _expand_cached(
        self,
        scope: ReadScope,
        query: str,
        algorithm: str | None,
        results: str = "full",
        tenant: TenantSpec | None = None,
    ) -> tuple[bytes | None, str]:
        """``(encoded schema-v2 report, "hit"|"miss")`` for one query;
        None for the report on a miss this tier does not compute.

        ``results="none"`` drops the per-result document payloads — the
        report envelope stays schema-v2 valid (readers treat ``results``
        as optional), and responses shrink by orders of magnitude when
        the caller wants expansions, not the matching documents. A
        computed miss caches both variants, so neither one ever
        recomputes the other.
        """
        key = self._expand_key(scope, query, algorithm, results, tenant)
        hit, report = self._lookup(key)
        if hit:
            return report, "hit"
        return self._expand_miss(scope, key, query, algorithm), "miss"

    def _expand_miss(
        self, scope: ReadScope, key: tuple, query: str, algorithm: str | None
    ) -> bytes | None:
        """Compute the report ``key`` (an :meth:`_expand_key`) lacks, and
        cache it under both ``results`` variants; None where this tier
        does not compute."""
        payload = self._compute_expand(scope, query, _explicit(algorithm))
        if payload is None:
            return None
        variants = {
            "full": encode(payload),
            "none": encode({k: v for k, v in payload.items() if k != "results"}),
        }
        for mode, encoded in variants.items():
            self._cache.put(key[:5] + (mode, scope.generation), encoded)
        return variants[key[5]]

    def _search_cached(
        self,
        scope: ReadScope,
        query: str,
        top_k: int | None,
        semantics: str,
        tenant: TenantSpec | None = None,
    ) -> tuple[tuple[bytes, ...] | None, str]:
        """``(one encoded v2 search result per hit, "hit"|"miss")``, as
        :meth:`_expand_cached`; a page slices the tuple, undecoded."""
        key = self._key(scope, tenant, "search", query, top_k, semantics)
        hit, chunks = self._lookup(key)
        if hit:
            return chunks, "hit"
        chunks = self._compute_search(scope, query, top_k, semantics)
        if chunks is not None:
            self._cache.put(key, chunks)
        return chunks, "miss"

    # -- the cached reads ----------------------------------------------------

    def expand(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        t0 = self._clock()
        scope = self._read_scope(params, tenant)
        query = str(self._require(params, "query"))
        algorithm = scalar(params, "algorithm")
        algorithm = str(algorithm) if algorithm is not None else None
        results = str(scalar(params, "results", "full")).lower()
        if results not in ("full", "none"):
            raise ServeError(f"results must be 'full' or 'none', got {results!r}")
        report, cache = self._expand_cached(scope, query, algorithm, results, tenant)
        if report is None:
            key = self._expand_key(scope, query, algorithm, results, tenant)
            return self._route("/expand", params, tenant, key)
        seconds = self._clock() - t0
        self._record("expand", seconds, tenant, cache=cache)
        _tag_cache(cache)
        body = {
            "config": scope.config,
            "query": query,
            "algorithm": algorithm or scope.algorithm,
            "cache": cache,
            "seconds": seconds,
            "report": report,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        return 200, _read_body(body, report, scope.generation)

    def search(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        t0 = self._clock()
        page = None
        if "cursor" in params or "limit" in params:  # paginated (see paging)
            from repro.serve import paging  # paging imports this module

            page = paging.resolve_page(params, "search", paging.SEARCH_CURSOR_KEYS)
            params = page.params
        scope = self._read_scope(params, tenant)
        query = str(self._require(params, "query"))
        top_k_raw = scalar(params, "top_k")
        try:
            top_k = None if top_k_raw in (None, "") else int(top_k_raw)
        except (TypeError, ValueError):
            raise ServeError(f"top_k must be an integer, got {top_k_raw!r}")
        semantics = str(scalar(params, "semantics", "and")).lower()
        if semantics not in ("and", "or"):
            raise ServeError(f"semantics must be 'and' or 'or', got {semantics!r}")
        chunks, cache = self._search_cached(scope, query, top_k, semantics, tenant)
        if chunks is None:
            key = self._key(scope, tenant, "search", query, top_k, semantics)
            return self._route("/search", params, tenant, key)
        seconds = self._clock() - t0
        self._record("search", seconds, tenant, cache=cache)
        _tag_cache(cache)
        body = {
            "config": scope.config,
            "query": query,
            "top_k": top_k,
            "semantics": semantics,
            "cache": cache,
            "seconds": seconds,
            "n_results": len(chunks),
            "results": chunks,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        if page is None or not page.paginated:
            body["results"] = splice_array(chunks)
            return 200, _read_body(body, chunks, scope.generation)
        paging.apply_page(body, "results", page, "search")
        body["results"] = splice_array(body["results"])
        return 200, splice(body)

    def batch(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        t0 = self._clock()
        from repro.serve import paging  # paging imports this module

        # The page's params are everything /batch reads; unpaginated
        # requests (no limit, no cursor) keep the full-report shape.
        page = paging.resolve_batch_page(params)
        params = page.params
        scope = self._read_scope(params, tenant)
        queries = params["queries"]
        algorithm = scalar(params, "algorithm")
        algorithm = str(algorithm) if algorithm is not None else None
        # One lookup per item, under the /expand?results=full key. A
        # repeat of a query that missed is not looked up here: the tier
        # answers it after the query's first occurrence, as a batch run
        # one item at a time would.
        items: list[bytes] = [b""] * len(queries)
        misses: dict[int, str] = {}  # position -> query
        missed: set[str] = set()
        for position, query in enumerate(queries):
            if query not in missed:
                q0 = self._clock()
                key = self._expand_key(scope, query, algorithm, "full", tenant)
                hit, report = self._lookup(key)
                if hit:
                    item = batch_item(query, report, self._clock() - q0, "hit")
                    items[position] = splice(item)
                    continue
                missed.add(query)
            misses[position] = query
        answer = self._batch_misses(
            scope, list(misses.values()), algorithm, params, tenant
        )
        if not isinstance(answer, BatchAnswer):
            return answer  # refused
        for position, item in zip(misses, answer.items, strict=True):
            items[position] = item
        seconds = self._clock() - t0
        hits = len(queries) - len(misses)
        cache_hits, n_ok = hits + answer.cache_hits, hits + answer.n_ok
        if not answer.counted:
            self._record(
                "batch", seconds, tenant,
                cache_hits=cache_hits, cache_misses=len(queries) - cache_hits,
            )
        report = schema.make_envelope(
            schema.KIND_BATCH,
            {"items": items, "workers": answer.workers, "seconds": seconds},
        )
        body = {
            "config": scope.config,
            "cache_hits": cache_hits,
            "n_ok": n_ok,
            "n_failed": len(queries) - n_ok,
            **answer.members,
            "report": report,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        if page.paginated:
            paging.apply_batch_page(body, page)  # n_ok/n_failed stay pre-page
        return 200, encode_batch(body)

    # -- the write and its log -----------------------------------------------

    def ingest(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        """Write ``documents`` (schema payloads, or ``{"doc_id", "text"}``)
        to a store-backed config as one generation, committed before the
        response; a tenant's quotas apply transactionally (see API.md)."""
        t0 = self._clock()
        scope, store = self._stored_scope(params, tenant)
        raw = params.get("documents")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ServeError("ingest needs a non-empty 'documents' list")
        documents = []
        for i, payload in enumerate(raw):
            try:
                documents.append(
                    document_from_payload(payload, analyzer=_INGEST_ANALYZER)
                )
            except (DataError, SchemaError) as exc:
                raise ServeError(f"documents[{i}]: {exc}") from None
        status, count, generation, members = self._ingest(
            scope, store, documents, tenant
        )
        seconds = self._clock() - t0
        self._record("ingest", seconds, tenant)
        body = {
            "config": scope.config,
            "ingested": count,
            "generation": generation,
            **members,
            "seconds": seconds,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        return status, encode(body)

    def changefeed(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        """Replication-log records past ``since`` (or a ``cursor``), at
        most ``limit``, optionally claimed by ``consumer``; a truncated
        prefix answers 200 with ``gap: true`` (see API.md, Changefeed)."""
        t0 = self._clock()
        scope, store = self._stored_scope(params, tenant)
        since, limit, consumer = resolve_read_args(
            scalar(params, "cursor"),
            scalar(params, "since"),
            scalar(params, "limit"),
            scalar(params, "consumer"),
        )
        batch = self._feed(store.path).read_since(
            since, limit=limit, consumer=consumer
        )
        payload = batch_to_payload(scope.config, batch, limit)
        if tenant is not None:
            payload["tenant"] = tenant.name
        self._record("changefeed", self._clock() - t0, tenant)
        return 200, encode(payload)

    def _stored_scope(
        self, params: Mapping[str, Any], tenant: TenantSpec | None
    ) -> tuple[ReadScope, Any]:
        scope = self._read_scope(params, tenant)
        store = self._store(scope)
        if store is None:
            raise ServeError(
                f"configuration {scope.config!r} has no document store; "
                f"/ingest and /changefeed need a mutable, store-backed "
                f"configuration (backend=sqlite; on a cluster, store=<path>)"
            )
        return scope, store

    def _feed(self, path: str | Path) -> Changefeed:
        """The (cached) changefeed reader of the store at ``path``, so a
        tenant's private store has a reader of its own."""
        key = str(Path(path))
        with self._feeds_lock:
            feed = self._feeds.get(key)
            if feed is None:
                feed = self._feeds[key] = Changefeed(key)
            return feed

    def _close_feeds(self) -> None:
        with self._feeds_lock:
            feeds, self._feeds = dict(self._feeds), {}
        for feed in feeds.values():
            feed.close()

    # -- request entry -------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: Mapping[str, Any],
        trace_id: str | None = None,
        parent_id: str | None = None,
    ) -> tuple[int, Any]:
        """Dispatch one request under a root span; never raises.

        Trace context arrives either as the ``trace_id``/``parent_id``
        keywords (the HTTP front passes the ``X-Repro-Trace`` id it
        chose directly — no params round-trip on the warm path) or in
        the reserved ``_trace``/``_trace_parent`` params (the
        coordinator's RPC into a replica, or direct callers); params
        are stripped before the endpoint sees the request. Every error
        payload gains the request's ``trace_id``; the finished trace
        lands in the tracer's sinks, its root tagged with the resolved
        tenant (and, by the serve tier's read handlers, ``cache``).
        """
        if TRACE_PARAM in params or TRACE_PARENT_PARAM in params:
            params = dict(params)
            if trace_id is None:
                trace_id = scalar(params, TRACE_PARAM)
            if parent_id is None:
                parent_id = scalar(params, TRACE_PARENT_PARAM)
            params.pop(TRACE_PARAM, None)
            params.pop(TRACE_PARENT_PARAM, None)
        if not self._tracer.enabled:
            return self._dispatch(method, path, params, None)
        with self._tracer.request(
            "http.request",
            trace_id=trace_id,
            parent_id=parent_id,
            method=method,
            path=path,
        ) as root:
            status, payload = self._dispatch(method, path, params, root)
            if root is not None:
                root.attrs["status"] = status  # direct write: the warm path
                if status >= 400 and isinstance(payload, dict):
                    if "tenant" in payload:  # a refusal may name its tenant
                        root.attrs["tenant"] = payload["tenant"]
                    root.mark_error(
                        str(payload.get("message") or payload.get("error"))
                    )
                    payload.setdefault("trace_id", root.trace_id)
            return status, payload

    def _dispatch(
        self,
        method: str,
        path: str,
        params: Mapping[str, Any],
        root: Span | None,
    ) -> tuple[int, Any]:
        """The drain gate, 404/405, tenant resolution and admission, then
        the handler; everything past the gate counts as in flight. The
        resolved tenant tags ``root``, whatever the handler answers."""
        with self._inflight_cv:
            if self._closing.is_set():
                return 503, error_body(
                    "shutting_down",
                    "server is draining in-flight requests and shutting down",
                )
            self._inflight += 1
        normalized = path.rstrip("/") or path
        endpoint = normalized.strip("/")
        tenant: TenantSpec | None = None
        admitted = False
        try:
            route = self.routes.get(normalized)
            if route is None:
                body = error_body("not_found", f"unknown path {path!r}")
                body["paths"] = sorted(self.routes)
                return 404, body
            if method not in route.methods:
                body = error_body(
                    "method_not_allowed",
                    f"{path} accepts {', '.join(route.methods)}",
                )
                body["allow"] = list(route.methods)
                return 405, body
            if self._tenants is not None:
                with span("tenant.resolve") as resolve_span:
                    tenant = self._check_tenant(params, route.data)
                    if resolve_span is not None and tenant is not None:
                        resolve_span.set_attr("tenant", tenant.name)
                if root is not None and tenant is not None:
                    root.attrs["tenant"] = tenant.name
                if tenant is not None and route.data and self._enforce_limits:
                    shed = self._admit(endpoint, tenant)
                    if shed is not None:
                        return shed
                    admitted = tenant.max_in_flight is not None
            return getattr(self, route.handler)(params, tenant)
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            self._account(endpoint, tenant, "error")
            return error_response(exc, tenant)
        finally:
            if admitted:
                self._tenant_admission.release(tenant.name)
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    def _admit(
        self, endpoint: str, tenant: TenantSpec
    ) -> "tuple[int, dict[str, Any]] | None":
        """Rate-limit + bounded-in-flight gate for one data-plane request.

        Returns a ready 429 ``(status, payload)`` to shed, or ``None``
        when admitted — in which case the caller owns one admission slot
        iff ``tenant.max_in_flight`` is set and must release it.
        """
        t0 = time.perf_counter()
        ok, retry_after = self._rate_limiter.try_acquire(tenant)
        if not ok:
            reason, retry_after = "rate_limit", round(retry_after, 3)
            message = (
                f"tenant {tenant.name!r} is over its rate limit "
                f"({tenant.qps:g} qps); retry shortly"
            )
        elif tenant.max_in_flight is not None and not (
            self._tenant_admission.try_acquire(
                tenant.name, depth=tenant.max_in_flight
            )
        ):
            reason, retry_after = "in_flight", self._tenant_retry_after
            message = (
                f"tenant {tenant.name!r} is at its in-flight bound "
                f"({tenant.max_in_flight}); retry shortly"
            )
        else:
            self._account(endpoint, tenant, "admit")
            return None
        self._record_shed(tenant)
        self._account(endpoint, tenant, "shed", time.perf_counter() - t0)
        self._tracer.event(
            "shed",
            error=True,
            reason=reason,
            tenant=tenant.name,
            path=f"/{endpoint}",
            retry_after=retry_after,
        )
        return 429, shed_payload(message, retry_after, tenant=tenant.name)

    def _record_shed(self, tenant: TenantSpec) -> None:
        with self._tenant_lock:
            self._tenant_sheds[tenant.name] = (
                self._tenant_sheds.get(tenant.name, 0) + 1
            )

    def _drain(self, timeout: float) -> None:
        """Refuse new requests (503), then wait up to ``timeout`` seconds
        for the ones already past the gate. Idempotent."""
        self._closing.set()
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # drain expired: tear down anyway
                self._inflight_cv.wait(remaining)

    # -- admin endpoints -----------------------------------------------------

    def metrics_snapshot(
        self,
        params: Mapping[str, Any] | None = None,
        tenant: TenantSpec | None = None,
    ) -> tuple[int, Any]:
        fmt = str(scalar(params or {}, "format", "json")).lower()
        if fmt not in ("json", "prometheus"):
            raise ServeError(f"format must be 'json' or 'prometheus', got {fmt!r}")
        payload = self._metrics_payload()
        if fmt == "prometheus":
            return 200, render_prometheus(payload)
        return 200, payload

    def debug_traces(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Recent finished traces (``min_duration``/``status``/``for_tenant``).

        A tenant-scoped request sees only its own traces; anonymous
        requests may filter by ``?for_tenant=``, but a resolved tenant
        always wins over the query filter.
        """
        raw = scalar(params, "min_duration")
        try:
            min_duration = None if raw in (None, "") else float(raw)
        except (TypeError, ValueError):
            raise ServeError(f"min_duration must be a number, got {raw!r}") from None
        status = scalar(params, "status")
        limit = _limit_param(params)
        buffer = self._tracer.buffer
        traces = (
            buffer.list(
                min_duration=min_duration,
                status=str(status) if status not in (None, "") else None,
                tenant=(
                    tenant.name if tenant is not None
                    else scalar(params, "for_tenant")
                ),
                limit=limit,
            )
            if buffer is not None
            else []
        )
        return 200, {
            "tracing": self._tracer.enabled,
            "held": 0 if buffer is None else len(buffer),
            "capacity": 0 if buffer is None else buffer.capacity,
            "traces": traces,
        }

    def debug_slow(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, dict[str, Any]]:
        """The slow-request ring: summaries of requests over threshold."""
        limit = _limit_param(params)
        slow = self._tracer.slow_log
        if slow is None:
            return 200, {"slow": [], "threshold_seconds": None}
        entries = slow.entries(limit)
        if tenant is not None:
            entries = [e for e in entries if e.get("tenant") == tenant.name]
        payload = slow.snapshot()
        payload["slow"] = entries
        return 200, payload


# -- the HTTP front ----------------------------------------------------------

#: The stdlib's limits: one request or header line, and header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_TENANT_KEY = TENANT_HEADER.lower()
_TRACE_KEY = TRACE_HEADER.lower()


def _version(word: str) -> tuple[int, int] | None:
    """``HTTP/major.minor`` as a pair, or None (the stdlib's RFC 2145 rules)."""
    if not word.startswith("HTTP/"):
        return None
    numbers = word[5:].split(".")
    if len(numbers) != 2 or not all(
        n.isascii() and n.isdigit() and len(n) <= 10 for n in numbers
    ):
        return None
    return int(numbers[0]), int(numbers[1])


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the server's ``service.handle``.

    The stdlib keeps the connection loop, ``TCP_NODELAY`` and the socket
    timeout; the request head is read here in one pass, and every
    response, errors included, is one JSON-envelope write.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # With Nagle on, a response's last partial segment (and the write
    # after a 100 Continue) waits for the client's delayed ACK (~40ms);
    # TCP_NODELAY keeps hits sub-millisecond.
    disable_nagle_algorithm = True

    def handle_one_request(self) -> None:
        try:
            if self.parse_request():
                self._serve()
        except TimeoutError:  # a read or a write timed out: drop the connection
            self.close_connection = True

    def parse_request(self) -> bool:
        """Read one request head; answer a bad one and return False.

        Keeps the stdlib's checks (line and header limits, version,
        request-line shape, the ``//`` path reduction, ``Connection``,
        ``Expect: 100-continue``) and adds body framing: a body needs
        one ``Content-Length``.
        """
        self.command = None
        self.request_version = "HTTP/0.9"
        self.close_connection = True
        self._headers: list[tuple[str, str]] = []
        self._trace_id: str | None = None
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return self._refuse(414, "uri_too_long", "request line over 65536 bytes")
        request_line = line.decode("iso-8859-1").rstrip("\r\n")
        words = request_line.split()
        if not words:  # the peer closed, or sent a blank line
            return False
        if len(words) >= 3:
            version = _version(words[-1])
            if version is None:
                return self._refuse(
                    400, "bad_request", f"bad request version {words[-1]!r}"
                )
            if version >= (2, 0):
                return self._refuse(
                    505, "version_not_supported", f"{words[-1]} is not supported"
                )
            self.close_connection = version < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            return self._refuse(
                400, "bad_request", f"bad request line {request_line!r}"
            )
        self.command, self.path = words[0], words[1]
        if len(words) == 2:
            self.close_connection = True
            if self.command != "GET":
                return self._refuse(
                    400, "bad_request", f"bad HTTP/0.9 method {self.command!r}"
                )
        if self.path.startswith("//"):  # gh-87389: never an absolute URI
            self.path = "/" + self.path.lstrip("/")
        while True:
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                return self._refuse(
                    431, "headers_too_large", "header line over 65536 bytes"
                )
            if line in (b"\r\n", b"\n", b""):
                break
            if len(self._headers) == _MAX_HEADERS:
                return self._refuse(431, "headers_too_large", "over 100 headers")
            name, _, value = line.decode("iso-8859-1").partition(":")
            self._headers.append((name.strip().lower(), value.strip()))
        connection = (self._header("connection") or "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        # The body's extent must be known, or the connection cannot be
        # reused: answer and close instead of reading.
        if self._header("transfer-encoding") is not None:
            return self._refuse(
                411, "length_required", "a body needs Content-Length, "
                "not Transfer-Encoding",
            )
        lengths = {value for key, value in self._headers if key == "content-length"}
        if len(lengths) > 1:
            return self._refuse(
                400, "bad_request", f"conflicting Content-Length {sorted(lengths)}"
            )
        raw_length = lengths.pop() if lengths else "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            return self._refuse(
                400, "bad_request", f"invalid Content-Length {raw_length!r}"
            )
        self._length = int(raw_length)
        self._trace_id = self._choose_trace()
        expect = (self._header("expect") or "").lower()
        if expect == "100-continue" and self.request_version >= "HTTP/1.1":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _header(self, name: str) -> str | None:
        """The first value of the lowercased header ``name``."""
        for key, value in self._headers:
            if key == name:
                return value
        return None

    def _choose_trace(self) -> str | None:
        """The request's trace id: the client's ``X-Repro-Trace`` or a
        fresh one, or None when the service does not trace. It roots the
        service's trace and is echoed on the response, so a generated id
        still reaches the client for ``/debug/traces`` lookup."""
        tracer = getattr(self.server.service, "tracer", None)
        if tracer is None or not tracer.enabled:
            return None
        return sanitize_trace_id(self._header(_TRACE_KEY)) or new_trace_id()

    def _refuse(self, status: int, code: str, message: str) -> bool:
        """Answer a request the front cannot serve, and close."""
        self.close_connection = True
        self._trace_id = self._choose_trace()
        self._respond(status, error_body(code, message))
        return False

    def _serve(self) -> None:
        target = urlsplit(self.path)
        params: dict[str, Any] = parse_qs(target.query)
        raw = self.rfile.read(self._length) if self._length else b""
        if raw and self.command == "POST":
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._respond(400, error_body("bad_json", str(exc)))
                return
            if not isinstance(body, dict):
                self._respond(400, error_body("bad_json", "body must be an object"))
                return
            params.update(body)
        tenant = self._header(_TENANT_KEY)
        if tenant and "tenant" not in params:  # an explicit param wins
            params["tenant"] = tenant
        service = self.server.service
        if self._trace_id is None:  # untraced (or stub) service: legacy call
            status, payload = service.handle(self.command, target.path, params)
        else:
            status, payload = service.handle(
                self.command, target.path, params, trace_id=self._trace_id
            )
        self._respond(status, payload)

    def _respond(self, status: int, payload: Any) -> None:
        """Write the status line, headers and body as one write."""
        if isinstance(payload, PrometheusText):
            body = bytes(payload)
            content_type = _PROM_CONTENT_TYPE
        else:
            # Data-route bodies arrive encoded (spliced around cached
            # bytes, or proxied from a replica) and go out verbatim; only
            # the small error and admin dicts are encoded here.
            body = payload if isinstance(payload, bytes) else encode(payload)
            content_type = "application/json; charset=utf-8"
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Server: {self.server_version} {self.sys_version}\r\n"
            f"Date: {self.server.http_date()}\r\nContent-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if self._trace_id is not None:
            head += f"{TRACE_HEADER}: {self._trace_id}\r\n"
        if isinstance(payload, Mapping):
            if status == 429 and payload.get("retry_after") is not None:
                # Every shed payload (rate limit or admission, either
                # tier) carries retry_after: surface the standard header.
                retry_after = max(1, round(float(payload["retry_after"])))
                head += f"Retry-After: {retry_after}\r\n"
            elif status == 405 and "allow" in payload:
                head += f"Allow: {', '.join(payload['allow'])}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        if self.command == "HEAD":
            body = b""
        self.wfile.write(f"{head}\r\n".encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # requests are observable via /metrics; stderr stays quiet


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: Any
    _date: tuple[int, str] = (0, "")

    def http_date(self) -> str:
        """The ``Date`` header value, formatted at most once per second."""
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))  # one atomic swap
        return self._date[1]


class HTTPFront:
    """The HTTP listener in front of one tier's ``handle``.

    ``port=0`` binds an OS-assigned ephemeral port (read it back from
    :attr:`port`). :meth:`start` serves on a daemon thread — the
    embedding pattern used by tests, the benchmarks, and the examples —
    while :meth:`serve_forever` blocks (the CLI path). Subclasses say
    how their backend comes up (:meth:`_open`, run by :meth:`start`)
    and goes down (:meth:`_release`, run once by :meth:`stop`).
    """

    def __init__(
        self, backend: Any, host: str = "127.0.0.1", port: int = 8080
    ) -> None:
        self._backend = backend
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.service = backend
        self._thread: threading.Thread | None = None
        self._started = False
        self._serving = threading.Event()  # a blocking serve_forever is live
        self._closed = threading.Event()  # set once stop() has run
        self._stop_lock = threading.Lock()
        self._releasing = False  # a stop() owns the backend release
        self._released = threading.Event()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _open(self) -> None:
        """Bring the backend up before the listener serves."""

    def _release(self, drain_timeout: float) -> None:
        """Drain and release the backend after the listener stops."""
        raise NotImplementedError

    def start(self) -> Any:
        # The backend comes up outside _stop_lock (a replica fleet spawns
        # slowly and must not serialize against stop()); the _thread
        # handoff is locked, because a signal handler's stop thread may
        # run concurrently with start, and an unlocked write here could
        # leak a started-but-never-joined serve thread.
        with self._stop_lock:
            if self._started:
                raise ServeError("server already started")
            self._started = True
        self._open()
        with self._stop_lock:
            if not self._closed.is_set():  # stop() may have won the race
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    name=f"repro-serve:{self.port}",
                    daemon=True,
                )
                self._thread.start()
        return self

    def serve_forever(self) -> None:
        if self._closed.is_set():
            return
        self._serving.set()
        try:
            self._httpd.serve_forever()
        finally:
            self._serving.clear()

    def stop(
        self, close_service: bool = True, drain_timeout: float = 10.0
    ) -> None:
        """Graceful stop: quit accepting, drain, release everything.

        ``shutdown()`` waits on an event that only ``serve_forever`` sets,
        so it must not run unless a serve loop is live — on an unstarted
        server it would block forever. Two loops qualify: the daemon
        thread :meth:`start` spun, and a blocking :meth:`serve_forever`
        on the caller's thread (the CLI path, where a signal handler's
        stop thread reaches here *while* the main thread is still inside
        ``serve_forever`` — skipping ``shutdown()`` there would close the
        listening socket under the live accept loop and leave it
        spinning on an invalid descriptor forever).

        With ``close_service`` (the default) the backend is then drained
        and released (:meth:`_release`) exactly once, outside the lock:
        a racing second stop() — the signal handler against the CLI's
        ``finally:`` — waits for that release to finish instead of
        running it again, so neither caller returns (and lets the
        process exit) mid-drain. Pass ``close_service=False`` to stop
        only the HTTP front.
        """
        # analyze: ignore[LOCK001] - shutdown() and join(timeout=5) are
        # bounded teardown waits; serializing them under _stop_lock is the
        # point (racing stop() calls must not double-join the thread).
        with self._stop_lock:
            self._closed.set()
            if self._thread is not None:
                self._httpd.shutdown()
                self._thread.join(timeout=5)
                self._thread = None
            elif self._serving.is_set():
                self._httpd.shutdown()  # wakes the blocking serve_forever
            self._httpd.server_close()
            release = close_service and not self._releasing
            if release:
                self._releasing = True
        if release:
            try:
                self._release(drain_timeout)
            finally:
                self._released.set()
        elif close_service:
            self._released.wait()

    def install_signal_handlers(
        self, signals: tuple[int, ...] | None = None
    ) -> None:
        """Make SIGTERM/SIGINT trigger a graceful :meth:`stop`.

        Main-thread only (a CPython constraint on ``signal.signal``).
        The handler spawns a thread to run :meth:`stop`: calling
        ``httpd.shutdown()`` inline would deadlock the blocking
        :meth:`serve_forever` path, where the handler interrupts the
        very thread ``shutdown()`` waits on. Once the stop thread closes
        the loop, ``serve_forever`` returns and the caller unwinds
        normally — so a server under SIGTERM drains in-flight requests
        and exits 0 instead of dying mid-response.
        """
        import signal as _signal

        if signals is None:
            signals = (_signal.SIGTERM, _signal.SIGINT)

        def _handler(signum: int, frame: Any) -> None:
            threading.Thread(
                target=self.stop, name="repro-serve-shutdown", daemon=True
            ).start()

        for signum in signals:
            _signal.signal(signum, _handler)

    def __enter__(self) -> Any:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
