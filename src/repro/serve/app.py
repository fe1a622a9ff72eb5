"""The expansion service and its JSON-over-HTTP transport.

Two layers, separable on purpose:

* :class:`ExpansionService` — transport-free request handling. Every
  endpoint is a method taking a plain params mapping (and the resolved
  tenant) and returning ``(status, payload)`` — JSON ``bytes`` on the
  data routes, a dict on the admin routes; :meth:`handle` wraps them in
  the request envelope shared with the cluster coordinator
  (:mod:`repro.serve.edge`).
* :class:`ExpansionServer` — the shared HTTP front
  (:class:`~repro.serve.edge.HTTPFront`) over the service. ``port=0``
  binds an ephemeral port; :meth:`ExpansionServer.start` runs it on a
  daemon thread for in-process embedding.

Endpoints (all JSON):

==============  ====  =====================================================
``/expand``     G/P   one expansion; ``report`` is the schema-v2 envelope
``/search``     G/P   ranked retrieval; v2 search-result payloads
                      (``limit``/``cursor`` paginate, see API.md)
``/batch``      POST  many expansions; a schema-v2 ``batch_report``
                      (``limit``/``cursor`` paginate the items)
``/ingest``     POST  append documents to a mutable config's index
``/changefeed`` GET   replication-log records past a generation (stores)
``/configs``    GET   configuration specs + live pool state
``/healthz``    GET   liveness + built configurations
``/metrics``    GET   request/cache/stage metrics (see API.md: Serving)
==============  ====  =====================================================

Ingestion (``/ingest``) requires a mutable backend (``backend=sqlite``):
every accepted document is committed to the store before the response
is written, so with a ``store=<path>`` it also survives a server
restart.

Caching: ``/expand`` reports and ``/search`` results are memoized as
encoded JSON bytes in the response cache the edge owns
(:mod:`repro.serve.edge`), keyed on ``(config, tenant, endpoint, query,
params, index generation)``; a response splices its per-request members
(``cache``, ``seconds``, ...) around them, so a hit encodes nothing
cached again. This tier computes each miss through its session.
``/batch`` items route through the same per-query path, so repeated
queries inside and across batches hit the cache too. The index
generation in the key means no payload cached before an ingest is
served after it: the store publishes a generation only after its
commit, so a response computed from the old rows is keyed under the old
generation. The dead entries are freed by the first request after the
move: :meth:`PooledSession.advanced` sees the new generation, and the
service calls :meth:`ExpansionService.invalidate_config` for that entry.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, Mapping

from repro.api import schema
from repro.errors import ServeError
from repro.feed import Changefeed, batch_to_payload
from repro.feed.changefeed import resolve_read_args
from repro.obs import (
    DEFAULT_SLOW_THRESHOLD,
    current_span,
    render_prometheus,
    span,
)
from repro.serve.edge import (
    HTTPFront,
    ReadScope,
    RequestEdge,
    batch_item,
    config_name,
    encode,
    encode_batch,
    scalar,
    splice,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.paging import apply_batch_page, resolve_batch_page
from repro.serve.pool import (
    TENANT_KEY_SEP,
    PooledSession,
    ServeConfig,
    SessionPool,
)
from repro.tenancy import (
    QuotaManager,
    RateLimiter,
    TenantRegistry,
    TenantSpec,
    resolve_tenant,
)

#: Default cap on concurrently *computed* (cache-missing) requests.
DEFAULT_WORKERS = 4

#: Seconds advertised in Retry-After on tenant-admission sheds (rate-limit
#: sheds advertise the exact token-refill time instead).
DEFAULT_TENANT_RETRY_AFTER = 1.0


class ExpansionService(RequestEdge):
    """Routes expansion/search traffic onto a warm session pool.

    Parameters
    ----------
    pool:
        The configurations to serve (a :class:`SessionPool` or an
        iterable of :class:`ServeConfig`).
    cache_size / cache_ttl:
        Tier-0 response cache capacity and TTL (``None`` = no expiry).
    workers:
        Maximum cache-missing requests computed concurrently; excess
        requests queue on the semaphore. Cache hits never queue.
    tracing:
        When True (default) every :meth:`handle` call runs under a root
        span; finished traces land in the ``/debug/traces`` buffer and
        slow ones in ``/debug/slow``. ``False`` makes the tracer a
        no-op — the baseline ``bench_obs.py`` compares against.
    trace_capacity / slow_threshold:
        Trace-buffer size and the slow-log capture threshold (seconds).
    log_json / log_stream:
        Enable the structured JSON access log (one line per request and
        shed event); ``log_stream`` overrides the destination (stderr).
    """

    def __init__(
        self,
        pool: SessionPool | Iterable[ServeConfig],
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        workers: int = DEFAULT_WORKERS,
        tenants: TenantRegistry | None = None,
        enforce_limits: bool = True,
        rate_limiter: RateLimiter | None = None,
        tenant_retry_after: float = DEFAULT_TENANT_RETRY_AFTER,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        log_json: bool = False,
        log_stream: Any = None,
    ) -> None:
        # With a registry, every data-plane request resolves a tenant
        # (X-Repro-Tenant header or ?tenant=) and gets tenant-scoped
        # cache keys, metrics, quota, and — unless a fronting tier
        # already enforces them (enforce_limits=False on cluster
        # replicas) — rate limiting and bounded in-flight admission.
        super().__init__(
            tier="serve",
            tenants=tenants,
            rate_limiter=rate_limiter,
            tenant_retry_after=tenant_retry_after,
            enforce_limits=enforce_limits,
            cache_size=cache_size,
            cache_ttl=cache_ttl,
            clock=time.perf_counter,
            tracing=tracing,
            trace_capacity=trace_capacity,
            slow_threshold=slow_threshold,
            log_json=log_json,
            log_stream=log_stream,
        )
        if not isinstance(pool, SessionPool):
            pool = SessionPool(pool)
        self._pool = pool
        self._metrics = ServerMetrics()
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._compute_slots = threading.BoundedSemaphore(workers)
        # Lazily-built changefeed readers, one per store-backed entry
        # (keyed by entry key, so a tenant's private store gets its own).
        self._feeds: dict[str, Changefeed] = {}
        self._feeds_lock = threading.Lock()
        self._quota = QuotaManager()
        self._tenant_metrics: dict[str, ServerMetrics] = {}

    @property
    def pool(self) -> SessionPool:
        return self._pool

    @property
    def metrics(self) -> ServerMetrics:
        return self._metrics

    def invalidate_config(self, name: str) -> int:
        """Drop cached responses for a pool-entry key.

        ``name`` is either a config name (drops *every* scope of that
        config — anonymous and all tenants, the right response to a
        shared-store mutation) or ``tenant::config`` from a dedicated
        per-tenant entry (drops only that tenant's cached responses, so
        tenant A's ingest never touches tenant B's cache).
        """
        if TENANT_KEY_SEP in name:
            tenant, _, config = name.partition(TENANT_KEY_SEP)
            return self._cache.invalidate_prefix((config, tenant))
        return self._cache.invalidate_prefix((name,))

    # -- tenancy plumbing ----------------------------------------------------

    def tenant_metrics(self, name: str) -> ServerMetrics:
        """The (lazily created) per-tenant request-metrics sink."""
        with self._tenant_lock:
            metrics = self._tenant_metrics.get(name)
            if metrics is None:
                metrics = self._tenant_metrics[name] = ServerMetrics()
            return metrics

    def _record(
        self,
        endpoint: str,
        seconds: float | None,
        tenant: TenantSpec | None,
        **kwargs: Any,
    ) -> None:
        """Record into the global sink and the tenant's own partition."""
        self._metrics.record(endpoint, seconds, **kwargs)
        if tenant is not None:
            self.tenant_metrics(tenant.name).record(
                endpoint, seconds, **kwargs
            )

    # -- edge hooks ----------------------------------------------------------

    def _check_tenant(
        self, params: Mapping[str, Any], data: bool
    ) -> TenantSpec | None:
        # The allow-list is the pool's: SessionPool.get enforces it.
        return resolve_tenant(self._tenants, params, required=data)

    def _account(
        self,
        endpoint: str,
        tenant: TenantSpec | None,
        event: str,
        seconds: float = 0.0,
    ) -> None:
        # Admitted requests are recorded by their handler.
        if event != "admit":
            self._record(endpoint, None, tenant, error=True)

    # -- shutdown ------------------------------------------------------------

    def close(self, drain_timeout: float = 10.0) -> None:
        """Graceful shutdown: refuse, drain, release.

        New requests are answered ``503 shutting_down`` immediately;
        requests already inside :meth:`handle` get up to
        ``drain_timeout`` seconds to finish; then the session pool is
        closed, releasing store connections (``backend=sqlite``) so the
        database files are safe to move or delete. Idempotent — and
        callable while a server thread is still accepting connections,
        which is exactly how the SIGTERM path uses it.
        """
        self._drain(drain_timeout)
        self._pool.close()
        with self._feeds_lock:
            feeds, self._feeds = dict(self._feeds), {}
        for feed in feeds.values():
            feed.close()

    # -- request plumbing ----------------------------------------------------

    def _entry(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> PooledSession:
        entry = self._pool.get(config_name(params, self._pool.names()), tenant)
        if entry.advanced():
            # The entry key ("config" or "tenant::config") scopes the
            # drop: a dedicated tenant entry frees only its tenant's
            # responses.
            self.invalidate_config(entry.key)
        return entry

    def _read_scope(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> ReadScope:
        entry = self._entry(params, tenant)
        return ReadScope(
            entry.config.name,
            entry.session.algorithm_name,
            entry.generation(),
            entry,
        )

    def _compute_expand(
        self, scope: ReadScope, query: str, algorithm: str | None
    ) -> dict[str, Any]:
        with self._compute_slots:
            computed = scope.entry.session.expand(query, algorithm=algorithm)
        return schema.report_to_dict(computed)

    def _compute_search(
        self, scope: ReadScope, query: str, top_k: int | None, semantics: str
    ) -> tuple[bytes, ...]:
        # /search bypasses the pipeline (retrieval only), so the compute
        # gets an explicit stage.retrieve span — the search-path analogue
        # of the per-stage spans Pipeline.run emits under /expand.
        # Opened before the compute slot, so slot-wait shows in the span.
        with span("stage.retrieve", semantics=semantics):
            with self._compute_slots:
                results = scope.entry.session.search(
                    query, top_k=top_k, semantics=semantics
                )
        return tuple(encode(schema.search_result_to_dict(r)) for r in results)

    # -- endpoints -----------------------------------------------------------

    def batch(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        # The page's params are everything /batch reads; unpaginated
        # requests (no limit, no cursor) keep the full-report shape.
        page = resolve_batch_page(params)
        params = page.params
        scope = self._read_scope(params, tenant)
        queries = params["queries"]
        algorithm = scalar(params, "algorithm")
        algorithm = str(algorithm) if algorithm is not None else None
        workers = scalar(params, "workers", 1)
        try:
            workers = max(1, min(int(workers), self._workers))
        except (TypeError, ValueError):
            raise ServeError(f"workers must be an integer, got {workers!r}")

        def run_one(query: str) -> dict[str, Any]:
            # The extra "cache" key is additive; BatchItem.from_dict
            # readers ignore it (schema v2 stays intact).
            q0 = time.perf_counter()
            try:
                report, cache = self._expand_cached(
                    scope, query, algorithm, tenant=tenant
                )
                return batch_item(query, report, time.perf_counter() - q0, cache)
            except Exception as exc:  # noqa: BLE001 — per-query isolation
                return batch_item(
                    query, None, time.perf_counter() - q0,
                    error_type=type(exc).__name__, error_message=str(exc),
                )

        if workers == 1 or len(queries) <= 1:
            items = [run_one(q) for q in queries]
        else:
            # Pool threads do not inherit the request's contextvars, so
            # each item runs in its own copy of them (one Context cannot
            # be entered by two threads at once). The parent's span id is
            # minted lazily: mint it here, before the threads race to.
            parent = current_span()
            if parent is not None:
                parent.span_id
            contexts = [contextvars.copy_context() for _ in queries]
            with ThreadPoolExecutor(
                max_workers=min(workers, len(queries))
            ) as executor:
                items = list(
                    executor.map(
                        lambda context, q: context.run(run_one, q),
                        contexts,
                        queries,
                    )
                )
        seconds = time.perf_counter() - t0
        self._record(
            "batch",
            seconds,
            tenant,
            cache_hits=sum(1 for i in items if i["cache"] == "hit"),
            cache_misses=sum(1 for i in items if i["cache"] == "miss"),
        )
        report = schema.make_envelope(
            schema.KIND_BATCH,
            {
                "items": [splice(item) for item in items],
                "workers": workers,
                "seconds": seconds,
            },
        )
        body = {
            "config": scope.config,
            "cache_hits": sum(1 for i in items if i["cache"] == "hit"),
            "n_ok": sum(1 for i in items if i["ok"]),
            "n_failed": sum(1 for i in items if not i["ok"]),
            "report": report,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        if page.paginated:
            apply_batch_page(body, page)
        return 200, encode_batch(body)

    def ingest(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Append documents to a mutable configuration's index.

        Each entry in ``documents`` is either a schema document payload
        (``doc_id`` + ``terms`` + optional ``kind``/``title``/``fields``)
        or the convenience form ``{"doc_id": ..., "text": ...}``, which
        is analyzed with the target session's analyzer. The whole batch
        is applied atomically per backend transaction semantics; the
        response reports the post-ingest index generation. With a
        tenant, the write lands in that tenant's scope (its private or
        throwaway store, when it has one) and its quotas apply
        transactionally — a rejected batch changes nothing.
        """
        from repro.data.documents import document_from_payload
        from repro.errors import DataError, SchemaError

        t0 = time.perf_counter()
        entry = self._entry(params, tenant)
        raw = params.get("documents")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ServeError("ingest needs a non-empty 'documents' list")
        documents = []
        for i, payload in enumerate(raw):
            try:
                documents.append(
                    document_from_payload(
                        payload, analyzer=entry.session.analyzer
                    )
                )
            except (DataError, SchemaError) as exc:
                raise ServeError(f"documents[{i}]: {exc}") from None
        count = self._pool.ingest(
            entry.config.name, documents, tenant=tenant, quota=self._quota
        )
        seconds = time.perf_counter() - t0
        self._record("ingest", seconds, tenant)
        body = {
            "config": entry.config.name,
            "ingested": count,
            "generation": entry.generation(),
            "persistent": entry.index.capabilities().persistent,
            "seconds": seconds,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        return 200, encode(body)

    def _feed_for(self, entry: PooledSession) -> Changefeed:
        """The (cached) changefeed reader for a store-backed entry.

        Keyed by the entry key, so a tenant with a private store path
        reads its *own* replication log, not the shared config's.
        """
        store = getattr(entry.index, "store", None)
        if store is None:
            raise ServeError(
                f"configuration {entry.config.name!r} has no document "
                f"store (backend={entry.config.backend}); /changefeed "
                f"needs a store-backed configuration (store=<path>)"
            )
        key = entry.key
        with self._feeds_lock:
            feed = self._feeds.get(key)
            if feed is None:
                feed = Changefeed(store.path)
                self._feeds[key] = feed
            return feed

    def changefeed(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Replication-log records past a generation (see API.md).

        ``since`` (a generation) or ``cursor`` (an opaque token from a
        previous response) positions the read; ``limit`` caps records
        per batch; ``consumer`` optionally records an applied-through
        claim that bounds background log truncation. A truncated prefix
        is reported as ``gap: true`` with HTTP 200 — the client falls
        back to a snapshot and resumes from its generation.
        """
        t0 = time.perf_counter()
        entry = self._entry(params, tenant)
        since, limit, consumer = resolve_read_args(
            scalar(params, "cursor"),
            scalar(params, "since"),
            scalar(params, "limit"),
            scalar(params, "consumer"),
        )
        feed = self._feed_for(entry)
        batch = feed.read_since(since, limit=limit, consumer=consumer)
        payload = batch_to_payload(entry.config.name, batch, limit)
        if tenant is not None:
            payload["tenant"] = tenant.name
        self._record("changefeed", time.perf_counter() - t0, tenant)
        return 200, encode(payload)

    def configs(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        payload: dict[str, Any] = {"configs": self._pool.describe()}
        if self._tenants is not None:
            payload["tenants"] = self._tenants.names()
        self._metrics.record("configs", time.perf_counter() - t0)
        return 200, payload

    def _tenant_health(self) -> dict[str, Any]:
        """Per-tenant health section: allowed configs + dedicated views."""
        assert self._tenants is not None
        built = self._pool.built_names()
        names = self._pool.names()
        out: dict[str, Any] = {}
        for spec in self._tenants.specs():
            prefix = f"{spec.name}{TENANT_KEY_SEP}"
            out[spec.name] = {
                "configs": [n for n in names if spec.allows(n)],
                "dedicated_built": sorted(
                    key[len(prefix):] for key in built
                    if key.startswith(prefix)
                ),
            }
        return out

    def healthz(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        built = [
            name for name in self._pool.built_names()
            if TENANT_KEY_SEP not in name
        ]
        payload = {
            "status": "ok",
            "uptime_seconds": self._metrics.uptime_seconds(),
            "configs": list(self._pool.names()),
            "built": built,
            # Per-config index generations: lets a cluster coordinator
            # (and its tests) prove a restarted replica re-hydrated from
            # the latest snapshot rather than its predecessor's state.
            "generations": {
                name: self._pool.get(name).generation() for name in built
            },
            "schema_version": schema.SCHEMA_VERSION,
        }
        if self._tenants is not None:
            payload["tenants"] = self._tenant_health()
        self._metrics.record("healthz", time.perf_counter() - t0)
        return 200, payload

    def metrics_snapshot(
        self,
        params: Mapping[str, Any] | None = None,
        tenant: TenantSpec | None = None,
    ) -> tuple[int, Any]:
        fmt = str(scalar(params or {}, "format", "json")).lower()
        if fmt not in ("json", "prometheus"):
            raise ServeError(
                f"format must be 'json' or 'prometheus', got {fmt!r}"
            )
        t0 = time.perf_counter()
        requests = self._metrics.snapshot()
        payload = {
            "uptime_seconds": requests.pop("uptime_seconds"),
            "requests": requests["endpoints"],
            "cache": {
                "responses": self._cache.stats(),
                "sessions": self._pool.session_cache_info(),
            },
            "stages": self._pool.stage_metrics(),
            "configs": self._pool.describe(),
        }
        if self._tenants is not None:
            with self._tenant_lock:
                sinks = dict(self._tenant_metrics)
                sheds = dict(self._tenant_sheds)
            tenants: dict[str, Any] = {}
            for name, sink in sinks.items():
                snap = sink.snapshot()
                tenants[name] = {
                    "requests": snap["endpoints"],
                    "sheds": sheds.get(name, 0),
                }
            # Tenants that were only ever shed still get a row.
            for name, count in sheds.items():
                tenants.setdefault(name, {"requests": {}, "sheds": count})
            payload["tenants"] = tenants
            payload["tenant_in_flight"] = self._tenant_admission.snapshot()
        # Count this scrape too (it appears from the *next* snapshot on;
        # the payload above was already assembled).
        self._metrics.record("metrics", time.perf_counter() - t0)
        if fmt == "prometheus":
            return 200, render_prometheus(payload)
        return 200, payload


class ExpansionServer(HTTPFront):
    """The HTTP front of an :class:`ExpansionService` (see
    :class:`~repro.serve.edge.HTTPFront`); :meth:`stop` closes the
    service too — in-flight requests drain for up to ``drain_timeout``
    seconds, then the session pool releases its store connections.
    """

    @property
    def service(self) -> ExpansionService:
        return self._backend

    def _release(self, drain_timeout: float) -> None:
        self._backend.close(drain_timeout=drain_timeout)


def create_server(
    configs: Iterable[ServeConfig | str],
    host: str = "127.0.0.1",
    port: int = 8080,
    cache_size: int = 1024,
    cache_ttl: float | None = None,
    workers: int = DEFAULT_WORKERS,
    tenants: TenantRegistry | str | None = None,
    tracing: bool = True,
    trace_capacity: int = 256,
    slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
    log_json: bool = False,
) -> ExpansionServer:
    """Assemble pool → service → HTTP server in one call.

    ``configs`` entries may be :class:`ServeConfig` objects or CLI spec
    strings (``name:key=value,...``). ``tenants`` (a
    :class:`~repro.tenancy.TenantRegistry` or a path to a tenants JSON
    file) switches the service to multi-tenant mode. The observability
    knobs (``tracing``/``trace_capacity``/``slow_threshold``/
    ``log_json``) pass straight to :class:`ExpansionService`.
    """
    parsed = [
        c if isinstance(c, ServeConfig) else ServeConfig.parse(c)
        for c in configs
    ]
    if isinstance(tenants, str):
        tenants = TenantRegistry(tenants)
    service = ExpansionService(
        SessionPool(parsed),
        cache_size=cache_size,
        cache_ttl=cache_ttl,
        workers=workers,
        tenants=tenants,
        tracing=tracing,
        trace_capacity=trace_capacity,
        slow_threshold=slow_threshold,
        log_json=log_json,
    )
    return ExpansionServer(service, host=host, port=port)
