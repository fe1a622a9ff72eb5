"""The expansion service and its JSON-over-HTTP transport.

Two layers, separable on purpose:

* :class:`ExpansionService` — transport-free request handling: the
  single-node tier of the request edge (:mod:`repro.serve.edge`), which
  owns the envelope, the route table and the data handlers. This tier
  supplies a warm session per config (:class:`SessionPool`), computes
  what the response cache misses (a ``/batch``'s misses on up to
  ``workers`` threads), writes ``/ingest`` through
  :meth:`SessionPool.ingest`, and answers ``/configs``, ``/healthz``
  and the ``/metrics`` payload. API.md ("Serving") documents each route.
* :class:`ExpansionServer` — the shared HTTP front
  (:class:`~repro.serve.edge.HTTPFront`) over the service. ``port=0``
  binds an ephemeral port; :meth:`ExpansionServer.start` runs it on a
  daemon thread for in-process embedding.

``/ingest`` and ``/changefeed`` need a mutable backend
(``backend=sqlite``): every accepted document is committed to its store
before the response, so with a ``store=<path>`` it survives a restart.

Every response-cache key holds the index generation, so no payload
cached before an ingest is served after it: the store publishes a
generation only after its commit. The dead entries are freed by the
first request after the move: :meth:`PooledSession.advanced` sees the
new generation, and the service drops that entry's responses.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Iterable, Mapping

from repro.api import schema
from repro.errors import ServeError
from repro.obs import DEFAULT_SLOW_THRESHOLD, span
from repro.serve.edge import (
    BatchAnswer,
    HTTPFront,
    ReadScope,
    RequestEdge,
    batch_item,
    config_name,
    encode,
    fan_out,
    scalar,
    splice,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.pool import (
    TENANT_KEY_SEP,
    PooledSession,
    ServeConfig,
    SessionPool,
)
from repro.tenancy import (
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
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._compute_slots = threading.BoundedSemaphore(workers)
        self._tenant_metrics: dict[str, ServerMetrics] = {}

    @property
    def pool(self) -> SessionPool:
        return self._pool

    @property
    def metrics(self) -> ServerMetrics:
        return self._requests

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
        super()._record(endpoint, seconds, tenant, **kwargs)
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
        self._close_feeds()

    # -- request plumbing ----------------------------------------------------

    def _entry(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> PooledSession:
        entry = self._pool.get(config_name(params, self._pool.names()), tenant)
        if entry.advanced():
            # A shared entry frees every scope of its config; a dedicated
            # tenant entry frees only its tenant's responses.
            scope = (entry.config.name,)
            if entry.tenant is not None:
                scope += (entry.tenant,)
            self._cache.invalidate_prefix(scope)
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

    def _batch_misses(
        self,
        scope: ReadScope,
        misses: list[str],
        algorithm: str | None,
        params: Mapping[str, Any],
        tenant: TenantSpec | None,
    ) -> BatchAnswer:
        """Compute each distinct query (on up to ``workers`` threads),
        then its repeats in order, so the body and the cache's lookups
        are those of a one-thread batch."""
        workers = scalar(params, "workers", 1)
        try:
            workers = max(1, min(int(workers), self._workers))
        except (TypeError, ValueError):
            raise ServeError(f"workers must be an integer, got {workers!r}")

        def run_one(query: str, first: bool = True) -> dict[str, Any]:
            # The extra "cache" key is additive; BatchItem.from_dict
            # readers ignore it (schema v2 stays intact).
            q0 = self._clock()
            try:
                if first:  # the edge has looked it up: compute
                    key = self._expand_key(scope, query, algorithm, "full", tenant)
                    report = self._expand_miss(scope, key, query, algorithm)
                    cache = "miss"
                else:
                    report, cache = self._expand_cached(
                        scope, query, algorithm, tenant=tenant
                    )
                return batch_item(query, report, self._clock() - q0, cache)
            except Exception as exc:  # noqa: BLE001 — per-query isolation
                return batch_item(
                    query, None, self._clock() - q0,
                    error_type=type(exc).__name__, error_message=str(exc),
                )

        firsts = list(dict.fromkeys(misses))
        done = fan_out(run_one, firsts, workers)
        answered = dict(zip(firsts, done))
        items = [
            answered.pop(q) if q in answered else run_one(q, first=False)
            for q in misses
        ]
        return BatchAnswer(
            [splice(item) for item in items],
            sum(1 for i in items if i["cache"] == "hit"),
            sum(1 for i in items if i["ok"]),
            workers,
            {},
        )

    def _store(self, scope: ReadScope) -> Any:
        return getattr(scope.entry.index, "store", None)

    def _ingest(
        self, scope: ReadScope, store: Any, documents: list, tenant: TenantSpec | None
    ) -> tuple[int, int, int, Mapping[str, Any]]:
        """Write through the pool, in the tenant's scope (its private or
        throwaway store, when it has one)."""
        count = self._pool.ingest(
            scope.config, documents, tenant=tenant, quota=self._quota
        )
        persistent = scope.entry.index.capabilities().persistent
        return 200, count, store.generation, {"persistent": persistent}

    # -- endpoints -----------------------------------------------------------

    def configs(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        payload: dict[str, Any] = {"configs": self._pool.describe()}
        if self._tenants is not None:
            payload["tenants"] = self._tenants.names()
        self._requests.record("configs", time.perf_counter() - t0)
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
            "uptime_seconds": self._requests.uptime_seconds(),
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
        self._requests.record("healthz", time.perf_counter() - t0)
        return 200, payload

    def _metrics_payload(self) -> dict[str, Any]:
        t0 = time.perf_counter()
        requests = self._requests.snapshot()
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
        self._requests.record("metrics", time.perf_counter() - t0)
        return payload


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
