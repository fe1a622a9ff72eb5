"""The cluster coordinator: spawn, route, shed, supervise.

:class:`ClusterCoordinator` is the front door of a replicated serving
tier. It owns N replica processes (see
:mod:`~repro.serve.cluster.replica`), and for every request decides
*where it runs* and *whether it runs at all*:

**The response cache** — the edge's (:mod:`repro.serve.edge`), keyed
as on a replica: a hit is answered here, with no RPC and no queue-depth
admission. A routed miss's reply carries its cacheable part and the
generation it was keyed under, and fills the entry only if that is the
generation the request read from the source store (the fill rule; see
API.md). The coordinator is the source store's one writer, so that
generation is exact; memory configs are generation 0.

**Routing** — misses of ``/expand`` and ``/search`` route by consistent
hash of ``(config, query)`` (:mod:`~repro.serve.cluster.hashring`), so
repeated queries — and every page of a cursor walk, which is always
routed — land on the replica whose caches already hold them. Responses
are forwarded as raw JSON bytes; the coordinator never re-parses
proxied payloads. ``/batch``, ``/ingest`` and ``/changefeed`` are the
edge's handlers, as on a single node; this tier supplies three hooks.
``/batch`` items the cache holds (under the ``/expand?results=full``
key) are answered by the edge; the rest are scattered: grouped by their
routed replica, sub-batches run in parallel, and the items are merged
back in request order — as the replicas' pre-encoded item bytes,
spliced into the edge's envelope, so ``/batch`` items are never
re-parsed either (only the small sub-batch envelopes are, for their
totals). ``/ingest`` writes to the config's source store and wakes
``--follow`` replicas; ``/changefeed`` reads that store's log.

**Admission control** — each replica has a bounded in-flight budget
(``queue_depth``). A request routed to a saturated replica is shed
immediately with ``429`` + ``Retry-After`` instead of queueing: past
saturation the system degrades by refusing promptly, not by building an
unbounded backlog (the shed path touches no locks a slow request can
hold, so rejection latency stays flat). Shedding never spills to
another replica — spilling would break cache affinity and just move the
queue.

**Supervision** — a background thread watches replica processes. A dead
replica is detected, its requests fail over to the next live node on the
ring walk (degraded-but-available), and it is respawned with a *fresh*
snapshot of the source store — restart-equals-rehydrate, no partial
state to reconcile.

**Aggregation** — ``/healthz`` and ``/metrics`` fan out to live replicas
and merge: cluster status (``ok`` / ``degraded`` / ``down``), summed
per-endpoint request counters (with what the coordinator answered
itself: its hits, ``/ingest``, ``/changefeed`` and its own errors),
per-replica payloads, and coordinator-level counters (routed, shed,
failovers, restarts, shed latency percentiles, cache fills).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.api import schema
from repro.errors import (
    ClusterError,
    ConfigError,
    FeedError,
    TenantAccessError,
)
from repro.feed import CompactionScheduler
from repro.obs import (
    DEFAULT_SLOW_THRESHOLD,
    TRACE_PARAM,
    TRACE_PARENT_PARAM,
    LatencyHistogram,
    absorb_spans,
    current_span,
    span,
)
from repro.serve.admission import AdmissionController, shed_payload
from repro.serve.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.serve.cluster.replica import ReplicaSpec, replica_main
from repro.serve.cluster.transport import (
    DEFAULT_REQUEST_TIMEOUT,
    WAKE,
    ReplicaClient,
)
from repro.serve.edge import (
    ROUTES,
    BatchAnswer,
    ReadScope,
    RequestEdge,
    Route,
    batch_item,
    config_name,
    encode,
    fan_out,
    scalar,
)
from repro.serve.paging import decode_cursor
from repro.serve.pool import ServeConfig
from repro.tenancy import (
    RateLimiter,
    TenantRegistry,
    TenantSpec,
    resolve_tenant,
)

#: Default per-replica in-flight bound (admission control).
DEFAULT_QUEUE_DEPTH = 16

#: Default Retry-After seconds advertised on shed (429) responses.
DEFAULT_RETRY_AFTER = 1.0

#: Seconds the supervisor sleeps between liveness sweeps.
SUPERVISOR_INTERVAL = 0.25

#: Seconds a spawning replica gets to hydrate and report ready.
DEFAULT_START_TIMEOUT = 180.0

#: Seconds an ingest waits on one replica's answer to its wake.
WAKE_TIMEOUT = 1.0


# -- replica handles ---------------------------------------------------------


class ProcessReplica:
    """A supervised replica process plus its RPC client.

    ``spec_factory(name)`` builds a fresh :class:`ReplicaSpec` — called
    on every (re)start so store-backed configs get a *new* snapshot of
    the source store each time.
    """

    def __init__(
        self,
        name: str,
        spec_factory: Callable[[str], ReplicaSpec],
        start_timeout: float = DEFAULT_START_TIMEOUT,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self.name = name
        self._spec_factory = spec_factory
        self._start_timeout = start_timeout
        self._request_timeout = request_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._process: Any = None
        self._client: ReplicaClient | None = None
        self._state = "down"  # down | starting | serving
        self.restarts = -1  # first start() brings it to 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn, wait for the hydration-complete ready message, connect."""
        with self._lock:
            if self._state != "down":
                raise ClusterError(f"replica {self.name!r} is already {self._state}")
            self._state = "starting"
        try:
            spec = self._spec_factory(self.name)
            parent, child = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=replica_main,
                args=(spec, child),
                name=f"repro-replica-{self.name}",
                daemon=True,
            )
            process.start()
            child.close()  # the child's end lives in the child now
            if not parent.poll(self._start_timeout):
                process.kill()
                raise ClusterError(
                    f"replica {self.name!r} did not report ready within "
                    f"{self._start_timeout:.0f}s"
                )
            message = parent.recv()
            parent.close()
            if message[0] != "ready":
                process.join(timeout=5)
                raise ClusterError(
                    f"replica {self.name!r} failed to build: {message[1]}"
                )
            _, address, authkey = message
            client = ReplicaClient(address, authkey, timeout=self._request_timeout)
        except ClusterError:
            with self._lock:
                self._state = "down"
            raise
        except Exception as exc:  # noqa: BLE001 — spawn machinery failures
            with self._lock:
                self._state = "down"
            raise ClusterError(
                f"replica {self.name!r} failed to start: {exc}"
            ) from exc
        with self._lock:
            self._process = process
            self._client = client
            self._state = "serving"
            self.restarts += 1

    def stop(self, graceful: bool = True, join_timeout: float = 10.0) -> None:
        """SIGTERM (drain) then SIGKILL; idempotent."""
        with self._lock:
            process, client = self._process, self._client
            self._process, self._client = None, None
            self._state = "down"
        if client is not None:
            client.close()
        if process is None:
            return
        if process.is_alive():
            if graceful:
                process.terminate()  # SIGTERM -> replica drains and exits
                process.join(timeout=join_timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=join_timeout)
        process.close()

    def mark_down(self) -> None:
        """Record an observed death (the supervisor will respawn)."""
        self.stop(graceful=False, join_timeout=1.0)

    # -- introspection -------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if self._state == "serving" and not self._process.is_alive():
                return "dead"  # exited but not yet reaped by the supervisor
            return self._state

    def alive(self) -> bool:
        return self.state == "serving"

    @property
    def pid(self) -> int | None:
        with self._lock:
            if self._process is None:
                return None
            try:
                return self._process.pid
            except ValueError:  # pragma: no cover - closed process object
                return None

    # -- requests ------------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        params: Mapping[str, Any],
        timeout: float | None = None,
    ) -> tuple[int, bytes, dict[str, Any]]:
        with self._lock:
            client = self._client
        if client is None:
            raise ClusterError(f"replica {self.name!r} is not serving")
        return client.request(method, path, params, timeout=timeout)


class CoordinatorMetrics:
    """Coordinator-level counters: routing, shedding, failover, restarts,
    and cache fills (replies kept, or skipped as stale)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._routed: dict[str, int] = {}
        self._shed = 0
        self._fills = {True: 0, False: 0}
        self._failovers: dict[str, int] = {}
        self._proxy_latency = LatencyHistogram()
        self._shed_latency = LatencyHistogram()

    def record_routed(self, replica: str, seconds: float) -> None:
        with self._lock:
            self._routed[replica] = self._routed.get(replica, 0) + 1
        self._proxy_latency.observe(seconds)

    def record_shed(self, seconds: float) -> None:
        with self._lock:
            self._shed += 1
        self._shed_latency.observe(seconds)

    def record_failover(self, replica: str) -> None:
        with self._lock:
            self._failovers[replica] = self._failovers.get(replica, 0) + 1

    def record_fill(self, filled: bool) -> None:
        with self._lock:
            self._fills[filled] += 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            routed = dict(self._routed)
            shed = self._shed
            failovers = dict(self._failovers)
            cache = {"fills": self._fills[True], "stale": self._fills[False]}
        return {
            "routed": routed,
            "shed": shed,
            "failovers": failovers,
            "cache": cache,
            "proxy_latency": self._proxy_latency.snapshot(),
            "shed_latency": self._shed_latency.snapshot(),
        }


# -- the coordinator ---------------------------------------------------------


#: Counter fields summed when aggregating replica request metrics.
_SUMMED_FIELDS = ("count", "errors", "cache_hits", "cache_misses")

#: Seconds :meth:`ClusterCoordinator.stop` waits for in-flight requests.
DEFAULT_DRAIN_TIMEOUT = 10.0


class ClusterCoordinator(RequestEdge):
    """Routes a shared-nothing replica fleet (see module docstring).

    Parameters
    ----------
    configs:
        The serving configurations every replica builds.
    replicas:
        Fleet size (>= 1).
    queue_depth:
        Per-replica in-flight bound; excess requests are shed with 429.
    cache_size / cache_ttl:
        The response caches' capacity and TTL, here and on each replica.
    retry_after:
        Seconds advertised in shed responses' ``Retry-After``.
    replica_factory:
        ``(name, spec_factory) -> handle`` — tests inject in-process
        fakes here; the default builds :class:`ProcessReplica`.
    follow:
        When True, replicas tail the source store's changefeed and
        converge on live ingest incrementally (see
        :mod:`repro.feed`); a background
        :class:`~repro.feed.CompactionScheduler` per source store
        compacts tombstones and truncates the applied changelog prefix.
        Off by default: snapshot-only replicas are immutable between
        restarts, which some deployments (and tests) rely on.
    feed_poll_interval:
        Seconds between replica tailer polls (``follow`` only); an
        ``/ingest`` here wakes the tailers at once.
    compaction_interval / changelog_keep:
        Scheduler tick period and the minimum trailing changelog records
        always retained (``follow`` only).
    tenants:
        A :class:`~repro.tenancy.TenantRegistry` (or path to a tenants
        JSON file) switching the cluster to multi-tenant mode: the
        coordinator — the fleet's edge — resolves, authorizes, rate
        limits, and quota-checks every data-plane request exactly once,
        and replicas receive the tenant specs (``enforce_limits=False``)
        for cache scoping and response tagging only.
    rate_limiter:
        Injectable token-bucket (tests pass a fake-clock limiter).
    """

    def __init__(
        self,
        configs: Iterable[ServeConfig | str],
        replicas: int = 2,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        retry_after: float = DEFAULT_RETRY_AFTER,
        vnodes: int = DEFAULT_VNODES,
        cache_size: int = 1024,
        cache_ttl: float | None = None,
        workers: int = 4,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        replica_factory: Callable[[str, Callable[[str], ReplicaSpec]], Any] | None = None,
        follow: bool = False,
        feed_poll_interval: float = 0.25,
        compaction_interval: float = 5.0,
        changelog_keep: int = 64,
        tenants: "TenantRegistry | str | None" = None,
        rate_limiter: RateLimiter | None = None,
        tracing: bool = True,
        trace_capacity: int = 256,
        slow_threshold: float = DEFAULT_SLOW_THRESHOLD,
        log_json: bool = False,
        log_stream: Any = None,
    ) -> None:
        parsed = tuple(
            c if isinstance(c, ServeConfig) else ServeConfig.parse(c)
            for c in configs
        )
        if not parsed:
            raise ConfigError("a cluster needs at least one serve config")
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self._configs = parsed
        self._cache_size = cache_size
        self._cache_ttl = cache_ttl
        self._workers = workers
        self._retry_after = retry_after
        self._request_timeout = request_timeout
        self._admission = AdmissionController(queue_depth)
        self._metrics = CoordinatorMetrics()
        # The coordinator roots every request's trace; replicas continue
        # it (the RPC layer propagates _trace/_trace_parent) and ship
        # their spans back for stitching, so one routed request is one
        # cross-process tree in /debug/traces.
        self._tracing = bool(tracing)
        self._trace_capacity = int(trace_capacity)
        self._slow_threshold = float(slow_threshold)
        # The coordinator is the cluster's front door, so tenant limits
        # are enforced HERE, once; replicas get the registry (for cache
        # scoping and tagging) with enforce_limits=False so a request is
        # never double-counted against a tenant's rate budget.
        if isinstance(tenants, (str, os.PathLike)):
            tenants = TenantRegistry(tenants)
        super().__init__(
            tier="coordinator",
            tenants=tenants,
            rate_limiter=rate_limiter,
            tenant_retry_after=retry_after,
            cache_size=cache_size,
            cache_ttl=cache_ttl,
            tracing=tracing,
            trace_capacity=trace_capacity,
            slow_threshold=slow_threshold,
            log_json=log_json,
            log_stream=log_stream,
        )
        self._tenant_requests: dict[str, int] = {}
        # Each config's last-read generation.
        self._generations: dict[str, int] = {}
        self._snapshot_dir: tempfile.TemporaryDirectory | None = None
        self._snapshot_seq = 0
        self._snapshot_lock = threading.Lock()
        self._follow = bool(follow)
        self._feed_poll_interval = feed_poll_interval
        self._compaction_interval = compaction_interval
        self._changelog_keep = changelog_keep
        # Long-lived source-store handles (ingest + snapshots) and the
        # background compaction schedulers — both lazily built, both torn
        # down in stop() with the edge's changefeed readers.
        self._stores: dict[str, Any] = {}
        self._stores_lock = threading.Lock()
        self._schedulers: dict[str, CompactionScheduler] = {}
        if replica_factory is None:
            replica_factory = lambda name, factory: ProcessReplica(  # noqa: E731
                name, factory,
                start_timeout=start_timeout,
                request_timeout=request_timeout,
            )
        names = [f"r{i}" for i in range(replicas)]
        self._replicas: dict[str, Any] = {
            name: replica_factory(name, self._make_spec) for name in names
        }
        self._ring = HashRing(names, vnodes=vnodes)
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._restarting: set[str] = set()
        self._restart_lock = threading.Lock()

    routes = {**ROUTES, "/cluster": Route(("GET",), "cluster")}

    # Bound in this class body, not inherited: the request entry stays
    # this class's own attribute for profilers and layer timers to wrap.
    handle = RequestEdge.handle

    # -- lifecycle -----------------------------------------------------------

    @property
    def replicas(self) -> Mapping[str, Any]:
        return dict(self._replicas)

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def metrics(self) -> CoordinatorMetrics:
        return self._metrics

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    def start(self) -> "ClusterCoordinator":
        """Hydrate and start every replica, then begin supervising."""
        self._closing.clear()  # a stopped coordinator may start again
        self._snapshot_dir = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        try:
            for handle in self._replicas.values():
                handle.start()
        except ClusterError:
            self.stop()
            raise
        if self._follow:
            for path in {
                str(c.store) for c in self._configs if c.store is not None
            }:
                scheduler = CompactionScheduler(
                    self._source_store(path),
                    interval=self._compaction_interval,
                    changelog_keep=self._changelog_keep,
                )
                self._schedulers[path] = scheduler
                scheduler.start()
        self._stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-cluster-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Refuse, drain, then tear down the fleet; idempotent.

        New requests are answered ``503 shutting_down`` at once; requests
        already inside :meth:`handle` get up to ``drain_timeout`` seconds
        to finish while every replica still serves. Then supervision
        stops, replicas drain and exit, and snapshots are dropped.
        """
        self._drain(drain_timeout)
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10)
            self._supervisor = None
        for scheduler in self._schedulers.values():
            scheduler.stop()
        self._schedulers.clear()
        for handle in self._replicas.values():
            handle.stop(graceful=True)
        self._close_feeds()
        with self._stores_lock:
            stores, self._stores = dict(self._stores), {}
        for store in stores.values():
            store.close()
        if self._snapshot_dir is not None:
            self._snapshot_dir.cleanup()
            self._snapshot_dir = None

    # ExpansionServer-style front compatibility.
    close = stop

    def _source_store(self, path: str) -> Any:
        """The (cached, long-lived) writer handle on a source store.

        One handle per path for the coordinator's lifetime — `/ingest`
        writes through it and `_make_spec` snapshots from it. Callers
        that need current in-memory mirrors (another process may have
        moved the file) refresh explicitly.
        """
        from repro.store import DocumentStore

        path = str(path)
        with self._stores_lock:
            store = self._stores.get(path)
            if store is None:
                store = DocumentStore(path)
                self._stores[path] = store
            return store

    def _make_spec(self, name: str) -> ReplicaSpec:
        """A fresh spec for ``name`` — snapshots store configs *now*.

        Called on every (re)start, so a respawned replica hydrates from
        the source store's latest committed state, not the file its dead
        predecessor was using.
        """
        overrides: dict[str, str] = {}
        feed_sources: dict[str, str] = {}
        for config in self._configs:
            if config.store is None:
                continue
            with self._snapshot_lock:
                self._snapshot_seq += 1
                seq = self._snapshot_seq
            base = (
                Path(self._snapshot_dir.name)
                if self._snapshot_dir is not None
                else Path(tempfile.gettempdir())
            )
            dest = base / f"{name}-{config.name}-{seq}.sqlite"
            source = self._source_store(config.store)
            source.refresh()  # another process may have moved the file
            source.snapshot(dest)
            overrides[config.name] = str(dest)
            if self._follow:
                feed_sources[config.name] = str(config.store)
        # Replicas learn the tenants (cache scoping, response tagging)
        # but not their store overrides: replica stores are coordinator
        # snapshots, and per-tenant private stores are a serve-tier
        # feature — the cluster keeps replicas shared-nothing copies of
        # the *configured* stores only.
        tenant_specs: tuple[dict, ...] = ()
        if self._tenants is not None:
            tenant_specs = tuple(
                {k: v for k, v in spec.to_dict().items() if k != "stores"}
                for spec in self._tenants.specs()
            )
        return ReplicaSpec(
            name=name,
            configs=self._configs,
            store_overrides=overrides,
            cache_size=self._cache_size,
            cache_ttl=self._cache_ttl,
            workers=self._workers,
            feed_sources=feed_sources,
            feed_poll_interval=self._feed_poll_interval,
            tenant_specs=tenant_specs,
            tracing=self._tracing,
            trace_capacity=self._trace_capacity,
            slow_threshold=self._slow_threshold,
        )

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.wait(SUPERVISOR_INTERVAL):
            for name, handle in self._replicas.items():
                if handle.state != "dead":
                    continue
                with self._restart_lock:
                    if name in self._restarting:
                        continue
                    self._restarting.add(name)
                handle.mark_down()
                threading.Thread(
                    target=self._restart,
                    args=(name,),
                    name=f"repro-cluster-restart-{name}",
                    daemon=True,
                ).start()

    def _restart(self, name: str) -> None:
        try:
            if not self._stop.is_set():
                self._replicas[name].start()
        except ClusterError:
            pass  # still down; the next sweep will not retry a "down"
            # replica automatically — it retries only "dead" ones, so
            # reschedule explicitly below.
        finally:
            with self._restart_lock:
                self._restarting.discard(name)
        if not self._stop.is_set() and not self._replicas[name].alive():
            # Spawn failed (e.g. source store briefly locked): back off
            # one sweep and let a fresh thread try again.
            time.sleep(SUPERVISOR_INTERVAL)
            with self._restart_lock:
                if name in self._restarting or self._stop.is_set():
                    return
                self._restarting.add(name)
            threading.Thread(
                target=self._restart, args=(name,), daemon=True
            ).start()

    # -- routing -------------------------------------------------------------

    @staticmethod
    def routing_key(path: str, params: Mapping[str, Any]) -> str:
        """The cache-affinity key: ``config + query`` (cursor-aware)."""
        token = scalar(params, "cursor")
        if token is not None:
            # Continuation requests must reach the replica that served
            # page one; the cursor carries the canonical parameters.
            endpoint = path.rstrip("/").lstrip("/") or path
            state = decode_cursor(str(token), endpoint)
            inner = state["params"]
            return f"{inner.get('config', '')}\x00{inner.get('query', '')}"
        return f"{scalar(params, 'config', '')}\x00{scalar(params, 'query', '')}"

    def _live_preference(self, key: str) -> list[Any]:
        return [
            self._replicas[name]
            for name in self._ring.preference(key)
            if self._replicas[name].alive()
        ]

    def _shed(
        self, t0: float, replica: str, tenant: TenantSpec | None = None
    ) -> tuple[int, dict[str, Any]]:
        payload = shed_payload(
            f"replica {replica!r} is at its queue-depth bound "
            f"({self._admission.queue_depth}); retry shortly",
            self._retry_after,
            tenant=None if tenant is None else tenant.name,
            replica=replica,
        )
        self._metrics.record_shed(time.perf_counter() - t0)
        if tenant is not None:
            self._record_shed(tenant)
        self._tracer.event(
            "shed",
            error=True,
            reason="queue_depth",
            replica=replica,
            tenant=None if tenant is None else tenant.name,
            retry_after=self._retry_after,
        )
        return 429, payload

    # -- edge hooks ----------------------------------------------------------

    def _check_tenant(
        self, params: Mapping[str, Any], data: bool
    ) -> TenantSpec | None:
        """Resolve the tenant; on the data plane, also apply its
        allow-list here, before admission: the coordinator has no pool
        to enforce it."""
        tenant = resolve_tenant(self._tenants, params, required=data)
        if data and tenant is not None:
            name = scalar(params, "config")
            if name is None and len(self._configs) == 1:
                name = self._configs[0].name
            if name is not None and not tenant.allows(str(name)):
                raise TenantAccessError(
                    f"tenant {tenant.name!r} may not access "
                    f"configuration {name!r}",
                    tenant=tenant.name,
                )
        return tenant

    def _account(
        self,
        endpoint: str,
        tenant: TenantSpec | None,
        event: str,
        seconds: float = 0.0,
    ) -> None:
        if event == "shed":
            self._metrics.record_shed(seconds)
        elif event == "error":
            # Raised here only: a replica's error comes back as a reply.
            self._record(endpoint, None, tenant, error=True)
        elif event == "admit" and tenant is not None:
            with self._tenant_lock:
                self._tenant_requests[tenant.name] = (
                    self._tenant_requests.get(tenant.name, 0) + 1
                )

    def _read_scope(
        self, params: Mapping[str, Any], tenant: TenantSpec | None
    ) -> ReadScope:
        names = [c.name for c in self._configs]
        config = self._configs[names.index(config_name(params, names))]
        generation = (
            0 if config.store is None
            else self._source_store(config.store).generation
        )
        if self._generations.get(config.name, generation) != generation:
            # Racing reads may both clear: entries key on their
            # generation, so a clear only frees memory.
            self._cache.invalidate_prefix((config.name,))
        self._generations[config.name] = generation
        return ReadScope(config.name, config.algorithm, generation, config)

    # -- proxied endpoints ---------------------------------------------------

    def search(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        if "cursor" in params or "limit" in params:  # pages are routed
            return self._proxy("/search", params, tenant)[:2]
        return super().search(params, tenant)

    def _route(
        self,
        path: str,
        params: Mapping[str, Any],
        tenant: TenantSpec | None,
        key: tuple,
    ) -> tuple[int, Any]:
        """Proxy a miss; the reply fills ``key`` only if it was keyed
        under ``key``'s generation (the fill rule)."""
        status, body, extras = self._proxy(path, params, tenant)
        if status == 200 and "generation" in extras:
            filled = extras["generation"] == key[-1]
            if filled:
                self._cache.put(key, extras["part"])
            self._metrics.record_fill(filled)
        return status, body

    def _proxy(
        self,
        path: str,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, Any, dict[str, Any]]:
        """Forward one read to its routed replica (failing over on the
        ring walk); the replica's serialized body passes through as-is,
        with its extras. The hop is a GET: params arrive parsed, and the
        replica's ``/expand`` and ``/search`` accept either method."""
        t0 = time.perf_counter()
        with span("cluster.route", path=path) as route_span:
            key = self.routing_key(path, params)  # a bad cursor is a 400
            candidates = self._live_preference(key)
            if route_span is not None:
                route_span.set_attr(
                    "candidates", [handle.name for handle in candidates]
                )
        if not candidates:
            raise ClusterError("no live replicas (cluster is restarting or down)")
        cur = current_span()
        rpc_params = params
        if cur is not None:
            # Continue this trace inside the replica process: the RPC
            # carries the trace id + parent, the replica roots its span
            # tree under ours and ships it back for stitching.
            rpc_params = dict(params)
            rpc_params[TRACE_PARAM] = cur.trace_id
        for position, handle in enumerate(candidates):
            if not self._admission.try_acquire(handle.name):
                # Shed at the *routed* replica; spilling sideways would
                # break affinity and merely relocate the queue.
                return (*self._shed(t0, handle.name, tenant), {})
            try:
                with span(
                    "cluster.rpc", replica=handle.name, attempt=position
                ) as rpc:
                    if rpc is not None:
                        rpc_params[TRACE_PARENT_PARAM] = rpc.span_id
                    try:
                        status, body, extras = handle.request(
                            "GET", path, rpc_params,
                            timeout=self._request_timeout,
                        )
                    except ClusterError as exc:
                        # A crashed/unreachable replica leaves an
                        # error-tagged rpc span in the trace; the walk
                        # fails over to the next candidate.
                        if rpc is not None:
                            rpc.mark_error(exc)
                        self._metrics.record_failover(handle.name)
                        continue  # next live candidate on the ring walk
                    absorb_spans(extras.get("spans"))
            finally:
                self._admission.release(handle.name)
            self._metrics.record_routed(handle.name, time.perf_counter() - t0)
            return status, body, extras
        raise ClusterError("every live replica failed the request")

    # -- fan-out helpers -----------------------------------------------------

    def _ask_replica(
        self, handle: Any, path: str, timeout: float = 10.0
    ) -> dict[str, Any] | None:
        try:
            status, body, _extras = handle.request(
                "GET", path, {}, timeout=timeout
            )
            if status != 200:
                return None
            return json.loads(body)
        except (ClusterError, ValueError):
            return None

    # -- coordinator endpoints -----------------------------------------------

    def _replica_states(self) -> dict[str, dict[str, Any]]:
        return {
            name: {
                "state": handle.state,
                "alive": handle.alive(),
                "pid": getattr(handle, "pid", None),
                "restarts": max(0, getattr(handle, "restarts", 0)),
            }
            for name, handle in self._replicas.items()
        }

    def healthz(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        states = self._replica_states()
        live = [name for name, info in states.items() if info["alive"]]
        if len(live) == len(states):
            status = "ok"
        elif live:
            status = "degraded"
        else:
            status = "down"
        # Source-store positions (fresh SQL reads, not possibly-stale
        # mirrors) so replica lag below is measured against the truth.
        feeds: dict[str, dict[str, Any]] = {}
        for config in self._configs:
            if config.store is None:
                continue
            try:
                feed = self._feed(config.store)
                feeds[config.name] = {
                    "source_generation": feed.generation(),
                    "floor": feed.floor(),
                    "follow": self._follow,
                }
            except FeedError:
                continue  # store file gone mid-shutdown; omit, don't fail
        for name in live:
            info = self._ask_replica(self._replicas[name], "/healthz")
            if info is not None:
                states[name]["generations"] = info.get("generations", {})
                states[name]["uptime_seconds"] = info.get("uptime_seconds")
                if "feed" in info:
                    states[name]["feed"] = info["feed"]
                # Per-replica staleness in generations, from the replica's
                # reported position vs the source store's current one.
                lag = {
                    cfg: max(0, meta["source_generation"] - int(generation))
                    for cfg, generation in states[name]["generations"].items()
                    if (meta := feeds.get(cfg)) is not None
                }
                if lag:
                    states[name]["feed_lag"] = lag
        payload: dict[str, Any] = {
            "status": status,
            "role": "coordinator",
            "replicas_total": len(states),
            "replicas_live": len(live),
            "replicas": states,
            "configs": [c.name for c in self._configs],
            "uptime_seconds": self._requests.uptime_seconds(),
            "schema_version": schema.SCHEMA_VERSION,
        }
        if feeds:
            payload["feeds"] = feeds
        if self._tenants is not None:
            payload["tenants"] = {
                spec.name: {
                    "configs": [
                        c.name for c in self._configs if spec.allows(c.name)
                    ],
                }
                for spec in self._tenants.specs()
            }
        return 200, payload

    def _metrics_payload(self) -> dict[str, Any]:
        per_replica: dict[str, Any] = {}
        aggregate: dict[str, dict[str, int]] = {}
        for name, handle in self._replicas.items():
            if not handle.alive():
                per_replica[name] = {"error": "replica down"}
                continue
            payload = self._ask_replica(handle, "/metrics", timeout=30.0)
            if payload is None:
                per_replica[name] = {"error": "metrics fetch failed"}
                continue
            per_replica[name] = payload
        rows = [p.get("requests", {}) for p in per_replica.values()]
        rows.append(self._requests.snapshot()["endpoints"])
        for requests in rows:
            for endpoint, row in requests.items():
                into = aggregate.setdefault(
                    endpoint, {field: 0 for field in _SUMMED_FIELDS}
                )
                for field in _SUMMED_FIELDS:
                    into[field] += int(row.get(field, 0))
        cluster = self._metrics.snapshot()
        stats = self._cache.stats()
        cluster["cache"].update({k: stats[k] for k in ("hits", "misses", "entries")})
        cluster["in_flight"] = self._admission.snapshot()
        cluster["queue_depth"] = self._admission.queue_depth
        cluster["restarts"] = {
            name: max(0, getattr(handle, "restarts", 0))
            for name, handle in self._replicas.items()
        }
        cluster["feed"] = {
            "follow": self._follow,
            "compaction": {
                path: scheduler.stats()
                for path, scheduler in self._schedulers.items()
            },
        }
        if self._tenants is not None:
            with self._tenant_lock:
                requests = dict(self._tenant_requests)
                sheds = dict(self._tenant_sheds)
            cluster["tenants"] = {
                name: {
                    "requests": requests.get(name, 0),
                    "sheds": sheds.get(name, 0),
                }
                for name in sorted(set(requests) | set(sheds))
            }
            cluster["tenant_in_flight"] = self._tenant_admission.snapshot()
        return {
            "uptime_seconds": self._requests.uptime_seconds(),
            "requests": aggregate,  # summed across replicas and this tier
            "cluster": cluster,
            "replicas": per_replica,
        }

    def configs(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        for handle in self._replicas.values():
            if not handle.alive():
                continue
            payload = self._ask_replica(handle, "/configs", timeout=30.0)
            if payload is not None:
                payload["cluster"] = {"replicas": len(self._replicas)}
                if self._tenants is not None:
                    payload["tenants"] = self._tenants.names()
                return 200, payload
        raise ClusterError("no live replicas to describe configurations")

    def cluster(
        self, params: Mapping[str, Any], tenant: TenantSpec | None = None
    ) -> tuple[int, Any]:
        payload: dict[str, Any] = {
            "replicas": self._replica_states(),
            "ring": self._ring.describe(),
            "queue_depth": self._admission.queue_depth,
            "retry_after": self._retry_after,
            "in_flight": self._admission.snapshot(),
            "configs": [c.describe() for c in self._configs],
            "stores": {
                c.name: c.store for c in self._configs if c.store is not None
            },
        }
        if self._tenants is not None:
            payload["tenants"] = self._tenants.describe()
            payload["tenant_in_flight"] = self._tenant_admission.snapshot()
        return 200, payload

    # -- the write and its log -----------------------------------------------

    def _store(self, scope: ReadScope) -> Any:
        path = scope.entry.store
        return None if path is None else self._source_store(path)

    def _ingest(
        self, scope: ReadScope, store: Any, documents: list, tenant: TenantSpec | None
    ) -> tuple[int, int, int, Mapping[str, Any]]:
        """Write to the *source* store; 202, as replicas apply the batch
        later: at once when woken (``follow``), else at re-hydration."""
        if tenant is not None:
            self._quota.check_batch(tenant, len(documents))
        store.refresh()  # another process may have moved the file
        guard = None if tenant is None else self._quota.store_guard(tenant)
        store.upsert_all(documents, guard=guard)
        generation = store.generation
        for handle in self._replicas.values() if self._follow else ():
            try:  # apply now, so replies can fill this generation soon
                handle.request(WAKE, "", {}, timeout=WAKE_TIMEOUT)
            except ClusterError:
                pass  # down, or slow: the tailer's poll catches up
        return 202, len(documents), generation, {"follow": self._follow}

    # -- scatter/gather batch ------------------------------------------------

    def _batch_misses(
        self,
        scope: ReadScope,
        misses: list[str],
        algorithm: str | None,
        params: Mapping[str, Any],
        tenant: TenantSpec | None,
    ) -> BatchAnswer | tuple[int, Any]:
        """Scatter the misses, grouped by routed replica; each replica's
        batch runs a query's repeats after its first occurrence."""
        t0 = time.perf_counter()
        config = scalar(params, "config", "")
        groups: dict[str, list[tuple[int, str]]] = {}
        for position, query in enumerate(misses):
            candidates = self._live_preference(f"{config}\x00{query}")
            if not candidates:
                raise ClusterError("no live replicas (cluster is restarting or down)")
            groups.setdefault(candidates[0].name, []).append((position, query))

        # Admission: claim one slot per participating replica up front;
        # all-or-nothing so a saturated fleet sheds the batch promptly.
        claimed: list[str] = []
        for name in groups:
            if not self._admission.try_acquire(name):
                for done in claimed:
                    self._admission.release(done)
                return self._shed(t0, name, tenant)
            claimed.append(name)

        def run_group(name: str):
            members = groups[name]
            sub = dict(params)
            sub["queries"] = [query for _, query in members]
            if tenant is not None:
                # The cursor keys carry no tenant; a tenanted replica
                # would fail every item "tenant required" without it.
                sub["tenant"] = tenant.name
            cur = current_span()  # the request's: fan_out copies it
            if cur is not None:
                sub[TRACE_PARAM] = cur.trace_id
                sub[TRACE_PARENT_PARAM] = cur.span_id
            status, body, extras = self._replicas[name].request(
                "POST", "/batch", sub, timeout=self._request_timeout
            )
            return name, members, status, body, extras

        try:
            outcomes = fan_out(run_group, list(groups), len(groups))
        finally:
            for name in claimed:
                self._admission.release(name)

        # Each replica's items arrive as JSON bytes (see transport); only
        # the small sub-batch envelopes are decoded, for their totals.
        items: list[bytes] = [b""] * len(misses)
        cache_hits = n_ok = 0
        for name, members, status, body, extras in outcomes:
            absorb_spans(extras.get("spans"))
            if status == 200:
                sub = json.loads(body)
                for (position, _query), item in zip(
                    members, extras["items"], strict=True
                ):
                    items[position] = item
                cache_hits += int(sub["cache_hits"])
                n_ok += int(sub["n_ok"])
                self._metrics.record_routed(name, time.perf_counter() - t0)
                continue
            try:
                message = json.loads(body).get("message", f"status {status}")
            except ValueError:
                message = f"status {status}"
            for position, query in members:
                items[position] = encode(batch_item(
                    query, None, 0.0, error_type="ClusterError",
                    error_message=f"replica {name}: {message}",
                ))
        # The replicas count their own sub-batches in /metrics.
        return BatchAnswer(
            items, cache_hits, n_ok, len(groups), {"replicas": sorted(groups)},
            counted=bool(groups),
        )


def create_coordinator(
    configs: Iterable[ServeConfig | str], **kwargs: Any
) -> ClusterCoordinator:
    """Build (without starting) a coordinator from configs or spec strings."""
    return ClusterCoordinator(configs, **kwargs)
