"""The replica worker process: hydrate, announce, serve, drain.

A replica is one OS process owning a full single-node serving stack — a
:class:`~repro.serve.pool.SessionPool` and an
:class:`~repro.serve.app.ExpansionService` — reached over the
:mod:`~repro.serve.cluster.transport` RPC instead of HTTP. The
coordinator describes it with a picklable :class:`ReplicaSpec` and
spawns :func:`replica_main` via ``multiprocessing`` (``spawn`` context:
no inherited locks, threads, or SQLite handles).

Lifecycle::

    spawn -> build sessions (hydrate)  -> ("ready", address, authkey)
          -> accept/serve RPC loop     -> SIGTERM (or the coordinator dies)
          -> stop accepting, drain in-flight, close stores -> exit 0

**Snapshot hydration**: store-backed configurations arrive with their
``store`` path rewritten to a private snapshot file the coordinator cut
from the source store via the SQLite backup API
(:meth:`DocumentStore.snapshot`), so every replica owns its bytes —
shared-nothing — and a restarted replica is simply handed a *fresh*
snapshot. Hydration happens before the ready message: by the time the
coordinator routes a request here, every session is built and warm.

**Incremental maintenance** (``--follow``): when the spec carries
``feed_sources`` (config name → *source* store path), the replica starts
one :class:`~repro.feed.FeedTailer` per followed config after hydration.
The tailer polls the source's changelog from the snapshot's generation
and applies deltas to the replica's private store, so the replica
converges on live ingest without re-hydration. The coordinator wakes
the tailers after each of its own ingests (the transport's reserved
``WAKE`` message), so an ingest through the coordinator is applied at
once instead of at the next poll; the snapshot path is only
taken at (re)start — or when a tailer reports a *gap* (its history was
truncated by compaction), in which case the replica shuts its transport
down and exits cleanly: the supervisor sees it die and respawns it with
a fresh snapshot. Restart-equals-rehydrate stays the single recovery
story. ``/healthz`` and ``/metrics`` payloads gain a ``feed`` block with
per-config tailer stats (applied generation, lag, fallbacks, errors).
"""

from __future__ import annotations

import dataclasses
import multiprocessing.connection
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.feed import Changefeed, FeedTailer
from repro.serve.app import ExpansionService
from repro.serve.cluster.transport import ReplicaTransport
from repro.serve.pool import ServeConfig, SessionPool
from repro.tenancy import TenantRegistry, TenantSpec

#: Seconds a terminating replica waits for in-flight requests.
DRAIN_TIMEOUT = 10.0


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a replica process needs to build its serving stack.

    ``store_overrides`` maps configuration names to per-replica snapshot
    paths; matching configs are rebuilt with that path as their store.
    ``feed_sources`` maps configuration names to *source* store paths to
    tail (see module docstring); empty = snapshot-only replicas (the
    pre-feed behavior, and the default). ``tenant_specs`` carries the
    coordinator's tenant registry as plain dicts (picklable across the
    spawn boundary); the replica rebuilds a registry from them so its
    response caches and payloads are tenant-scoped, but with
    ``enforce_limits=False`` — rate limits and quotas are enforced once,
    at the coordinator.
    """

    name: str
    configs: tuple[ServeConfig, ...]
    store_overrides: Mapping[str, str] = field(default_factory=dict)
    cache_size: int = 1024
    cache_ttl: float | None = None
    workers: int = 4
    feed_sources: Mapping[str, str] = field(default_factory=dict)
    feed_poll_interval: float = 0.25
    tenant_specs: tuple[Mapping[str, Any], ...] = ()
    tracing: bool = True
    trace_capacity: int = 256
    slow_threshold: float = 0.25

    def effective_configs(self) -> list[ServeConfig]:
        out = []
        for config in self.configs:
            override = self.store_overrides.get(config.name)
            if override is not None:
                config = dataclasses.replace(config, store=override)
            out.append(config)
        return out


class TailingReplicaService:
    """A replica service plus the feed tailers keeping it converged.

    Wraps an :class:`ExpansionService`, delegating everything, and:

    * augments ``/healthz`` and ``/metrics`` payloads with a ``feed``
      block (per-config tailer stats) so the coordinator can aggregate
      replica lag without a side channel;
    * owns the tailers' lifecycle — :meth:`close` stops them *before*
      draining the service, so no mutation lands mid-shutdown;
    * exposes :attr:`on_gap`, called with the config name when a tailer
      hits a truncated log prefix; ``replica_main`` points it at its
      SIGTERM shutdown so the process exits cleanly and the supervisor
      re-hydrates it from a fresh snapshot (gap recovery IS
      restart-equals-rehydrate, not a second code path).
    """

    def __init__(self, service: ExpansionService) -> None:
        self._service = service
        self._tailers: dict[str, FeedTailer] = {}
        self._feeds: list[Changefeed] = []
        self.on_gap: Callable[[str], None] | None = None

    @property
    def tailers(self) -> Mapping[str, FeedTailer]:
        return dict(self._tailers)

    def follow(
        self, config_name: str, source_path: str, spec: ReplicaSpec
    ) -> FeedTailer:
        """Start tailing ``source_path``'s changelog into ``config_name``."""
        entry = self._service.pool.get(config_name)
        feed = Changefeed(source_path)

        def _gap(_tailer: FeedTailer, _batch: Any) -> None:
            hook = self.on_gap
            if hook is not None:
                hook(config_name)
            return None  # stop the tailer; recovery is a fresh snapshot

        tailer = FeedTailer(
            feed,
            entry.index,
            start_after=entry.generation(),
            consumer=f"{spec.name}:{config_name}",
            poll_interval=spec.feed_poll_interval,
            on_gap=_gap,
            tracer=self._service.tracer,
        )
        self._feeds.append(feed)
        self._tailers[config_name] = tailer
        tailer.start()
        return tailer

    def wake(self) -> None:
        """Have every tailer poll its feed now (see module docstring)."""
        for tailer in self._tailers.values():
            tailer.wake()

    def feed_stats(self) -> dict[str, Any]:
        return {name: t.stats() for name, t in self._tailers.items()}

    def handle(
        self, method: str, path: str, params: Mapping[str, Any]
    ) -> tuple[int, Any]:
        status, payload = self._service.handle(method, path, params)
        normalized = path.rstrip("/") or path
        if (
            status == 200
            and normalized in ("/healthz", "/metrics")
            and isinstance(payload, dict)
        ):
            payload = dict(payload)
            payload["feed"] = self.feed_stats()
        return status, payload

    def close(self, drain_timeout: float = DRAIN_TIMEOUT) -> None:
        for tailer in self._tailers.values():
            tailer.stop()
        for feed in self._feeds:
            feed.close()
        self._service.close(drain_timeout=drain_timeout)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service, name)


def build_replica_service(
    spec: ReplicaSpec,
) -> ExpansionService | TailingReplicaService:
    """Assemble (and fully hydrate) one replica's serving stack."""
    tenants = None
    if spec.tenant_specs:
        tenants = TenantRegistry(
            specs=[TenantSpec.from_dict(d) for d in spec.tenant_specs]
        )
    service = ExpansionService(
        SessionPool(spec.effective_configs()),
        cache_size=spec.cache_size,
        cache_ttl=spec.cache_ttl,
        workers=spec.workers,
        tenants=tenants,
        enforce_limits=False,  # the coordinator is the enforcement edge
        tracing=spec.tracing,
        trace_capacity=spec.trace_capacity,
        slow_threshold=spec.slow_threshold,
    )
    # Replica spans carry their process identity, so a stitched
    # cross-process trace shows which replica served the hop.
    service.tracer.tags.update({"tier": "replica", "replica": spec.name})
    for name in service.pool.names():
        service.pool.get(name)  # build now: ready means warm
    if not spec.feed_sources:
        return service
    tailing = TailingReplicaService(service)
    for config_name, source_path in spec.feed_sources.items():
        tailing.follow(config_name, source_path, spec)
    return tailing


def _terminate_when_closed(sentinel: int, main_thread: int) -> None:
    """SIGTERM the main thread once the parent's ``sentinel`` closes: a
    coordinator killed outright runs no exit handler to stop its replicas."""
    multiprocessing.connection.wait([sentinel])
    signal.pthread_kill(main_thread, signal.SIGTERM)


def replica_main(spec: ReplicaSpec, ready: Any) -> None:
    """Process entry point (see module docstring). ``ready`` is a Pipe end."""
    try:
        service = build_replica_service(spec)
        # trace_export ships the finished trace's spans back in the RPC
        # response so the coordinator stitches one cross-process trace.
        transport = ReplicaTransport(
            service.handle,
            span_export=service.trace_export,
            wake=getattr(service, "wake", None),  # follow replicas only
        )
        if isinstance(service, TailingReplicaService):
            # A gap means this replica's history is gone: SIGTERM the main
            # thread, as parent death does (close() from another thread
            # leaves accept() blocked), so serve() returns and the
            # supervisor re-hydrates us from a fresh snapshot.
            main = threading.get_ident()
            service.on_gap = lambda _config: signal.pthread_kill(main, signal.SIGTERM)
    except Exception as exc:  # noqa: BLE001 — report the failure, don't hang the parent
        try:
            ready.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            ready.close()
        return
    ready.send(("ready", transport.address, transport.authkey))
    ready.close()

    stopping = threading.Event()

    def _terminate(signum: int, frame: Any) -> None:
        stopping.set()
        transport.close()  # accept loop exits; serve() returns

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    parent = multiprocessing.parent_process()
    if parent is not None:
        watch = (parent.sentinel, threading.get_ident())
        threading.Thread(target=_terminate_when_closed, args=watch, daemon=True).start()

    transport.serve()
    # Graceful exit: refuse new work, drain in-flight requests, release
    # the store connections (satellite: clean replica supervision).
    service.close(drain_timeout=DRAIN_TIMEOUT)
