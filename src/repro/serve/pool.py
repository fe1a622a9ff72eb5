"""Named serving configurations and the warm session pool behind them.

A :class:`ServeConfig` is everything needed to build one
:class:`~repro.api.Session` — dataset, retrieval scorer, index backend,
clusterer, algorithm, and config knobs — under a stable *name* that
requests select with ``?config=<name>``. Specs parse from the compact
CLI form::

    name:key=value,key=value,...
    # e.g.  wiki:dataset=wikipedia,algorithm=iskr,k=3,scoring=bm25

The :class:`SessionPool` owns one lazily-built session per configuration
(first request pays construction; everyone after shares the warm index,
retrieval cache, and analysis cache) and exposes each session pipeline's
:class:`~repro.pipeline.StageStats` for ``/metrics``.

Every cache and scorer keys on the index generation, which the store
publishes only after a batch commits, so nothing stale is ever served.
What a move of the generation leaves behind is unreachable, and
:meth:`PooledSession.advanced` frees it: the first request after any
move (an ingest, a replica's changefeed replay, a ``refresh()``) finds
the generation changed and clears the session caches, and the service
then drops that entry's cached responses.

Every backend serves concurrent reads, and a mutable one commits each
ingest atomically, so sessions run requests without an entry lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from threading import Lock
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.api.session import Session
from repro.data.documents import Document
from repro.errors import (
    ConfigError,
    ServeError,
    TenantAccessError,
    UnknownConfigError,
)

if TYPE_CHECKING:
    from repro.store import DocumentStore
    from repro.tenancy import QuotaManager, TenantSpec

#: Separator between tenant and config in pool-entry keys; tenant names
#: cannot contain ``:`` (enforced by TenantSpec), so the split is safe.
TENANT_KEY_SEP = "::"

#: Spec keys accepted by :meth:`ServeConfig.parse`, with their aliases.
_SPEC_KEYS = {
    "dataset": "dataset",
    "algorithm": "algorithm",
    "clusterer": "clusterer",
    "retrieval": "retrieval",
    "scoring": "retrieval",
    "backend": "backend",
    "k": "n_clusters",
    "n_clusters": "n_clusters",
    "top": "top_k_results",
    "top_k_results": "top_k_results",
    "semantics": "semantics",
    "seed": "seed",
    "store": "store",
}

#: Spec fields that must parse as integers (pool builds are lazy, so a
#: typo here would otherwise only surface as a 400 on the first request).
_INT_FIELDS = frozenset({"n_clusters", "top_k_results", "seed"})


@dataclass
class ServeConfig:
    """One named serving configuration (see module docstring)."""

    name: str
    dataset: str = "wikipedia"
    algorithm: str = "iskr"
    clusterer: str | None = None
    retrieval: str = "tfidf"
    backend: str = "memory"
    n_clusters: int = 3
    top_k_results: int | None = 30
    semantics: str | None = None
    seed: int = 0
    store: str | None = None
    config_kwargs: Mapping[str, Any] = field(default_factory=dict)
    dataset_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ConfigError("serve configurations need a non-empty name")
        self.name = str(self.name).strip()
        # Registry names are case-insensitive everywhere else; normalize
        # here so guards (and build_session kwargs) agree with them.
        for field_name in (
            "dataset", "algorithm", "clusterer", "retrieval", "backend",
            "semantics",
        ):
            value = getattr(self, field_name)
            if isinstance(value, str):
                setattr(self, field_name, value.strip().lower())
        if self.store is not None:
            # A store path implies the durable backend; "memory" is the
            # field default, so only an explicit conflicting choice errors.
            if self.backend == "memory":
                self.backend = "sqlite"
            elif self.backend != "sqlite":
                raise ConfigError(
                    f"config {self.name!r} sets store={self.store!r} but "
                    f"backend={self.backend!r}; a store path requires "
                    f"backend=sqlite"
                )

    @classmethod
    def parse(cls, spec: str) -> "ServeConfig":
        """Build from the CLI spec form ``name[:key=value,...]``."""
        spec = spec.strip()
        if not spec:
            raise ConfigError("empty serve config spec")
        name, _, rest = spec.partition(":")
        if "=" in name:
            # A forgotten "name:" prefix would otherwise turn the whole
            # key=value spec into a config *name* with default settings.
            raise ConfigError(
                f"serve config spec {spec!r} has no name; "
                f"expected name:key=value,..."
            )
        kwargs: dict[str, Any] = {}
        for pair in filter(None, (p.strip() for p in rest.split(","))):
            key, sep, raw = pair.partition("=")
            if not sep:
                raise ConfigError(
                    f"bad serve config entry {pair!r} in {spec!r}; "
                    f"expected key=value"
                )
            key = key.strip().lower()
            if key not in _SPEC_KEYS:
                raise ConfigError(
                    f"unknown serve config key {key!r} in {spec!r}; "
                    f"known keys: {', '.join(sorted(set(_SPEC_KEYS)))}"
                )
            field_name = _SPEC_KEYS[key]
            value: Any = raw.strip()
            if field_name in _INT_FIELDS:
                try:
                    value = int(value)
                except ValueError:
                    raise ConfigError(
                        f"serve config key {key!r} needs an integer, "
                        f"got {value!r} in {spec!r}"
                    ) from None
            kwargs[field_name] = value
        if kwargs.get("top_k_results") == 0:
            kwargs["top_k_results"] = None  # 0 = expand over all results
        return cls(name=name, **kwargs)

    def build_session(
        self,
        retrieval_cache_size: int | None = None,
        analysis_cache_size: int | None = None,
        store: "DocumentStore | None" = None,
    ) -> Session:
        """Construct the session (build-time validation applies).

        ``store`` — when the config is store-backed — supplies an
        already-open :class:`DocumentStore` handle so several configs
        (or tenant views) sharing one path share one connection; without
        it the store is opened here and owned by the session's backend.
        """
        builder = (
            Session.builder()
            .retrieval(self.retrieval)
            .algorithm(self.algorithm)
            .seed(self.seed)
        )
        if self.store is not None:
            from repro.store import DocumentStore

            if store is None:
                store = DocumentStore(self.store)
            if len(store):
                # Restart path: the store file is the durable truth —
                # the dataset spec only seeds an *empty* store.
                builder.corpus(store.corpus())
            else:
                builder.dataset(self.dataset, **dict(self.dataset_kwargs))
            builder.backend("sqlite", store=store)
        else:
            builder.dataset(self.dataset, **dict(self.dataset_kwargs))
            builder.backend(self.backend)
        if self.clusterer is not None:
            builder.clusterer(self.clusterer)
        config: dict[str, Any] = {
            "n_clusters": self.n_clusters,
            "top_k_results": self.top_k_results,
        }
        if self.semantics is not None:
            config["semantics"] = self.semantics
        config.update(self.config_kwargs)
        builder.config(**config)
        builder.cache_capacity(
            retrieval=retrieval_cache_size, analysis=analysis_cache_size
        )
        return builder.build()

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "clusterer": self.clusterer,
            "retrieval": self.retrieval,
            "backend": self.backend,
            "n_clusters": self.n_clusters,
            "top_k_results": self.top_k_results,
            "semantics": self.semantics,
            "seed": self.seed,
            "store": self.store,
        }


class PooledSession:
    """A built session plus the generation it last served.

    ``tenant`` is the owning tenant's name for dedicated per-tenant
    entries (a private store path, or a throwaway store of its own) and
    ``None`` for entries shared by every caller of the config.
    """

    def __init__(
        self,
        config: ServeConfig,
        session: Session,
        tenant: str | None = None,
    ) -> None:
        self.config = config
        self.session = session
        self.tenant = tenant
        self._served = self.generation()

    @property
    def key(self) -> str:
        """Pool-entry key: ``config`` or ``tenant::config``."""
        if self.tenant is None:
            return self.config.name
        return f"{self.tenant}{TENANT_KEY_SEP}{self.config.name}"

    @property
    def index(self):
        return self.session.engine.index

    def generation(self) -> int:
        """The index's change counter (0 for immutable backends)."""
        return int(getattr(self.index, "generation", 0))

    def advanced(self) -> bool:
        """Clear the session caches if the index moved since the last call.

        Returns whether it moved, so the caller can drop its own dead
        entries too. Only memory depends on this: every cache keys on
        the generation, so two threads racing here just clear twice.
        """
        generation = self.generation()
        if generation == self._served:
            return False
        self._served = generation
        self.session.clear_caches()
        return True


class SessionPool:
    """Lazily builds and shares one warm session per named configuration.

    Parameters
    ----------
    configs:
        The named configurations to serve.
    retrieval_cache_size / analysis_cache_size:
        Per-session cache capacities (None = session defaults).
    """

    def __init__(
        self,
        configs: Iterable[ServeConfig],
        retrieval_cache_size: int | None = None,
        analysis_cache_size: int | None = None,
    ) -> None:
        self._configs: dict[str, ServeConfig] = {}
        for config in configs:
            if config.name in self._configs:
                raise ConfigError(
                    f"duplicate serve config name {config.name!r}"
                )
            self._configs[config.name] = config
        if not self._configs:
            raise ConfigError("a session pool needs at least one config")
        self._retrieval_cache_size = retrieval_cache_size
        self._analysis_cache_size = analysis_cache_size
        # Keyed by entry key: "config" or "tenant::config" (dedicated
        # per-tenant views). Build locks are created lazily for tenant
        # keys, under _lock.
        self._entries: dict[str, PooledSession] = {}
        self._build_locks = {name: Lock() for name in self._configs}
        self._lock = Lock()
        # Shared DocumentStore handles, keyed by resolved path: entries
        # that name the same store file share one handle, so they all
        # read its one published state (documents included); a second
        # handle would see this process's writes only after refresh().
        # close() closes each exactly once.
        self._stores: dict[str, "DocumentStore"] = {}
        self._stores_lock = Lock()

    # -- lookup --------------------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return tuple(self._configs)

    def __contains__(self, name: object) -> bool:
        return name in self._configs

    @staticmethod
    def _dedicated(config: ServeConfig, tenant: "TenantSpec") -> bool:
        """Does ``tenant`` get its own session for ``config``?

        Yes when the tenant overrides the store path (private durable
        namespace), or when the config names no store path and its
        backend is the mutable ``sqlite`` one: each tenant then gets its
        own throwaway store, so one tenant's ingest is invisible to the
        others. Configs with a shared store path and immutable backends
        share the base entry: every session on the store handle reads
        its one published state, so a separate entry would hold nothing
        different, and response-cache keys stay tenant-scoped
        regardless.
        """
        if tenant.stores.get(config.name) is not None:
            return True
        return config.store is None and config.backend == "sqlite"

    def get(
        self, name: str, tenant: "TenantSpec | None" = None
    ) -> PooledSession:
        """The pooled session for ``name``, building it on first use.

        With a ``tenant``, the allow-list is enforced and — when the
        tenant warrants a dedicated view (see :meth:`_dedicated`) — a
        per-tenant entry keyed ``tenant::name`` is built and shared by
        that tenant's requests only.
        """
        if name not in self._configs:
            raise UnknownConfigError(
                f"unknown serve config {name!r}; "
                f"configured: {', '.join(self._configs)}"
            )
        if tenant is not None:
            if not tenant.allows(name):
                raise TenantAccessError(
                    f"tenant {tenant.name!r} may not use config {name!r}; "
                    f"allowed: {', '.join(tenant.configs)}"
                )
            if not self._dedicated(self._configs[name], tenant):
                tenant = None
        key = (
            name if tenant is None
            else f"{tenant.name}{TENANT_KEY_SEP}{name}"
        )
        with self._lock:
            entry = self._entries.get(key)
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = Lock()
        if entry is not None:
            return entry
        # Per-entry build lock: concurrent first requests for one entry
        # build once; different entries build in parallel. Ordering is
        # one-way — a build lock is always taken before _lock, never the
        # reverse — so the nesting cannot cycle.
        with build_lock:
            with self._lock:
                entry = self._entries.get(key)
            if entry is not None:
                return entry
            entry = self._build(self._configs[name], tenant)
            with self._lock:
                self._entries[key] = entry
            return entry

    def _store_handle(self, path: str) -> "DocumentStore":
        """Open (or reuse) the shared store connection for ``path``."""
        from repro.store import DocumentStore

        key = str(Path(path).expanduser().resolve())
        with self._stores_lock:
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = DocumentStore(path)
        return store

    def _build(
        self, config: ServeConfig, tenant: "TenantSpec | None" = None
    ) -> PooledSession:
        effective = config
        if tenant is not None:
            override = tenant.stores.get(config.name)
            if override is not None:
                # replace() re-runs validation: a store path implies
                # backend=sqlite, and any other explicit backend fails
                # loudly here.
                effective = replace(config, store=str(override))
        store = (
            self._store_handle(effective.store)
            if effective.store is not None
            else None
        )
        session = effective.build_session(
            retrieval_cache_size=self._retrieval_cache_size,
            analysis_cache_size=self._analysis_cache_size,
            store=store,
        )
        return PooledSession(
            effective, session,
            tenant=None if tenant is None else tenant.name,
        )

    # -- ingestion -----------------------------------------------------------

    def ingest(
        self,
        name: str,
        documents: Iterable[Document],
        tenant: "TenantSpec | None" = None,
        quota: "QuotaManager | None" = None,
    ) -> int:
        """Append documents to ``name``'s index; returns how many landed.

        Only configurations on a mutable backend (``backend=sqlite``)
        accept ingestion; anything else raises :class:`ServeError`. The
        backend writes through to its store, so with a ``store=`` path
        the documents survive a restart. The whole batch is published as
        one generation.

        With a ``tenant`` and a ``quota``, the batch-size cap applies
        up front and the document quota is enforced transactionally,
        under the store's write lock before the transaction begins (a
        rejected batch leaves generation and document count untouched).
        """
        entry = self.get(name, tenant)
        add_all = getattr(entry.index, "add_all", None)
        if not callable(add_all) or not entry.index.capabilities().mutable:
            raise ServeError(
                f"config {name!r} uses immutable backend "
                f"{entry.index.capabilities().name!r}; ingestion needs a "
                f"mutable backend (backend=sqlite)"
            )
        docs = list(documents)
        if tenant is not None and quota is not None:
            quota.check_batch(tenant, len(docs))
            return len(add_all(docs, guard=quota.store_guard(tenant)))
        return len(add_all(docs))

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Release every built session's backing resources.

        Store-backed indexes (``backend=sqlite``) hold an open database
        connection; closing releases it so snapshot files can be removed
        and WAL segments checkpointed. Built entries are dropped — a
        subsequent :meth:`get` would rebuild from scratch — so call this
        only at shutdown, after the last request has drained
        (:meth:`ExpansionService.close` sequences that). Idempotent.
        """
        with self._lock:
            entries, self._entries = dict(self._entries), {}
        with self._stores_lock:
            stores, self._stores = dict(self._stores), {}
        # Pool-opened store handles close exactly once, however many
        # entries (base + tenant views) share them. Entries whose index
        # wraps a store the pool did NOT open (externally built) close
        # through the same dedup set; storeless indexes close directly.
        closed: set[int] = set()
        for store in stores.values():
            if id(store) not in closed:
                closed.add(id(store))
                store.close()
        for entry in entries.values():
            store = getattr(entry.index, "store", None)
            if store is not None:
                if id(store) not in closed:
                    closed.add(id(store))
                    store.close()
                continue
            closer = getattr(entry.index, "close", None)
            if callable(closer):
                closer()

    # -- introspection -------------------------------------------------------

    def built_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def describe(self) -> dict[str, Any]:
        """Spec + live state per configuration (JSON-ready).

        Each config reports the tenants holding a dedicated built view
        of it under ``"tenants"`` (tenants sharing the base entry appear
        in the service's per-tenant request metrics instead — the pool
        has no per-request knowledge of them).
        """
        with self._lock:
            entries = dict(self._entries)
        out: dict[str, Any] = {}
        for name, config in self._configs.items():
            info = config.describe()
            entry = entries.get(name)
            info["built"] = entry is not None
            if entry is not None:
                info["generation"] = entry.generation()
                info["session"] = entry.session.describe()
            tenants: dict[str, Any] = {}
            for tentry in entries.values():
                if tentry.tenant is None or tentry.config.name != name:
                    continue
                tenants[tentry.tenant] = {
                    "built": True,
                    "generation": tentry.generation(),
                    "store": tentry.config.store,
                }
            info["tenants"] = tenants
            out[name] = info
        return out

    def stage_metrics(self) -> dict[str, Any]:
        """Per-config, per-stage latency histograms (built configs only)."""
        with self._lock:
            entries = dict(self._entries)
        return {
            name: entry.session.execution_pipeline.stage_stats.snapshot()
            for name, entry in entries.items()
        }

    def session_cache_info(self) -> dict[str, Any]:
        with self._lock:
            entries = dict(self._entries)
        return {
            name: entry.session.cache_info() for name, entry in entries.items()
        }
