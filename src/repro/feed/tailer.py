"""``FeedTailer`` — apply a changefeed incrementally to a mutable backend.

The tailer is the consumer half of the replication subsystem: it polls a
:class:`~repro.feed.changefeed.Changefeed` for records past its applied
generation and replays each one onto a mutable index backend (anything
with the ``add_all`` / ``remove`` / ``store`` surface of
:class:`~repro.store.SQLiteIndexBackend`). Cluster replicas run one per
followed config so they converge on the coordinator's source store by
deltas instead of snapshot re-hydration.

Guarantees, in the order they matter:

* **exactly-once per generation** — an entry with
  ``generation <= applied`` is skipped, so overlapping reads after a
  crash/retry never double-apply a batch;
* **crash isolation** — an exception while applying a batch leaves
  ``applied`` where it was, increments ``errors``, and the loop retries
  after the poll interval; a buggy consumer cannot wedge the feed or
  skip generations;
* **prompt apply** — the loop polls every ``poll_interval`` seconds,
  and at once after :meth:`FeedTailer.wake` (a writer that knows it
  just committed calls it), so a woken tailer applies a batch in the
  time the apply takes, not the poll interval;
* **gap handling** — a ``gap`` batch (the log prefix was truncated by
  compaction) invokes the ``on_gap`` callback; the callback re-hydrates
  from a snapshot and returns the snapshot's generation to resume from,
  or ``None`` to stop the tailer. Without a callback the tailer stops
  and reports ``gap`` status.

Applying an entry is convergent because upsert records carry the
*latest* committed payloads (see :mod:`repro.feed.changefeed`): replaying
``upsert d1`` after ``d1`` was later rewritten applies the newest
version, and the later record re-applies it — same fixed point.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping, Protocol

from repro.data.documents import Document
from repro.errors import FeedError, StoreError
from repro.feed.changefeed import (
    DEFAULT_BATCH_LIMIT,
    Changefeed,
    FeedBatch,
    FeedEntry,
)


class MutableBackend(Protocol):
    """The slice of the backend surface the tailer needs."""

    def add_all(self, documents: Any) -> list[int]: ...

    def remove(self, target: str | int) -> int: ...


def _entry_document(raw: Mapping[str, Any]) -> Document:
    """A materialized feed document payload → :class:`Document`."""
    return Document(
        doc_id=str(raw["doc_id"]),
        terms={str(t): int(c) for t, c in dict(raw["terms"]).items()},
        kind=str(raw.get("kind", "text")),
        title=str(raw.get("title", "")),
        fields=dict(raw.get("fields") or {}),
    )


def apply_entry(entry: FeedEntry, backend: Any) -> None:
    """Replay one log record onto ``backend`` (idempotently).

    ``upsert`` re-adds the materialized documents; ``delete`` tombstones
    each doc_id (already-deleted and never-seen ids are fine — the
    source's later records cover them); ``compact`` compacts the local
    store if the backend has one (without VACUUM: replicas are
    short-lived and the rewrite cost isn't worth it on the apply path).
    """
    if entry.kind == "upsert":
        if entry.documents:
            backend.add_all([_entry_document(d) for d in entry.documents])
    elif entry.kind == "delete":
        store = getattr(backend, "store", None)
        if store is not None:
            # One log record -> one local transaction, so the replica's
            # generation advances in lockstep with the source's and the
            # coordinator's lag arithmetic stays exact. Ids the local
            # store never saw live (possible only when replaying history
            # the exactly-once guard normally skips) are no-ops.
            live = [doc_id for doc_id in entry.doc_ids if doc_id in store]
            if live:
                store.delete_all(live)
        else:
            for doc_id in entry.doc_ids:
                try:
                    backend.remove(doc_id)
                except StoreError:
                    # Already tombstoned locally, or the doc was upserted
                    # and deleted inside a truncated-then-replayed window;
                    # the state we converge to is "deleted" either way.
                    pass
    elif entry.kind == "compact":
        store = getattr(backend, "store", None)
        if store is not None:
            store.compact(vacuum=False)
    else:
        raise FeedError(f"unknown changelog record kind: {entry.kind!r}")


class FeedTailer:
    """Poll a changefeed and keep a mutable backend converged.

    Parameters
    ----------
    feed:
        The :class:`Changefeed` to read (not closed by the tailer).
    backend:
        The mutable backend to apply entries to.
    start_after:
        The generation the backend already reflects (its hydration
        snapshot's generation); only records past it are applied.
    consumer:
        Optional claim name; when set, every poll records the applied
        generation in the source's ``feed_claims`` table so compaction
        will not truncate records this tailer still needs.
    on_gap:
        ``callback(tailer, batch) -> int | None``; see module docstring.
    tracer:
        Optional :class:`repro.obs.Tracer`; each non-empty apply batch
        becomes a ``feed.apply`` root trace (with per-entry counts), so
        background maintenance shows up in ``/debug/traces`` and the
        slow log alongside request traffic.
    """

    def __init__(
        self,
        feed: Changefeed,
        backend: Any,
        *,
        start_after: int = 0,
        consumer: str | None = None,
        poll_interval: float = 0.2,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        on_gap: Callable[["FeedTailer", FeedBatch], int | None] | None = None,
        tracer: Any = None,
    ) -> None:
        if poll_interval <= 0:
            raise FeedError(f"poll_interval must be > 0, got {poll_interval}")
        self._feed = feed
        self._backend = backend
        self._consumer = consumer
        self._tracer = tracer
        self._poll_interval = float(poll_interval)
        self._batch_limit = int(batch_limit)
        self._on_gap = on_gap
        self._lock = threading.Lock()
        self._applied = int(start_after)
        self._source_generation = self._applied
        self._batches = 0
        self._entries_applied = 0
        self._errors = 0
        self._snapshot_fallbacks = 0
        self._last_error: str | None = None
        self._status = "idle"  # idle | running | stopped | gap
        self._stop_event = threading.Event()
        self._wake = threading.Event()  # cuts the idle wait short
        self._thread: threading.Thread | None = None

    # -- introspection -------------------------------------------------------

    @property
    def applied(self) -> int:
        """Newest source generation the backend reflects."""
        with self._lock:
            return self._applied

    @property
    def lag(self) -> int:
        """Generations between the source and this tailer (>= 0)."""
        with self._lock:
            return max(0, self._source_generation - self._applied)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "applied": self._applied,
                "source_generation": self._source_generation,
                "lag": max(0, self._source_generation - self._applied),
                "batches": self._batches,
                "entries_applied": self._entries_applied,
                "errors": self._errors,
                "snapshot_fallbacks": self._snapshot_fallbacks,
                "last_error": self._last_error,
                "status": self._status,
                "consumer": self._consumer,
            }

    # -- the apply loop ------------------------------------------------------

    def run_once(self) -> FeedBatch:
        """One poll-and-apply step; returns the batch it saw.

        All sqlite and backend work runs outside the stats lock — the
        lock only guards the counters (see repro.devtools LOCK001).
        """
        with self._lock:
            since = self._applied
        batch = self._feed.read_since(
            since, limit=self._batch_limit, consumer=self._consumer
        )
        with self._lock:
            self._source_generation = batch.generation
        if batch.gap:
            self._handle_gap(batch)
            return batch
        applied_now = 0
        if len(batch.entries) and self._tracer is not None:
            # A root trace per non-empty batch: background maintenance
            # is visible in /debug/traces next to request traffic.
            with self._tracer.request(
                "feed.apply",
                consumer=self._consumer,
                entries=len(batch.entries),
                since=since,
            ) as root:
                applied_now = self._apply_entries(batch, since)
                if root is not None:
                    root.set_attr("applied", applied_now)
        else:
            applied_now = self._apply_entries(batch, since)
        with self._lock:
            self._batches += 1
        return batch

    def _apply_entries(self, batch: FeedBatch, since: int) -> int:
        applied_now = 0
        for entry in batch:
            if entry.generation <= since:
                continue  # exactly-once: never re-apply a generation
            apply_entry(entry, self._backend)
            since = entry.generation
            applied_now += 1
            with self._lock:
                self._applied = entry.generation
                self._entries_applied += 1
        return applied_now

    # analyze: ignore[GUARD001] - _stop_event is a threading.Event (internally synchronized); signaling it outside the stats lock is deliberate
    def _handle_gap(self, batch: FeedBatch) -> None:
        with self._lock:
            self._snapshot_fallbacks += 1
        if self._on_gap is None:
            with self._lock:
                self._status = "gap"
            self._stop_event.set()
            return
        resume_at = self._on_gap(self, batch)
        if resume_at is None:
            with self._lock:
                self._status = "gap"
            self._stop_event.set()
            return
        with self._lock:
            self._applied = int(resume_at)

    def catch_up(self, deadline: float | None = None) -> int:
        """Synchronously apply until exhausted; returns entries applied.

        Intended for tests and the CLI's bounded ``tail`` mode, not the
        background loop.
        """
        import time

        applied_before = self.stats()["entries_applied"]
        while True:
            batch = self.run_once()
            if batch.gap or batch.exhausted:
                break
            if deadline is not None and time.monotonic() > deadline:
                break
        return self.stats()["entries_applied"] - applied_before

    # analyze: ignore[GUARD001] - _stop_event is a threading.Event (internally synchronized); the loop polls it lock-free by design
    def _loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                batch = self.run_once()
            except Exception as exc:  # crash isolation: note it, retry
                with self._lock:
                    self._errors += 1
                    self._last_error = f"{type(exc).__name__}: {exc}"
                self._stop_event.wait(self._poll_interval)
                continue
            if batch.gap or batch.exhausted:
                # Caught up (or waiting on a snapshot): idle-poll. A wake
                # that lands during run_once stays set, so the wait
                # returns at once and the next poll sees its commit.
                self._wake.wait(self._poll_interval)
                self._wake.clear()
        with self._lock:
            if self._status != "gap":
                self._status = "stopped"

    def start(self) -> "FeedTailer":
        """Start the background apply loop (daemon thread); idempotent."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._status = "running"
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-feed-tailer", daemon=True
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        thread = self._thread  # analyze: ignore[GUARD001] - lock-free liveness probe; the binding is replaced atomically (GIL)
        return thread is not None and thread.is_alive()

    def wake(self) -> None:
        """Poll now instead of at the end of the idle wait."""
        self._wake.set()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop_event.set()  # analyze: ignore[GUARD001] - threading.Event is internally synchronized
        self._wake.set()  # end the idle wait
        thread = self._thread  # analyze: ignore[GUARD001] - lock-free read of an atomically replaced binding; join must not run under the stats lock
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
