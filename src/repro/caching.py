"""Thread-safe bounded LRU cache with optional TTL — shared by every tier.

One implementation backs all three caching tiers in the library:
:class:`~repro.api.Session`'s retrieval and analysis caches
(``ttl=None``) and the serving layer's response cache
(:mod:`repro.serve.cache`, which re-exports this class). Keeping a
single locked implementation matters because the caches are shared
across threads — ``expand_many`` workers, ``/batch`` fan-out, and
concurrent HTTP handlers all read and write the same objects, and LRU
reads *mutate* (they refresh recency), so an unlocked variant would
race.

Three ways an entry leaves the cache, each separately counted:

* **eviction** — capacity pressure; the least-recently-used entry goes;
* **expiration** — the entry outlived its TTL (checked lazily on
  lookup, and sweepable via :meth:`LRUTTLCache.purge_expired`);
* **invalidation** — an explicit :meth:`LRUTTLCache.invalidate` /
  :meth:`LRUTTLCache.clear` call (e.g. by the serving layer on the first
  request after a mutable backend's generation moved, to free what the
  move made unreachable).

The clock is injectable for tests (defaults to ``time.monotonic``).
"""

from __future__ import annotations

import time
from threading import Lock
from typing import Any, Callable, Hashable, Iterable

#: ``ttl=None`` means entries never expire (capacity is still enforced).
NO_TTL = None


class LRUTTLCache:
    """A bounded, thread-safe LRU cache with optional per-cache TTL.

    Besides the explicit :meth:`lookup`/:meth:`put` API, the cache
    supports ``get``/``[]=``/``in``/``len`` so call sites that treat it
    as a mutable mapping (the pipeline's cluster stage) work
    unchanged.

    Parameters
    ----------
    maxsize:
        Entry capacity; the least-recently-used entry is evicted beyond it.
    ttl:
        Seconds an entry stays servable, or ``None`` for no expiry.
    clock:
        Zero-argument monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl: float | None = NO_TTL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if int(maxsize) < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive or None, got {ttl}")
        self._maxsize = int(maxsize)
        self._ttl = ttl
        self._clock = clock
        self._lock = Lock()
        # key -> (value, expires_at | None); dict order is recency order.
        self._entries: dict[Hashable, tuple[Any, float | None]] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0

    # -- core operations -----------------------------------------------------

    def lookup(self, key: Hashable) -> tuple[bool, Any]:
        """``(hit, value)``; a miss returns ``(False, None)``.

        The two-tuple (rather than a sentinel default) keeps cached
        falsy values unambiguous.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return False, None
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return False, None
            # Refresh recency: re-insert at the most-recent end.
            del self._entries[key]
            self._entries[key] = entry
            self._hits += 1
            return True, value

    def get(self, key: Hashable, default: Any = None) -> Any:
        hit, value = self.lookup(key)
        return value if hit else default

    def put(self, key: Hashable, value: Any) -> None:
        expires_at = None if self._ttl is None else self._clock() + self._ttl
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = (value, expires_at)
            while len(self._entries) > self._maxsize:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self._evictions += 1

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            _, expires_at = entry
            return expires_at is None or self._clock() < expires_at

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- invalidation --------------------------------------------------------

    def invalidate(
        self, predicate: Callable[[Hashable], bool] | None = None
    ) -> int:
        """Drop entries whose key matches ``predicate`` (all when ``None``).

        Returns the number of entries removed; they count as
        *invalidations*, not evictions.
        """
        with self._lock:
            if predicate is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                doomed = [k for k in self._entries if predicate(k)]
                for key in doomed:
                    del self._entries[key]
                removed = len(doomed)
            self._invalidations += removed
            return removed

    def clear(self) -> None:
        """Drop everything (counts as invalidations)."""
        self.invalidate()

    def invalidate_prefix(self, prefix: Iterable[Any]) -> int:
        """Drop every tuple key starting with ``prefix``.

        Serving keys lead with the configuration name, so
        ``invalidate_prefix((config_name,))`` clears one configuration's
        cached responses after its index mutates.
        """
        lead = tuple(prefix)

        def matches(key: Hashable) -> bool:
            return isinstance(key, tuple) and key[: len(lead)] == lead

        return self.invalidate(matches)

    def purge_expired(self) -> int:
        """Eagerly remove expired entries (lookups also do this lazily)."""
        if self._ttl is None:
            return 0
        now = self._clock()
        with self._lock:
            doomed = [
                k
                for k, (_, expires_at) in self._entries.items()
                if expires_at is not None and now >= expires_at
            ]
            for key in doomed:
                del self._entries[key]
            self._expirations += len(doomed)
            return len(doomed)

    # -- introspection -------------------------------------------------------

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def ttl(self) -> float | None:
        return self._ttl

    def stats(self) -> dict[str, Any]:
        """Counters + occupancy, JSON-ready (the ``/metrics`` shape)."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "capacity": self._maxsize,
                "ttl_seconds": self._ttl,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / lookups) if lookups else 0.0,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "invalidations": self._invalidations,
            }
