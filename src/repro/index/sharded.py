"""Hash-partitioned index: N sub-backends behind one ``IndexBackend``.

Documents are partitioned by corpus position (``pos % n_shards`` — a
perfect hash on the integer document id) into per-shard sub-corpora,
each indexed by its own sub-backend (an in-memory
:class:`~repro.index.inverted_index.InvertedIndex` unless a factory says
otherwise). Because a document lives wholly inside one shard, boolean
queries decompose exactly: every shard answers the query over its own
documents and the shard answers — disjoint, locally sorted — are
mapped back to global corpus positions and merged.

Queries fan out over a thread pool (one task per shard). Sub-backends
only need the :class:`~repro.index.backend.IndexBackend` protocol, so a
shard can just as well be a compressed :class:`DiskIndex` — the merge
layer never looks inside. AND and OR alike ask each shard's own
``and_query``/``or_query``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from threading import Lock
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.data.corpus import Corpus
from repro.errors import IndexingError
from repro.index.backend import BackendCapabilities, IndexBackend
from repro.index.inverted_index import InvertedIndex
from repro.index.postings import PostingList

#: Cap on fan-out threads; shards beyond this share workers.
DEFAULT_MAX_WORKERS = 8


class ShardedIndex:
    """One :class:`IndexBackend` over ``n_shards`` hash partitions.

    Parameters
    ----------
    corpus:
        The corpus to index. Positions in query answers are positions in
        this corpus, exactly as for the flat index.
    n_shards:
        Number of partitions (>= 1). More shards than documents is legal;
        surplus shards are simply empty.
    max_workers:
        Fan-out thread count. ``None`` picks ``min(n_shards, 8)``; ``0``
        disables the pool and runs shards sequentially (useful under
        profilers and in single-threaded embeddings).
    shard_factory:
        ``factory(sub_corpus) -> IndexBackend`` for building each shard's
        sub-backend; defaults to :class:`InvertedIndex`.
    """

    def __init__(
        self,
        corpus: Corpus,
        n_shards: int = 4,
        max_workers: int | None = None,
        shard_factory: Callable[[Corpus], IndexBackend] | None = None,
    ) -> None:
        if n_shards < 1:
            raise IndexingError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._doc_lengths = [doc.length() for doc in corpus]
        factory = shard_factory or InvertedIndex
        partitions: list[list] = [[] for _ in range(self._n_shards)]
        globals_: list[list[int]] = [[] for _ in range(self._n_shards)]
        for pos, doc in enumerate(corpus):
            shard = pos % self._n_shards
            partitions[shard].append(doc)
            globals_[shard].append(pos)
        self._shards: list[IndexBackend] = [
            factory(Corpus(docs)) for docs in partitions
        ]
        self._globals = [np.array(g, dtype=np.int64) for g in globals_]
        if max_workers is None:
            max_workers = min(self._n_shards, DEFAULT_MAX_WORKERS)
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = Lock()
        self._closed = False
        self._vocab: list[str] | None = None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down the fan-out pool (idempotent; queries then run serially)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    # analyze: ignore[GUARD001] - double-checked creation: the lock-free
    # fast-path read of _pool/_closed is the optimization; the slow path
    # re-checks both under _pool_lock before creating the executor
    def _map(self, fn: Callable[[int], object]) -> list:
        """Apply ``fn`` to every shard id, fanning out when it pays."""
        pool = None
        if self._max_workers and self._n_shards > 1 and not self._closed:
            # Double-checked creation: concurrent first queries (the index
            # advertises concurrent_reads) must share one executor.
            pool = self._pool
            if pool is None:
                with self._pool_lock:
                    if self._pool is None and not self._closed:
                        self._pool = ThreadPoolExecutor(
                            max_workers=min(self._max_workers, self._n_shards),
                            thread_name_prefix="repro-shard",
                        )
                    pool = self._pool
        if pool is not None:
            try:
                return list(pool.map(fn, range(self._n_shards)))
            except RuntimeError:
                # Only the close() race is retried serially; a
                # RuntimeError raised *inside* fn must propagate.
                if not self._closed:
                    raise
        return [fn(s) for s in range(self._n_shards)]

    # -- introspection -------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def shards(self) -> Sequence[IndexBackend]:
        """The sub-backends, in shard order (read-only view)."""
        return tuple(self._shards)

    def shard_of(self, pos: int) -> int:
        """The shard holding the document at corpus position ``pos``."""
        if not 0 <= pos < len(self._doc_lengths):
            raise IndexingError(f"position {pos} out of range")
        return pos % self._n_shards

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        return len(self.vocabulary())

    def __contains__(self, term: object) -> bool:
        return any(term in shard for shard in self._shards)

    def vocabulary(self) -> list[str]:
        if self._vocab is None:
            merged: set[str] = set()
            for shard in self._shards:
                merged.update(shard.vocabulary())
            self._vocab = sorted(merged)
        return list(self._vocab)

    def document_frequency(self, term: str) -> int:
        return sum(shard.document_frequency(term) for shard in self._shards)

    def doc_length(self, pos: int) -> int:
        return self._doc_lengths[pos]

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="sharded",
            persistent=False,
            sharded=True,
            shards=self._n_shards,
            concurrent_reads=True,
        )

    # -- postings ------------------------------------------------------------

    def _to_global(self, shard: int, local_ids: list[int]) -> np.ndarray:
        return self._globals[shard][np.asarray(local_ids, dtype=np.int64)]

    def postings(self, term: str) -> PostingList:
        """Global posting list for ``term``: shard columns mapped and merged."""

        def shard_postings(s: int) -> tuple[np.ndarray, np.ndarray]:
            plist = self._shards[s].postings(term)
            return self._globals[s][plist.docs], plist.tfs

        per_shard = self._map(shard_postings)
        docs = np.concatenate([d for d, _ in per_shard])
        tfs = np.concatenate([t for _, t in per_shard])
        order = np.argsort(docs, kind="stable")
        return PostingList.from_columns(docs[order], tfs[order])

    # -- boolean retrieval ---------------------------------------------------

    def and_query(self, terms: Iterable[str]) -> list[int]:
        """Corpus positions containing *all* ``terms`` (sorted)."""
        term_list = list(terms)
        if not term_list:
            raise IndexingError("AND query needs at least one term")

        def shard_and(s: int) -> np.ndarray:
            return self._to_global(s, self._shards[s].and_query(term_list))

        return self._merge_sorted(self._map(shard_and))

    def or_query(self, terms: Iterable[str]) -> list[int]:
        """Corpus positions containing *any* of ``terms`` (sorted)."""
        term_list = list(terms)
        if not term_list:
            raise IndexingError("OR query needs at least one term")

        def shard_or(s: int) -> np.ndarray:
            return self._to_global(s, self._shards[s].or_query(term_list))

        return self._merge_sorted(self._map(shard_or))

    @staticmethod
    def _merge_sorted(per_shard: list[np.ndarray]) -> list[int]:
        """Merge of disjoint, locally sorted shard answers."""
        return np.sort(np.concatenate(per_shard)).tolist()
