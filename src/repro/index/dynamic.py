"""Dynamic index: documents can be appended after construction.

The base :class:`~repro.index.inverted_index.InvertedIndex` is built once
from a frozen corpus — the right model for the paper's experiments. A
search deployment also needs ingestion, so :class:`DynamicIndex` keeps
the same retrieval surface (postings / boolean queries / doc lengths)
while accepting appends, with per-term posting lists grown in place.
Documents can also be :meth:`remove`\\ d — a tombstone that filters the
position out of queries while keeping every position stable, the same
model the durable store (:mod:`repro.store`) persists.

Two integration points matter for serving (:mod:`repro.serve`):

* ``DynamicIndex(corpus=existing)`` *adopts* a corpus instead of creating
  a private one, so a :class:`~repro.index.search.SearchEngine` and the
  index share one document store — documents appended after construction
  are immediately retrievable through the engine. This is what the
  ``"dynamic"`` entry in :data:`repro.api.registries.BACKENDS` does.
* :meth:`subscribe` registers mutation listeners. Every append (one
  notification per :meth:`add`, one per :meth:`add_all` batch) invokes
  the listeners, which is how the serving layer's caches get invalidated
  the moment ingestion lands rather than on some poll interval.

Scoring objects (TF-IDF/BM25/LM) snapshot collection statistics at
construction; create them *after* the bulk load, or refresh them when
enough documents have arrived — the ``generation`` counter tells callers
when the index has changed, and
:meth:`~repro.index.search.SearchEngine.refresh_scoring` rebuilds an
engine's scorer in place.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.errors import IndexingError
from repro.index.backend import BackendCapabilities
from repro.index.postings import Posting, PostingList, intersect_all, union_all

MutationListener = Callable[["DynamicIndex"], None]


class DynamicIndex:
    """Append-friendly inverted index over an internal or adopted corpus.

    Documents keep their append order; the integer position is the doc id,
    as everywhere else in the library. Duplicate ``doc_id`` strings are
    rejected by the underlying corpus.

    Parameters
    ----------
    documents:
        Documents to append at construction (each counts as a mutation).
    corpus:
        An existing :class:`~repro.data.corpus.Corpus` to adopt: its
        current documents are indexed in place (no copies, generation
        stays 0), and later :meth:`add` calls append to *that* corpus.
    """

    def __init__(
        self,
        documents: Iterable[Document] = (),
        *,
        corpus: Corpus | None = None,
    ) -> None:
        self._corpus = corpus if corpus is not None else Corpus()
        self._postings: dict[str, PostingList] = {}
        self._doc_lengths: list[int] = []
        self._removed: set[int] = set()
        self._generation = 0
        self._listeners: list[MutationListener] = []
        if corpus is not None:
            for pos, doc in enumerate(corpus):
                self._index_document(pos, doc)
        for doc in documents:
            self.add(doc)

    # -- ingestion -----------------------------------------------------------

    def _index_document(self, pos: int, doc: Document) -> None:
        self._doc_lengths.append(doc.length())
        for term in sorted(doc.terms):
            self._postings.setdefault(term, PostingList()).append(
                Posting(pos, doc.terms[term])
            )

    def _ingest(self, doc: Document) -> int:
        pos = self._corpus.add(doc)
        self._index_document(pos, doc)
        self._generation += 1
        return pos

    def add(self, doc: Document) -> int:
        """Append ``doc``; return its position. Notifies listeners."""
        pos = self._ingest(doc)
        self._notify()
        return pos

    def add_all(self, documents: Iterable[Document]) -> list[int]:
        """Append a batch; listeners are notified once, after the batch.

        If a document mid-batch is rejected (e.g. a duplicate
        ``doc_id``), the exception propagates — but listeners still fire
        for the documents that already landed, so cache invalidation
        never misses a successful ingest.
        """
        positions: list[int] = []
        try:
            for doc in documents:
                positions.append(self._ingest(doc))
        finally:
            if positions:
                self._notify()
        return positions

    def remove(self, target: int | str) -> None:
        """Tombstone a document (by position or ``doc_id``).

        Positions are permanent — the corpus keeps the document and no
        later document shifts — so position-addressed state above the
        index stays valid. The per-term posting lists are left intact
        (they are append-only) and filtered at query time; the durable
        store (:mod:`repro.store`) follows the same tombstone model
        (its backend's ``remove`` takes the same arguments) and adds
        the compaction step this in-memory index does not need.
        Removing an unknown or already-removed document raises.
        Notifies listeners.
        """
        pos = self._corpus.position(target) if isinstance(target, str) else target
        if not 0 <= pos < len(self._doc_lengths):
            raise IndexingError(
                f"cannot remove position {pos}: index holds "
                f"{len(self._doc_lengths)} documents"
            )
        if pos in self._removed:
            raise IndexingError(f"position {pos} is already removed")
        self._removed.add(pos)
        self._generation += 1
        self._notify()

    @property
    def removed_positions(self) -> frozenset[int]:
        """Tombstoned positions (never reused)."""
        return frozenset(self._removed)

    @property
    def generation(self) -> int:
        """Monotone change counter; bump = stats snapshots are stale."""
        return self._generation

    # -- mutation listeners ---------------------------------------------------

    def subscribe(self, listener: MutationListener) -> Callable[[], None]:
        """Register ``listener(index)`` to run after every mutation.

        Returns an unsubscribe callable. Listener exceptions are isolated
        (a failing cache hook must never sink an ingest); listeners run
        on the ingesting thread, after the index is consistent.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self) -> None:
        for listener in list(self._listeners):
            try:
                listener(self)
            except Exception:  # noqa: BLE001 — listener isolation, see subscribe
                continue

    # -- retrieval surface (matches InvertedIndex) -----------------------------

    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def num_documents(self) -> int:
        return len(self._corpus)

    @property
    def num_terms(self) -> int:
        if not self._removed:
            return len(self._postings)
        return sum(1 for term in self._postings if self.document_frequency(term))

    def __contains__(self, term: object) -> bool:
        if not self._removed:
            return term in self._postings
        return isinstance(term, str) and self.document_frequency(term) > 0

    def vocabulary(self) -> list[str]:
        if not self._removed:
            return sorted(self._postings)
        return sorted(t for t in self._postings if self.document_frequency(t))

    def _alive(self, plist: PostingList) -> np.ndarray:
        """Mask of ``plist``'s postings whose document is not removed."""
        return ~np.isin(plist.docs, np.fromiter(self._removed, dtype=np.int64))

    def postings(self, term: str) -> PostingList:
        live = self._postings.get(term, PostingList())
        # The common no-tombstone case shares the in-place list; with
        # tombstones a filtered copy keeps removed documents invisible.
        if self._removed and live:
            keep = self._alive(live)
            return PostingList.from_columns(live.docs[keep], live.tfs[keep])
        return live

    def document_frequency(self, term: str) -> int:
        live = self._postings.get(term)
        if live is None:
            return 0
        if not self._removed:
            return len(live)
        return int(np.count_nonzero(self._alive(live)))

    def doc_length(self, pos: int) -> int:
        return self._doc_lengths[pos]

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="dynamic", mutable=True, concurrent_reads=False
        )

    def and_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("AND query needs at least one term")
        lists = [self.postings(t) for t in term_list]
        if any(not pl for pl in lists):
            return []
        return intersect_all(lists).doc_ids()

    def or_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("OR query needs at least one term")
        return union_all([self.postings(t) for t in term_list]).doc_ids()
