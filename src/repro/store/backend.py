"""``SQLiteIndexBackend`` — the :class:`IndexBackend` face of the store.

The backend adapts a :class:`~repro.store.store.DocumentStore` to the
retrieval protocol every scorer and engine already speaks, and adds the
mutation surface the serving layer expects from a mutable backend
(:meth:`add` / :meth:`add_all` / :meth:`remove` / ``generation``),
writing through to the store so every committed document survives a
restart. Cache owners pull ``generation``: it moves only when a
committed batch's state is published, and nothing is pushed to them.

The backend *adopts* the engine's :class:`~repro.data.corpus.Corpus`:
it shares the object rather than copying it, and every committed upsert
appends to (or replaces in) that corpus, so documents upserted after
construction are immediately retrievable through the engine.
Construction has three modes:

* no corpus — the corpus is loaded *from* the store (the restart path);
* a corpus and an empty store — the corpus is bulk-loaded into the
  store (the first-boot path, one transaction);
* a corpus and a populated store — the two are verified to describe the
  same documents (position-aligned ``doc_id`` and length), and a
  mismatch raises instead of silently serving other data.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.errors import IndexingError, StoreError
from repro.index.backend import BackendCapabilities
from repro.index.postings import PostingList, intersect_all, union_all
from repro.store.store import DocumentStore


class SQLiteIndexBackend:
    """Persistent, mutable, concurrently readable index over a store.

    Parameters
    ----------
    store:
        An open :class:`DocumentStore` or a path to one.
    corpus:
        The corpus to align with (see module docstring); ``None`` loads
        it from the store.
    """

    def __init__(
        self,
        store: DocumentStore | str | Path,
        corpus: Corpus | None = None,
    ) -> None:
        if not isinstance(store, DocumentStore):
            store = DocumentStore(store)
        self._store = store
        if corpus is None:
            corpus = store.corpus()
        elif len(store) == 0:
            if len(corpus):
                store.upsert_all(list(corpus))
        else:
            self._verify_alignment(store, corpus)
        self._corpus = corpus

    @staticmethod
    def _verify_alignment(store: DocumentStore, corpus: Corpus) -> None:
        if len(store) != len(corpus):
            raise IndexingError(
                f"store at {store.path} holds {len(store)} positions but the "
                f"corpus has {len(corpus)} documents; they must describe the "
                f"same data (delete the store file to rebuild)"
            )
        for pos, doc in enumerate(corpus):
            try:
                aligned = store.position(doc.doc_id) == pos
            except StoreError:
                aligned = False
            if not aligned or store.doc_length(pos) != doc.length():
                raise IndexingError(
                    f"store at {store.path} disagrees with the corpus at "
                    f"position {pos} ({doc.doc_id!r}); delete the store "
                    f"file to rebuild"
                )

    # -- store plumbing ------------------------------------------------------

    @property
    def store(self) -> DocumentStore:
        return self._store

    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def generation(self) -> int:
        """The store's monotonic change counter (cache-invalidation key)."""
        return self._store.generation

    # -- mutation (write-through) --------------------------------------------

    def add(self, doc: Document) -> int:
        """Upsert one document durably; returns its permanent position."""
        positions = self.add_all([doc])
        return positions[0]

    def add_all(
        self,
        documents: Iterable[Document],
        guard: Callable[[DocumentStore, list[Document]], None] | None = None,
    ) -> list[int]:
        """Upsert a batch durably (one transaction, one generation).

        New ``doc_id`` values append to the adopted corpus; known ones
        are rewritten in place (corpus entry replaced), so engine
        lookups at any returned position always see the stored payload.
        The corpus sync runs in the store's ``on_committed`` hook —
        under the write lock, in commit order, before the generation is
        published — so concurrent ingests cannot interleave corpus
        appends out of store-position order, and every reader of the new
        generation observes a consistent (store, corpus) pair.

        ``guard`` is forwarded to :meth:`DocumentStore.upsert_all` and
        runs under the write lock before the transaction begins — the
        tenancy layer's transactional quota hook.
        """
        docs = list(documents)
        if not docs:
            return []

        def sync_corpus(_positions: list[int]) -> None:
            for doc in docs:
                if doc.doc_id in self._corpus:
                    self._corpus.replace(doc)
                else:
                    self._corpus.add(doc)

        return self._store.upsert_all(docs, on_committed=sync_corpus, guard=guard)

    def remove(self, target: str | int) -> int:
        """Tombstone a document (by ``doc_id`` or integer position).

        Queries stop matching it immediately; the corpus keeps the
        document (positions are permanent) and the postings stay until
        :meth:`DocumentStore.compact` physically drops them.
        """
        if isinstance(target, int):
            target = self._corpus[target].doc_id
        return self._store.delete(target)

    # -- IndexBackend protocol -----------------------------------------------

    @property
    def num_documents(self) -> int:
        """Total allocated positions (tombstones included), = corpus length."""
        return len(self._store)

    @property
    def num_live_documents(self) -> int:
        return self._store.num_live

    @property
    def num_terms(self) -> int:
        return self._store.num_terms()

    def __contains__(self, term: object) -> bool:
        return isinstance(term, str) and self._store.document_frequency(term) > 0

    def vocabulary(self) -> list[str]:
        return self._store.vocabulary()

    def postings(self, term: str) -> PostingList:
        rows = self._store.term_postings(term)
        return PostingList.from_columns(
            [pos for pos, _ in rows], [tf for _, tf in rows]
        )

    def document_frequency(self, term: str) -> int:
        return self._store.document_frequency(term)

    def doc_length(self, pos: int) -> int:
        return self._store.doc_length(pos)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(name="sqlite", persistent=True, mutable=True)

    def _visible(self, positions: list[int]) -> list[int]:
        """Drop positions the adopted corpus cannot resolve yet.

        A lock-free reader can observe a committed batch's postings in
        the instant before :meth:`add_all`'s corpus sync runs; such
        positions become visible on the very next query instead of
        crashing result materialization.
        """
        bound = len(self._corpus)
        if positions and positions[-1] >= bound:
            return [pos for pos in positions if pos < bound]
        return positions

    def and_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("AND query needs at least one term")
        lists = [self.postings(t) for t in term_list]
        if any(not pl for pl in lists):
            return []
        return self._visible(intersect_all(lists).doc_ids())

    def or_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("OR query needs at least one term")
        return self._visible(
            union_all([self.postings(t) for t in term_list]).doc_ids()
        )

    def close(self) -> None:
        self._store.close()
