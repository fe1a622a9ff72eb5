"""``SQLiteIndexBackend`` — the :class:`IndexBackend` face of the store.

The backend adapts a :class:`~repro.store.store.DocumentStore` to the
retrieval protocol every scorer and engine already speaks, and adds the
mutation surface the serving layer expects from a mutable backend
(:meth:`add` / :meth:`add_all` / :meth:`remove` / ``generation``),
writing through to the store so every committed document survives a
restart. Cache owners pull ``generation``: it moves only when a
committed batch's state is published, and nothing is pushed to them.

The backend keeps no documents of its own: :attr:`corpus` is the
store's published :class:`~repro.data.corpus.Corpus`, which every
committed batch replaces together with the postings, so a document is
retrievable through every backend and engine on the store handle as
soon as its batch is published — whoever wrote it, including another
process whose write :meth:`DocumentStore.refresh` picked up.
Construction has three modes:

* no corpus — the store's documents are served as they are (the
  restart path);
* a corpus and an empty store — the corpus is bulk-loaded into the
  store (the first-boot path, one transaction);
* a corpus and a populated store — the two are verified to describe the
  same documents (position-aligned ``doc_id`` and length), and a
  mismatch raises instead of silently serving other data (the store's
  own :meth:`~DocumentStore.corpus` needs no check).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.errors import IndexingError, StoreError
from repro.index.backend import BackendCapabilities
from repro.index.postings import PostingList, boolean_query
from repro.store.store import DocumentStore


class SQLiteIndexBackend:
    """Persistent, mutable, concurrently readable index over a store.

    Parameters
    ----------
    store:
        An open :class:`DocumentStore` or a path to one.
    corpus:
        The corpus to load into an empty store or verify against a
        populated one (see module docstring); ``None`` skips both.
    """

    def __init__(
        self,
        store: DocumentStore | str | Path,
        corpus: Corpus | None = None,
    ) -> None:
        if not isinstance(store, DocumentStore):
            store = DocumentStore(store)
        self._store = store
        if corpus is not None and corpus is not store.corpus():
            if len(store):
                self._verify_alignment(store, corpus)
            else:
                store.upsert_all(corpus)

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
        """The store's published documents, in position order."""
        return self._store.corpus()

    @property
    def generation(self) -> int:
        """The store's monotonic change counter (cache-invalidation key)."""
        return self._store.generation

    # -- mutation (write-through) --------------------------------------------

    def add(self, doc: Document) -> int:
        """Upsert one document durably; returns its permanent position."""
        return self.add_all([doc])[0]

    def add_all(
        self,
        documents: Iterable[Document],
        guard: Callable[[DocumentStore, list[Document]], None] | None = None,
    ) -> list[int]:
        """Upsert a batch durably (one transaction, one generation).

        New ``doc_id`` values append at the next position; known ones
        are rewritten in place, and :attr:`corpus` shows the stored
        payload from the publish of the batch on.

        ``guard`` is forwarded to :meth:`DocumentStore.upsert_all` and
        runs under the write lock before the transaction begins — the
        tenancy layer's transactional quota hook.
        """
        return self._store.upsert_all(documents, guard=guard)

    def remove(self, target: str | int) -> int:
        """Tombstone a document (by ``doc_id`` or integer position).

        Queries stop matching it immediately; the corpus keeps the
        document (positions are permanent) and the postings stay until
        :meth:`DocumentStore.compact` physically drops them.
        """
        if isinstance(target, int):
            target = self.corpus[target].doc_id
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
        return self._store.term_postings(term)

    def document_frequency(self, term: str) -> int:
        return self._store.document_frequency(term)

    def doc_length(self, pos: int) -> int:
        return self._store.doc_length(pos)

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(name="sqlite", persistent=True, mutable=True)

    def and_query(self, terms: Iterable[str]) -> list[int]:
        return boolean_query(self.postings, terms, conjunctive=True)

    def or_query(self, terms: Iterable[str]) -> list[int]:
        return boolean_query(self.postings, terms, conjunctive=False)

    def close(self) -> None:
        self._store.close()
