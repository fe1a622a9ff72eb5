"""Corpus: an ordered, id-addressable collection of documents."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.data.documents import Document
from repro.errors import DataError


class Corpus:
    """An ordered collection of :class:`Document`.

    Documents keep their insertion order (document position doubles as the
    integer id used by the index and the clustering layer). Duplicate
    ``doc_id`` values are rejected. A corpus that an index or a store has
    published is never changed: :meth:`add` and :meth:`replace` are for
    building one, or for the private :meth:`copy` a store writer stages.
    """

    def __init__(self, documents: Iterable[Document] = ()) -> None:
        self._docs: list[Document] = []
        self._by_id: dict[str, int] = {}
        for doc in documents:
            self.add(doc)

    def add(self, doc: Document) -> int:
        """Append ``doc``; return its integer position."""
        if doc.doc_id in self._by_id:
            raise DataError(f"duplicate doc_id: {doc.doc_id!r}")
        pos = len(self._docs)
        self._docs.append(doc)
        self._by_id[doc.doc_id] = pos
        return pos

    def replace(self, doc: Document) -> int:
        """Swap the document stored under ``doc.doc_id``; return its position.

        The position is unchanged — document identity is the integer
        position everywhere in the library, and the durable store
        (:mod:`repro.store`) keeps ``doc_id -> position`` stable across
        upserts, so its corpus must too. Unknown ids raise.
        """
        try:
            pos = self._by_id[doc.doc_id]
        except KeyError:
            raise DataError(f"unknown doc_id: {doc.doc_id!r}") from None
        self._docs[pos] = doc
        return pos

    def copy(self) -> "Corpus":
        """A shallow copy (the list and the id map; documents are shared)."""
        other = Corpus()
        other._docs = self._docs.copy()
        other._by_id = self._by_id.copy()
        return other

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs)

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._by_id

    def __getitem__(self, pos: int) -> Document:
        return self._docs[pos]

    def get(self, doc_id: str) -> Document:
        """Return the document with the given string id."""
        try:
            return self._docs[self._by_id[doc_id]]
        except KeyError:
            raise DataError(f"unknown doc_id: {doc_id!r}") from None

    def position(self, doc_id: str) -> int:
        """Return the integer position of ``doc_id``."""
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise DataError(f"unknown doc_id: {doc_id!r}") from None

    def doc_ids(self) -> list[str]:
        """All document ids in insertion order."""
        return [d.doc_id for d in self._docs]

    def vocabulary(self) -> set[str]:
        """The union of all documents' distinct terms."""
        vocab: set[str] = set()
        for doc in self._docs:
            vocab.update(doc.terms)
        return vocab

    def subset(self, doc_ids: Iterable[str]) -> "Corpus":
        """A new corpus containing the given documents, in corpus order."""
        wanted = set(doc_ids)
        missing = wanted - self._by_id.keys()
        if missing:
            raise DataError(f"unknown doc_ids: {sorted(missing)!r}")
        return Corpus(d for d in self._docs if d.doc_id in wanted)
