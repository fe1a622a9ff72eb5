"""Inverted index over a corpus."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.data.corpus import Corpus
from repro.index.backend import BackendCapabilities
from repro.index.postings import PostingList, boolean_query


class InvertedIndex:
    """Term → posting-list map built from a :class:`~repro.data.Corpus`.

    Documents are addressed by corpus position. The index is built once from
    the corpus and is read-only afterwards.
    """

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus
        self._doc_lengths: list[int] = []
        docs: defaultdict[str, list[int]] = defaultdict(list)
        tfs: defaultdict[str, list[int]] = defaultdict(list)
        for pos, doc in enumerate(corpus):
            self._doc_lengths.append(doc.length())
            for term, tf in doc.terms.items():
                docs[term].append(pos)
                tfs[term].append(tf)
        self._postings: dict[str, PostingList] = {
            term: PostingList.from_columns(ids, tfs[term]) for term, ids in docs.items()
        }

    # -- introspection ---------------------------------------------------

    @property
    def corpus(self) -> Corpus:
        return self._corpus

    @property
    def num_documents(self) -> int:
        return len(self._corpus)

    @property
    def num_terms(self) -> int:
        return len(self._postings)

    def __contains__(self, term: object) -> bool:
        return term in self._postings

    def vocabulary(self) -> list[str]:
        """All indexed terms, sorted."""
        return sorted(self._postings)

    def postings(self, term: str) -> PostingList:
        """The posting list for ``term`` (empty list if unseen)."""
        return self._postings.get(term, PostingList())

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))  # type: ignore[arg-type]

    def doc_length(self, pos: int) -> int:
        return self._doc_lengths[pos]

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(name="memory")

    # -- boolean retrieval -------------------------------------------------

    def and_query(self, terms: Iterable[str]) -> list[int]:
        """Corpus positions of documents containing *all* ``terms``."""
        return boolean_query(self.postings, terms, conjunctive=True)

    def or_query(self, terms: Iterable[str]) -> list[int]:
        """Corpus positions of documents containing *any* of ``terms``."""
        return boolean_query(self.postings, terms, conjunctive=False)
