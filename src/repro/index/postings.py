"""Posting lists: sorted (doc, tf) columns with merge operations.

A :class:`PostingList` stores its postings as two read-only int64
columns, ``docs`` (strictly increasing corpus positions) and ``tfs``.
Merges and the scorers work on the columns directly; a
:class:`Posting` object is built only when a caller iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import IndexingError


@dataclass(frozen=True, order=True)
class Posting:
    """One occurrence record: document position and term frequency."""

    doc: int
    tf: int


def _column(values) -> np.ndarray:
    out = np.array(values, dtype=np.int64)
    out.flags.writeable = False
    return out


_EMPTY = _column([])


class PostingList:
    """A sorted-by-doc list of postings supporting boolean merges.

    Doc ids are integer corpus positions, strictly increasing; a list is
    immutable once built, so any number of threads may read it.
    """

    __slots__ = ("_docs", "_tfs")

    def __init__(self, postings: Iterable[Posting] = ()) -> None:
        self._docs = self._tfs = _EMPTY
        postings = list(postings)
        if postings:
            built = self.from_columns(
                [p.doc for p in postings], [p.tf for p in postings]
            )
            self._docs, self._tfs = built._docs, built._tfs

    @classmethod
    def from_columns(cls, docs, tfs) -> "PostingList":
        """A list over ready columns; ``docs`` must be strictly increasing."""
        out = cls()
        out._docs = _column(docs)
        out._tfs = _column(tfs)
        if out._docs.shape != out._tfs.shape or out._docs.ndim != 1:
            raise ValueError("docs and tfs must be 1-d columns of one length")
        if np.any(out._docs[1:] <= out._docs[:-1]):
            raise ValueError("postings out of order")
        return out

    @classmethod
    def _trusted(cls, docs: np.ndarray, tfs: np.ndarray) -> "PostingList":
        out = cls()
        docs.flags.writeable = False
        tfs.flags.writeable = False
        out._docs, out._tfs = docs, tfs
        return out

    @property
    def docs(self) -> np.ndarray:
        """Read-only int64 column of corpus positions, strictly increasing."""
        return self._docs

    @property
    def tfs(self) -> np.ndarray:
        """Read-only int64 column of term frequencies, aligned with :attr:`docs`."""
        return self._tfs

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Posting]:
        return map(Posting, self.docs.tolist(), self.tfs.tolist())

    def __bool__(self) -> bool:
        return len(self) > 0

    def doc_ids(self) -> list[int]:
        return self.docs.tolist()

    def document_frequency(self) -> int:
        return len(self)

    def intersect(self, other: "PostingList") -> "PostingList":
        """Documents present in both lists (tf taken from ``self``)."""
        keep = _members(self.docs, other.docs)
        return PostingList._trusted(self.docs[keep], self.tfs[keep])

    def intersect_skip(self, other: "PostingList") -> "PostingList":
        """Same result as :meth:`intersect` (tf taken from ``self``).

        The name survives from the skip-pointer merge; the columnar
        :meth:`intersect` already binary-searches ``other`` for each of
        ``self``'s documents, which is what skip pointers approximate.
        """
        return self.intersect(other)

    def union(self, other: "PostingList") -> "PostingList":
        """Documents present in either list (tf summed when in both)."""
        return union_all([self, other])


def _members(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Mask of ``needles`` present in the sorted ``haystack`` (binary search)."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    at = np.searchsorted(haystack, needles)
    np.minimum(at, len(haystack) - 1, out=at)
    return haystack[at] == needles


def intersect_all(lists: list[PostingList]) -> PostingList:
    """Intersect posting lists, shortest-first (tf from the shortest list).

    One pass: the shortest list's documents are binary-searched in each
    longer list in turn, shrinking after every list. An empty input list
    yields an empty posting list (the caller decides what an empty query
    means).
    """
    if not lists:
        return PostingList()
    ordered = sorted(lists, key=len)
    docs, tfs = ordered[0].docs, ordered[0].tfs
    for plist in ordered[1:]:
        if not len(docs):
            break
        keep = _members(docs, plist.docs)
        docs, tfs = docs[keep], tfs[keep]
    return PostingList._trusted(docs, tfs)


def union_all(lists: list[PostingList]) -> PostingList:
    """Union posting lists in one mask pass (tf summed across lists).

    Doc ids are corpus positions, so a dense mask over ``0..max doc``
    is at most the corpus size.
    """
    nonempty = [plist for plist in lists if plist]
    if not nonempty:
        return PostingList()
    if len(nonempty) == 1:
        return nonempty[0]
    size = max(int(plist.docs[-1]) for plist in nonempty) + 1
    seen = np.zeros(size, dtype=bool)
    tf = np.zeros(size, dtype=np.int64)
    for plist in nonempty:
        seen[plist.docs] = True
        tf[plist.docs] += plist.tfs
    docs = np.flatnonzero(seen)
    return PostingList._trusted(docs, tf[docs])


def boolean_query(
    postings: Callable[[str], PostingList], terms: Iterable[str], conjunctive: bool
) -> list[int]:
    """Sorted positions matching all (``conjunctive``) or any of ``terms``.

    Every backend's ``and_query``/``or_query``. An empty query is an
    error: the paper's queries always contain the seed keywords.
    """
    lists = [postings(term) for term in terms]
    if not lists:
        raise IndexingError(
            f"{'AND' if conjunctive else 'OR'} query needs at least one term"
        )
    merged = intersect_all(lists) if conjunctive else union_all(lists)
    return merged.doc_ids()
