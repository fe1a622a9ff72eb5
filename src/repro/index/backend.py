"""The storage seam of the retrieval layer: the ``IndexBackend`` protocol.

Every index implementation — the in-memory :class:`InvertedIndex` and
the SQLite-backed :class:`~repro.store.SQLiteIndexBackend` — speaks
this one protocol, and everything above the index (scorers, the
search engine, candidate-keyword statistics, the session builder, the
CLI) speaks *only* this protocol. Swapping storage is then a name in the
:data:`repro.api.registries.BACKENDS` registry, not a rewrite.

The protocol is deliberately small:

* collection statistics — ``num_documents``, ``num_terms``,
  ``doc_length(pos)``, ``document_frequency(term)``;
* the vocabulary — ``vocabulary()``, ``term in backend``;
* postings access — ``postings(term)`` returning a
  :class:`~repro.index.postings.PostingList` of (corpus position, tf);
* boolean retrieval — ``and_query(terms)`` / ``or_query(terms)``
  returning sorted corpus positions;
* the documents — ``corpus``, the
  :class:`~repro.data.corpus.Corpus` those positions index (a mutable
  backend's grows as it accepts documents);
* self-description — ``capabilities()`` returning a
  :class:`BackendCapabilities` record callers can branch on (is it
  persistent? does it accept new documents?).

Document identity is the integer corpus position throughout, exactly as
in the rest of the library.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.data.corpus import Corpus
from repro.index.postings import PostingList


@dataclass(frozen=True)
class BackendCapabilities:
    """What an index backend can and cannot do.

    Attributes
    ----------
    name:
        Short identifier, normally the backend's registry name.
    persistent:
        True when the postings survive process exit (e.g. a SQLite
        store file).
    mutable:
        True when documents can be appended after construction.

    Every backend serves reads from many threads without external
    locking; a mutable one commits each write atomically and bumps a
    ``generation`` counter that readers re-check.
    """

    name: str
    persistent: bool = False
    mutable: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form (for diagnostics and benchmark artifacts)."""
        return asdict(self)


@runtime_checkable
class IndexBackend(Protocol):
    """Anything that can serve postings and boolean queries over a corpus.

    See the module docstring for the contract. ``isinstance(x,
    IndexBackend)`` checks structural conformance (methods present, not
    signatures) — handy in tests and registry validation.
    """

    @property
    def num_documents(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def num_terms(self) -> int:  # pragma: no cover - protocol
        ...

    @property
    def corpus(self) -> Corpus:  # pragma: no cover - protocol
        ...

    def __contains__(self, term: object) -> bool:  # pragma: no cover
        ...

    def vocabulary(self) -> list[str]:  # pragma: no cover - protocol
        ...

    def postings(self, term: str) -> PostingList:  # pragma: no cover
        ...

    def document_frequency(self, term: str) -> int:  # pragma: no cover
        ...

    def doc_length(self, pos: int) -> int:  # pragma: no cover - protocol
        ...

    def and_query(self, terms: Iterable[str]) -> list[int]:  # pragma: no cover
        ...

    def or_query(self, terms: Iterable[str]) -> list[int]:  # pragma: no cover
        ...

    def capabilities(self) -> BackendCapabilities:  # pragma: no cover
        ...


#: ``impact(term, docs, tfs)``: one float64 score contribution per posting.
ImpactFn = Callable[[str, np.ndarray, np.ndarray], np.ndarray]


class TermFrequencyCache:
    """What a scorer derives from the backend, one generation at a time.

    Scorers rank term-at-a-time over each term's ``(docs, tfs)`` columns
    from :meth:`IndexBackend.postings`, which the in-memory index holds
    and the SQLite store memoizes. An entry points at a term's columns
    and, when the scorer passes ``impact``, holds its per-posting score
    contributions, computed once; there is at most one per vocabulary
    term. The cache also holds the document-length vector and the
    scorer's ``stats(backend)``.

    Mutation-aware: all of it is one backend ``generation``'s state,
    replaced whole when the generation moves, so a scorer built before
    a mutation ranks like a fresh one. A reader fills only the state of
    the generation it read before fetching. Unsynchronized — a racing
    double-fetch under threads stores identical values.
    """

    def __init__(
        self,
        backend: IndexBackend,
        impact: ImpactFn | None = None,
        stats: Callable[[IndexBackend], Any] | None = None,
    ) -> None:
        self._backend = backend
        self._impact = impact
        self._stats = stats
        self._state = SimpleNamespace(generation=object())  # equals no generation

    def _current(self) -> SimpleNamespace:
        generation = getattr(self._backend, "generation", None)
        state = self._state
        if state.generation != generation:
            state = self._state = SimpleNamespace(
                generation=generation, entries={}, lengths=None, stats=None
            )
        return state

    def stats(self) -> Any:
        """``stats(backend)`` of the current generation (``None`` without one)."""
        state = self._current()
        if state.stats is None and self._stats is not None:
            state.stats = self._stats(self._backend)
        return state.stats

    def entry(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(docs, tfs, impacts)`` for ``term`` (empty columns if unseen).

        ``impacts`` is ``None`` when the cache was built without ``impact``.
        """
        cache = self._current().entries
        hit = cache.get(term)
        if hit is None:
            plist = self._backend.postings(term)
            docs, tfs = plist.docs, plist.tfs
            impacts = None
            if self._impact is not None:
                impacts = self._impact(term, docs, tfs)
                impacts.flags.writeable = False
            hit = cache[term] = (docs, tfs, impacts)
        return hit

    def tf(self, term: str, pos: int) -> int:
        """Term frequency of ``term`` in the document at ``pos`` (0 if absent)."""
        docs, tfs, _ = self.entry(term)
        at = int(np.searchsorted(docs, pos))
        return int(tfs[at]) if at < len(docs) and docs[at] == pos else 0

    def doc_lengths(self, upto: int = 0) -> np.ndarray:
        """Read-only int64 lengths of (at least) positions ``0 .. upto - 1``.

        Fetched once per generation for every position the backend holds;
        fetched again if a caller needs a position past the vector (a
        document that landed between the generation check and the query).
        """
        state = self._current()
        lengths = state.lengths
        if lengths is None or len(lengths) < upto:
            backend = self._backend
            n = max(upto, backend.num_documents)
            lengths = np.array([backend.doc_length(p) for p in range(n)], dtype=np.int64)
            lengths.flags.writeable = False
            state.lengths = lengths
        return lengths


def collection_term_frequencies(backend: IndexBackend) -> dict[str, int]:
    """Total collection frequency per term, from postings alone.

    The bulk path for collection language models: one pass over every
    posting list.
    """
    return {
        term: int(backend.postings(term).tfs.sum())
        for term in backend.vocabulary()
    }
