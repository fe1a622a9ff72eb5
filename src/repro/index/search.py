"""Search engine facade: parse query, retrieve, rank, truncate to top-k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.errors import QueryError
from repro.index.backend import IndexBackend
from repro.index.scoring import TfIdfScorer
from repro.text.analyzer import Analyzer

AND = "and"
OR = "or"


@dataclass(frozen=True)
class SearchResult:
    """One ranked result: the document, its corpus position, and its score."""

    position: int
    document: Document
    score: float

    def to_dict(self) -> dict:
        """JSON-ready form (see repro.api.schema for the schema contract)."""
        from repro.api import schema

        return schema.search_result_to_dict(self)

    @classmethod
    def from_dict(cls, payload) -> "SearchResult":
        """Inverse of :meth:`to_dict`."""
        from repro.api import schema

        return schema.search_result_from_dict(payload)


class SearchEngine:
    """Keyword search over a corpus with AND (default) or OR semantics.

    This is the substrate that evaluates both the user's seed query and every
    candidate expanded query. Expanded-query evaluation inside the expansion
    algorithms themselves uses the vectorized
    :class:`~repro.core.universe.ResultUniverse` instead, restricted to the
    seed query's results — matching the paper, where expanded queries
    classify the *original* result set.

    Storage is pluggable: ``backend`` selects the index implementation by
    name from :data:`repro.api.registries.BACKENDS` (``"memory"``,
    ``"sqlite"``, or anything a plugin registers), or may be
    a ``factory(corpus) -> IndexBackend`` closure, or an already-built
    backend instance. The engine — and everything above it — only ever
    talks to the :class:`~repro.index.backend.IndexBackend` protocol, and
    resolves result positions in the backend's :attr:`corpus` as it
    stands after the query, so documents a mutable backend gained since
    construction resolve too.
    """

    def __init__(
        self,
        corpus: Corpus,
        analyzer: Analyzer | None = None,
        scoring: str | Callable = "tfidf",
        backend: str | Callable | IndexBackend = "memory",
    ) -> None:
        self._analyzer = analyzer or Analyzer()
        self._index = self._resolve_backend(backend, corpus)
        self._scorer = self._build_scorer(scoring)

    def _build_scorer(self, scoring: str | Callable):
        if callable(scoring):
            # A factory (index) -> scorer, e.g. a registry closure with
            # extra scorer options bound in.
            return scoring(self._index)
        # Resolve by name through the scorer registry so third-party
        # scorers registered on repro.api.SCORERS work everywhere.
        # Imported lazily: repro.api itself builds SearchEngines.
        from repro.api.registries import SCORERS
        from repro.errors import RegistryError

        try:
            return SCORERS.create(scoring, self._index)
        except RegistryError:
            raise QueryError(
                f"unknown scoring {scoring!r}; "
                f"registered scorers: {', '.join(SCORERS.names())}"
            ) from None

    @staticmethod
    def _resolve_backend(
        backend: str | Callable | IndexBackend, corpus: Corpus
    ) -> IndexBackend:
        """Name → registry lookup; callable → factory; instance → as-is."""
        if isinstance(backend, str):
            # Imported lazily: repro.api itself builds SearchEngines.
            from repro.api.registries import BACKENDS
            from repro.errors import RegistryError

            try:
                return BACKENDS.create(backend, corpus)
            except RegistryError:
                raise QueryError(
                    f"unknown backend {backend!r}; "
                    f"registered backends: {', '.join(BACKENDS.names())}"
                ) from None
        # A class (e.g. InvertedIndex itself) or any other callable is a
        # factory; only a ready instance skips construction.
        if isinstance(backend, type) or not isinstance(backend, IndexBackend):
            if not callable(backend):
                raise QueryError(
                    f"backend must be a registry name, a factory, or an "
                    f"IndexBackend; got {backend!r}"
                )
            backend = backend(corpus)
        if backend.num_documents != len(corpus):
            raise QueryError(
                f"backend indexes {backend.num_documents} documents but the "
                f"corpus has {len(corpus)}; they must describe the same data"
            )
        return backend

    @property
    def corpus(self) -> Corpus:
        return self._index.corpus

    @property
    def index(self) -> IndexBackend:
        return self._index

    @property
    def analyzer(self) -> Analyzer:
        return self._analyzer

    @property
    def scorer(self) -> TfIdfScorer:
        return self._scorer

    def parse(self, query: str) -> list[str]:
        """Normalize a raw query string into distinct query terms."""
        terms = self._analyzer.keep_distinct(self._analyzer.analyze_query(query))
        if not terms:
            raise QueryError(f"query {query!r} normalized to zero terms")
        return terms

    def search(
        self,
        query: str,
        top_k: int | None = None,
        semantics: str = AND,
    ) -> list[SearchResult]:
        """Run ``query`` and return ranked results.

        Parameters
        ----------
        query:
            Raw keyword query; terms may include feature triplets.
        top_k:
            Keep only the ``top_k`` highest-scored results (None = all).
            The paper uses top-30 on Wikipedia data (§C).
        semantics:
            ``"and"`` (paper default) or ``"or"`` (paper appendix).
        """
        terms = self.parse(query)
        return self.search_terms(terms, top_k=top_k, semantics=semantics)

    def boolean_search(
        self,
        query: str,
        top_k: int | None = None,
    ) -> list[SearchResult]:
        """Evaluate a boolean-language query (AND/OR/NOT, parens, triplets).

        Matching documents are ranked by the engine's scorer against the
        query's *positive* words (every word outside a NOT); documents
        matching only via negations get score 0 but are still returned.
        Phrases are not supported here — the engine has no positional
        index; use :class:`~repro.index.positional.PositionalIndex` with
        :func:`~repro.index.queryparser.evaluate_query` directly for those.
        """
        from repro.index.queryparser import evaluate_query, parse_query
        from repro.index.queryparser import NotNode, PhraseNode, TermNode

        def normalize(word: str) -> str | None:
            terms = self._analyzer.analyze_query(word)
            return terms[0] if terms else None

        node = parse_query(query)
        positions = evaluate_query(
            query, self._index, normalize=normalize
        )

        def positive_words(n, negated: bool) -> list[str]:
            if isinstance(n, TermNode):
                return [] if negated else [n.term]
            if isinstance(n, PhraseNode):
                raise QueryError(
                    "phrase queries need a positional index; "
                    "use evaluate_query() with one"
                )
            if isinstance(n, NotNode):
                return positive_words(n.child, not negated)
            out: list[str] = []
            for child in n.children:
                out.extend(positive_words(child, negated))
            return out

        words = []
        for word in positive_words(node, False):
            term = normalize(word)
            if term and term not in words:
                words.append(term)
        return self._results(self._scorer.rank(positions, words, top_k))

    def search_terms(
        self,
        terms: list[str],
        top_k: int | None = None,
        semantics: str = AND,
    ) -> list[SearchResult]:
        """Like :meth:`search` but with pre-normalized terms."""
        if semantics == AND:
            positions = self._index.and_query(terms)
        elif semantics == OR:
            positions = self._index.or_query(terms)
        else:
            raise QueryError(f"unknown semantics: {semantics!r}")
        return self._results(self._scorer.rank(positions, terms, top_k))

    def _results(self, ranked: list[tuple[int, float]]) -> list[SearchResult]:
        """Resolve ranked positions in the corpus read after the query.

        Read once, after retrieval: a mutable backend's corpus only grows,
        so it holds every position the query returned.
        """
        corpus = self._index.corpus
        return [
            SearchResult(position=pos, document=corpus[pos], score=score)
            for pos, score in ranked
        ]
