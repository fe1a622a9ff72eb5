"""Search substrate: inverted index, boolean retrieval, TF-IDF ranking.

This is the retrieval engine behind ``R(q)`` in the paper: a result of a
query is the document (or structured fragment) containing all query keywords
(AND semantics, §2); OR semantics is supported per the paper's appendix.
Seed-query results are ranked by TF-IDF cosine score, which supplies the
ranking weights used by the weighted precision/recall of §2.

Storage is pluggable behind the :class:`IndexBackend` protocol: the flat
in-memory :class:`InvertedIndex` (``"memory"``) and the durable,
mutable SQLite index (``"sqlite"``, :mod:`repro.store`) are
interchangeable, selected by name through
:data:`repro.api.registries.BACKENDS`.
"""

from repro.index.backend import (
    BackendCapabilities,
    IndexBackend,
    TermFrequencyCache,
    collection_term_frequencies,
)
from repro.index.bm25 import BM25Scorer
from repro.index.inverted_index import InvertedIndex
from repro.index.lm import LMDirichletScorer
from repro.index.positional import PositionalIndex
from repro.index.postings import Posting, PostingList
from repro.index.queryparser import evaluate_query, parse_query
from repro.index.scoring import TfIdfScorer
from repro.index.search import SearchEngine, SearchResult

__all__ = [
    "BM25Scorer",
    "BackendCapabilities",
    "IndexBackend",
    "InvertedIndex",
    "LMDirichletScorer",
    "PositionalIndex",
    "Posting",
    "PostingList",
    "SearchEngine",
    "SearchResult",
    "TermFrequencyCache",
    "TfIdfScorer",
    "collection_term_frequencies",
    "evaluate_query",
    "parse_query",
]
