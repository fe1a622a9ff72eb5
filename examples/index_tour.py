#!/usr/bin/env python
"""Tour of the retrieval substrate: boolean queries, phrases, storage backends.

The expansion algorithms sit on a from-scratch search engine. This example
exercises its deeper layers directly:

1. the boolean query language (AND/OR/NOT, parentheses, phrases);
2. the positional index behind phrase and proximity queries;
3. the IndexBackend protocol: memory and SQLite storage answering the
   same queries identically, selected by registry name;
4. the durable SQLite document store: the same queries, persisted —
   a reopen recovers the committed index without the raw documents.

Run:  python examples/index_tour.py
"""

import tempfile
from pathlib import Path

from repro import Analyzer, build_wikipedia_corpus
from repro.index.inverted_index import InvertedIndex
from repro.index.positional import PositionalIndex
from repro.index.queryparser import evaluate_query


def build_sentence_corpus(sentences, analyzer):
    from repro.data.corpus import Corpus
    from repro.data.documents import make_text_document

    return Corpus(
        make_text_document(f"s{i}", text, analyzer=analyzer)
        for i, text in enumerate(sentences)
    )


def main() -> None:
    analyzer = Analyzer(use_stemming=False)
    corpus = build_wikipedia_corpus(
        seed=0, docs_per_sense=10, terms=["java", "rockets"], analyzer=analyzer
    )
    index = InvertedIndex(corpus)
    print(f"corpus: {len(corpus)} documents, {index.num_terms} terms")

    # 1. Boolean query language -------------------------------------------
    for query in (
        "java AND island",
        "java (compiler OR syntax) NOT island",
        "java NOT (compiler OR syntax)",
    ):
        matches = evaluate_query(query, index)
        print(f"  {query!r:45s} -> {len(matches)} documents")

    # 2. Positional index: phrases and proximity ---------------------------
    # Positions come from token order, so phrase search needs real text;
    # a handful of sentences stand in for a positional corpus.
    sentences = [
        "san jose is a city in northern california",
        "the sharks play hockey in san jose",
        "jose moved from san diego to san jose",
        "san francisco is north of san jose",
    ]
    sentence_index = InvertedIndex(
        build_sentence_corpus(sentences, analyzer)
    )
    positional = PositionalIndex([s.split() for s in sentences])
    phrase = evaluate_query(
        '"san jose"', sentence_index, positional=positional
    )
    near = positional.within_query(["san", "diego"], slop=0)
    print(f"  phrase \"san jose\" -> documents {phrase}")
    print(f"  phrase \"san diego\" -> documents {near}")

    # 3. Pluggable storage: the IndexBackend protocol -----------------------
    # Every backend in the BACKENDS registry answers identically; they
    # differ only in storage traits, visible through capabilities().
    from repro.api import BACKENDS
    from repro.store import DocumentStore, SQLiteIndexBackend

    query = ["java", "island"]
    reference = index.or_query(query)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "wiki.sqlite"
        for name, kwargs in (("memory", {}), ("sqlite", {"path": store_path})):
            backend = BACKENDS.create(name, corpus, **kwargs)
            answer = backend.or_query(query)
            traits = ", ".join(
                k for k, v in backend.capabilities().to_dict().items() if v is True
            ) or "in-memory"
            print(
                f"  backend {name!r:10s} -> {len(answer)} matches "
                f"(consistent: {answer == reference}; {traits})"
            )
            closer = getattr(backend, "close", None)
            if closer is not None:
                closer()

        # 4. Durable storage: the SQLite document store ---------------------
        # The "sqlite" backend persists corpus + postings in one WAL-mode
        # file: reopening it recovers the exact committed state without
        # touching the raw documents (see examples/durable_store.py for
        # the full mutate/compact/snapshot lifecycle).
        reopened = SQLiteIndexBackend(DocumentStore(store_path))
        print(
            f"  reopened 'sqlite'  -> reload consistent: "
            f"{reopened.or_query(query) == reference}; "
            f"generation {reopened.generation}"
        )
        reopened.close()


if __name__ == "__main__":
    main()
