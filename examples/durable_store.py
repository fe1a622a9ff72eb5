#!/usr/bin/env python
"""The durable store lifecycle: ingest, mutate, compact, snapshot, restart.

Everything before repro.store lived in process memory: a restart meant
rebuilding the index from raw documents and losing anything ingested
since startup. This example walks the persistence subsystem end to end:

1. seed a store from a dataset through the session builder;
2. serve queries from it (the "sqlite" backend speaks the same
   IndexBackend protocol as the in-memory one);
3. mutate it — upsert new documents, rewrite one in place, tombstone
   another — and watch the generation counter advance;
4. compact (drop tombstoned postings, VACUUM) and snapshot (a
   consistent copy via the SQLite backup API);
5. "restart": reopen the file in a fresh session and get identical
   answers, including the mutations — no raw documents needed.

Run:  python examples/durable_store.py
"""

import tempfile
from pathlib import Path

from repro import Session
from repro.data.documents import make_text_document
from repro.store import DocumentStore, SQLiteIndexBackend
from repro.text.analyzer import Analyzer


def main() -> None:
    tmp = Path(tempfile.mkdtemp(prefix="durable-store-"))
    store_path = tmp / "corpus.sqlite"
    analyzer = Analyzer(use_stemming=False)

    # 1. Seed the store from a dataset through the session builder.
    #    The first build bulk-loads the corpus into the file; every
    #    later build verifies and reuses it.
    session = (
        Session.builder()
        .dataset("wikipedia", docs_per_sense=10, terms=["java", "rockets"])
        .backend("sqlite", path=store_path)
        .analyzer(analyzer)
        .build()
    )
    store: DocumentStore = session.engine.index.store
    print(f"seeded {store.num_live} documents into {store_path.name}")
    print(f"  stats: {store.stats()['postings']} postings, "
          f"{store.stats()['terms']} terms, generation {store.generation}")

    # 2. Query it like any other backend.
    report = session.expand("java")
    print(f"\nexpand 'java': {report.n_clusters} clusters, "
          f"score {report.score:.3f}")

    # 3. Mutate: upsert fresh documents, rewrite one, tombstone one.
    backend: SQLiteIndexBackend = session.engine.index
    backend.add_all([
        make_text_document(
            "espresso-1", "java espresso brewing temperature guide",
            analyzer=analyzer,
        ),
        make_text_document(
            "espresso-2", "espresso crema and java roast profiles",
            analyzer=analyzer,
        ),
    ])
    rewritten_id = backend.corpus[0].doc_id
    backend.add(make_text_document(
        rewritten_id, "rewritten in place at the same position",
        analyzer=analyzer,
    ))
    backend.remove(backend.corpus[1].doc_id)
    # The session needs no call here: its caches and its scorer's
    # statistics key on the store generation, which each write moved.
    print(f"\nafter mutations: generation {store.generation}, "
          f"{store.num_live} live, {len(store) - store.num_live} tombstoned")
    hits = session.search("espresso")
    print(f"  search 'espresso' -> {[r.document.doc_id for r in hits]}")

    # 4. Compact and snapshot.
    dropped = store.compact()
    snap = store.snapshot(tmp / "backup.sqlite")
    print(f"\ncompacted: {dropped['postings_dropped']} postings dropped; "
          f"snapshot at {snap.name}")

    # 5. Restart: a brand-new session over the same file. The corpus
    #    comes out of the store — mutations included, dataset untouched.
    store.close()
    reopened = DocumentStore(store_path)
    restarted = (
        Session.builder()
        .corpus(reopened.corpus())
        .backend("sqlite", store=reopened)
        .analyzer(analyzer)
        .build()
    )
    hits_after = restarted.search("espresso")
    print(f"\nafter restart: search 'espresso' -> "
          f"{[r.document.doc_id for r in hits_after]}")
    same = [r.document.doc_id for r in hits] == [
        r.document.doc_id for r in hits_after
    ]
    print(f"identical to pre-restart answers: {same}")
    assert same

    # The serving layer does the same wiring from a config spec:
    #   repro serve --configs wiki:dataset=wikipedia,store=corpus.sqlite
    # POST /ingest writes through to the store, so restarts lose nothing.


if __name__ == "__main__":
    main()
