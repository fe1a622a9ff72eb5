"""The store generation alone keeps every reader's view current.

The store publishes one state per committed batch, after its
transaction commits; every session and response cache keys on the
generation it read before computing, and each scorer's collection
statistics (N, the average length, the collection model) are
per-generation state of its term cache. So after any committed
mutation, a session built before it answers exactly like a fresh
session built over the mutated store, and a batch that rolls back
leaves nothing behind.

* :class:`TestMutationWithoutListener` mutates a ``sqlite`` session
  (``add_all``, then ``remove``) for each built-in scorer, with nothing
  told of the mutation, and compares ``search`` scores by ``float.hex``
  and ``expand`` reports by ``schema.report_content`` against a fresh
  session.
* :class:`TestRolledBackBatch` runs a reader between the two documents
  of a batch that then rolls back: the reader must see the committed
  state, and the session must afterwards answer like a fresh one.
* :class:`TestFailingCommit` makes a write's COMMIT raise: the error
  propagates, nothing is published, no transaction is left open, and
  the next write succeeds.
* :class:`TestTermFrequencyCache` lets a write land while a reader is
  fetching a term's postings: the straddling fetch must not overwrite
  the new generation's entry.
* :class:`TestConcurrentIngest` races reader threads against a run of
  ingests, with a short switch interval, and then requires the session
  to answer like a fresh one.
* :class:`TestPreCommitWindow` forces one interleaving: a reader starts
  inside the write transaction and its cache writes land only after the
  batch is published. The next ``Session.search`` and the next
  ``ExpansionService.search`` must still equal a fresh session, and the
  generation read inside the transaction must still be the old one.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import threading

import pytest

from repro.api import Session, schema
from repro.caching import LRUTTLCache
from repro.data.documents import Document
from repro.index.backend import TermFrequencyCache
from repro.index.postings import PostingList
from repro.index.search import SearchEngine
from repro.serve import ExpansionService, ServeConfig, SessionPool
from repro.store import DocumentStore

SCORERS = ("tfidf", "bm25", "lm")
QUERY = "java"
CONFIG = {"n_clusters": 3, "top_k_results": 20, "candidate_fraction": 0.05}
#: Seconds either side of the forced interleaving waits for the other.
HANDOFF_TIMEOUT = 30.0


def _ingested(n: int = 50, prefix: str = "ingest") -> list[Document]:
    extra = ("espresso", "island", "language", "coffee", "roast")
    return [
        Document(
            doc_id=f"{prefix}-{i}",
            terms={QUERY: 1 + i % 4, extra[i % len(extra)]: 1 + i % 3, f"x{i}": 1},
        )
        for i in range(n)
    ]


@pytest.fixture
def sqlite_session(tmp_path):
    """``build(scoring)``: a wikipedia session over a new sqlite store."""
    built: list[Session] = []

    def build(scoring: str) -> Session:
        session = (
            Session.builder()
            .dataset("wikipedia")
            .retrieval(scoring)
            .backend("sqlite", path=tmp_path / f"{scoring}-{len(built)}.sqlite")
            .config(**CONFIG)
            .build()
        )
        built.append(session)
        return session

    yield build
    for session in built:
        session.engine.index.close()


def fresh(session: Session, scoring: str = "tfidf") -> Session:
    """A session with a newly built engine and scorer over ``session``'s index."""
    backend = session.engine.index
    engine = SearchEngine(
        backend.corpus, session.analyzer, scoring=scoring, backend=backend
    )
    return Session.builder().engine(engine).config(**CONFIG).build()


def bits(results) -> list[tuple[str, str]]:
    return [(r.document.doc_id, float(r.score).hex()) for r in results]


def content(report) -> dict:
    return schema.report_content(schema.report_to_dict(report))


class TestMutationWithoutListener:
    @pytest.mark.parametrize("scoring", SCORERS)
    def test_search_and_expand_match_a_fresh_session(self, sqlite_session, scoring):
        session = sqlite_session(scoring)
        backend = session.engine.index
        # Warm every cache tier and the scorer at the first generation.
        session.search(QUERY)
        session.expand(QUERY)
        first = backend.generation
        removed = session.search(QUERY)[0].document.doc_id

        for mutate in (
            lambda: backend.add_all(_ingested()),
            lambda: backend.remove(removed),
        ):
            mutate()
            reference = fresh(session, scoring)
            assert bits(session.search(QUERY)) == bits(reference.search(QUERY))
            assert content(session.expand(QUERY)) == content(reference.expand(QUERY))
        assert backend.generation == first + 2
        assert removed not in {r.document.doc_id for r in session.search(QUERY)}


class TestRolledBackBatch:
    @pytest.mark.parametrize("scoring", SCORERS)
    def test_a_reader_inside_a_rolled_back_batch_keeps_nothing(
        self, sqlite_session, scoring, monkeypatch
    ):
        session = sqlite_session(scoring)
        store = session.engine.index.store
        generation = store.generation
        committed = (store.num_positions, store.document_frequency(QUERY))
        # The second document's field is a set, which json.dumps rejects
        # only after the first document's rows are written.
        batch = [
            Document(doc_id="good", terms={QUERY: 3, "espresso": 1}),
            Document(doc_id="bad", terms={QUERY: 1}, fields={"tags": {"x"}}),
        ]
        seen = []
        upsert_one = DocumentStore._upsert_one

        def upsert_then_read(store, *args, **kwargs):
            pos = upsert_one(store, *args, **kwargs)
            if not seen:
                seen.append(
                    (store.num_positions, store.document_frequency(QUERY))
                )
                # Cold caches: both compute inside the open transaction.
                session.search(QUERY, top_k=5)
                session.expand(QUERY)
            return pos

        monkeypatch.setattr(DocumentStore, "_upsert_one", upsert_then_read)
        with pytest.raises(TypeError):
            session.engine.index.add_all(batch)
        monkeypatch.undo()

        assert seen == [committed]
        assert store.generation == generation
        assert "good" not in store
        reference = fresh(session, scoring)
        assert bits(session.search(QUERY, top_k=5)) == bits(
            reference.search(QUERY, top_k=5)
        )
        assert bits(session.search(QUERY)) == bits(reference.search(QUERY))
        assert content(session.expand(QUERY)) == content(reference.expand(QUERY))


class _FailingCommit:
    """A writer connection whose next COMMIT raises (and does not run)."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def execute(self, sql: str, *args):
        if sql == "COMMIT":
            raise sqlite3.OperationalError("injected COMMIT failure")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def _view(store: DocumentStore) -> tuple:
    """Everything a reader can learn from the store's published state."""
    terms = store.vocabulary()
    return (
        store.generation,
        store.changelog_floor,
        store.num_positions,
        store.num_live,
        store.deleted_positions(),
        terms,
        [store.document_frequency(t) for t in terms],
        [store.doc_length(p) for p in range(store.num_positions)],
        [store.term_postings(t) for t in ("a", "b", "c", "d")],
    )


class TestFailingCommit:
    @pytest.mark.parametrize(
        "write",
        [
            lambda store: store.upsert_all(
                [Document(doc_id="d3", terms={"a": 1, "d": 2})]
            ),
            lambda store: store.delete_all(["d0"]),
            lambda store: store.compact(),
        ],
        ids=["upsert_all", "delete_all", "compact"],
    )
    def test_nothing_is_published_and_the_next_write_succeeds(
        self, tmp_path, write
    ):
        store = DocumentStore(tmp_path / "commit.sqlite")
        try:
            store.upsert_all(
                [
                    Document(doc_id="d0", terms={"a": 1, "b": 1}),
                    Document(doc_id="d1", terms={"a": 2, "c": 1}),
                    Document(doc_id="d2", terms={"b": 3}),
                    Document(doc_id="gone", terms={"c": 1, "b": 1}),
                ]
            )
            store.delete("gone")
            before = _view(store)
            writer = store._writer
            store._writer = _FailingCommit(writer)
            try:
                with pytest.raises(sqlite3.OperationalError, match="injected"):
                    write(store)
            finally:
                store._writer = writer
            assert _view(store) == before
            assert not writer.in_transaction
            write(store)
            assert store.generation == before[0] + 1
        finally:
            store.close()
        with DocumentStore(tmp_path / "commit.sqlite") as reopened:
            assert reopened.generation == before[0] + 1


class _MovingBackend:
    """One term in one document; ``during_fetch`` runs inside a fetch."""

    def __init__(self) -> None:
        self.generation = 0
        self.tf = 1
        self.during_fetch = None

    def postings(self, term: str) -> PostingList:
        plist = PostingList.from_columns([0], [self.tf])
        hook, self.during_fetch = self.during_fetch, None
        if hook is not None:
            hook()
        return plist


class TestTermFrequencyCache:
    def test_a_fetch_straddling_a_write_keeps_to_its_generation(self):
        backend = _MovingBackend()
        cache = TermFrequencyCache(backend)

        def write_then_read() -> None:
            backend.generation, backend.tf = 1, 7
            assert cache.tf("t", 0) == 7  # a reader of the new generation

        backend.during_fetch = write_then_read
        assert cache.tf("t", 0) == 1  # the straddling reader's own fetch
        assert cache.tf("t", 0) == 7  # the new generation's entry survived


class TestConcurrentIngest:
    def test_readers_racing_ingests_end_like_a_fresh_session(self, sqlite_session):
        session = sqlite_session("bm25")
        backend = session.engine.index
        stop = threading.Event()
        errors: list[Exception] = []

        def read() -> None:
            try:
                while not stop.is_set():
                    for semantics in ("and", "or"):
                        session.search(QUERY, semantics=semantics)
            except Exception as exc:  # reported below, on the test thread
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            for batch in range(6):
                # Odd batches rewrite the previous batch's documents.
                backend.add_all(_ingested(10, prefix=f"race-{batch // 2}"))
        finally:
            stop.set()
            for reader in readers:
                reader.join(HANDOFF_TIMEOUT)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors
        reference = fresh(session, "bm25")
        for semantics in ("and", "or"):
            assert bits(session.search(QUERY, semantics=semantics)) == bits(
                reference.search(QUERY, semantics=semantics)
            )


class TestPreCommitWindow:
    def test_reader_inside_the_transaction_caches_nothing_stale(
        self, tmp_path, monkeypatch
    ):
        config = ServeConfig.parse(
            f"db:dataset=wikipedia,backend=sqlite,store={tmp_path / 'db.sqlite'}"
        )
        service = ExpansionService(SessionPool([config]))
        try:
            self._check(service, monkeypatch)
        finally:
            service.close()

    @staticmethod
    def _check(service: ExpansionService, monkeypatch) -> None:
        entry = service.pool.get("db")
        session, backend = entry.session, entry.index
        old = backend.generation

        reader_at_put = threading.Event()
        published = threading.Event()
        seen: dict[str, int] = {}
        reader = threading.Thread(
            target=service.search, args=({"config": "db", "query": QUERY},)
        )

        put = LRUTTLCache.put

        def held_put(cache, *args, **kwargs):
            # Only the reader's cache writes wait, and only until the
            # batch has been published.
            if threading.current_thread() is reader:
                reader_at_put.set()
                assert published.wait(HANDOFF_TIMEOUT)
            return put(cache, *args, **kwargs)

        log_change = DocumentStore._log_change

        def log_and_read(store, *args, **kwargs):
            log_change(store, *args, **kwargs)
            if not reader.is_alive() and "generation" not in seen:
                seen["generation"] = store.generation
                reader.start()
                assert reader_at_put.wait(HANDOFF_TIMEOUT)

        monkeypatch.setattr(LRUTTLCache, "put", held_put)
        monkeypatch.setattr(DocumentStore, "_log_change", log_and_read)

        backend.add_all(_ingested())
        published.set()
        reader.join(HANDOFF_TIMEOUT)
        assert not reader.is_alive()
        monkeypatch.undo()

        assert backend.generation == old + 1
        want = fresh(session).search(QUERY)
        assert {d.doc_id for d in _ingested()} & {r.document.doc_id for r in want}
        assert bits(session.search(QUERY)) == bits(want)
        status, body = service.search({"config": "db", "query": QUERY})
        assert status == 200
        served = [
            (r["document"]["doc_id"], float(r["score"]).hex())
            for r in json.loads(body)["results"]
        ]
        assert served == bits(want)
        assert seen["generation"] == old  # not yet published inside it
