"""The store generation alone keeps every reader's view current.

No mutation listener is needed for correctness: the store publishes a
generation only after its transaction commits, every session and
response cache keys on the generation it read before computing, and
each scorer's collection statistics (N, the average length, the
collection model) are per-generation state of its term cache. So after
any committed mutation, a session built before it answers exactly like
a fresh session built over the mutated store.

* :class:`TestMutationWithoutListener` mutates a ``sqlite`` session
  (``add_all``, then ``remove``) for each built-in scorer, with no
  listener subscribed, and compares ``search`` scores by ``float.hex``
  and ``expand`` reports by ``schema.report_content`` against a fresh
  session.
* :class:`TestTermFrequencyCache` lets a write land while a reader is
  fetching a term's postings: the straddling fetch must not overwrite
  the new generation's entry.
* :class:`TestConcurrentIngest` races reader threads against a run of
  ingests, with a short switch interval, and then requires the session
  to answer like a fresh one.
* :class:`TestPreCommitWindow` forces one interleaving: a reader starts
  inside the write transaction and its cache writes land only after the
  commit's listeners have run. The next ``Session.search`` and the next
  ``ExpansionService.search`` must still equal a fresh session, and the
  generation read inside the transaction must still be the old one.
"""

from __future__ import annotations

import json
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
        listeners_done = threading.Event()
        seen: dict[str, int] = {}
        reader = threading.Thread(
            target=service.search, args=({"config": "db", "query": QUERY},)
        )

        put = LRUTTLCache.put

        def held_put(cache, *args, **kwargs):
            # Only the reader's cache writes wait, and only until the
            # commit's listeners have run.
            if threading.current_thread() is reader:
                reader_at_put.set()
                assert listeners_done.wait(HANDOFF_TIMEOUT)
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
        # Subscribed after the pool's listener, so it fires after it.
        backend.subscribe(lambda _index: listeners_done.set())

        backend.add_all(_ingested())
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
