"""Tests for the durable document store (repro.store).

Covers the acceptance criteria of the persistence subsystem: randomized
byte-identical equivalence with :class:`InvertedIndex` through
interleaved upsert/delete/compact cycles, crash-and-reopen durability
(committed documents survive an ``os._exit``), snapshot consistency,
and the integration seams — registry, session builder, serving layer,
and CLI.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import BACKENDS, Session
from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.errors import ConfigError, IndexingError, StoreError
from repro.index.backend import IndexBackend, TermFrequencyCache
from repro.index.inverted_index import InvertedIndex
from repro.index.search import SearchEngine
from repro.store import DocumentStore, SQLiteIndexBackend
from repro.store.schema import SCHEMA_VERSION

from tests.conftest import make_doc


@pytest.fixture
def store_path(tmp_path) -> Path:
    return tmp_path / "corpus.sqlite"


@pytest.fixture
def docs():
    return [
        make_doc("d1", {"apple": 2, "store": 1}),
        make_doc("d2", {"apple": 1, "fruit": 1}),
        make_doc("d3", {"banana": 1, "fruit": 2}),
    ]


def columns(plist) -> tuple[list[int], list[int]]:
    """A posting list's ``(docs, tfs)`` columns as plain lists."""
    return plist.docs.tolist(), plist.tfs.tolist()


class _ProbeAfterCommit:
    """A writer connection that runs ``probe()`` as soon as COMMIT returns."""

    def __init__(self, conn: sqlite3.Connection, probe) -> None:
        self._conn = conn
        self._probe = probe

    def execute(self, sql: str, *args):
        cursor = self._conn.execute(sql, *args)
        if sql == "COMMIT":
            self._probe()
        return cursor

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


class _CountingReads:
    """A read connection that records the term_id of every postings read."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self.term_ids: list[int] = []

    @classmethod
    def install(cls, store: DocumentStore) -> "_CountingReads":
        """Wrap ``store``'s read connection on the calling thread."""
        reads = store._local.conn = cls(store._read_conn())
        return reads

    def execute(self, sql: str, *args):
        if "FROM postings WHERE term_id" in sql:
            self.term_ids.append(args[0][0])
        return self._conn.execute(sql, *args)

    def __getattr__(self, name: str):
        return getattr(self._conn, name)


def random_doc(rng: random.Random, doc_id: str) -> Document:
    vocab = [f"t{i}" for i in range(20)]
    terms = {
        t: rng.randint(1, 4)
        for t in rng.sample(vocab, rng.randint(1, 8))
    }
    return Document(doc_id=doc_id, terms=terms)


class TestSchemaAndOpen:
    def test_init_creates_file_and_meta(self, store_path):
        store = DocumentStore(store_path)
        assert store_path.exists()
        stats = store.stats()
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["generation"] == 0
        assert stats["documents"] == 0

    def test_reopen_is_idempotent(self, store_path, docs):
        DocumentStore(store_path).upsert_all(docs)
        store = DocumentStore(store_path)
        assert len(store) == 3
        assert store.generation == 1

    def test_parent_directories_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "s.sqlite"
        DocumentStore(nested)
        assert nested.exists()

    def test_future_schema_version_rejected(self, store_path):
        import sqlite3

        DocumentStore(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError):
            DocumentStore(store_path)

    def test_wal_mode_active(self, store_path):
        store = DocumentStore(store_path)
        (mode,) = store._writer.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"


class TestUpsertAndDelete:
    def test_positions_assigned_in_order(self, store_path, docs):
        store = DocumentStore(store_path)
        assert store.upsert_all(docs) == [0, 1, 2]
        assert [store.position(d.doc_id) for d in docs] == [0, 1, 2]

    def test_upsert_rewrites_in_place(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        pos = store.upsert(make_doc("d2", {"cherry": 3}))
        assert pos == 1  # doc_id -> position is permanent
        assert columns(store.term_postings("cherry")) == ([1], [3])
        assert columns(store.term_postings("apple")) == ([0], [2])  # old postings gone
        assert len(store) == 3

    def test_delete_is_a_tombstone(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        assert store.delete("d2") == 1
        assert len(store) == 3  # the position stays allocated
        assert store.num_live == 2
        assert store.is_deleted(1)
        assert "d2" not in store
        assert columns(store.term_postings("apple")) == ([0], [2])

    def test_deleted_document_keeps_payload(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        store.delete("d2")
        assert store.document(1).doc_id == "d2"
        assert [d.doc_id for d in store.corpus()] == ["d1", "d2", "d3"]

    def test_upsert_revives_a_tombstone(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        store.delete("d2")
        assert store.upsert(make_doc("d2", {"grape": 1})) == 1
        assert "d2" in store
        assert columns(store.term_postings("grape")) == ([1], [1])

    def test_delete_unknown_or_twice_rejected(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        with pytest.raises(StoreError):
            store.delete("nope")
        store.delete("d1")
        with pytest.raises(StoreError):
            store.delete("d1")

    def test_failed_batch_rolls_back_completely(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        generation = store.generation
        with pytest.raises(StoreError):
            store.delete_all(["d1", "nope", "d3"])
        # Nothing from the batch landed: d1 is still live.
        assert store.num_live == 3
        assert "d1" in store
        assert store.generation == generation

    def test_generation_bumps_once_per_batch(self, store_path, docs):
        store = DocumentStore(store_path)
        g0 = store.generation
        store.upsert_all(docs)
        assert store.generation == g0 + 1
        store.delete("d1")
        assert store.generation == g0 + 2
        store.compact()
        assert store.generation == g0 + 3

    def test_generation_survives_reopen(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        store.delete("d1")
        generation = store.generation
        store.close()
        assert DocumentStore(store_path).generation == generation

    def test_empty_batches_are_no_ops(self, store_path):
        store = DocumentStore(store_path)
        assert store.upsert_all([]) == []
        assert store.delete_all([]) == []
        assert store.generation == 0


class TestCompaction:
    def test_drops_tombstoned_postings_and_orphaned_terms(self, store_path):
        store = DocumentStore(store_path)
        store.upsert_all(
            [make_doc("a", {"shared": 1, "only-a": 2}),
             make_doc("b", {"shared": 1})]
        )
        store.delete("a")
        dropped = store.compact()
        assert dropped == {"postings_dropped": 2, "terms_dropped": 1}
        assert store.stats()["postings"] == 1
        assert store.vocabulary() == ["shared"]

    def test_queries_identical_before_and_after(self, store_path):
        rng = random.Random(7)
        store = DocumentStore(store_path)
        store.upsert_all([random_doc(rng, f"d{i}") for i in range(40)])
        store.delete_all([f"d{i}" for i in range(0, 40, 3)])
        backend = SQLiteIndexBackend(store)
        before = {
            t: [(p.doc, p.tf) for p in backend.postings(t)]
            for t in backend.vocabulary()
        }
        store.compact()
        after = {
            t: [(p.doc, p.tf) for p in backend.postings(t)]
            for t in backend.vocabulary()
        }
        assert before == after

    def test_compact_reclaims_file_space(self, store_path):
        store = DocumentStore(store_path)
        store.upsert_all(
            [make_doc(f"d{i}", {f"term{i}-{j}": 1 for j in range(50)})
             for i in range(100)]
        )
        store.delete_all([f"d{i}" for i in range(90)])
        before = store.stats()["file_bytes"]
        store.compact()
        assert store.stats()["file_bytes"] < before


class TestSnapshot:
    def test_snapshot_is_a_complete_store(self, store_path, tmp_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        snap = store.snapshot(tmp_path / "snap.sqlite")
        copy = DocumentStore(snap)
        assert [d.doc_id for d in copy.corpus()] == ["d1", "d2", "d3"]
        assert copy.generation == store.generation

    def test_snapshot_unaffected_by_later_mutations(
        self, store_path, tmp_path, docs
    ):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        snap = store.snapshot(tmp_path / "snap.sqlite")
        store.delete("d1")
        store.upsert(make_doc("d9", {"new": 1}))
        copy = DocumentStore(snap)
        assert copy.num_live == 3
        assert "d9" not in copy

    def test_restore_round_trip(self, store_path, tmp_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        snap = store.snapshot(tmp_path / "snap.sqlite")
        restored = DocumentStore.restore(snap, tmp_path / "restored.sqlite")
        assert [d.doc_id for d in restored.corpus()] == ["d1", "d2", "d3"]

    def test_snapshot_onto_self_rejected(self, store_path, docs):
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        with pytest.raises(StoreError):
            store.snapshot(store_path)

    def test_restore_missing_snapshot_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            DocumentStore.restore(tmp_path / "nope.sqlite", tmp_path / "out.sqlite")


class TestEquivalenceWithInvertedIndex:
    """The acceptance criterion: byte-identical boolean retrieval.

    Positions differ once tombstones exist (the store's are permanent,
    the reference index is rebuilt dense), so results are compared as
    serialized doc_id sequences — identical bytes, identical order.
    """

    @pytest.mark.parametrize("trial", range(4))
    def test_interleaved_upsert_delete_compact_cycles(
        self, tmp_path, trial
    ):
        rng = random.Random(100 + trial)
        store = DocumentStore(tmp_path / f"eq{trial}.sqlite")
        backend = SQLiteIndexBackend(store)
        live: dict[str, Document] = {}
        next_id = 0

        for _round in range(6):
            # Mutate: a few new docs, a few rewrites, a few deletes.
            fresh = [random_doc(rng, f"d{next_id + i}") for i in range(4)]
            next_id += 4
            rewrites = [
                random_doc(rng, doc_id)
                for doc_id in rng.sample(sorted(live), min(2, len(live)))
            ]
            backend.add_all(fresh + rewrites)
            for doc in fresh + rewrites:
                live[doc.doc_id] = doc
            for doc_id in rng.sample(sorted(live), min(2, len(live) - 1)):
                backend.remove(doc_id)
                del live[doc_id]
            if _round % 2:
                store.compact()

            # Reference: a dense in-memory index over the live documents
            # in store-position (arrival) order.
            ref_corpus = Corpus(
                live[doc_id]
                for doc_id in sorted(live, key=store.position)
            )
            ref = InvertedIndex(ref_corpus)
            ref_ids = lambda positions: [  # noqa: E731
                ref_corpus[p].doc_id for p in positions
            ]
            store_ids = lambda positions: [  # noqa: E731
                store.document(p).doc_id for p in positions
            ]

            assert backend.vocabulary() == ref.vocabulary()
            assert backend.num_terms == ref.num_terms
            for term in ref.vocabulary():
                assert backend.document_frequency(term) == (
                    ref.document_frequency(term)
                )
                got = [
                    (store.document(p.doc).doc_id, p.tf)
                    for p in backend.postings(term)
                ]
                want = [
                    (ref_corpus[p.doc].doc_id, p.tf)
                    for p in ref.postings(term)
                ]
                assert json.dumps(got) == json.dumps(want)
            queries = [
                rng.sample([f"t{i}" for i in range(20)], rng.randint(1, 3))
                for _ in range(10)
            ]
            for terms in queries:
                assert json.dumps(store_ids(backend.and_query(terms))) == (
                    json.dumps(ref_ids(ref.and_query(terms)))
                )
                assert json.dumps(store_ids(backend.or_query(terms))) == (
                    json.dumps(ref_ids(ref.or_query(terms)))
                )

    def test_exact_position_identity_without_deletes(self, tmp_path):
        rng = random.Random(11)
        docs = [random_doc(rng, f"d{i}") for i in range(60)]
        store = DocumentStore(tmp_path / "dense.sqlite")
        backend = SQLiteIndexBackend(store, corpus=Corpus(docs))
        ref = InvertedIndex(Corpus(docs))
        assert backend.vocabulary() == ref.vocabulary()
        for term in ref.vocabulary():
            assert [(p.doc, p.tf) for p in backend.postings(term)] == [
                (p.doc, p.tf) for p in ref.postings(term)
            ]
        for _ in range(20):
            terms = rng.sample([f"t{i}" for i in range(20)], rng.randint(1, 3))
            assert backend.and_query(terms) == ref.and_query(terms)
            assert backend.or_query(terms) == ref.or_query(terms)


class TestDocumentFrequencyMirror:
    """The in-memory live-df mirror always equals a recount of the store.

    Every step of a seeded random walk over the whole write path —
    upserts (new ids, rewrites, revived tombstones), deletes, compaction
    with and without VACUUM, rolled-back batches, close/reopen — is
    followed by a full check of every term against its posting list and
    a brute-force recount of the live documents.
    """

    TERMS = [f"t{i}" for i in range(20)] + ["never-seen"]

    @classmethod
    def _check(cls, store: DocumentStore) -> None:
        recount: dict[str, int] = {}
        for pos, doc in enumerate(store.documents()):
            if not store.is_deleted(pos):
                for term in doc.terms:
                    recount[term] = recount.get(term, 0) + 1
        for term in cls.TERMS:
            df = store.document_frequency(term)
            assert df == len(store.term_postings(term)), term
            assert df == recount.get(term, 0), term
        assert store.vocabulary() == sorted(recount)
        assert store.num_terms() == len(recount)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_walk_keeps_df_exact(self, store_path, seed):
        rng = random.Random(1000 + seed)
        store = DocumentStore(store_path)
        ids = [f"d{i}" for i in range(30)]

        def reject(_store, _docs):
            raise StoreError("rejected by guard")

        try:
            for _step in range(200):
                known = [i for i in ids if i in store]
                dead = [
                    store.document(pos).doc_id
                    for pos in sorted(store.deleted_positions())
                ]
                action = rng.random()
                if action < 0.45:
                    # New ids, rewrites of live ids and revivals of
                    # tombstoned ones, possibly twice in one batch.
                    batch = [
                        random_doc(rng, rng.choice(ids))
                        for _ in range(rng.randint(1, 5))
                    ]
                    store.upsert_all(batch)
                elif action < 0.65 and known:
                    store.delete_all(
                        rng.sample(known, rng.randint(1, min(3, len(known))))
                    )
                elif action < 0.75:
                    store.compact(vacuum=rng.random() < 0.3)
                elif action < 0.82:
                    generation = store.generation
                    with pytest.raises(StoreError, match="guard"):
                        store.upsert_all(
                            [random_doc(rng, rng.choice(ids))], guard=reject
                        )
                    assert store.generation == generation
                elif action < 0.90:
                    # Fails inside the transaction after the mirrors moved:
                    # a valid write first, then a bad one; all rolled back.
                    generation = store.generation
                    if known and rng.random() < 0.5:
                        with pytest.raises(StoreError):
                            store.delete_all(
                                [rng.choice(known), rng.choice(dead or ["ghost"])]
                            )
                    else:
                        with pytest.raises(AttributeError):
                            store.upsert_all(
                                [random_doc(rng, rng.choice(ids)), None]
                            )
                    assert store.generation == generation
                else:
                    store.close()
                    store = DocumentStore(store_path)
                self._check(store)
        finally:
            store.close()

    def test_concurrent_writers_and_lock_free_readers(self, store_path):
        import sys
        import threading

        store = DocumentStore(store_path)
        ids = [f"d{i}" for i in range(20)]
        errors: list[BaseException] = []
        writing = threading.Event()
        writing.set()

        def writer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    doc_id = rng.choice(ids)
                    if doc_id in store and rng.random() < 0.3:
                        try:
                            store.delete(doc_id)
                        except StoreError:
                            pass  # another writer deleted it first
                    else:
                        store.upsert(random_doc(rng, doc_id))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        def reader():
            try:
                while writing.is_set():
                    vocabulary = store.vocabulary()
                    assert vocabulary == sorted(vocabulary)
                    assert store.num_terms() >= 0
                    for term in self.TERMS:
                        assert store.document_frequency(term) >= 0
                        # Fills the memo of whichever state is published.
                        docs = store.term_postings(term).docs
                        assert (docs[1:] > docs[:-1]).all()
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(target=writer, args=(seed,))
                for seed in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(3)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            writing.clear()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, errors
        self._check(store)
        with DocumentStore(store_path) as fresh:
            for term in self.TERMS:
                assert columns(store.term_postings(term)) == columns(
                    fresh.term_postings(term)
                ), term
        store.close()

    @pytest.mark.parametrize("scorer_name", ["tfidf", "bm25"])
    def test_rank_fetches_each_term_once_per_generation(
        self, store_path, scorer_name
    ):
        from repro.index.bm25 import BM25Scorer
        from repro.index.scoring import TfIdfScorer

        rng = random.Random(5)
        docs = [random_doc(rng, f"d{i}") for i in range(40)]
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        store = backend.store
        reads = _CountingReads.install(store)
        scorer_cls = TfIdfScorer if scorer_name == "tfidf" else BM25Scorer
        scorer = scorer_cls(backend)
        terms = ["t1", "t2", "t3"]
        fetched = set(terms)  # the first generation reads every term
        everyone = list(range(len(store)))
        for _generation in range(2):
            reads.term_ids.clear()
            for _ in range(2):
                ranked = scorer.rank(everyone, terms)
                assert len(ranked) == len(everyone)
            ids = store._state.term_ids
            assert sorted(reads.term_ids) == sorted(ids[t] for t in fetched)
            late = random_doc(rng, "late")
            backend.add(late)
            # Only the terms the batch touched are read again.
            fetched = set(terms) & set(late.terms)
            everyone = list(range(len(store)))


class TestPostingsMemo:
    """Each published state memoizes its postings; a batch drops only its terms."""

    TERMS = ["a", "b", "c", "d", "e"]

    def test_searches_on_terms_a_batch_did_not_touch_read_no_postings(
        self, store_path
    ):
        rng = random.Random(11)
        engine = SearchEngine(
            Corpus([random_doc(rng, f"d{i}") for i in range(40)]),
            backend=lambda corpus: SQLiteIndexBackend(store_path, corpus=corpus),
        )
        queries = [(["t1", "t2"], "and"), (["t1", "t2", "t3"], "or")]
        before = [engine.search_terms(terms, semantics=s) for terms, s in queries]
        engine.index.add_all(
            [make_doc(f"new{i}", {"fresh": 1, f"t{10 + i}": 2}) for i in range(5)]
        )
        reads = _CountingReads.install(engine.index.store)
        after = [engine.search_terms(terms, semantics=s) for terms, s in queries]
        assert reads.term_ids == []
        matched = [sorted(r.position for r in results) for results in after]
        assert all(matched)
        assert matched == [sorted(r.position for r in rs) for rs in before]

    @staticmethod
    def _apply(store: DocumentStore, batch: tuple) -> None:
        kind, *args = batch
        ids = [doc.doc_id for doc in store.corpus()]
        if kind == "new":
            store.upsert_all(
                make_doc(f"n{len(ids) + i}", terms)
                for i, terms in enumerate(args[0])
            )
        elif kind == "upsert" and ids:
            rewrites = {ids[i % len(ids)]: terms for i, terms in args[0]}
            store.upsert_all(make_doc(i, terms) for i, terms in rewrites.items())
        elif kind == "delete":
            live = [doc_id for doc_id in ids if doc_id in store]
            doomed = {live[i % len(live)] for i in args[0]} if live else set()
            store.delete_all(sorted(doomed))
        elif kind == "compact":
            store.compact()

    def test_memo_matches_a_fresh_open_after_every_batch(self):
        import tempfile

        from hypothesis import given, settings
        from hypothesis import strategies as st

        bags = st.dictionaries(
            st.sampled_from(self.TERMS), st.integers(1, 3), min_size=1, max_size=3
        )
        picks = st.lists(st.integers(0, 30), min_size=1, max_size=3)
        batch = st.one_of(
            st.tuples(st.just("new"), st.lists(bags, min_size=1, max_size=3)),
            st.tuples(
                st.just("upsert"),
                st.lists(st.tuples(st.integers(0, 30), bags), min_size=1, max_size=3),
            ),
            st.tuples(st.just("delete"), picks),
            st.tuples(st.just("compact")),
        )

        @settings(max_examples=40, deadline=None)
        @given(st.lists(batch, min_size=1, max_size=10))
        def check(batches) -> None:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "memo.sqlite"
                with DocumentStore(path) as store:
                    for batch in batches:
                        self._apply(store, batch)
                        with DocumentStore(path) as fresh:
                            for term in self.TERMS:
                                assert columns(store.term_postings(term)) == (
                                    columns(fresh.term_postings(term))
                                ), (batch, term)

        check()


class TestDurability:
    def test_reopen_sees_identical_corpus(self, store_path):
        rng = random.Random(3)
        docs = [random_doc(rng, f"d{i}") for i in range(30)]
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        store.delete("d7")
        store.close()
        reopened = DocumentStore(store_path)
        assert [d.doc_id for d in reopened.corpus()] == [d.doc_id for d in docs]
        assert reopened.document(3).terms == docs[3].terms
        assert reopened.is_deleted(7)
        assert reopened.num_live == 29

    def test_kill_and_reopen_loses_no_committed_document(self, store_path):
        """A subprocess commits documents then dies via os._exit (no
        close, no atexit, no flush) — everything committed must be
        readable from a fresh process."""
        script = f"""
import os, sys
from repro.data.documents import Document
from repro.store import DocumentStore

store = DocumentStore({str(store_path)!r})
docs = [Document(doc_id=f"k{{i}}", terms={{f"w{{i % 5}}": i + 1}}) for i in range(25)]
store.upsert_all(docs)
store.delete("k3")
sys.stdout.write(str(store.generation))
sys.stdout.flush()
os._exit(0)  # simulated crash: no graceful shutdown
"""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        store = DocumentStore(store_path)
        assert len(store) == 25
        assert store.num_live == 24
        assert store.generation == int(proc.stdout)
        assert store.document(24).doc_id == "k24"

    def test_concurrent_reads_while_writing(self, store_path):
        import threading

        store = DocumentStore(store_path)
        store.upsert_all([make_doc(f"d{i}", {"base": 1}) for i in range(10)])
        backend = SQLiteIndexBackend(store)
        errors = []

        def reader():
            try:
                for _ in range(50):
                    positions = backend.and_query(["base"])
                    assert positions == sorted(positions)
                    backend.vocabulary()
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(20):
            store.upsert(make_doc(f"n{i}", {"base": 1, f"x{i}": 1}))
        for t in threads:
            t.join()
        assert errors == []


class TestBackendProtocol:
    def test_conforms_to_index_backend(self, store_path, docs):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        assert isinstance(backend, IndexBackend)

    def test_capabilities(self, store_path):
        caps = SQLiteIndexBackend(store_path).capabilities()
        assert caps.name == "sqlite"
        assert caps.persistent is True
        assert caps.mutable is True

    def test_empty_queries_rejected(self, store_path, docs):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        with pytest.raises(IndexingError):
            backend.and_query([])
        with pytest.raises(IndexingError):
            backend.or_query([])

    def test_usable_by_scorers(self, store_path, docs):
        from repro.index.bm25 import BM25Scorer
        from repro.index.scoring import TfIdfScorer

        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        for scorer in (TfIdfScorer(backend), BM25Scorer(backend)):
            ranked = scorer.rank(backend.and_query(["apple"]), ["apple"])
            assert [pos for pos, _ in ranked] == [0, 1]

    def test_term_frequency_cache_invalidates_on_mutation(
        self, store_path, docs
    ):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        cache = TermFrequencyCache(backend)
        assert cache.tf("apple", 0) == 2
        backend.add(make_doc("d4", {"apple": 9}))
        assert cache.tf("apple", 3) == 9  # generation bump cleared the cache

    def test_adopted_corpus_grows_on_add(self, store_path, docs):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        backend.add(make_doc("d4", {"cherry": 1}))
        assert len(backend.corpus) == 4
        assert backend.corpus[3].doc_id == "d4"

    def test_upsert_replaces_adopted_corpus_entry(self, store_path, docs):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        backend.add(make_doc("d2", {"cherry": 5}))
        assert len(backend.corpus) == 3
        assert backend.corpus[1].terms == {"cherry": 5}
        assert backend.corpus[1] == backend.store.document(1)

    def test_mismatched_corpus_rejected(self, store_path, docs):
        SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        with pytest.raises(IndexingError):
            SQLiteIndexBackend(store_path, corpus=Corpus(docs[:2]))
        with pytest.raises(IndexingError):
            SQLiteIndexBackend(
                store_path,
                corpus=Corpus(
                    [docs[0], make_doc("other", {"z": 1}), docs[2]]
                ),
            )

    def test_remove_hides_document_from_queries(self, store_path, docs):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        backend.remove("d2")
        assert backend.and_query(["apple"]) == [0]
        assert backend.num_documents == 3  # positions stay allocated
        assert backend.num_live_documents == 2

    def test_remove_accepts_position_like_dynamic_index(
        self, store_path, docs
    ):
        backend = SQLiteIndexBackend(store_path, corpus=Corpus(docs))
        assert backend.remove(1) == 1
        assert backend.and_query(["apple"]) == [0]

    def test_listener_sees_consistent_store_and_corpus(self, store_path, docs):
        # A reader that polls the generation and sees the batch's
        # generation must already find the batch in both the committed
        # store AND the adopted corpus.
        import threading
        import time

        corpus = Corpus(docs)
        backend = SQLiteIndexBackend(store_path, corpus=corpus)
        target = backend.generation + 1
        observed = []
        started = threading.Event()

        def poll() -> None:
            started.set()
            deadline = time.monotonic() + 10
            while backend.generation < target:
                if time.monotonic() > deadline:
                    return
            observed.append(
                (
                    len(backend.corpus),
                    [backend.corpus[p].doc_id for p in backend.and_query(["cherry"])],
                )
            )

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        assert started.wait(10)
        backend.add(make_doc("d4", {"cherry": 1}))
        poller.join(10)
        assert not poller.is_alive()
        assert observed == [(4, ["d4"])]

    def test_reader_between_commit_and_publish_sees_the_published_state(
        self, store_path, docs
    ):
        # Readers are lock-free: between the batch's COMMIT and the
        # publish of its state, SQL already shows the new postings.
        engine = SearchEngine(
            Corpus(docs),
            backend=lambda corpus: SQLiteIndexBackend(store_path, corpus=corpus),
        )
        backend = engine.index
        store = backend.store
        probed = {}

        def probe() -> None:
            with sqlite3.connect(str(store_path)) as conn:
                (committed,) = conn.execute(
                    "SELECT COUNT(*) FROM documents"
                ).fetchone()
            probed["committed"] = committed
            probed["published"] = store.num_positions
            probed["term_postings"] = store.term_postings("apple").doc_ids()
            probed["and_query"] = backend.and_query(["apple", "fruit"])
            probed["or_query"] = backend.or_query(["apple", "banana"])
            probed["search_terms"] = [
                r.position for r in engine.search_terms(["apple"], semantics="or")
            ]
            probed["corpus"] = backend.corpus

        writer = store._writer
        store._writer = _ProbeAfterCommit(writer, probe)
        try:
            backend.add_all(
                [
                    make_doc("d4", {"apple": 3, "fruit": 1, "banana": 1}),
                    make_doc("d2", {"apple": 4, "fruit": 2}),
                ]
            )
        finally:
            store._writer = writer
        assert probed.pop("committed") == 4  # the window was open
        published = probed.pop("published")
        assert published == 3
        corpus = probed.pop("corpus")
        assert len(corpus) == published
        for name, positions in probed.items():
            assert positions, name
            for pos in positions:
                assert pos < published, name
                assert store.position(corpus[pos].doc_id) == pos, name
        # After the publish the batch is visible everywhere.
        assert backend.and_query(["apple", "fruit"]) == [1, 3]
        assert backend.corpus[3].doc_id == "d4"
        assert backend.corpus[1].terms == {"apple": 4, "fruit": 2}

    def test_reader_between_commit_and_publish_reads_no_rewritten_tf(
        self, store_path, docs
    ):
        # An upsert rewrites its document in place, so between the COMMIT
        # and the publish SQL already holds the new tfs at the old
        # position; a reader must still get the published state's.
        store = DocumentStore(store_path)
        store.upsert_all(docs)
        probed = {}

        def probe() -> None:
            probed["generation"] = store.generation
            probed["d2"] = store.corpus()[1].terms
            probed["apple"] = columns(store.term_postings("apple"))
            probed["fruit"] = columns(store.term_postings("fruit"))

        writer = store._writer
        store._writer = _ProbeAfterCommit(writer, probe)
        try:
            store.upsert(make_doc("d2", {"apple": 4, "pear": 2}))
        finally:
            store._writer = writer
        assert probed == {
            "generation": 1,
            "d2": {"apple": 1, "fruit": 1},
            "apple": ([0, 1], [2, 1]),
            "fruit": ([1, 2], [1, 2]),
        }
        assert columns(store.term_postings("apple")) == ([0, 1], [2, 4])
        assert columns(store.term_postings("fruit")) == ([2], [2])
        assert columns(store.term_postings("pear")) == ([1], [2])
        store.close()

    def test_concurrent_ingest_keeps_corpus_aligned_with_store(
        self, store_path
    ):
        import threading

        backend = SQLiteIndexBackend(
            store_path, corpus=Corpus([make_doc("seed", {"base": 1})])
        )
        store = backend.store
        errors = []

        def ingest(worker: int) -> None:
            try:
                for i in range(25):
                    backend.add(make_doc(f"w{worker}-{i}", {"base": 1}))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=ingest, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(backend.corpus) == len(store) == 101
        # The critical invariant: every corpus position resolves to the
        # document the store committed at that position.
        for pos, doc in enumerate(backend.corpus):
            assert store.position(doc.doc_id) == pos
            assert doc == store.document(pos)


class TestRegistryAndSession:
    def test_sqlite_registered(self):
        assert "sqlite" in BACKENDS

    def test_session_builder_round_trip(self, store_path):
        build = lambda: (  # noqa: E731
            Session.builder()
            .dataset("wikipedia", docs_per_sense=4, terms=["java"])
            .backend("sqlite", path=str(store_path))
            .build()
        )
        first = build().search("java", top_k=5)
        again = build().search("java", top_k=5)  # verified reuse of the file
        assert [(r.position, r.score) for r in first] == [
            (r.position, r.score) for r in again
        ]

    def test_session_matches_memory_backend(self, store_path):
        kwargs = {"docs_per_sense": 4, "terms": ["java"]}
        mem = Session.builder().dataset("wikipedia", **kwargs).build()
        sql = (
            Session.builder()
            .dataset("wikipedia", **kwargs)
            .backend("sqlite", path=str(store_path))
            .build()
        )
        for query in ("java", "island"):
            assert [
                (r.position, r.document.doc_id, r.score)
                for r in mem.search(query, top_k=10)
            ] == [
                (r.position, r.document.doc_id, r.score)
                for r in sql.search(query, top_k=10)
            ]

    def test_path_and_store_kwargs_conflict(self, store_path, docs):
        store = DocumentStore(store_path)
        with pytest.raises(ConfigError):
            BACKENDS.create(
                "sqlite", Corpus(docs), path=str(store_path), store=store
            )


class TestServeIntegration:
    def _config(self, store_path, name="wiki"):
        from repro.serve import ServeConfig

        return ServeConfig(
            name=name,
            dataset="wikipedia",
            store=str(store_path),
            n_clusters=3,
            dataset_kwargs={"docs_per_sense": 6, "terms": ["java"]},
        )

    def test_store_spec_key_implies_sqlite_backend(self, store_path):
        from repro.serve import ServeConfig

        config = ServeConfig.parse(f"wiki:store={store_path}")
        assert config.backend == "sqlite"
        assert config.store == str(store_path)

    def test_store_spec_conflicting_backend_rejected(self, store_path):
        from repro.serve import ServeConfig

        with pytest.raises(ConfigError):
            ServeConfig.parse(f"wiki:store={store_path},backend=carrier-pigeon")

    def test_restart_path_does_not_verify_the_store_against_itself(
        self, store_path, monkeypatch
    ):
        config = self._config(store_path)
        config.build_session()  # seeds the empty store
        store = DocumentStore(store_path)
        real, calls = store.position, []

        def position(doc_id):
            calls.append(doc_id)
            return real(doc_id)

        monkeypatch.setattr(store, "position", position)
        session = config.build_session(store=store)
        assert calls == []
        assert session.engine.index.corpus is store.corpus()
        assert session.search("java", top_k=3)

    def test_ingest_writes_through_and_invalidates(self, store_path):
        from repro.serve import ExpansionService, SessionPool

        service = ExpansionService(SessionPool([self._config(store_path)]))
        status, first = service.handle("GET", "/search", {"query": "java"})
        first = json.loads(first)
        assert status == 200 and first["cache"] == "miss"
        status, payload = service.handle(
            "POST",
            "/ingest",
            {"documents": [
                {"doc_id": "new-1", "text": "java espresso coffee guide"},
            ]},
        )
        payload = json.loads(payload)
        assert status == 200
        assert payload["ingested"] == 1
        assert payload["persistent"] is True
        status, hit = service.handle("GET", "/search", {"query": "espresso"})
        hit = json.loads(hit)
        assert status == 200 and hit["n_results"] == 1
        # Durable: the document is committed in the store file.
        assert "new-1" in DocumentStore(store_path)

    def test_serve_survives_restart(self, store_path):
        from repro.serve import ExpansionService, SessionPool

        service = ExpansionService(SessionPool([self._config(store_path)]))
        service.handle(
            "POST",
            "/ingest",
            {"documents": [
                {"doc_id": "new-1", "text": "java espresso coffee guide"},
                {"doc_id": "new-2", "terms": {"espresso": 2, "crema": 1}},
            ]},
        )
        status, before = service.handle("GET", "/search", {"query": "espresso"})
        before = json.loads(before)
        assert status == 200 and before["n_results"] == 2

        # Simulated restart: a brand-new pool + service on the same path.
        reborn = ExpansionService(SessionPool([self._config(store_path)]))
        status, after = service_result = reborn.handle(
            "GET", "/search", {"query": "espresso"}
        )
        after = json.loads(after)
        assert status == 200, service_result
        assert after["n_results"] == 2
        assert [r["document"]["doc_id"] for r in after["results"]] == [
            r["document"]["doc_id"] for r in before["results"]
        ]

    def test_ingest_validates_payloads(self, store_path):
        from repro.serve import ExpansionService, SessionPool

        service = ExpansionService(SessionPool([self._config(store_path)]))
        for bad in (
            {},
            {"documents": []},
            {"documents": ["not-an-object"]},
            {"documents": [{"doc_id": "x"}]},
            {"documents": [{"text": "missing id"}]},
        ):
            status, payload = service.handle("POST", "/ingest", bad)
            assert status == 400, payload

    def test_ingest_rejected_on_immutable_backend(self):
        from repro.serve import ExpansionService, ServeConfig, SessionPool

        config = ServeConfig(
            name="mem",
            dataset="wikipedia",
            dataset_kwargs={"docs_per_sense": 4, "terms": ["java"]},
        )
        service = ExpansionService(SessionPool([config]))
        status, payload = service.handle(
            "POST",
            "/ingest",
            {"documents": [{"doc_id": "x", "terms": {"a": 1}}]},
        )
        assert status == 400
        assert "mutable" in payload["message"]


class TestStoreCli:
    def run(self, *argv):
        from repro.cli import main

        return main([str(a) for a in argv])

    def test_init_ingest_stats_search_round_trip(self, store_path, capsys):
        assert self.run("store", "init", "--store", store_path) == 0
        assert self.run(
            "store", "ingest", "--store", store_path, "--dataset", "wikipedia"
        ) == 0
        assert self.run("store", "stats", "--store", store_path, "--json") == 0
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("{"):])
        assert stats["live_documents"] > 0
        assert self.run(
            "search", "--backend", "sqlite", "--store", store_path,
            "--query", "java", "--top", "3",
        ) == 0
        assert "wiki-" in capsys.readouterr().out

    def test_jsonl_ingest_delete_compact_snapshot(
        self, store_path, tmp_path, capsys
    ):
        jsonl = tmp_path / "docs.jsonl"
        jsonl.write_text(
            "\n".join([
                json.dumps({"doc_id": "a", "text": "coffee espresso brew"}),
                json.dumps({"doc_id": "b", "terms": {"espresso": 2}}),
                "",
            ]),
            encoding="utf-8",
        )
        assert self.run(
            "store", "ingest", "--store", store_path, "--jsonl", jsonl
        ) == 0
        assert self.run("store", "delete", "--store", store_path, "a") == 0
        assert self.run("store", "compact", "--store", store_path) == 0
        snap = tmp_path / "snap.sqlite"
        assert self.run(
            "store", "snapshot", "--store", store_path, "--dest", snap
        ) == 0
        capsys.readouterr()
        copy = DocumentStore(snap)
        assert copy.num_live == 1
        assert "b" in copy and "a" not in copy

    def test_search_with_empty_store_and_no_dataset_fails(
        self, store_path, capsys
    ):
        assert self.run(
            "search", "--store", store_path, "--query", "java"
        ) == 2
        assert "empty" in capsys.readouterr().err

    def test_store_conflicts_with_other_backends(self, store_path, capsys):
        from repro.api import BACKENDS

        # Both built-ins are legal with --store ("memory" is the flag's
        # default), so the conflict needs a third, registered backend.
        BACKENDS.register("carrier-pigeon", BACKENDS.get("memory"))
        try:
            assert self.run(
                "search", "--store", store_path, "--backend", "carrier-pigeon",
                "--query", "java",
            ) == 2
        finally:
            BACKENDS.unregister("carrier-pigeon")
        assert "sqlite" in capsys.readouterr().err

    def test_search_without_dataset_or_store_fails(self, capsys):
        assert self.run("search", "--query", "java") == 2
        assert "--dataset" in capsys.readouterr().err
