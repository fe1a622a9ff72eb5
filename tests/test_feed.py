"""Tests for repro.feed: the changelog, the reader, the tailer, compaction.

The contract under test (see API.md "Changefeed"):

* log records commit in the same transaction as the mutation batch —
  a failed batch leaves no log row and no generation bump;
* ``read_since(g)`` returns records ``g+1..`` oldest-first, with upsert
  payloads materialized from the documents table (latest version);
* truncation raises the floor; asking below the floor is a *gap*, not an
  error — tailers fall back to a snapshot and resume;
* a tailer applies each generation exactly once, survives a consumer
  that raises mid-batch, and a replica built by tailing is
  indistinguishable from one rebuilt flat from the source.
"""

from __future__ import annotations

import json
import random
import sqlite3
import time

import pytest

from repro.data.documents import make_text_document
from repro.errors import FeedError, StoreError
from repro.feed import (
    Changefeed,
    CompactionScheduler,
    FeedEntry,
    FeedTailer,
    apply_entry,
    batch_to_payload,
    decode_feed_cursor,
    encode_feed_cursor,
)
from repro.store import DocumentStore, SQLiteIndexBackend


def _docs(n, offset=0, salt=""):
    return [
        make_text_document(
            f"d{offset + i}", f"alpha beta{salt} word{offset + i} common"
        )
        for i in range(n)
    ]


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "source.sqlite"


@pytest.fixture
def store(store_path):
    with DocumentStore(store_path) as s:
        yield s


# -- the log itself ----------------------------------------------------------


class TestChangelog:
    def test_every_batch_logs_one_generation_stamped_record(self, store):
        store.upsert_all(_docs(3))
        store.upsert_all(_docs(2, offset=3))
        store.delete_all(["d0", "d1"])
        store.compact(vacuum=False)
        with Changefeed(store.path) as feed:
            batch = feed.read_since(0)
        assert [(e.generation, e.kind) for e in batch] == [
            (1, "upsert"), (2, "upsert"), (3, "delete"), (4, "compact"),
        ]
        assert batch.entries[2].doc_ids == ("d0", "d1")
        assert store.generation == 4

    def test_failed_batch_leaves_no_log_row(self, store):
        store.upsert_all(_docs(2))
        with pytest.raises(StoreError):
            store.delete_all(["d0", "no-such-doc"])  # rolls back mid-batch
        assert store.generation == 1
        with Changefeed(store.path) as feed:
            batch = feed.read_since(0)
        assert [e.generation for e in batch] == [1]
        assert "d0" in store  # the rollback kept the delete out too

    def test_truncation_raises_floor_without_bumping_generation(self, store):
        store.upsert_all(_docs(2))
        store.upsert_all(_docs(2, offset=2))
        assert store.truncate_changelog(1) == 1
        assert store.changelog_floor == 1
        assert store.generation == 2
        assert store.changelog_length() == 1
        # Floor never lowers, never passes the generation.
        assert store.truncate_changelog(0) == 0
        assert store.truncate_changelog(99) == 1
        assert store.changelog_floor == 2

    def test_stats_expose_compaction_trigger_inputs(self, store):
        store.upsert_all(_docs(4))
        store.delete("d0")
        stats = store.stats()
        assert stats["tombstone_ratio"] == pytest.approx(0.25)
        assert stats["changelog_len"] == 2
        assert stats["changelog_floor"] == 0
        # No consumers: the whole prefix counts as applied.
        assert stats["oldest_unclaimed_generation"] == store.generation + 1
        store.claim("r0", 1)
        assert store.stats()["oldest_unclaimed_generation"] == 2

    def test_pre_changelog_store_migrates_to_gap(self, store_path):
        # Fabricate a store written before the changelog existed: drop
        # the log tables and the floor key, leaving generation at 3.
        with DocumentStore(store_path) as s:
            s.upsert_all(_docs(2))
            s.upsert_all(_docs(1, offset=2))
            s.delete("d0")
        conn = sqlite3.connect(str(store_path))
        conn.execute("DROP TABLE changelog")
        conn.execute("DROP TABLE feed_claims")
        conn.execute("DELETE FROM meta WHERE key = 'changelog_floor'")
        conn.commit()
        conn.close()
        with DocumentStore(store_path) as reopened:
            assert reopened.generation == 3
            # The floor seeds from the current generation: history that
            # predates the log is simply not replayable.
            assert reopened.changelog_floor == 3
            with Changefeed(reopened.path) as feed:
                batch = feed.read_since(0)
            assert batch.gap is True
            assert batch.floor == 3
            # New mutations log normally from here on.
            reopened.upsert_all(_docs(1, offset=3))
            with Changefeed(reopened.path) as feed:
                resumed = feed.read_since(3)
            assert not resumed.gap
            assert [e.generation for e in resumed] == [4]


# -- the reader --------------------------------------------------------------


class TestChangefeedReader:
    def test_read_since_pages_oldest_first(self, store):
        for i in range(5):
            store.upsert_all(_docs(1, offset=i))
        with Changefeed(store) as feed:
            first = feed.read_since(0, limit=2)
            assert [e.generation for e in first] == [1, 2]
            assert not first.exhausted
            second = feed.read_since(first.last_generation, limit=10)
            assert [e.generation for e in second] == [3, 4, 5]
            assert second.exhausted

    def test_upserts_materialize_latest_payload(self, store):
        store.upsert_all([make_text_document("d0", "original words here")])
        store.upsert_all([make_text_document("d0", "rewritten body")])
        with Changefeed(store.path) as feed:
            batch = feed.read_since(0)
        # Both log records exist, but each carries the *latest* committed
        # payload: replaying old entries converges on current state.
        assert len(batch) == 2
        for entry in batch:
            (doc,) = entry.documents
            assert doc["doc_id"] == "d0"
            assert "rewritten" in doc["terms"]

    def test_gap_is_a_signal_not_an_error(self, store):
        store.upsert_all(_docs(3))
        store.upsert_all(_docs(1, offset=3))
        store.upsert_all(_docs(1, offset=4))
        store.truncate_changelog(2)
        with Changefeed(store.path) as feed:
            gapped = feed.read_since(1)
            assert gapped.gap is True and len(gapped) == 0
            assert gapped.floor == 2
            ok = feed.read_since(2)
            assert not ok.gap
            assert [e.generation for e in ok] == [3]

    def test_consumer_claims_are_recorded(self, store):
        store.upsert_all(_docs(2))
        with Changefeed(store.path) as feed:
            feed.read_since(0, consumer="tail-a")
            feed.read_since(1, consumer="tail-a")
            feed.read_since(1, consumer="tail-b")
        assert store.claims() == {"tail-a": 1, "tail-b": 1}

    def test_bad_arguments_raise_feed_error(self, store):
        store.upsert_all(_docs(1))
        feed = Changefeed(store.path)
        with pytest.raises(FeedError):
            feed.read_since(-1)
        with pytest.raises(FeedError):
            feed.read_since(0, limit=0)
        feed.close()
        with pytest.raises(FeedError):
            feed.read_since(0)
        with pytest.raises(FeedError):
            Changefeed(store.path.with_name("missing.sqlite"))

    def test_cursor_round_trip_and_rejection(self):
        token = encode_feed_cursor("db", 41)
        state = decode_feed_cursor(token)
        assert state["config"] == "db" and state["generation"] == 41
        for junk in ("", "!!!!", "bm90LWpzb24", encode_feed_cursor("db", 1)[:-4] + "AAAA"):
            with pytest.raises(FeedError):
                decode_feed_cursor(junk)
        # A non-changefeed token with valid base64 JSON is refused too.
        import base64

        other = base64.urlsafe_b64encode(
            json.dumps({"endpoint": "search", "offset": 0}).encode()
        ).decode().rstrip("=")
        with pytest.raises(FeedError):
            decode_feed_cursor(other)

    def test_batch_payload_shape(self, store):
        store.upsert_all(_docs(2))
        with Changefeed(store.path) as feed:
            payload = batch_to_payload("db", feed.read_since(0), 128)
        assert payload["config"] == "db"
        assert payload["count"] == 1 and payload["gap"] is False
        assert payload["exhausted"] is True
        entry = FeedEntry.from_dict(payload["entries"][0])
        assert entry.kind == "upsert" and len(entry.documents) == 2
        assert decode_feed_cursor(payload["next_cursor"])["generation"] == 1


# -- the tailer --------------------------------------------------------------


def _replica(tmp_path, name="replica"):
    return SQLiteIndexBackend(tmp_path / f"{name}.sqlite")


class TestFeedTailer:
    def test_tailed_replica_converges_and_aligns_generations(
        self, store, tmp_path
    ):
        store.upsert_all(_docs(3))
        store.delete("d1")
        replica = _replica(tmp_path)
        with Changefeed(store.path) as feed:
            tailer = FeedTailer(feed, replica, start_after=0, consumer="r0")
            tailer.catch_up()
            assert tailer.applied == store.generation
            assert tailer.lag == 0
            # Generation alignment: one applied record = one local batch,
            # so replica generation == applied source generation.
            assert replica.generation == store.generation
            assert replica.store.num_live == store.num_live
            assert "d1" not in replica.store and "d2" in replica.store
            stats = tailer.stats()
            assert stats["entries_applied"] == 2
            assert stats["snapshot_fallbacks"] == 0
        replica.close()

    def test_crashing_consumer_does_not_wedge_the_feed(self, store, tmp_path):
        store.upsert_all(_docs(2))
        store.upsert_all(_docs(2, offset=2))
        replica = _replica(tmp_path)
        failures = {"left": 3}

        class Flaky:
            """Raises on the first N apply calls, then works."""

            def add_all(self, documents):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient consumer bug")
                return replica.add_all(documents)

            def remove(self, target):
                return replica.remove(target)

        with Changefeed(store.path) as feed:
            tailer = FeedTailer(
                feed, Flaky(), start_after=0, poll_interval=0.01
            )
            tailer.start()
            deadline = time.monotonic() + 10
            while tailer.applied < store.generation:
                assert time.monotonic() < deadline, tailer.stats()
                time.sleep(0.01)
            tailer.stop()
            stats = tailer.stats()
        assert stats["errors"] == 3
        assert "transient consumer bug" in stats["last_error"]
        # Exactly-once despite the retries: each generation applied once.
        assert stats["entries_applied"] == store.generation
        assert replica.store.num_live == store.num_live
        replica.close()

    def test_gap_without_callback_stops_with_gap_status(self, store, tmp_path):
        store.upsert_all(_docs(3))
        store.truncate_changelog(2)
        replica = _replica(tmp_path)
        with Changefeed(store.path) as feed:
            tailer = FeedTailer(feed, replica, start_after=0)
            batch = tailer.run_once()
            assert batch.gap is True
            stats = tailer.stats()
        assert stats["status"] == "gap"
        assert stats["snapshot_fallbacks"] == 1
        replica.close()

    def test_gap_snapshot_fallback_then_resume(self, store, tmp_path):
        store.upsert_all(_docs(4))
        snapshot = tmp_path / "snap.sqlite"
        store.snapshot(snapshot)
        snapshot_generation = store.generation
        store.upsert_all(_docs(2, offset=4))
        store.truncate_changelog(store.generation)  # tailer's range is gone
        store.upsert_all(_docs(1, offset=6))

        state = {"backend": _replica(tmp_path, "initial"), "fallbacks": 0}

        def on_gap(tailer, batch):
            # The snapshot-fallback contract: re-hydrate from a snapshot
            # at or past the floor, resume from its generation.
            state["backend"].close()
            restored = DocumentStore.restore(snapshot, tmp_path / "rehydrated.sqlite")
            # The snapshot predates the floor here, so replay the missing
            # committed documents by re-copying current source docs; in
            # the cluster this is "cut a fresh snapshot now".
            restored.close()
            fresh = tmp_path / "fresh.sqlite"
            store.snapshot(fresh)
            state["backend"] = SQLiteIndexBackend(fresh)
            state["fallbacks"] += 1
            tailer._backend = state["backend"]
            return store.generation  # resume point = snapshot generation

        with Changefeed(store.path) as feed:
            tailer = FeedTailer(
                feed,
                state["backend"],
                start_after=snapshot_generation,
                on_gap=on_gap,
            )
            gap_batch = tailer.run_once()
            assert gap_batch.gap is True
            assert state["fallbacks"] == 1
            # Resumed: new mutations keep flowing through the tailer.
            store.upsert_all(_docs(1, offset=7))
            tailer.catch_up()
            assert tailer.applied == store.generation
            assert tailer.stats()["snapshot_fallbacks"] == 1
        assert state["backend"].store.num_live == store.num_live
        state["backend"].close()

    def test_apply_entry_rejects_unknown_kind(self, tmp_path):
        entry = FeedEntry(generation=1, kind="mystery", doc_ids=())
        with pytest.raises(FeedError):
            apply_entry(entry, object())

    def test_delete_of_unknown_doc_is_tolerated(self, store, tmp_path):
        # A tailer replaying after snapshot fallback can see deletes for
        # documents its snapshot never contained.
        replica = _replica(tmp_path)
        replica.add_all(_docs(1))
        entry = FeedEntry(generation=9, kind="delete", doc_ids=("ghost",))
        apply_entry(entry, replica)  # no raise
        replica.close()

    def test_background_loop_start_stop(self, store, tmp_path):
        replica = _replica(tmp_path)
        with Changefeed(store.path) as feed:
            tailer = FeedTailer(feed, replica, poll_interval=0.01)
            tailer.start()
            assert tailer.running
            store.upsert_all(_docs(2))
            deadline = time.monotonic() + 10
            while tailer.applied < store.generation:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            tailer.stop()
            assert not tailer.running
            assert tailer.stats()["status"] == "stopped"
        replica.close()


# -- randomized interleaving: tailed replica == flat rebuild ------------------


def _live_state(store: DocumentStore) -> dict[str, dict]:
    """Live doc_id -> term bag (the observable retrieval state)."""
    out = {}
    for pos, doc in enumerate(store.documents()):
        if not store.is_deleted(pos):
            out[doc.doc_id] = dict(doc.terms)
    return out


@pytest.mark.parametrize("seed", [7, 23, 61])
def test_interleaved_history_replays_exactly_once(tmp_path, seed):
    rng = random.Random(seed)
    source = DocumentStore(tmp_path / f"src-{seed}.sqlite")
    replica = SQLiteIndexBackend(tmp_path / f"rep-{seed}.sqlite")
    feed = Changefeed(source.path)
    tailer = FeedTailer(feed, replica, start_after=0, consumer="prop")

    next_id = 0
    live_ids: list[str] = []
    for step in range(40):
        op = rng.random()
        if op < 0.55 or not live_ids:
            batch = []
            for _ in range(rng.randint(1, 3)):
                if live_ids and rng.random() < 0.3:
                    doc_id = rng.choice(live_ids)  # rewrite in place
                else:
                    doc_id = f"doc-{next_id}"
                    next_id += 1
                    live_ids.append(doc_id)
                batch.append(
                    make_text_document(
                        doc_id, f"body {rng.randint(0, 9)} step {step} common"
                    )
                )
            source.upsert_all(batch)
        elif op < 0.85:
            victims = rng.sample(live_ids, k=min(len(live_ids), rng.randint(1, 2)))
            source.delete_all(victims)
            for doc_id in victims:
                live_ids.remove(doc_id)
        else:
            source.compact(vacuum=False)
        if rng.random() < 0.4:
            tailer.catch_up()  # interleave application with mutation
    tailer.catch_up()

    # Exactly-once per generation: every log record applied once.
    assert tailer.applied == source.generation
    assert tailer.stats()["entries_applied"] == source.generation
    assert replica.generation == source.generation

    # The tailed replica's observable state equals a flat rebuild's.
    assert _live_state(replica.store) == _live_state(source)
    flat = SQLiteIndexBackend(tmp_path / f"flat-{seed}.sqlite")
    flat.add_all([doc for doc in source.documents() if doc.doc_id in _live_state(source)])
    for term in ("common", "body"):
        tailed_ids = {
            replica.corpus[pos].doc_id for pos in replica.or_query([term])
        }
        flat_ids = {flat.corpus[pos].doc_id for pos in flat.or_query([term])}
        assert tailed_ids == flat_ids
    feed.close()
    flat.close()
    replica.close()
    source.close()


# -- the compaction scheduler ------------------------------------------------


class TestCompactionScheduler:
    def test_dual_trigger_requires_both_conditions(self, store):
        store.upsert_all(_docs(10))
        store.delete("d0")  # ratio 0.1, tombstones 1
        scheduler = CompactionScheduler(
            store, min_tombstones=2, tombstone_ratio=0.15, changelog_keep=0
        )
        assert scheduler.run_once()["compacted"] is False
        store.delete("d1")  # ratio 0.2, tombstones 2 — both thresholds met
        assert scheduler.run_once()["compacted"] is True
        assert store.stats()["tombstones"] == 2  # tombstones stay; postings drop
        assert scheduler.stats()["compactions"] == 1

    def test_truncation_is_claim_bounded(self, store):
        store.upsert_all(_docs(3))
        store.upsert_all(_docs(3, offset=3))
        store.claim("slow-tailer", 1)
        scheduler = CompactionScheduler(
            store, min_tombstones=999, tombstone_ratio=0.99, changelog_keep=0
        )
        result = scheduler.run_once()
        # Only the slow consumer's applied prefix may go.
        assert result["truncated"] == 1
        assert store.changelog_floor == 1
        store.claim("slow-tailer", store.generation)
        assert scheduler.run_once()["truncated"] == 1
        assert store.changelog_floor == store.generation

    def test_keep_window_without_consumers(self, store):
        for i in range(6):
            store.upsert_all(_docs(1, offset=i))
        scheduler = CompactionScheduler(
            store, min_tombstones=999, tombstone_ratio=0.99, changelog_keep=4
        )
        assert scheduler.run_once()["truncated"] == 2
        assert store.changelog_floor == 2
        assert scheduler.run_once()["truncated"] == 0  # keep-window holds

    def test_background_thread_ticks_and_stops(self, store):
        store.upsert_all(_docs(4))
        for doc_id in ("d0", "d1"):
            store.delete(doc_id)
        scheduler = CompactionScheduler(
            store, interval=0.02, min_tombstones=1, tombstone_ratio=0.1,
            changelog_keep=0,
        )
        scheduler.start()
        deadline = time.monotonic() + 10
        while scheduler.stats()["compactions"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        scheduler.stop()
        assert not scheduler.running

    def test_bad_parameters_rejected(self, store):
        with pytest.raises(FeedError):
            CompactionScheduler(store, interval=0)
        with pytest.raises(FeedError):
            CompactionScheduler(store, tombstone_ratio=0.0)
        with pytest.raises(FeedError):
            CompactionScheduler(store, min_tombstones=0)
        with pytest.raises(FeedError):
            CompactionScheduler(store, changelog_keep=-1)


# -- the serve-tier endpoint -------------------------------------------------


class TestServeChangefeedEndpoint:
    def _service(self, store_path):
        from repro.serve import ExpansionService, ServeConfig, SessionPool

        config = ServeConfig(
            name="wiki",
            dataset="wikipedia",
            store=str(store_path),
            n_clusters=3,
            dataset_kwargs={"docs_per_sense": 6, "terms": ["java"]},
        )
        return ExpansionService(SessionPool([config]))

    def test_changefeed_over_store_backed_config(self, store_path):
        service = self._service(store_path)
        try:
            status, payload = service.handle("GET", "/changefeed", {"since": "0"})
            payload = json.loads(payload)
            assert status == 200, payload
            assert payload["config"] == "wiki"
            assert payload["count"] >= 1 and payload["gap"] is False
            assert payload["entries"][0]["kind"] == "upsert"
            # Ingest appends a record visible on the next read.
            before = payload["generation"]
            status, _ = service.handle(
                "POST", "/ingest",
                {"documents": [{"doc_id": "n1", "text": "espresso beans"}]},
            )
            assert status == 200
            status, payload = service.handle(
                "GET", "/changefeed", {"since": str(before)}
            )
            payload = json.loads(payload)
            assert status == 200
            assert [e["generation"] for e in payload["entries"]] == [before + 1]
            assert payload["entries"][0]["doc_ids"] == ["n1"]
            # Cursor resume + consumer claim registration.
            status, resumed = service.handle(
                "GET", "/changefeed",
                {"cursor": payload["next_cursor"], "consumer": "edge-1"},
            )
            resumed = json.loads(resumed)
            assert status == 200 and resumed["count"] == 0
            assert DocumentStore(store_path).claims()["edge-1"] == before + 1
        finally:
            service.close(drain_timeout=1.0)

    def test_changefeed_on_memory_config_is_400(self):
        from repro.serve import ExpansionService, ServeConfig, SessionPool

        config = ServeConfig(
            name="mem", dataset="wikipedia",
            dataset_kwargs={"docs_per_sense": 4, "terms": ["java"]},
        )
        service = ExpansionService(SessionPool([config]))
        try:
            status, payload = service.handle("GET", "/changefeed", {})
            assert status == 400
            assert "store" in payload["message"]
        finally:
            service.close(drain_timeout=1.0)

    def test_changefeed_parameter_validation(self, store_path):
        service = self._service(store_path)
        try:
            for params in (
                {"since": "nope"},
                {"limit": "0"},
                {"limit": "100000"},
                {"cursor": "garbage"},
                {"since": "1", "cursor": encode_feed_cursor("wiki", 1)},
            ):
                status, payload = service.handle("GET", "/changefeed", params)
                assert status == 400, (params, payload)
        finally:
            service.close(drain_timeout=1.0)
