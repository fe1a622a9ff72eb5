"""Regression tests for the concurrency defects the analyzer surfaced.

Each test pins one genuine fix from the PR that introduced
``repro.devtools``: the findings were triaged, the real ones fixed, and
these tests keep them fixed (the fixture-corpus twins in
``tests/analyze_fixtures`` keep the *analyzer* able to see them).
"""

import threading

import pytest

from repro.data.documents import make_text_document
from repro.pipeline import StageStats
from repro.serve.app import ExpansionServer
from repro.serve.cluster.server import ClusterServer
from repro.store.store import DocumentStore
from repro.text.analyzer import Analyzer


class TestMetricsSnapshotTornRead:
    def test_snapshot_races_first_seen_stage_insertion(self):
        # PR 6 shape: snapshot() iterated the live _stages dict while
        # observe() inserted first-seen stages -> "dictionary changed
        # size during iteration". Hammer both sides concurrently.
        stats = StageStats()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                stats.observe(f"stage-{i}", 0.001)
                i += 1

        def reader():
            while not stop.is_set():
                try:
                    stats.snapshot()
                except RuntimeError as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        stop.wait(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert errors == []
        snap = stats.snapshot()
        assert snap  # writers made progress
        assert all("count" in stats for stats in snap.values())


class TestCompactTermMapConsistency:
    def test_compact_racing_upserts_keeps_terms_queryable(self, tmp_path):
        # compact() used to rebuild the _term_ids mirror after releasing
        # the write lock; a concurrent upsert's freshly interned terms
        # could be clobbered by the stale rebuild. Now the rebuild is
        # inside the lock, so every term of every committed doc resolves.
        analyzer = Analyzer(use_stemming=False)
        store = DocumentStore(tmp_path / "race.db")
        store.upsert_all(
            make_text_document(
                doc_id=f"seed-{i}",
                text=f"common seed{i}",
                analyzer=analyzer,
                title="s",
            )
            for i in range(20)
        )
        store.delete_all(f"seed-{i}" for i in range(0, 20, 2))
        stop = threading.Event()
        failures = []

        def upserter():
            i = 0
            while not stop.is_set():
                term = f"fresh{i}"
                store.upsert_all(
                    [
                        make_text_document(
                            doc_id=f"new-{i}",
                            text=f"common {term}",
                            analyzer=analyzer,
                            title="n",
                        )
                    ]
                )
                if not store.term_postings(term):
                    failures.append(term)  # pragma: no cover - the bug
                    return
                i += 1

        t = threading.Thread(target=upserter)
        t.start()
        for _ in range(5):
            store.compact()
        stop.set()
        t.join(timeout=10)
        assert failures == []
        vocab = set(store.vocabulary())
        assert "common" in vocab
        store.close()


class _StubCoordinator:
    """Stands in for ClusterCoordinator: counts lifecycle calls."""

    def __init__(self):
        self.starts = 0
        self.stops = 0
        self._stop_entered = threading.Event()

    def start(self):
        self.starts += 1

    def stop(self):
        self.stops += 1
        self._stop_entered.set()

    def handle(self, *a, **kw):  # pragma: no cover - no requests sent
        raise AssertionError("no requests expected")


class TestClusterServerShutdown:
    def test_racing_stops_neither_deadlock_nor_double_drain(self):
        coord = _StubCoordinator()
        server = ClusterServer(coord, port=0)
        server.start()
        threads = [threading.Thread(target=server.stop) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "stop() deadlocked"
        # Only the first caller drains the (potentially unbounded)
        # coordinator teardown; later callers return once the front is down.
        assert coord.stops == 1
        assert coord.starts == 1

    def test_double_start_raises_not_respawns(self):
        coord = _StubCoordinator()
        server = ClusterServer(coord, port=0)
        server.start()
        try:
            with pytest.raises(Exception, match="already started"):
                server.start()
            assert coord.starts == 1
        finally:
            server.stop()


class _StubService:
    def __init__(self):
        self.closed = 0

    def close(self, drain_timeout=10.0):
        self.closed += 1

    def handle(self, *a, **kw):  # pragma: no cover - no requests sent
        raise AssertionError("no requests expected")


class TestExpansionServerStartStopRace:
    def test_concurrent_starts_spawn_exactly_one_thread(self):
        service = _StubService()
        server = ExpansionServer(service, port=0)
        wins, losses = [], []

        def try_start():
            try:
                server.start()
                wins.append(1)
            except Exception:
                losses.append(1)

        threads = [threading.Thread(target=try_start) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(wins) == 1
        assert len(losses) == 5
        server.stop(close_service=False)

    def test_racing_stops_close_service_once_each_call(self):
        service = _StubService()
        server = ExpansionServer(service, port=0)
        server.start()
        threads = [threading.Thread(target=server.stop) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "stop() deadlocked"

    def test_second_stop_returns_only_after_the_drain(self):
        # The signal handler's stop and the CLI's finally: stop race; the
        # loser must not return (and let the process exit) mid-drain.
        entered, release = threading.Event(), threading.Event()

        class _SlowService(_StubService):
            def close(self, drain_timeout=10.0):
                entered.set()
                release.wait(10)
                super().close(drain_timeout)

        service = _SlowService()
        server = ExpansionServer(service, port=0).start()
        first = threading.Thread(target=server.stop)
        first.start()
        assert entered.wait(10)
        second = threading.Thread(target=server.stop)
        second.start()
        second.join(0.3)
        assert second.is_alive(), "second stop() returned mid-drain"
        release.set()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert service.closed == 1
