"""The durable, mutable document store behind the ``"sqlite"`` backend.

A :class:`DocumentStore` owns one SQLite database (see
:mod:`repro.store.schema`) and exposes the full write path the rest of
the library lacks:

* **upsert** — new ``doc_id`` values append at the next position; known
  ``doc_id`` values are rewritten in place at their existing position
  (payload and postings replaced, tombstone cleared), so the mapping
  ``doc_id -> position`` is stable for the lifetime of the store;
* **delete** — a tombstone: the document row stays (positions are
  permanent), its postings stop matching queries immediately, and
  :meth:`compact` later rewrites the postings table without them;
* **compact** — drops tombstoned postings and orphaned vocabulary
  entries, then ``VACUUM``\\ s the file;
* **snapshot / restore** — a transactionally consistent copy of the
  whole store via the SQLite backup API, safe while readers and the
  writer are live;
* **generation** — a monotonic counter bumped by every committed
  mutation, persisted in ``meta`` and shown to readers only after the
  commit; it keys every cache above the store, so nothing cached at one
  generation is served at the next;
* **changelog** — a persisted replication log: one generation-stamped
  record per committed mutation batch, written in the *same transaction*
  as the batch, tailed by :mod:`repro.feed` for incremental replica
  maintenance and truncated (behind consumer claims) by background
  compaction.

Concurrency: one writer connection guarded by a lock, plus one lazily
opened read connection per thread — under WAL, readers never block the
writer and always see the last committed state. The hot state lives in
memory as one :class:`_State` per committed batch: the documents (a
:class:`~repro.data.corpus.Corpus` in position order, tombstones
included), their lengths, the tombstones, the vocabulary, each term's
live document frequency, the generation, the changelog floor, and the
posting columns its readers fetched. So results resolve and collection
statistics answer with no SQL, and retrieval and every scorer read one
copy of each term's columns. Every backend and serving config on a
handle reads the published state, once per call. Every write runs in
one transaction path (:class:`_WriteTransaction`): the writer changes a
private copy of the state, which keeps the columns of every term the
batch did not touch, and publishes it only after COMMIT, so no reader
ever sees a batch that did not commit, and a rollback just drops the
copy. The state is loaded from the database at open and by
:meth:`DocumentStore.refresh`, which is what makes a reopen after a
crash (or a plain restart) land in exactly the committed state. It
assumes one writer *process*: a process that did not write a change
sees it only after ``refresh()`` or a reopen.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.index.postings import PostingList
from repro.obs import span as _trace_span
from repro.errors import DataError, StoreError
from repro.store import schema

_NO_POSTINGS = PostingList()


@dataclass(slots=True)
class _State:
    """One committed view of the store's hot state.

    A published state's committed content never changes: a writer
    changes the copy that :meth:`next` returns, and the copy replaces
    the published state only after COMMIT. Its :attr:`postings` memo
    only gains entries, and each is exact for this state.
    """

    generation: int
    changelog_floor: int
    #: Every document in position order, tombstoned ones included.
    corpus: Corpus
    lengths: list[int]
    deleted: set[int]
    term_ids: dict[str, int]
    #: Live document frequency per term_id; only terms with at least one
    #: live posting have an entry.
    df: dict[int, int]
    #: Live postings per term_id, filled by the first reader of a term.
    postings: dict[int, PostingList]

    def next(self) -> "_State":
        """A private copy at the next generation, for one write batch."""
        return _State(
            self.generation + 1,
            self.changelog_floor,
            self.corpus.copy(),
            self.lengths.copy(),
            self.deleted.copy(),
            self.term_ids.copy(),
            self.df.copy(),
            self.postings.copy(),
        )


class DocumentStore:
    """Durable corpus + inverted index in one SQLite file.

    Parameters
    ----------
    path:
        Database file; created (with parent directories) if missing.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.RLock()
        self._local = threading.local()
        self._closed = False
        # The writer connection; shared across threads, always used under
        # the write lock. isolation_level=None = explicit transactions.
        self._writer = sqlite3.connect(
            str(self._path), check_same_thread=False, isolation_level=None
        )
        schema.configure(self._writer)
        with self._write_lock:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            self._writer.execute("BEGIN IMMEDIATE")
            try:
                schema.create_tables(self._writer)
                self._writer.execute("COMMIT")
            except BaseException:
                self._writer.execute("ROLLBACK")
                raise
        version = int(self._meta("schema_version"))
        if version != schema.SCHEMA_VERSION:
            raise StoreError(
                f"store at {self._path} has schema version {version}; "
                f"this build reads version {schema.SCHEMA_VERSION}"
            )
        self._load_mirrors()

    # -- connections ---------------------------------------------------------

    def _read_conn(self) -> sqlite3.Connection:
        """This thread's read connection (WAL: never blocks the writer)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._closed:
                raise StoreError(f"store at {self._path} is closed")
            conn = sqlite3.connect(str(self._path), isolation_level=None)
            schema.configure(conn)
            self._local.conn = conn
        return conn

    def _meta(self, key: str) -> str:
        row = self._writer.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise StoreError(f"store at {self._path} has no meta key {key!r}")
        return row[0]

    def _load_mirrors(self) -> None:
        """Publish a state read from the committed database (open, refresh)."""
        corpus = Corpus()
        lengths: list[int] = []
        deleted: set[int] = set()
        for row in self._writer.execute(
            "SELECT pos, length, deleted, doc_id, kind, title, fields, terms "
            "FROM documents ORDER BY pos"
        ):
            pos, length, dead = row[:3]
            if pos != len(lengths):
                raise StoreError(
                    f"store at {self._path} has a position gap at {pos}; "
                    f"the documents table is corrupt"
                )
            corpus.add(self._row_to_document(row[3:]))
            lengths.append(int(length))
            if dead:
                deleted.add(pos)
        # Tombstoned postings linger until compact(), so only a store
        # with tombstones pays for the join.
        if deleted:
            df = dict(self._writer.execute(
                "SELECT p.term_id, COUNT(*) FROM postings p "
                "JOIN documents d ON d.pos = p.pos "
                "WHERE d.deleted = 0 GROUP BY p.term_id"
            ))
        else:
            df = dict(self._writer.execute(
                "SELECT term_id, COUNT(*) FROM postings GROUP BY term_id"
            ))
        self._state = _State(
            generation=int(self._meta("generation")),
            changelog_floor=int(self._meta("changelog_floor")),
            corpus=corpus,
            lengths=lengths,
            deleted=deleted,
            term_ids=self._read_term_ids(),
            df=df,
            postings={},
        )

    def _read_term_ids(self) -> dict[str, int]:
        return dict(self._writer.execute("SELECT term, term_id FROM vocabulary"))

    def close(self) -> None:
        """Close the writer connection (per-thread readers close with GC)."""
        self._closed = True
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
        self._writer.close()

    def __enter__(self) -> "DocumentStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- introspection -------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def generation(self) -> int:
        """Monotone change counter; bump = every snapshot above is stale."""
        return self._state.generation

    def __len__(self) -> int:
        """Total allocated positions, tombstones included."""
        return self.num_positions

    @property
    def num_positions(self) -> int:
        return len(self.corpus())

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def num_live(self) -> int:
        """Documents that queries can still match."""
        state = self._state
        return len(state.lengths) - len(state.deleted)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def __contains__(self, doc_id: object) -> bool:
        state = self._state
        if doc_id not in state.corpus:
            return False
        return state.corpus.position(doc_id) not in state.deleted  # type: ignore[arg-type]

    def position(self, doc_id: str) -> int:
        """Position of ``doc_id`` (live or tombstoned)."""
        try:
            return self.corpus().position(doc_id)
        except DataError:
            raise StoreError(f"unknown doc_id: {doc_id!r}") from None

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def is_deleted(self, pos: int) -> bool:
        return pos in self._state.deleted

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def deleted_positions(self) -> frozenset[int]:
        return frozenset(self._state.deleted)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def doc_length(self, pos: int) -> int:
        return self._state.lengths[pos]

    # -- document access -----------------------------------------------------

    @staticmethod
    def _row_to_document(row: tuple) -> Document:
        doc_id, kind, title, fields, terms = row
        # Term counts round-trip as JSON integers (upsert wrote them as
        # ints), so no per-term coercion on the hot cold-open path.
        return Document(
            doc_id=doc_id,
            terms=json.loads(terms),
            kind=kind,
            title=title,
            fields=json.loads(fields),
        )

    def document(self, pos: int) -> Document:
        """The document at ``pos`` (tombstoned documents keep their payload)."""
        row = self._read_conn().execute(
            "SELECT doc_id, kind, title, fields, terms FROM documents "
            "WHERE pos = ?",
            (pos,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no document at position {pos}")
        return self._row_to_document(row)

    def documents(self) -> Iterator[Document]:
        """Every document in position order, tombstones included."""
        for row in self._read_conn().execute(
            "SELECT doc_id, kind, title, fields, terms FROM documents "
            "ORDER BY pos"
        ):
            yield self._row_to_document(row)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def corpus(self) -> Corpus:
        """The published :class:`Corpus` of *all* positions, in position order.

        Tombstoned documents are included so corpus positions line up
        with the store's permanent positions — the backend never returns
        them from queries, so they are unreachable through retrieval.
        The object is never changed: a later commit publishes a new one.
        """
        return self._state.corpus

    # -- postings access -----------------------------------------------------

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def term_postings(self, term: str) -> PostingList:
        """Live postings of ``term``, memoized on the published state.

        The first reader of a term at a state fills the entry (racing
        first readers store equal lists). Its one statement reads one
        snapshot: the rows and, sorted first, the generation. A snapshot
        past the state may hold documents that a batch not yet published
        rewrote in place; then the state's corpus is read instead.
        """
        state = self._state
        term_id = state.term_ids.get(term)
        if term_id is None:
            return _NO_POSTINGS
        hit = state.postings.get(term_id)
        if hit is not None:
            return hit
        (_, generation), *rows = self._read_conn().execute(
            "SELECT pos, tf FROM postings WHERE term_id = ? UNION ALL "
            "SELECT -1, value FROM meta WHERE key = 'generation' ORDER BY 1",
            (term_id,),
        ).fetchall()
        if int(generation) != state.generation:
            corpus = enumerate(state.corpus)
            rows = [(pos, doc.terms[term]) for pos, doc in corpus if term in doc.terms]
        live = [row for row in rows if row[0] not in state.deleted]
        table = np.array(live, dtype=np.int64).reshape(-1, 2)
        hit = state.postings[term_id] = PostingList.from_columns(*table.T)
        return hit

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def document_frequency(self, term: str) -> int:
        """Live documents containing ``term`` (a mirror lookup, no SQL)."""
        state = self._state
        term_id = state.term_ids.get(term)
        return 0 if term_id is None else state.df.get(term_id, 0)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def vocabulary(self) -> list[str]:
        """Terms with at least one live posting, sorted."""
        state = self._state
        df = state.df
        return sorted(t for t, tid in state.term_ids.items() if tid in df)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def num_terms(self) -> int:
        """Count of terms with at least one live posting."""
        return len(self._state.df)

    # -- write path ----------------------------------------------------------

    def _transaction(
        self, stage: bool = True, guard: Callable[[], None] | None = None
    ) -> "_WriteTransaction":
        """The one write path: lock, guard, BEGIN, stage, COMMIT, publish."""
        return _WriteTransaction(self, stage, guard)

    def _intern_terms(self, terms: Iterable[str], state: _State) -> dict[str, int]:
        """Term → term_id, inserting unseen terms into the staged state."""
        ids = state.term_ids
        missing = [t for t in terms if t not in ids]
        for term in missing:
            cur = self._writer.execute(
                "INSERT OR IGNORE INTO vocabulary (term) VALUES (?)", (term,)
            )
            if cur.lastrowid and cur.rowcount:
                ids[term] = cur.lastrowid
            else:  # pragma: no cover - interned by a racing process
                row = self._writer.execute(
                    "SELECT term_id FROM vocabulary WHERE term = ?", (term,)
                ).fetchone()
                ids[term] = row[0]
        return ids

    def _stored_term_ids(self, pos: int, state: _State) -> list[int]:
        """Term ids of the document row at ``pos`` (transaction open).

        A primary-key read of the row's ``terms`` JSON; terms pruned from
        the vocabulary by :meth:`compact` have no postings left and are
        skipped.
        """
        (terms,) = self._writer.execute(
            "SELECT terms FROM documents WHERE pos = ?", (pos,)
        ).fetchone()
        ids = state.term_ids
        return [ids[t] for t in json.loads(terms) if t in ids]

    @staticmethod
    def _forget_df(state: _State, term_ids: Iterable[int]) -> None:
        """Forget one leaving document's terms: staged df and memoized postings."""
        df = state.df
        for term_id in term_ids:
            state.postings.pop(term_id, None)
            count = df[term_id] - 1
            if count:
                df[term_id] = count
            else:
                del df[term_id]

    def _upsert_one(self, doc: Document, state: _State) -> int:
        """Write one document inside the open transaction; return its pos."""
        corpus = state.corpus
        payload = (
            doc.kind,
            doc.title,
            json.dumps(dict(doc.fields), sort_keys=True),
            json.dumps({t: int(c) for t, c in doc.terms.items()}, sort_keys=True),
            doc.length(),
        )
        if doc.doc_id not in corpus:
            pos = corpus.add(doc)
            self._writer.execute(
                "INSERT INTO documents (pos, doc_id, kind, title, fields, "
                "terms, length) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (pos, doc.doc_id) + payload,
            )
            state.lengths.append(doc.length())
        else:
            pos = corpus.replace(doc)
            old_ids = self._stored_term_ids(pos, state)
            self._writer.execute(
                "UPDATE documents SET kind = ?, title = ?, fields = ?, "
                "terms = ?, length = ?, deleted = 0 WHERE pos = ?",
                payload + (pos,),
            )
            # By primary key: postings has no index on pos alone.
            self._writer.executemany(
                "DELETE FROM postings WHERE term_id = ? AND pos = ?",
                [(term_id, pos) for term_id in old_ids],
            )
            if pos in state.deleted:
                state.deleted.discard(pos)  # delete() already forgot its df
            else:
                self._forget_df(state, old_ids)
            state.lengths[pos] = doc.length()
        terms = sorted(doc.terms)
        ids = self._intern_terms(terms, state)
        df = state.df
        rows = []
        for term in terms:
            term_id = ids[term]
            rows.append((term_id, pos, int(doc.terms[term])))
            df[term_id] = df.get(term_id, 0) + 1
            state.postings.pop(term_id, None)
        self._writer.executemany(
            "INSERT INTO postings (term_id, pos, tf) VALUES (?, ?, ?)", rows
        )
        return pos

    def upsert(self, doc: Document) -> int:
        """Insert or rewrite one document; returns its permanent position."""
        return self.upsert_all([doc])[0]

    def upsert_all(
        self,
        documents: Iterable[Document],
        guard: Callable[["DocumentStore", list[Document]], None] | None = None,
    ) -> list[int]:
        """Upsert a batch in one transaction, published as one generation.

        An empty batch commits nothing and bumps nothing. On any error the
        whole batch rolls back and readers never saw any of it, so a
        partially bad batch never becomes durable or visible.

        ``guard(store, docs)`` — if given — runs under the write lock
        *before* the transaction begins; raising from it (e.g. a tenant
        quota check) rejects the batch atomically: no row written, no
        generation bump. The documents themselves become the published
        :meth:`corpus` with the rest of the batch.
        """
        docs = list(documents)
        if not docs:
            return []
        # The span opens before the write lock, so lock-wait under
        # contention is visible in the trace; no-op outside a request.
        with _trace_span("store.transaction", op="upsert", docs=len(docs)), \
                self._transaction(
                    guard=None if guard is None else lambda: guard(self, docs)
                ) as txn:
            positions = [self._upsert_one(doc, txn.staged) for doc in docs]
            self._log_change(txn.staged, "upsert", [doc.doc_id for doc in docs])
        return positions

    def delete(self, doc_id: str) -> int:
        """Tombstone ``doc_id``; returns the position it keeps forever.

        The payload and postings rows stay until :meth:`compact`;
        queries stop matching the document immediately. Deleting an
        unknown or already-deleted id raises :class:`StoreError`.
        """
        return self.delete_all([doc_id])[0]

    def delete_all(self, doc_ids: Iterable[str]) -> list[int]:
        """Tombstone a batch in one transaction, published as one generation."""
        ids = list(doc_ids)
        if not ids:
            return []
        with _trace_span("store.transaction", op="delete", docs=len(ids)), \
                self._transaction() as txn:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            state = txn.staged
            positions = []
            for doc_id in ids:
                if doc_id not in state.corpus:
                    raise StoreError(f"unknown doc_id: {doc_id!r}")
                pos = state.corpus.position(doc_id)
                if pos in state.deleted:
                    raise StoreError(f"doc_id already deleted: {doc_id!r}")
                self._writer.execute(
                    "UPDATE documents SET deleted = 1 WHERE pos = ?", (pos,)
                )
                state.deleted.add(pos)
                self._forget_df(state, self._stored_term_ids(pos, state))
                positions.append(pos)
            self._log_change(state, "delete", ids)
        return positions

    def _log_change(
        self,
        state: _State,
        kind: str,
        doc_ids: Iterable[str],
        payload: dict[str, Any] | None = None,
    ) -> None:
        """Append one replication-log record inside the open transaction.

        The record carries the staged state's generation and commits (or
        rolls back) atomically with the data it describes. Document
        payloads are not copied here — the changefeed materializes them
        from ``documents`` at read time, so the log stays O(batch) small
        and replays always converge on the latest stored payload.
        """
        self._writer.execute(
            "INSERT INTO changelog (generation, kind, doc_ids, payload) "
            "VALUES (?, ?, ?, ?)",
            (
                state.generation,
                kind,
                json.dumps(list(doc_ids)),
                json.dumps(payload or {}, sort_keys=True),
            ),
        )

    # -- maintenance ---------------------------------------------------------

    def compact(self, vacuum: bool = True) -> dict[str, int]:
        """Rewrite postings without tombstones, prune vocabulary, VACUUM.

        Document rows (and their positions) survive — including
        tombstoned ones, which keep their payload so position-aligned
        corpora stay loadable. Returns counts of what was dropped.

        ``vacuum=False`` skips the VACUUM + WAL checkpoint — the
        background :class:`~repro.feed.CompactionScheduler` uses it so
        its periodic compactions hold the write lock for microseconds
        instead of a full file rewrite; reclaiming disk bytes is then an
        explicit ``repro store compact`` decision.

        Compaction is itself a logged mutation (``kind="compact"``):
        changefeed tailers replay it against their private snapshot, so
        a replica's postings stay as dense as the source's and its
        generation counter stays aligned with the source's.
        """
        with _trace_span("store.transaction", op="compact"), \
                self._transaction() as txn:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            dropped = self._writer.execute(
                "DELETE FROM postings WHERE pos IN "
                "(SELECT pos FROM documents WHERE deleted = 1)"
            ).rowcount
            orphaned = self._writer.execute(
                "DELETE FROM vocabulary WHERE NOT EXISTS "
                "(SELECT 1 FROM postings p WHERE p.term_id = vocabulary.term_id)"
            ).rowcount
            # The df mirror and postings memo need no pruning: compaction
            # drops no live posting, and an insert that reuses a pruned
            # term_id pops its memo entry.
            txn.staged.term_ids = self._read_term_ids()
            self._log_change(
                txn.staged,
                "compact",
                [],
                {"postings_dropped": int(dropped), "terms_dropped": int(orphaned)},
            )
        if vacuum:
            with self._write_lock:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
                self._writer.execute("VACUUM")
                # Fold the WAL back into the main file so the VACUUM's
                # space savings are visible on disk, not parked in the
                # -wal file.
                self._writer.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return {"postings_dropped": int(dropped), "terms_dropped": int(orphaned)}

    # -- replication log -----------------------------------------------------

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def changelog_floor(self) -> int:
        """Newest generation *not* in the log (rows cover floor+1..generation)."""
        return self._state.changelog_floor

    def changelog_length(self) -> int:
        """Count of replication-log records still retained."""
        (count,) = self._read_conn().execute(
            "SELECT COUNT(*) FROM changelog"
        ).fetchone()
        return int(count)

    def truncate_changelog(self, upto: int) -> int:
        """Drop log records with ``generation <= upto``; returns how many.

        Raises the changelog floor (never lowers it, never past the
        current generation). Truncation is maintenance, not mutation: it
        does **not** bump the generation — the log must stay contiguous
        from floor+1 to generation. The new floor is published after the
        COMMIT.
        """
        with self._transaction(stage=False) as txn:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            state = self._state
            floor = max(state.changelog_floor, min(int(upto), state.generation))
            dropped = self._writer.execute(
                "DELETE FROM changelog WHERE generation <= ?", (floor,)
            ).rowcount
            self._writer.execute(
                "UPDATE meta SET value = ? WHERE key = 'changelog_floor'",
                (str(floor),),
            )
            # No mirror changes, so the staged state shares them.
            txn.staged = replace(state, changelog_floor=floor)
        return int(dropped)

    def claim(self, consumer: str, generation: int) -> None:
        """Record that ``consumer`` has applied everything up to ``generation``.

        Claims bound changelog truncation (:meth:`truncate_changelog`
        callers take ``min`` over them) so an attached tailer is never
        handed a gap while it is keeping up.
        """
        if not consumer:
            raise StoreError("feed consumers need a non-empty name")
        with self._write_lock:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            self._writer.execute(
                "INSERT INTO feed_claims (consumer, generation, updated) "
                "VALUES (?, ?, ?) ON CONFLICT(consumer) DO UPDATE SET "
                "generation = excluded.generation, updated = excluded.updated",
                (consumer, int(generation), time.time()),
            )

    def claims(self) -> dict[str, int]:
        """Per-consumer applied generations (see :meth:`claim`)."""
        return {
            consumer: int(generation)
            for consumer, generation in self._read_conn().execute(
                "SELECT consumer, generation FROM feed_claims"
            )
        }

    def oldest_unclaimed_generation(self) -> int:
        """First generation some registered consumer has yet to apply.

        With no registered consumers every committed generation is
        considered applied, so this is ``generation + 1`` — the
        compaction trigger reads it as "the log prefix is free".
        """
        claims = self.claims()
        if not claims:
            return self.generation + 1
        return min(claims.values()) + 1

    def refresh(self) -> None:
        """Reload the in-memory mirrors if another process moved the file.

        The store assumes one writer *process*; tooling that hands the
        file between processes sequentially (CLI ingest, then a serving
        coordinator) calls this before writing so position allocation
        starts from the committed state, not a stale mirror. Cheap when
        nothing changed: a single meta read decides whether to reload.
        """
        with self._write_lock:
            if int(self._meta("generation")) != self._state.generation:
                self._load_mirrors()

    def snapshot(self, dest: str | Path) -> Path:
        """Write a consistent copy of the store to ``dest`` (backup API).

        Safe with live readers and a live writer: the backup sees one
        transactionally consistent point in time. The snapshot is a
        complete store file — open it with ``DocumentStore(dest)`` or
        copy it back with :meth:`restore`.
        """
        dest = Path(dest)
        if dest.resolve() == self._path.resolve():
            raise StoreError("snapshot destination must differ from the store path")
        dest.parent.mkdir(parents=True, exist_ok=True)
        if dest.exists():
            dest.unlink()
        target = sqlite3.connect(str(dest))
        try:
            with self._write_lock:  # analyze: ignore[LOCK001] - the backup runs under the write lock on purpose: a consistent copy requires the writer paused
                self._writer.backup(target)
        finally:
            target.close()
        return dest

    @classmethod
    def restore(cls, snapshot: str | Path, dest: str | Path) -> "DocumentStore":
        """Copy ``snapshot`` to ``dest`` and open the restored store."""
        snapshot = Path(snapshot)
        if not snapshot.exists():
            raise StoreError(f"no snapshot at {snapshot}")
        dest = Path(dest)
        if dest.resolve() == snapshot.resolve():
            raise StoreError("restore destination must differ from the snapshot")
        dest.parent.mkdir(parents=True, exist_ok=True)
        if dest.exists():
            dest.unlink()
        src = sqlite3.connect(str(snapshot))
        target = sqlite3.connect(str(dest))
        try:
            src.backup(target)
        finally:
            target.close()
            src.close()
        return cls(dest)

    # analyze: ignore[GUARD001] - lock-free reader by design: it reads the published state once, and a published state never changes
    def stats(self) -> dict[str, Any]:
        """JSON-ready store statistics (for ``repro store stats`` and tests)."""
        conn = self._read_conn()
        (postings,) = conn.execute("SELECT COUNT(*) FROM postings").fetchone()
        (terms,) = conn.execute("SELECT COUNT(*) FROM vocabulary").fetchone()
        size = 0
        for suffix in ("", "-wal"):
            try:
                size += os.path.getsize(str(self._path) + suffix)
            except OSError:
                continue
        state = self._state
        documents = len(state.lengths)
        tombstones = len(state.deleted)
        return {
            "path": str(self._path),
            "schema_version": schema.SCHEMA_VERSION,
            "generation": state.generation,
            "documents": documents,
            "live_documents": documents - tombstones,
            "tombstones": tombstones,
            # The compaction trigger's inputs (see repro.feed): how much
            # of the store is dead weight, how long the replication log
            # has grown, and where the slowest feed consumer stands.
            "tombstone_ratio": tombstones / documents if documents else 0.0,
            "changelog_len": self.changelog_length(),
            "changelog_floor": state.changelog_floor,
            "oldest_unclaimed_generation": self.oldest_unclaimed_generation(),
            "terms": int(terms),
            "postings": int(postings),
            "file_bytes": int(size),
        }


class _WriteTransaction:
    """The store's one write path.

    In order: take the write lock, run the ``guard``, BEGIN, stage (a
    private copy of the published state at the next generation, whose
    number is written to ``meta``), run the body, COMMIT, publish the
    staged state, release the lock. The
    body changes only :attr:`staged`. Anything that raises, COMMIT
    included, rolls back and drops the copy, so readers never see a
    batch that did not commit. With ``stage=False`` the body may set
    :attr:`staged` itself, or publish nothing.
    """

    def __init__(
        self,
        store: DocumentStore,
        stage: bool,
        guard: Callable[[], None] | None,
    ) -> None:
        self._store = store
        self._stage = stage
        self._guard = guard
        self.staged: _State | None = None

    def __enter__(self) -> "_WriteTransaction":
        store = self._store
        store._write_lock.acquire()
        try:
            if self._guard is not None:
                self._guard()
            store._writer.execute("BEGIN IMMEDIATE")
            if self._stage:
                self.staged = store._state.next()
                store._writer.execute(
                    "UPDATE meta SET value = ? WHERE key = 'generation'",
                    (str(self.staged.generation),),
                )
        except BaseException:
            self._abort()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._abort()
            return
        store = self._store
        try:
            store._writer.execute("COMMIT")
        except BaseException:
            self._abort()
            raise
        if self.staged is not None:
            store._state = self.staged
        store._write_lock.release()

    def _abort(self) -> None:
        """Roll back whatever is open, drop the copy, release the lock."""
        self.staged = None
        try:
            if self._store._writer.in_transaction:
                self._store._writer.execute("ROLLBACK")
        finally:
            self._store._write_lock.release()
