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
  compaction;
* **subscribe** — mutation listeners, notified once per committed
  batch (a listener's exception is isolated; empty batches are silent).

Concurrency: one writer connection guarded by a lock, plus one lazily
opened read connection per thread — under WAL, readers never block the
writer and always see the last committed state. Hot per-document state
(lengths, tombstones, the vocabulary interning map) is mirrored in
memory so scorers pay no SQL per ``doc_length`` call. So is each term's
live document frequency (``term_id -> df``, only terms with a live
posting): ``document_frequency``, ``vocabulary`` and ``num_terms`` are
mirror reads, so idf costs a dict lookup instead of a posting-list
fetch. Writers keep every mirror current inside the transaction, under
the write lock. The mirrors are rebuilt from the database at open, after
a rolled-back write, and by :meth:`DocumentStore.refresh`, which is what
makes a reopen after a crash (or a plain restart) land in exactly the
committed state. They assume one writer *process*: a process that did
not write a change sees it only after ``refresh()`` or a reopen.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.data.corpus import Corpus
from repro.data.documents import Document
from repro.obs import span as _trace_span
from repro.errors import StoreError
from repro.store import schema

StoreListener = Callable[["DocumentStore"], None]


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
        self._listeners: list[StoreListener] = []
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
        """Rebuild the in-memory hot state from the committed database."""
        generation = int(self._meta("generation"))
        self._changelog_floor = int(self._meta("changelog_floor"))
        self._doc_lengths: list[int] = []
        self._deleted: set[int] = set()
        self._pos_by_doc_id: dict[str, int] = {}
        for pos, doc_id, length, deleted in self._writer.execute(
            "SELECT pos, doc_id, length, deleted FROM documents ORDER BY pos"
        ):
            if pos != len(self._doc_lengths):
                raise StoreError(
                    f"store at {self._path} has a position gap at {pos}; "
                    f"the documents table is corrupt"
                )
            self._doc_lengths.append(int(length))
            self._pos_by_doc_id[doc_id] = pos
            if deleted:
                self._deleted.add(pos)
        self._term_ids: dict[str, int] = {
            term: term_id
            for term_id, term in self._writer.execute(
                "SELECT term_id, term FROM vocabulary"
            )
        }
        # Live document frequency per term_id; only terms with at least
        # one live posting have an entry. Tombstoned postings linger until
        # compact(), so only a store with tombstones pays for the join.
        if self._deleted:
            rows = self._writer.execute(
                "SELECT p.term_id, COUNT(*) FROM postings p "
                "JOIN documents d ON d.pos = p.pos "
                "WHERE d.deleted = 0 GROUP BY p.term_id"
            )
        else:
            rows = self._writer.execute(
                "SELECT term_id, COUNT(*) FROM postings GROUP BY term_id"
            )
        self._df: dict[int, int] = dict(rows)
        # Last, so readers never see a new generation over old mirrors.
        self._pending_generation = self._generation = generation

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
    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def generation(self) -> int:
        """Monotone change counter; bump = every snapshot above is stale."""
        return self._generation

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def __len__(self) -> int:
        """Total allocated positions, tombstones included."""
        return len(self._doc_lengths)

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def num_positions(self) -> int:
        return len(self._doc_lengths)

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def num_live(self) -> int:
        """Documents that queries can still match."""
        return len(self._doc_lengths) - len(self._deleted)

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def __contains__(self, doc_id: object) -> bool:
        pos = self._pos_by_doc_id.get(doc_id)  # type: ignore[arg-type]
        return pos is not None and pos not in self._deleted

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def position(self, doc_id: str) -> int:
        """Position of ``doc_id`` (live or tombstoned)."""
        try:
            return self._pos_by_doc_id[doc_id]
        except KeyError:
            raise StoreError(f"unknown doc_id: {doc_id!r}") from None

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def is_deleted(self, pos: int) -> bool:
        return pos in self._deleted

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def deleted_positions(self) -> frozenset[int]:
        return frozenset(self._deleted)

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def doc_length(self, pos: int) -> int:
        return self._doc_lengths[pos]

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

    def corpus(self) -> Corpus:
        """A :class:`Corpus` of *all* positions, in position order.

        Tombstoned documents are included so corpus positions line up
        with the store's permanent positions — the backend never returns
        them from queries, so they are unreachable through retrieval.
        """
        return Corpus(self.documents())

    # -- postings access -----------------------------------------------------

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def term_postings(self, term: str) -> list[tuple[int, int]]:
        """Live ``(position, tf)`` pairs for ``term``, position-sorted."""
        term_id = self._term_ids.get(term)
        if term_id is None:
            return []
        rows = self._read_conn().execute(
            "SELECT pos, tf FROM postings WHERE term_id = ? ORDER BY pos",
            (term_id,),
        ).fetchall()
        if self._deleted:
            dead = self._deleted
            return [(pos, tf) for pos, tf in rows if pos not in dead]
        return [(int(pos), int(tf)) for pos, tf in rows]

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def document_frequency(self, term: str) -> int:
        """Live documents containing ``term`` (a mirror lookup, no SQL)."""
        term_id = self._term_ids.get(term)
        return 0 if term_id is None else self._df.get(term_id, 0)

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def vocabulary(self) -> list[str]:
        """Terms with at least one live posting, sorted."""
        df = self._df
        # Iterate a copy: the writer interns new terms in place.
        return sorted(t for t, tid in self._term_ids.copy().items() if tid in df)

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def num_terms(self) -> int:
        """Count of terms with at least one live posting."""
        return len(self._df)

    # -- mutation listeners --------------------------------------------------

    def subscribe(self, listener: StoreListener) -> Callable[[], None]:
        """Register ``listener(store)`` to run after every committed mutation.

        One notification per committed batch, none for an empty one; a
        listener that raises is skipped, not propagated to the writer or
        the other listeners. Returns a callable that unsubscribes.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify(self) -> None:
        for listener in list(self._listeners):
            try:
                listener(self)
            except Exception:  # noqa: BLE001 — listener isolation
                continue

    # -- write path ----------------------------------------------------------

    def _transaction(self):
        """Context manager: write lock + BEGIN IMMEDIATE .. COMMIT/ROLLBACK."""
        return _WriteTransaction(self)

    def _intern_terms(self, terms: Iterable[str]) -> dict[str, int]:
        """Term → term_id, inserting unseen terms (writer lock held)."""
        missing = [t for t in terms if t not in self._term_ids]
        for term in missing:
            cur = self._writer.execute(
                "INSERT OR IGNORE INTO vocabulary (term) VALUES (?)", (term,)
            )
            if cur.lastrowid and cur.rowcount:
                self._term_ids[term] = cur.lastrowid
            else:  # pragma: no cover - interned by a racing process
                row = self._writer.execute(
                    "SELECT term_id FROM vocabulary WHERE term = ?", (term,)
                ).fetchone()
                self._term_ids[term] = row[0]
        return self._term_ids

    def _stored_term_ids(self, pos: int) -> list[int]:
        """Term ids of the document row at ``pos`` (writer lock held).

        A primary-key read of the row's ``terms`` JSON; terms pruned from
        the vocabulary by :meth:`compact` have no postings left and are
        skipped.
        """
        (terms,) = self._writer.execute(
            "SELECT terms FROM documents WHERE pos = ?", (pos,)
        ).fetchone()
        ids = self._term_ids
        return [ids[t] for t in json.loads(terms) if t in ids]

    def _forget_df(self, term_ids: Iterable[int]) -> None:
        """Decrement live df for one document leaving (writer lock held)."""
        df = self._df
        for term_id in term_ids:
            count = df[term_id] - 1
            if count:
                df[term_id] = count
            else:
                del df[term_id]

    def _upsert_one(self, doc: Document) -> int:
        """Write one document inside the open transaction; return its pos."""
        existing = self._pos_by_doc_id.get(doc.doc_id)
        payload = (
            doc.kind,
            doc.title,
            json.dumps(dict(doc.fields), sort_keys=True),
            json.dumps({t: int(c) for t, c in doc.terms.items()}, sort_keys=True),
            doc.length(),
        )
        if existing is None:
            pos = len(self._doc_lengths)
            self._writer.execute(
                "INSERT INTO documents (pos, doc_id, kind, title, fields, "
                "terms, length) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (pos, doc.doc_id) + payload,
            )
            self._doc_lengths.append(doc.length())
            self._pos_by_doc_id[doc.doc_id] = pos
        else:
            pos = existing
            old_ids = self._stored_term_ids(pos)
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
            if pos in self._deleted:
                self._deleted.discard(pos)  # delete() already forgot its df
            else:
                self._forget_df(old_ids)
            self._doc_lengths[pos] = doc.length()
        terms = sorted(doc.terms)
        ids = self._intern_terms(terms)
        df = self._df
        rows = []
        for term in terms:
            term_id = ids[term]
            rows.append((term_id, pos, int(doc.terms[term])))
            df[term_id] = df.get(term_id, 0) + 1
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
        on_committed: Callable[[list[int]], None] | None = None,
        guard: Callable[["DocumentStore", list[Document]], None] | None = None,
    ) -> list[int]:
        """Upsert a batch in one transaction; listeners notified once.

        An empty batch commits nothing, bumps nothing, and notifies
        nobody. On any error the whole batch rolls back (the in-memory
        mirrors are reloaded from the committed state), so a partially
        bad batch never becomes durable.

        ``guard(store, docs)`` — if given — runs under the write lock
        *before* the transaction begins; raising from it (e.g. a tenant
        quota check) rejects the batch atomically: no row written, no
        generation bump, mirrors untouched.

        ``on_committed(positions)`` runs after the COMMIT but *before*
        the generation is published and listeners fire — the hook the
        backend uses to sync its adopted corpus, so concurrent batches
        apply their corpus updates in commit order and a reader of the
        new generation sees a consistent (store, corpus) pair.
        """
        docs = list(documents)
        if not docs:
            return []
        # The span opens before the write lock, so lock-wait under
        # contention is visible in the trace; no-op outside a request.
        with _trace_span("store.transaction", op="upsert", docs=len(docs)), \
                self._write_lock:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            if guard is not None:
                guard(self, docs)
            self._writer.execute("BEGIN IMMEDIATE")
            try:
                positions = [self._upsert_one(doc) for doc in docs]
                self._bump_generation()
                self._log_change("upsert", [doc.doc_id for doc in docs])
                self._writer.execute("COMMIT")
            except BaseException:
                self._writer.execute("ROLLBACK")
                self._load_mirrors()
                raise
            try:
                if on_committed is not None:
                    on_committed(positions)
            finally:
                self._generation = self._pending_generation
        self._notify()
        return positions

    def delete(self, doc_id: str) -> int:
        """Tombstone ``doc_id``; returns the position it keeps forever.

        The payload and postings rows stay until :meth:`compact`;
        queries stop matching the document immediately. Deleting an
        unknown or already-deleted id raises :class:`StoreError`.
        """
        return self.delete_all([doc_id])[0]

    def delete_all(self, doc_ids: Iterable[str]) -> list[int]:
        """Tombstone a batch in one transaction; listeners notified once."""
        ids = list(doc_ids)
        if not ids:
            return []
        with _trace_span("store.transaction", op="delete", docs=len(ids)), \
                self._transaction():  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            positions = []
            for doc_id in ids:
                pos = self._pos_by_doc_id.get(doc_id)
                if pos is None:
                    raise StoreError(f"unknown doc_id: {doc_id!r}")
                if pos in self._deleted:
                    raise StoreError(f"doc_id already deleted: {doc_id!r}")
                self._writer.execute(
                    "UPDATE documents SET deleted = 1 WHERE pos = ?", (pos,)
                )
                self._deleted.add(pos)
                self._forget_df(self._stored_term_ids(pos))
                positions.append(pos)
            self._bump_generation()
            self._log_change("delete", ids)
        self._notify()
        return positions

    def _bump_generation(self) -> None:
        """Write the next generation; readers see it once it commits."""
        self._pending_generation += 1
        self._writer.execute(
            "UPDATE meta SET value = ? WHERE key = 'generation'",
            (str(self._pending_generation),),
        )

    def _log_change(
        self,
        kind: str,
        doc_ids: Iterable[str],
        payload: dict[str, Any] | None = None,
    ) -> None:
        """Append one replication-log record inside the open transaction.

        Runs right after :meth:`_bump_generation`, so the record carries
        the batch's generation and commits (or rolls back) atomically
        with the data it describes. Document payloads are not copied
        here — the changefeed materializes them from ``documents`` at
        read time, so the log stays O(batch) small and replays always
        converge on the latest stored payload.
        """
        self._writer.execute(
            "INSERT INTO changelog (generation, kind, doc_ids, payload) "
            "VALUES (?, ?, ?, ?)",
            (
                self._pending_generation,
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
                self._transaction():  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            dropped = self._writer.execute(
                "DELETE FROM postings WHERE pos IN "
                "(SELECT pos FROM documents WHERE deleted = 1)"
            ).rowcount
            orphaned = self._writer.execute(
                "DELETE FROM vocabulary WHERE NOT EXISTS "
                "(SELECT 1 FROM postings p WHERE p.term_id = vocabulary.term_id)"
            ).rowcount
            self._bump_generation()
            self._log_change(
                "compact",
                [],
                {"postings_dropped": int(dropped), "terms_dropped": int(orphaned)},
            )
        with self._write_lock:  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            # The term-map rebuild uses the writer connection and replaces
            # a guarded mirror; outside the lock it would race a concurrent
            # upsert's term interning and clobber its newly-added terms.
            # The df mirror needs no pruning: writers drop a term's entry
            # when its last live posting goes, and compaction removes no
            # live posting.
            self._term_ids = {
                term: term_id
                for term_id, term in self._writer.execute(
                    "SELECT term_id, term FROM vocabulary"
                )
            }
            if vacuum:
                self._writer.execute("VACUUM")
                # Fold the WAL back into the main file so the VACUUM's
                # space savings are visible on disk, not parked in the
                # -wal file.
                self._writer.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._notify()
        return {"postings_dropped": int(dropped), "terms_dropped": int(orphaned)}

    # -- replication log -----------------------------------------------------

    @property
    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
    def changelog_floor(self) -> int:
        """Newest generation *not* in the log (rows cover floor+1..generation)."""
        return self._changelog_floor

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
        from floor+1 to generation — and does not notify listeners.
        """
        with self._transaction():  # analyze: ignore[LOCK001] - sqlite ops on the writer connection run under the write lock by design: one writer, mutators serialized
            floor = max(self._changelog_floor, min(int(upto), self._generation))
            dropped = self._writer.execute(
                "DELETE FROM changelog WHERE generation <= ?", (floor,)
            ).rowcount
            self._writer.execute(
                "UPDATE meta SET value = ? WHERE key = 'changelog_floor'",
                (str(floor),),
            )
            self._changelog_floor = floor
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
            if int(self._meta("generation")) != self._generation:
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

    # analyze: ignore[GUARD001] - lock-free reader by design: mirror bindings are replaced atomically (GIL) and a slightly stale view is acceptable to concurrent readers
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
        documents = len(self._doc_lengths)
        tombstones = len(self._deleted)
        return {
            "path": str(self._path),
            "schema_version": schema.SCHEMA_VERSION,
            "generation": self._generation,
            "documents": documents,
            "live_documents": self.num_live,
            "tombstones": tombstones,
            # The compaction trigger's inputs (see repro.feed): how much
            # of the store is dead weight, how long the replication log
            # has grown, and where the slowest feed consumer stands.
            "tombstone_ratio": tombstones / documents if documents else 0.0,
            "changelog_len": self.changelog_length(),
            "changelog_floor": self._changelog_floor,
            "oldest_unclaimed_generation": self.oldest_unclaimed_generation(),
            "terms": int(terms),
            "postings": int(postings),
            "file_bytes": int(size),
        }


class _WriteTransaction:
    """Write lock + transaction; commit publishes the generation, rollback
    discards it and reloads the mirrors."""

    def __init__(self, store: DocumentStore) -> None:
        self._store = store

    def __enter__(self) -> DocumentStore:
        self._store._write_lock.acquire()
        try:
            self._store._writer.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._store._write_lock.release()
            raise
        return self._store

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._store._writer.execute("COMMIT")
                self._store._generation = self._store._pending_generation
            else:
                self._store._writer.execute("ROLLBACK")
                # The in-memory mirrors may have advanced past the
                # rolled-back writes; rebuild them from committed state.
                self._store._load_mirrors()
        finally:
            self._store._write_lock.release()
