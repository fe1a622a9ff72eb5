"""repro.store — durable, mutable document storage on SQLite.

The persistence subsystem: everything the in-memory backends cannot do.

* :class:`DocumentStore` — one SQLite file holding the corpus *and* its
  inverted index; WAL journal mode, transactional upsert/delete with
  tombstones, a monotonic generation counter, compaction, and
  backup-API snapshots. Restart-safe: reopening the file recovers
  exactly the committed state.
* :class:`SQLiteIndexBackend` — the
  :class:`~repro.index.backend.IndexBackend` face of a store
  (``capabilities(): persistent=True, mutable=True``), registered as
  ``"sqlite"`` in
  :data:`repro.api.registries.BACKENDS`::

      session = (Session.builder()
                 .dataset("wikipedia")
                 .backend("sqlite", path="corpus.sqlite")
                 .build())

  First build bulk-loads the dataset into the file; later builds verify
  and reuse it. The serving layer points a configuration at a store
  with ``store=<path>`` (see API.md: Persistence) so ingestion writes
  through and restarts lose nothing.
"""

from repro.store.backend import SQLiteIndexBackend
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import DocumentStore

__all__ = [
    "DocumentStore",
    "SQLiteIndexBackend",
    "SCHEMA_VERSION",
]
