"""Storage-quota enforcement.

Quotas are checked *transactionally*: the store-level guard produced by
:meth:`QuotaManager.store_guard` runs inside the store's write lock
before the SQLite transaction begins, so a rejected over-quota batch
leaves the store's generation and document count untouched — no partial
writes, no compensating rollback.

With per-tenant store paths the ``max_documents`` quota bounds exactly
that tenant's corpus; when tenants share a store it bounds the live
document count of the shared store (the conservative reading).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import QuotaExceededError
from repro.tenancy.model import TenantSpec


def _doc_id(document: Any) -> str:
    return document.doc_id if hasattr(document, "doc_id") else str(document)


class QuotaManager:
    """Stateless quota checks derived from a tenant's spec.

    Stateless on purpose: the authoritative counters live in the store
    (``num_live``) and are read under the store's own write lock, so
    there is no second counter to drift out of sync.
    """

    def check_batch(self, spec: TenantSpec, batch_size: int) -> None:
        """Reject a single ingest batch larger than the tenant allows."""
        limit = spec.max_ingest_batch
        if limit is not None and batch_size > limit:
            raise QuotaExceededError(
                f"tenant {spec.name!r}: ingest batch of {batch_size} exceeds "
                f"max_ingest_batch={limit}")

    def check_documents(
        self, spec: TenantSpec, live: int, new: int
    ) -> None:
        """Reject growth past ``max_documents`` given current live count."""
        limit = spec.max_documents
        if limit is not None and live + new > limit:
            raise QuotaExceededError(
                f"tenant {spec.name!r}: {live} live + {new} new documents "
                f"exceeds max_documents={limit}")

    def store_guard(
        self, spec: TenantSpec
    ) -> Callable[[Any, Sequence[Any]], None] | None:
        """A guard for ``DocumentStore.upsert_all(..., guard=...)``.

        Runs under the store's write lock before any row is written.
        Counts only documents that are *not already live* (re-upserting a
        live document rewrites in place and does not grow the corpus);
        duplicate ids within the batch count once.
        """
        if spec.max_documents is None:
            return None

        def guard(store: Any, documents: Iterable[Any]) -> None:
            new_ids = {
                doc_id for doc_id in map(_doc_id, documents)
                if doc_id not in store
            }
            self.check_documents(spec, store.num_live, len(new_ids))

        return guard
