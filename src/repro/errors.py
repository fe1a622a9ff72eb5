"""Exception hierarchy for the ``repro`` package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class DataError(ReproError):
    """A document, feature, or corpus was malformed."""


class IndexError_(ReproError):
    """An index operation failed (unknown document, frozen index, ...).

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``repro.IndexingError``.
    """


class QueryError(ReproError):
    """A query was empty or referenced unknown terms where that is illegal."""


class ClusteringError(ReproError):
    """Clustering could not be performed (e.g. k larger than point count)."""


class ExpansionError(ReproError):
    """Query expansion failed (e.g. empty cluster, inconsistent universe)."""


class RegistryError(ConfigError):
    """A component registry lookup or registration failed (unknown name)."""


class SchemaError(ReproError):
    """A serialized payload had the wrong shape, kind, or schema version."""


class PipelineError(ConfigError):
    """A pipeline was mis-composed (unknown stage, bad insertion anchor)."""


class StoreError(ReproError):
    """A durable-store operation failed (bad path, schema mismatch, ...)."""


class FeedError(ReproError):
    """A changefeed operation failed (bad cursor, bad range, closed feed).

    Gap detection is *not* an error: :meth:`Changefeed.read_since
    <repro.feed.Changefeed.read_since>` reports a truncated prefix as
    ``FeedBatch.gap`` so tailers can fall back to a snapshot and resume.
    """


class ServeError(ReproError):
    """A serving-layer operation failed (bad request, bad parameter, ...)."""


class ClusterError(ServeError):
    """A cluster-tier operation failed (routing, transport, replica spawn).

    A :class:`ServeError` subclass so embedders of the serving layer can
    keep catching one family; the coordinator maps transport failures to
    failover or 503 before they ever reach a client.
    """


class UnknownConfigError(ServeError):
    """A request named a serving configuration that does not exist.

    Its own type so the HTTP layer can map it to 404 (not found) while
    every other :class:`ServeError` stays 400 (bad request).
    """


class TenancyError(ServeError):
    """A multi-tenancy operation failed (bad spec, missing tenant, ...)."""


class UnknownTenantError(TenancyError):
    """A request named a tenant that is not in the registry.

    Its own type so the HTTP layer can map it to 404 while every other
    :class:`TenancyError` stays 400 (bad request).
    """


class TenantAccessError(TenancyError):
    """A tenant addressed a serving configuration it is not allowed to use.

    Mapped to HTTP 403: the config may exist, but not for this tenant.
    ``tenant`` names the refused tenant for the 403 body.
    """

    def __init__(self, message: str, tenant: str | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant


class QuotaExceededError(TenancyError):
    """A write would push a tenant past its storage quota.

    Raised *before* any row is written, so a rejected batch leaves the
    store's generation and document count untouched. Mapped to HTTP 413.
    """


# Public aliases with friendlier names.
IndexingError = IndexError_
