"""The serving layer's tier-0 cache (re-export of :mod:`repro.caching`).

:class:`LRUTTLCache` memoizes encoded responses — each ``/expand``
report's JSON bytes, one chunk per ``/search`` result — keyed on
``(config, tenant, endpoint, query, params..., index generation)``.
The request edge (:mod:`repro.serve.edge`) owns one per tier: a single
node's, each cluster replica's, and the coordinator's, which fills only
from replica replies keyed under the generation it reads. It is the
top of the serving cache hierarchy — below it sit the per-session
retrieval cache (memoized seed-query searches) and the analysis cache
(each result set's k-means labels and candidate keywords), both owned
by :class:`~repro.api.Session` and backed by the *same* implementation.
All three tiers are reported by ``/metrics``; see :mod:`repro.caching`
for the eviction/expiration/invalidation semantics.
"""

from __future__ import annotations

from repro.caching import NO_TTL, LRUTTLCache

__all__ = ["LRUTTLCache", "NO_TTL"]
