"""``limit``/``cursor`` pagination for ``/search`` and ``/batch``.

Both serve tiers paginate: :class:`~repro.serve.app.ExpansionService`
slices its own ``/search`` and ``/batch`` payloads, and the cluster
coordinator slices its scatter/gather ``/batch`` and decodes cursors to
route a continuation to the replica that served page one. Requests
without either parameter keep the unpaginated shape.

* **cursors** — opaque, URL-safe continuation tokens.
  :func:`encode_cursor` packs the canonical request parameters plus the
  next offset into base64url JSON; :func:`decode_cursor` rejects
  anything malformed with a 400-mapped :class:`ServeError`. Cursors are
  self-contained on purpose: the coordinator decodes them to recover the
  routing key, so a continuation request routes to the *same replica*
  that served page one (warm caches make later pages nearly free).

Pagination contract (see API.md: Cluster serving): a paginated response
carries a ``page`` object — ``{"offset", "limit", "returned", "total",
"next_cursor"}`` — beside the sliced payload; ``next_cursor`` is
``null`` on the last page. Cursors are positional snapshots, not
transactional ones: a mutation between pages may shift results, which
the ``generation`` echoed in the cursor lets clients detect.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ServeError
from repro.serve.edge import scalar

#: Hard cap on ``limit`` — a page is a page, not a bulk export.
MAX_PAGE_LIMIT = 500

#: Canonical parameter keys preserved inside each endpoint's cursors.
SEARCH_CURSOR_KEYS = ("config", "query", "top_k", "semantics")
BATCH_CURSOR_KEYS = ("config", "algorithm", "workers")


# -- cursors -----------------------------------------------------------------


def encode_cursor(state: Mapping[str, Any]) -> str:
    """Pack ``state`` into an opaque URL-safe continuation token."""
    raw = json.dumps(dict(state), sort_keys=True, separators=(",", ":"))
    return base64.urlsafe_b64encode(raw.encode("utf-8")).decode("ascii").rstrip("=")


def decode_cursor(token: str, endpoint: str) -> dict[str, Any]:
    """Unpack a cursor minted by :func:`encode_cursor` for ``endpoint``.

    Every malformation — bad base64, bad JSON, wrong endpoint, missing
    fields — raises :class:`ServeError`, which the handlers map to 400.
    """
    if not isinstance(token, str) or not token:
        raise ServeError("cursor must be a non-empty string")
    try:
        padded = token + "=" * (-len(token) % 4)
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        state = json.loads(raw.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeError):
        raise ServeError("invalid cursor (not a continuation token)") from None
    if not isinstance(state, dict) or state.get("endpoint") != endpoint:
        raise ServeError(f"cursor is not a {endpoint} continuation token")
    offset, limit = state.get("offset"), state.get("limit")
    if not isinstance(offset, int) or offset < 0 or not isinstance(limit, int) or limit < 1:
        raise ServeError("invalid cursor (bad offset/limit)")
    if not isinstance(state.get("params"), dict):
        raise ServeError("invalid cursor (missing request parameters)")
    return state


@dataclass(frozen=True)
class PageRequest:
    """One resolved pagination request: what to run and what to slice."""

    params: dict[str, Any]  # canonical request parameters to execute
    offset: int
    limit: int | None  # None = pagination not requested (legacy shape)

    @property
    def paginated(self) -> bool:
        return self.limit is not None


def resolve_page(
    params: Mapping[str, Any], endpoint: str, param_keys: tuple[str, ...]
) -> PageRequest:
    """Resolve ``limit``/``cursor`` into a :class:`PageRequest`.

    A ``cursor`` wins over everything: the canonical parameters stored
    inside it replace the request's own, so a bare ``?cursor=...`` is a
    complete continuation request. Without a cursor, ``limit`` starts
    pagination at offset 0; without either, the request is legacy-shaped.
    """
    token = scalar(params, "cursor")
    if token is not None:
        state = decode_cursor(str(token), endpoint)
        return PageRequest(
            params=dict(state["params"]),
            offset=int(state["offset"]),
            limit=int(state["limit"]),
        )
    raw_limit = scalar(params, "limit")
    if raw_limit in (None, ""):
        canonical = {k: scalar(params, k) for k in param_keys if scalar(params, k) is not None}
        return PageRequest(params=canonical, offset=0, limit=None)
    try:
        limit = int(raw_limit)
    except (TypeError, ValueError):
        raise ServeError(f"limit must be an integer, got {raw_limit!r}") from None
    if limit < 1:
        raise ServeError(f"limit must be >= 1, got {limit}")
    limit = min(limit, MAX_PAGE_LIMIT)
    canonical = {k: scalar(params, k) for k in param_keys if scalar(params, k) is not None}
    return PageRequest(params=canonical, offset=0, limit=limit)


def resolve_batch_page(params: Mapping[str, Any]) -> PageRequest:
    """:func:`resolve_page` for ``/batch``: ``page.params`` always holds
    the ``queries`` list, so the minted cursor carries it and a bare
    cursor POST is a complete continuation request (repeated queries
    are cache hits on re-execution)."""
    page = resolve_page(params, "batch", BATCH_CURSOR_KEYS)
    run_params = dict(page.params)
    if "queries" not in run_params:
        queries = params.get("queries")
        if not isinstance(queries, (list, tuple)) or not queries:
            raise ServeError("batch needs a non-empty 'queries' list")
        run_params["queries"] = [str(q) for q in queries]
    return PageRequest(params=run_params, offset=page.offset, limit=page.limit)


def apply_page(
    payload: dict[str, Any],
    items_key: str,
    page: PageRequest,
    endpoint: str,
    generation: Any = None,
) -> dict[str, Any]:
    """Slice ``payload[items_key]`` per ``page`` and attach the page object.

    ``payload`` is mutated and returned (handlers own a fresh dict by
    the time they get here; slicing leaves the cached items untouched).
    """
    items = payload.get(items_key) or []
    total = len(items)
    window = items[page.offset : page.offset + (page.limit or 0)]
    next_cursor = None
    if page.offset + (page.limit or 0) < total:
        state: dict[str, Any] = {
            "endpoint": endpoint,
            "params": page.params,
            "offset": page.offset + (page.limit or 0),
            "limit": page.limit,
        }
        if generation is not None:
            state["generation"] = generation
        next_cursor = encode_cursor(state)
    payload[items_key] = window
    payload["page"] = {
        "offset": page.offset,
        "limit": page.limit,
        "returned": len(window),
        "total": total,
        "next_cursor": next_cursor,
    }
    return payload


def apply_batch_page(body: dict[str, Any], page: PageRequest) -> None:
    """Slice a ``/batch`` body's report items; the page object rides on
    the body, beside the (schema-v2) report."""
    body["page"] = apply_page(body["report"], "items", page, "batch").pop("page")
