"""The serve tier's dict-body handlers, kept as a test oracle.

Before the response cache held encoded bytes, ``/expand``, ``/search``
and ``/batch`` built each body as a dict around cached payload dicts,
and the HTTP front encoded it with ``json.dumps(body,
separators=(",", ":"))``. :class:`DictExpansionService` keeps those
handlers. ``tests/test_serve_encoding.py`` requires every spliced body
the shipped service answers to equal, byte for byte, that encoding of
the dict body built here.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.api import schema
from repro.errors import ServeError
from repro.obs import current_span, leaf_span, span
from repro.serve import ExpansionService
from repro.serve.edge import scalar
from repro.serve.paging import (
    SEARCH_CURSOR_KEYS,
    apply_batch_page,
    apply_page,
    resolve_batch_page,
    resolve_page,
)
from repro.serve.pool import PooledSession
from repro.tenancy import TenantSpec


class DictExpansionService(ExpansionService):
    """:class:`ExpansionService` answering dict bodies from a dict cache."""

    def _expand_cached(
        self,
        entry: PooledSession,
        query: str,
        algorithm: str | None,
        results: str = "full",
        tenant: TenantSpec | None = None,
    ) -> tuple[dict[str, Any], str]:
        """``(schema-v2 report payload, "hit"|"miss")`` for one query.

        ``results="none"`` drops the per-result document payloads — the
        report envelope stays schema-v2 valid (readers treat ``results``
        as optional), and responses shrink by orders of magnitude when
        the caller wants expansions, not the matching documents.

        Cache keys lead with ``(config, tenant)`` so one tenant's hits,
        misses, and invalidations never touch another tenant's entries
        (anonymous requests key on tenant ``None``).

        Returned payloads are shared cache snapshots: direct
        :meth:`handle` callers must treat them as read-only (the HTTP
        layer serializes immediately; per-request deep copies would
        cost more than the compute the cache saves).
        """
        # Normalize the algorithm for keying: an explicit override equal
        # to the config's default (or differing only in case) must share
        # the default's cache entry, not trigger a duplicate recompute.
        if isinstance(algorithm, str):
            algorithm = algorithm.strip().lower() or None
        scope = None if tenant is None else tenant.name

        def variant_key(mode: str) -> tuple:
            return (
                entry.config.name,
                scope,
                "expand",
                query,
                algorithm or entry.session.algorithm_name,
                mode,
                entry.generation(),
            )

        key = variant_key(results)
        # leaf_span, not span(): the probe is a straight dict operation
        # that never parents children, and this is the warmest line in
        # the service — the ctxvar push/pop would be pure overhead.
        lookup_span = leaf_span("cache.lookup", endpoint="expand")
        hit, payload = self._cache.lookup(key)
        if lookup_span is not None:
            lookup_span.attrs["result"] = "hit" if hit else "miss"
            lookup_span.end()
        if hit:
            return payload, "hit"
        if results == "none":
            # Derivable without compute: strip the cached full payload.
            hit, full = self._cache.lookup(variant_key("full"))
            if hit:
                payload = {k: v for k, v in full.items() if k != "results"}
                self._cache.put(key, payload)
                return payload, "hit"
        with self._compute_slots:
            report = entry.session.expand(query, algorithm=algorithm)
        payload = schema.report_to_dict(report)
        if results == "none":
            payload.pop("results", None)
        self._cache.put(key, payload)
        return payload, "miss"

    def _search_cached(
        self,
        entry: PooledSession,
        query: str,
        top_k: int | None,
        semantics: str,
        tenant: TenantSpec | None = None,
    ) -> tuple[list[dict[str, Any]], str]:
        key = (
            entry.config.name,
            None if tenant is None else tenant.name,
            "search",
            query,
            top_k,
            semantics,
            entry.generation(),
        )
        lookup_span = leaf_span("cache.lookup", endpoint="search")
        hit, payload = self._cache.lookup(key)
        if lookup_span is not None:
            lookup_span.attrs["result"] = "hit" if hit else "miss"
            lookup_span.end()
        if hit:
            return payload, "hit"
        # /search bypasses the pipeline (retrieval only), so the compute
        # gets an explicit stage.retrieve span — the search-path analogue
        # of the per-stage spans Pipeline.run emits under /expand.
        # Opened before the compute slot, so slot-wait shows in the span.
        with span("stage.retrieve", semantics=semantics):
            with self._compute_slots:
                results = entry.session.search(
                    query, top_k=top_k, semantics=semantics
                )
        payload = [schema.search_result_to_dict(r) for r in results]
        self._cache.put(key, payload)
        return payload, "miss"

    # -- endpoints -----------------------------------------------------------

    def expand(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        entry = self._entry(params, tenant)
        query = str(self._require(params, "query"))
        algorithm = scalar(params, "algorithm")
        algorithm = str(algorithm) if algorithm is not None else None
        results = str(scalar(params, "results", "full")).lower()
        if results not in ("full", "none"):
            raise ServeError(f"results must be 'full' or 'none', got {results!r}")
        payload, cache = self._expand_cached(
            entry, query, algorithm, results, tenant
        )
        seconds = time.perf_counter() - t0
        self._record("expand", seconds, tenant, cache=cache)
        body = {
            "config": entry.config.name,
            "query": query,
            "algorithm": algorithm or entry.session.algorithm_name,
            "cache": cache,
            "seconds": seconds,
            "report": payload,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        return 200, body

    def search(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        page = None
        if "cursor" in params or "limit" in params:  # paginated (see paging)
            page = resolve_page(params, "search", SEARCH_CURSOR_KEYS)
            params = page.params
        entry = self._entry(params, tenant)
        query = str(self._require(params, "query"))
        top_k_raw = scalar(params, "top_k")
        try:
            top_k = None if top_k_raw in (None, "") else int(top_k_raw)
        except (TypeError, ValueError):
            raise ServeError(f"top_k must be an integer, got {top_k_raw!r}")
        semantics = str(scalar(params, "semantics", "and")).lower()
        if semantics not in ("and", "or"):
            raise ServeError(f"semantics must be 'and' or 'or', got {semantics!r}")
        payload, cache = self._search_cached(
            entry, query, top_k, semantics, tenant
        )
        seconds = time.perf_counter() - t0
        self._record("search", seconds, tenant, cache=cache)
        body = {
            "config": entry.config.name,
            "query": query,
            "top_k": top_k,
            "semantics": semantics,
            "cache": cache,
            "seconds": seconds,
            "n_results": len(payload),
            "results": payload,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        if page is not None and page.paginated:
            apply_page(body, "results", page, "search")
        return 200, body

    def batch(
        self,
        params: Mapping[str, Any],
        tenant: TenantSpec | None = None,
    ) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        # The page's params are everything /batch reads; unpaginated
        # requests (no limit, no cursor) keep the full-report shape.
        page = resolve_batch_page(params)
        params = page.params
        entry = self._entry(params, tenant)
        queries = params["queries"]
        algorithm = scalar(params, "algorithm")
        algorithm = str(algorithm) if algorithm is not None else None
        workers = scalar(params, "workers", 1)
        try:
            workers = max(1, min(int(workers), self._workers))
        except (TypeError, ValueError):
            raise ServeError(f"workers must be an integer, got {workers!r}")

        def run_one(query: str) -> dict[str, Any]:
            # The extra "cache" key is additive; BatchItem.from_dict
            # readers ignore it (schema v2 stays intact).
            q0 = time.perf_counter()
            try:
                payload, cache = self._expand_cached(
                    entry, query, algorithm, tenant=tenant
                )
                return {
                    "query": query,
                    "ok": True,
                    "report": payload,
                    "error_type": None,
                    "error_message": None,
                    "seconds": time.perf_counter() - q0,
                    "cache": cache,
                }
            except Exception as exc:  # noqa: BLE001 — per-query isolation
                return {
                    "query": query,
                    "ok": False,
                    "report": None,
                    "error_type": type(exc).__name__,
                    "error_message": str(exc),
                    "seconds": time.perf_counter() - q0,
                    "cache": "miss",
                }

        # Each distinct query's first occurrence runs on the pool, and its
        # repeats after it, so the body is the one-thread batch's.
        firsts = list(dict.fromkeys(queries))
        if workers == 1 or len(firsts) <= 1:
            computed = [run_one(q) for q in firsts]
        else:
            # Pool threads do not inherit the request's contextvars, so
            # each item runs in its own copy of them (one Context cannot
            # be entered by two threads at once). The parent's span id is
            # minted lazily: mint it here, before the threads race to.
            parent = current_span()
            if parent is not None:
                parent.span_id
            contexts = [contextvars.copy_context() for _ in firsts]
            with ThreadPoolExecutor(
                max_workers=min(workers, len(firsts))
            ) as executor:
                computed = list(
                    executor.map(
                        lambda context, q: context.run(run_one, q),
                        contexts,
                        firsts,
                    )
                )
        answered = dict(zip(firsts, computed))
        items = [
            answered.pop(q) if q in answered else run_one(q) for q in queries
        ]
        seconds = time.perf_counter() - t0
        self._record(
            "batch",
            seconds,
            tenant,
            cache_hits=sum(1 for i in items if i["cache"] == "hit"),
            cache_misses=sum(1 for i in items if i["cache"] == "miss"),
        )
        report = schema.make_envelope(
            schema.KIND_BATCH,
            {"items": items, "workers": workers, "seconds": seconds},
        )
        body = {
            "config": entry.config.name,
            "cache_hits": sum(1 for i in items if i["cache"] == "hit"),
            "n_ok": sum(1 for i in items if i["ok"]),
            "n_failed": sum(1 for i in items if not i["ok"]),
            "report": report,
        }
        if tenant is not None:
            body["tenant"] = tenant.name
        if page.paginated:
            apply_batch_page(body, page)
        return 200, body
