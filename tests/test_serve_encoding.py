"""The spliced response encoder against the dict bodies it replaced.

Each case sends the same requests to an :class:`ExpansionService` and to
the dict-body oracle in ``tests/serve_reference.py``, both over one
session pool whose expansions are memoised, so the two see the same
reports. ``seconds`` is pinned to 0.0 through the serve modules' clock.
Every spliced body must then equal ``json.dumps(body, separators=(",",
":"))`` of the oracle's dict body, byte for byte.
"""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import pytest

from repro.serve import ExpansionService, ServeConfig, SessionPool
from repro.serve import app as serve_app
from repro.serve.cluster.transport import encode_reply
from repro.serve.edge import BatchBody, encode, encode_batch, splice, splice_array
from repro.tenancy import TenantRegistry, TenantSpec

from tests import serve_reference

#: Batch queries: ``qqqqzzzz`` retrieves nothing, so its item fails.
BATCH_QUERIES = ["java", "qqqqzzzz", "rockets", "java"]


def _dumps(body) -> bytes:
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


@pytest.fixture(scope="module")
def pool():
    pool = SessionPool(
        [
            ServeConfig(
                name="wiki",
                dataset="wikipedia",
                n_clusters=3,
                dataset_kwargs={"docs_per_sense": 6},
            )
        ]
    )
    session = pool.get("wiki").session
    expand = session.expand
    done: dict = {}
    lock = threading.Lock()

    def once(query, algorithm=None):
        """One expansion per (query, algorithm), shared by both services:
        reports carry their own timings, which a recompute would change."""
        with lock:
            if (query, algorithm) not in done:
                try:
                    done[query, algorithm] = (expand(query, algorithm), None)
                except Exception as exc:  # noqa: BLE001 — replayed below
                    done[query, algorithm] = (None, exc)
            report, error = done[query, algorithm]
        if error is not None:
            raise error
        return report

    session.expand = once
    yield pool
    pool.close()


@pytest.fixture(params=[None, "a"], ids=["anonymous", "tenant"])
def pair(request, pool, monkeypatch):
    """``(spliced service, dict oracle, tenant name)`` with fresh caches."""
    clock = SimpleNamespace(perf_counter=lambda: 0.0)
    monkeypatch.setattr(serve_app, "time", clock)
    monkeypatch.setattr(serve_reference, "time", clock)
    registry = None
    if request.param is not None:
        registry = TenantRegistry()
        registry.create(TenantSpec(name=request.param))
    # Neither service is closed: closing one would close the shared pool.
    spliced = ExpansionService(pool, cache_size=64, workers=2, tenants=registry)
    oracle = serve_reference.DictExpansionService(
        pool, cache_size=64, workers=2, tenants=registry
    )
    return spliced, oracle, request.param


def _same(pair, method: str, path: str, params: dict) -> dict:
    """Ask both services; the spliced body must be the oracle's dict
    body's compact encoding. Returns the decoded body."""
    spliced, oracle, tenant = pair
    if tenant is not None:
        params = dict(params, tenant=tenant)
    status, body = spliced.handle(method, path, dict(params))
    expected_status, expected = oracle.handle(method, path, dict(params))
    assert (status, expected_status) == (200, 200), (body, expected)
    assert isinstance(body, bytes)
    assert body == _dumps(expected)
    return json.loads(body)


class TestSplicedBodies:
    @pytest.mark.parametrize("results", ["full", "none"])
    def test_expand_miss_then_hit(self, pair, results):
        params = {"config": "wiki", "query": "java", "results": results}
        first = _same(pair, "GET", "/expand", params)
        second = _same(pair, "GET", "/expand", params)
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        assert ("results" in first["report"]) == (results == "full")
        assert first.get("tenant") == pair[2]

    def test_expand_full_then_none(self, pair):
        full = _same(pair, "GET", "/expand", {"config": "wiki", "query": "rockets"})
        none = _same(
            pair, "GET", "/expand",
            {"config": "wiki", "query": "rockets", "results": "none"},
        )
        assert none["cache"] == "hit"
        assert none["report"] == {
            k: v for k, v in full["report"].items() if k != "results"
        }

    def test_search_unpaginated(self, pair):
        params = {"config": "wiki", "query": "java", "top_k": "5"}
        first = _same(pair, "GET", "/search", params)
        second = _same(pair, "GET", "/search", params)
        assert (first["cache"], second["cache"]) == ("miss", "hit")
        assert first["n_results"] == len(first["results"]) == 5

    def test_search_paginated(self, pair):
        params = {"config": "wiki", "query": "java", "limit": "4"}
        pages = 0
        while True:
            body = _same(pair, "GET", "/search", params)
            pages += 1
            cursor = body["page"]["next_cursor"]
            if cursor is None:
                break
            params = {"cursor": cursor}
        assert pages == -(-body["n_results"] // 4) > 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batch_with_a_failing_item(self, pair, workers):
        params = {"config": "wiki", "queries": BATCH_QUERIES, "workers": workers}
        first = _same(pair, "POST", "/batch", params)
        assert [i["ok"] for i in first["report"]["items"]] == [
            True, False, True, True,
        ]
        assert first["n_failed"] == 1
        again = _same(pair, "POST", "/batch", params)
        assert again["cache_hits"] == 3

    def test_batch_paginated(self, pair):
        params = {"config": "wiki", "queries": BATCH_QUERIES, "limit": 3}
        body = _same(pair, "POST", "/batch", params)
        assert [i["query"] for i in body["report"]["items"]] == BATCH_QUERIES[:3]
        rest = _same(pair, "POST", "/batch", {"cursor": body["page"]["next_cursor"]})
        assert [i["query"] for i in rest["report"]["items"]] == BATCH_QUERIES[3:]
        assert rest["page"]["next_cursor"] is None

    def test_response_cache_holds_only_bytes(self, pair):
        spliced, _, tenant = pair
        extra = {} if tenant is None else {"tenant": tenant}
        for method, path, params in (
            ("GET", "/expand", {"query": "java", "results": "none"}),
            ("GET", "/expand", {"query": "mouse"}),
            ("GET", "/search", {"query": "java", "semantics": "or"}),
            ("GET", "/search", {"query": "java", "limit": "2"}),
            ("POST", "/batch", {"queries": ["cell", "domino"], "workers": 2}),
        ):
            params = {"config": "wiki", **params, **extra}
            status, _ = spliced.handle(method, path, params)
            assert status == 200
        values = [value for value, _ in spliced.cache._entries.values()]
        # Each /expand miss cached both results variants.
        assert len(values) == 2 * 4 + 2
        for value in values:
            # An /expand report, or one chunk per /search result.
            chunks = value if isinstance(value, tuple) else (value,)
            assert chunks and all(type(chunk) is bytes for chunk in chunks)


class TestEncoder:
    @pytest.mark.parametrize(
        "members",
        [
            {},
            {"a": 1},
            {"raw": [1, {"x": None}]},
            {"raw": {"k": "v"}, "b": 2.5},
            {"a": "é", "raw": [], "b": True},
            {"a": 1, "raw": "s", "b": None, "raw2": {"n": [0.1]}},
        ],
    )
    def test_splice_is_byte_identical(self, members):
        """A member named ``raw*`` goes in pre-encoded."""
        spliced = splice(
            {k: encode(v) if k.startswith("raw") else v for k, v in members.items()}
        )
        assert spliced == _dumps(members)

    def test_splice_array(self):
        items = [{"a": 1}, [2, 3], "x"]
        assert splice_array(encode(i) for i in items) == _dumps(items)
        assert splice_array([]) == b"[]"

    def test_batch_body_keeps_the_replica_wire_parts(self):
        items = [{"query": "a", "ok": True}, {"query": "b", "ok": False}]
        body = {
            "config": "c",
            "n_ok": 1,
            "report": {"kind": "batch_report", "items": [encode(i) for i in items]},
            "tenant": "t",
        }
        encoded = encode_batch(body)
        assert isinstance(encoded, BatchBody)
        expected = {**body, "report": {"kind": "batch_report", "items": items}}
        assert encoded == _dumps(expected)
        head, extras = encode_reply(encoded)
        assert json.loads(head) == {"config": "c", "n_ok": 1, "tenant": "t"}
        assert [json.loads(i) for i in extras["items"]] == items
        assert encode_reply(b'{"a":1}') == (b'{"a":1}', {})
        assert encode_reply({"error": "x"}) == (b'{"error":"x"}', {})
