"""The response cache at the cluster coordinator, and the feed wake.

Three layers, cheapest first:

* the fill rule against fake replicas, in process: a reply fills the
  coordinator's entry only when it was keyed under the generation the
  request read, and a filled entry is answered without an RPC;
* a 2-replica ``--follow`` process cluster (module-scoped) whose
  tailers poll only every 30 s, so an ingest becomes visible within the
  tests' deadlines only through the coordinator's wake: coordinator
  hits splice the replica's hit bytes, no read answered at the
  coordinator returns pre-ingest bytes, ``/batch`` items are looked up
  in the cache, ``/metrics`` counts coordinator hits, and a seeded
  sequence with interleaved ingest answers like a single node;
* the wake itself: a :class:`FeedTailer` applies a batch within 2 s of
  :meth:`FeedTailer.wake`, and a cluster shows feed lag 0 within 2 s of
  a coordinator ``/ingest``.
"""

from __future__ import annotations

import json
import random
import re
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import schema
from repro.api.registries import ALGORITHMS, DATASETS
from repro.datasets.vocab import WIKIPEDIA_SENSES
from repro.errors import ClusterError
from repro.feed import Changefeed, FeedTailer
from repro.serve import ExpansionService, ServeConfig, SessionPool
from repro.serve.cluster import ClusterCoordinator, create_cluster
from repro.store import DocumentStore, SQLiteIndexBackend
from repro.tenancy import TenantRegistry, TenantSpec
from repro.text.analyzer import Analyzer

#: Ambiguous wikipedia terms every seeded read draws from.
TERMS = ("java", "rockets", "columbia", "eclipse", "cell", "mouse")

_SECONDS = re.compile(rb'"seconds":[^,}]+')


def _mask(body: bytes) -> bytes:
    """``body`` with its top-level ``seconds`` (the first one) zeroed."""
    return _SECONDS.sub(b'"seconds":0', body, count=1)


def _ids(body: bytes) -> list[str]:
    return [r["document"]["doc_id"] for r in json.loads(body)["results"]]


# -- the fill rule against fake replicas --------------------------------------


class _Replica:
    """In-process replica answering every read with a cacheable part."""

    def __init__(self, name, spec_factory=None):
        self.name = name
        self._state = "down"
        self.restarts = -1
        self.pid = None
        self.generation = 0
        self.calls = 0

    def start(self):
        self._state = "serving"
        self.restarts += 1

    def stop(self, graceful=True, join_timeout=10.0):
        self._state = "down"

    def mark_down(self):
        self._state = "down"

    @property
    def state(self):
        return self._state

    def alive(self):
        return self._state == "serving"

    def request(self, method, path, params, timeout=None):
        if not self.alive():
            raise ClusterError(f"{self.name} is down")
        self.calls += 1
        if path == "/search":
            part = (b'{"rank":1}', b'{"rank":2}')
        else:
            part = json.dumps({"from": self.name}).encode()
        body = json.dumps({"replica": self.name, "cache": "miss"}).encode()
        return 200, body, {"part": part, "generation": self.generation}


@pytest.fixture()
def fakes():
    coordinator = ClusterCoordinator(
        ["c:dataset=wikipedia"], replicas=2, replica_factory=_Replica
    )
    coordinator.start()
    yield coordinator
    coordinator.stop()


def _calls(coordinator) -> int:
    return sum(handle.calls for handle in coordinator.replicas.values())


class TestFillRule:
    @pytest.mark.parametrize("path", ["/expand", "/search"])
    def test_exact_reply_fills_and_the_next_read_takes_no_rpc(self, fakes, path):
        params = {"config": "c", "query": "java"}
        status, first = fakes.handle("GET", path, dict(params))
        assert status == 200 and json.loads(first)["replica"]
        status, second = fakes.handle("GET", path, dict(params))
        assert status == 200
        assert _calls(fakes) == 1
        body = json.loads(second)
        assert (body["config"], body["query"], body["cache"]) == ("c", "java", "hit")
        if path == "/expand":
            assert body["algorithm"] == "iskr" and "from" in body["report"]
        else:
            assert body["results"] == [{"rank": 1}, {"rank": 2}]
            assert body["n_results"] == 2
        assert fakes.metrics.snapshot()["cache"] == {"fills": 1, "stale": 0}

    def test_reply_keyed_under_another_generation_is_not_kept(self, fakes):
        for handle in fakes.replicas.values():
            handle.generation = 1  # a memory config is generation 0 here
        params = {"config": "c", "query": "java"}
        for _ in range(3):
            status, body = fakes.handle("GET", "/expand", dict(params))
            assert status == 200 and json.loads(body)["replica"]
        assert _calls(fakes) == 3
        assert fakes.metrics.snapshot()["cache"] == {"fills": 0, "stale": 3}

    def test_batch_items_hit_under_the_full_expand_key(self, fakes):
        fakes.handle("GET", "/expand", {"config": "c", "query": "java"})
        status, body = fakes.handle(
            "POST", "/batch", {"config": "c", "queries": ["java"]}
        )
        assert status == 200 and _calls(fakes) == 1
        body = json.loads(body)
        assert body["replicas"] == [] and body["cache_hits"] == 1
        (item,) = body["report"]["items"]
        assert (item["ok"], item["cache"], item["report"]) == (
            True, "hit", json.loads(fakes.handle(
                "GET", "/expand", {"config": "c", "query": "java"}
            )[1])["report"],
        )


class TestSingleNode:
    def test_algorithm_is_normalized_for_the_key_and_the_compute(self):
        service = ExpansionService(
            [ServeConfig(name="w", dataset_kwargs={"docs_per_sense": 6})]
        )
        try:
            caches = []
            for algorithm in ("", " ISKR ", "iskr", None):
                params = {"query": "java", "results": "none"}
                if algorithm is not None:
                    params["algorithm"] = algorithm
                status, body = service.handle("GET", "/expand", params)
                assert status == 200, body
                caches.append(json.loads(body)["cache"])
            assert caches == ["miss", "hit", "hit", "hit"]
        finally:
            service.close(drain_timeout=2.0)


# -- a process cluster ---------------------------------------------------------


def _corpus():
    return DATASETS.create(
        "wikipedia", seed=0, analyzer=Analyzer(use_stemming=False),
        docs_per_sense=6,
    )


def _start(tmp_path_factory, **kwargs):
    store_path = tmp_path_factory.mktemp("cluster-cache") / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(list(_corpus()))
    server = create_cluster(
        [f"db:store={store_path},k=3"],
        port=0,
        replicas=2,
        workers=2,
        start_timeout=120.0,
        **kwargs,
    )
    server.start()
    return server, str(store_path)


@pytest.fixture(scope="module")
def follow_cluster(tmp_path_factory):
    server, store_path = _start(
        tmp_path_factory, follow=True, feed_poll_interval=30.0
    )
    yield server, store_path
    server.stop()


@pytest.fixture(scope="module")
def tenant_cluster(tmp_path_factory):
    registry = TenantRegistry()
    registry.create(TenantSpec(name="t"))
    server, _ = _start(tmp_path_factory, tenants=registry)
    yield server
    server.stop()


def _http(server, method, path, body=None, **params):
    url = server.url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _hits(server) -> int:
    return server.coordinator.cache.stats()["hits"]


def _read(server, path, params):
    """``(status, body, answered at the coordinator)`` for one read."""
    before = _hits(server)
    status, body = _http(server, "GET", path, **params)
    return status, body, _hits(server) > before


def _read_hit(server, path, params, deadline=10.0):
    """Read until the coordinator answers; returns that body."""
    stop = time.monotonic() + deadline
    while True:
        status, body, here = _read(server, path, params)
        assert status == 200, body
        if here:
            return body
        assert time.monotonic() < stop, "the coordinator never filled"


def _lags(server) -> list[int]:
    """Each replica's feed lag; a replica that reports none is behind."""
    status, body = _http(server, "GET", "/healthz")
    assert status == 200
    return [
        lag
        for info in json.loads(body)["replicas"].values()
        for lag in info.get("feed_lag", {"?": 1}).values()
    ]


def _wait_lag_zero(server, deadline=10.0) -> float:
    """Seconds until every replica reports lag 0 (fails past ``deadline``)."""
    t0 = time.monotonic()
    while any(lags := _lags(server)):
        assert time.monotonic() - t0 < deadline, lags
        time.sleep(0.02)
    return time.monotonic() - t0


def _replica_hit(server, path, params):
    """The routed replica's own answer to ``params`` (a hit by now)."""
    coordinator = server.coordinator
    key = coordinator.routing_key(path, params)
    handle = next(
        coordinator.replicas[name] for name in coordinator.ring.preference(key)
        if coordinator.replicas[name].alive()
    )
    status, body, _extras = handle.request("GET", path, params)
    assert status == 200 and json.loads(body)["cache"] == "hit"
    return body


READS = [
    ("/expand", {"query": "java", "results": "full"}),
    ("/expand", {"query": "java", "results": "none"}),
    ("/expand", {"query": "rockets", "algorithm": "PEBC", "results": "none"}),
    ("/search", {"query": "java", "top_k": "5"}),
    ("/search", {"query": "java cell", "semantics": "or"}),
]


@pytest.mark.slow
class TestCoordinatorCache:
    @pytest.mark.parametrize("path, params", READS)
    def test_hit_body_is_the_replica_hit_body(self, follow_cluster, path, params):
        server, _ = follow_cluster
        params = {"config": "db", **params}
        hit = _read_hit(server, path, params)
        assert json.loads(hit)["cache"] == "hit"
        assert _mask(hit) == _mask(_replica_hit(server, path, params))

    @pytest.mark.parametrize("path, params", READS)
    def test_tenant_hit_body_is_the_replica_hit_body(
        self, tenant_cluster, path, params
    ):
        params = {"config": "db", "tenant": "t", **params}
        hit = _read_hit(tenant_cluster, path, params)
        assert json.loads(hit)["tenant"] == "t"
        assert _mask(hit) == _mask(_replica_hit(tenant_cluster, path, params))

    def test_no_coordinator_read_returns_pre_ingest_bytes(self, follow_cluster):
        server, _ = follow_cluster
        params = {"config": "db", "query": "java"}
        for round_ in range(5):
            _wait_lag_zero(server)
            before = _mask(_read_hit(server, "/search", params))
            # The fillers make the apply take long enough that the first
            # reads reach a replica that is still a generation behind.
            fresh = f"fresh-{round_}"
            fillers = [
                {"doc_id": f"filler-{round_}-{i}", "terms": {f"f{i}": 1, "zz": 2}}
                for i in range(200)
            ]
            status, _ = _http(
                server, "POST", "/ingest",
                body={"documents": [{"doc_id": fresh, "terms": {"java": 60}}]
                      + fillers},
            )
            assert status == 202
            stop = time.monotonic() + 10.0
            while True:
                status, body, here = _read(server, "/search", params)
                assert status == 200
                if here:
                    assert _mask(body) != before, "stale bytes from the coordinator"
                if fresh in _ids(body):
                    break
                assert time.monotonic() < stop, "the ingest never became visible"

    def test_batch_items_come_from_the_expand_cache(self, follow_cluster):
        server, _ = follow_cluster
        queries = ["eclipse", "mouse"]
        reports = [
            json.loads(_read_hit(
                server, "/expand", {"config": "db", "query": q}
            ))["report"]
            for q in queries
        ]
        status, body = _http(
            server, "POST", "/batch", body={"config": "db", "queries": queries}
        )
        assert status == 200
        body = json.loads(body)
        assert body["replicas"] == [] and body["cache_hits"] == len(queries)
        assert [i["report"] for i in body["report"]["items"]] == reports

    def test_metrics_count_coordinator_hits(self, tenant_cluster):
        server = tenant_cluster
        params = {"config": "db", "tenant": "t", "query": "domino"}

        def snapshot():
            status, body = _http(server, "GET", "/metrics")
            assert status == 200
            return json.loads(body)

        before = snapshot()
        status, _, here = _read(server, "/expand", params)
        assert status == 200 and not here
        _read_hit(server, "/expand", params)
        after = snapshot()
        rows = [m["requests"].get("expand", {}) for m in (before, after)]
        assert rows[1]["count"] - rows[0].get("count", 0) == 2
        assert rows[1]["cache_hits"] - rows[0].get("cache_hits", 0) == 1
        # A coordinator hit is admitted and counted like a routed read.
        tenants = [m["cluster"]["tenants"]["t"]["requests"] for m in (before, after)]
        assert tenants[1] - tenants[0] == 2
        cache = after["cluster"]["cache"]
        assert cache["hits"] >= 1 and cache["fills"] >= 1
        assert {"misses", "stale"} <= set(cache)
        status, text = _http(server, "GET", "/metrics", format="prometheus")
        for key in ("hits", "misses", "fills", "stale"):
            assert f"repro_cluster_cache_{key}_total" in text.decode()

    def test_answers_like_a_single_node_under_interleaved_ingest(
        self, follow_cluster, tmp_path
    ):
        server, store_path = follow_cluster
        _wait_lag_zero(server)
        copy = tmp_path / "single.sqlite"
        with DocumentStore(store_path) as source:
            source.snapshot(copy)
        single = ExpansionService(
            SessionPool([ServeConfig.parse(f"db:store={copy},k=3")]), workers=1
        )
        rng = random.Random(11)
        algorithms = sorted(ALGORITHMS.names())
        try:
            for step in range(48):
                if step % 6 == 5:
                    term = rng.choice(TERMS)
                    _, words = rng.choice(WIKIPEDIA_SENSES[term])
                    documents = [
                        {"doc_id": f"diff-{step}-{i}",
                         "terms": {term: 3, **{w: 1 for w in rng.sample(words, 4)}}}
                        for i in range(2)
                    ]
                    status, _ = _http(
                        server, "POST", "/ingest", body={"documents": documents}
                    )
                    assert status == 202
                    status, _ = single.handle(
                        "POST", "/ingest", {"documents": documents}
                    )
                    assert status == 200
                    _wait_lag_zero(server)
                    continue
                if rng.random() < 0.5:
                    path = "/expand"
                    params = {"query": rng.choice(TERMS),
                              "algorithm": rng.choice(algorithms)}
                else:
                    path = "/search"
                    params = {"query": " ".join(rng.sample(TERMS, rng.choice((1, 2)))),
                              "semantics": rng.choice(("and", "or"))}
                params["config"] = "db"
                status, body = _http(server, "GET", path, **params)
                expected_status, expected = single.handle("GET", path, dict(params))
                assert status == expected_status, (step, params, body)
                got = json.loads(body)
                want = json.loads(expected) if isinstance(expected, bytes) else expected
                if status != 200:
                    assert got["error"] == want["error"], (step, params)
                elif path == "/expand":
                    assert schema.report_content(got["report"]) == (
                        schema.report_content(want["report"])
                    ), (step, params)
                else:
                    assert got["results"] == want["results"], (step, params)
        finally:
            single.close()
        assert server.coordinator.metrics.snapshot()["cache"]["fills"] > 0


# -- the wake ---------------------------------------------------------------------


def _docs(prefix, n):
    return [
        {"doc_id": f"{prefix}-{i}", "terms": {"alpha": 1, f"w{i}": 2}}
        for i in range(n)
    ]


def test_woken_tailer_applies_a_batch_within_two_seconds(tmp_path):
    from repro.data.documents import document_from_payload

    source = DocumentStore(tmp_path / "source.sqlite")
    replica = SQLiteIndexBackend(tmp_path / "replica.sqlite")
    source.upsert_all([document_from_payload(d) for d in _docs("a", 2)])
    with Changefeed(source.path) as feed:
        tailer = FeedTailer(feed, replica, poll_interval=30.0).start()
        try:
            deadline = time.monotonic() + 10
            while tailer.applied < source.generation:  # the first poll
                assert time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.1)  # the loop is in its 30 s idle wait now
            source.upsert_all([document_from_payload(d) for d in _docs("b", 2)])
            t0 = time.monotonic()
            tailer.wake()
            while tailer.applied < source.generation:
                assert time.monotonic() - t0 < 2.0, "the wake did not cut the wait"
                time.sleep(0.01)
        finally:
            tailer.stop()
    assert not tailer.running
    replica.close()
    source.close()


@pytest.mark.slow
def test_cluster_ingest_reaches_lag_zero_within_two_seconds(follow_cluster):
    server, _ = follow_cluster
    _wait_lag_zero(server)
    status, _ = _http(
        server, "POST", "/ingest", body={"documents": _docs("wake", 1)}
    )
    assert status == 202
    assert _wait_lag_zero(server, deadline=2.0) < 2.0
