"""Tests for ``repro.obs`` — tracing, sinks, and Prometheus exposition.

Covers the observability subsystem end to end: span trees and context
propagation, the trace buffer / slow log / JSON logger sinks, the
reservoir-percentile contract on ``LatencyHistogram``, the Prometheus
text exposition (validated by a minimal parser, no new dependencies),
trace headers on both serve tiers, and cross-process trace stitching
through a real 2-replica cluster.
"""

from __future__ import annotations

import io
import json
import threading
from collections import Counter
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.data.documents import Document
from repro.errors import ClusterError
from repro.obs import (
    TRACE_HEADER,
    TRACE_PARAM,
    JsonLogger,
    LatencyHistogram,
    PrometheusText,
    SlowLog,
    TraceBuffer,
    Tracer,
    absorb_spans,
    current_span,
    current_trace_id,
    new_trace_id,
    render_prometheus,
    sanitize_trace_id,
    span,
)
from repro.obs.histogram import RESERVOIR_SIZE
from repro.obs.sinks import iter_json_lines
from repro.pipeline import ExecutionContext, Pipeline
from repro.serve import ServeConfig, create_server
from repro.serve.app import ExpansionService
from repro.serve.cluster import ClusterCoordinator, create_cluster
from repro.serve.pool import SessionPool
from repro.store import DocumentStore

# -- trace ids ---------------------------------------------------------------


class TestTraceIds:
    def test_new_trace_ids_are_hex_and_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex

    def test_sanitize_accepts_modest_tokens(self):
        assert sanitize_trace_id("abc-123_XYZ") == "abc-123_XYZ"
        assert sanitize_trace_id("  padded  ") == "padded"

    def test_sanitize_rejects_junk(self):
        assert sanitize_trace_id(None) is None
        assert sanitize_trace_id("") is None
        assert sanitize_trace_id("a" * 65) is None
        assert sanitize_trace_id("bad id") is None
        assert sanitize_trace_id('x"y\n') is None


# -- spans and context propagation -------------------------------------------


class TestSpans:
    def test_span_is_noop_without_active_trace(self):
        assert current_span() is None
        with span("orphan") as s:
            assert s is None
        assert current_trace_id() is None

    def test_request_builds_a_tree(self):
        tracer = Tracer(buffer=TraceBuffer())
        with tracer.request("root", trace_id="t-1") as root:
            assert root.trace_id == "t-1"
            assert current_span() is root
            with span("child", flavor="x") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == "t-1"
                with span("grandchild") as grand:
                    assert grand.parent_id == child.span_id
            assert current_span() is root
        trace = tracer.buffer.get("t-1")
        names = [s["name"] for s in trace["spans"]]
        # children finish (and record) before the root
        assert names == ["grandchild", "child", "root"]
        assert trace["status"] == "ok"

    def test_exception_marks_span_and_root_error(self):
        tracer = Tracer(buffer=TraceBuffer())
        with pytest.raises(ValueError):
            with tracer.request("root", trace_id="t-err"):
                with span("boom"):
                    raise ValueError("kaput")
        trace = tracer.buffer.get("t-err")
        by_name = {s["name"]: s for s in trace["spans"]}
        assert by_name["boom"]["status"] == "error"
        assert "kaput" in by_name["boom"]["error"]
        assert trace["status"] == "error"

    def test_stage_span_outside_trace_is_noop(self):
        seen = []

        class Probe:
            name = "probe"

            def run(self, ctx):
                seen.append(current_span())
                return ctx

        ctx = Pipeline([Probe()]).run(ExecutionContext())
        assert seen == [None]
        assert [t.stage for t in ctx.timings] == ["probe"]

    def test_absorb_spans_splices_remote_records(self):
        tracer = Tracer(buffer=TraceBuffer())
        remote = [
            {"trace_id": "t-abs", "span_id": "aa", "name": "remote.work"},
            "not-a-mapping",
        ]
        with tracer.request("root", trace_id="t-abs"):
            assert absorb_spans(remote) == 1
        assert absorb_spans(remote) == 0  # no live trace
        names = [s["name"] for s in tracer.buffer.get("t-abs")["spans"]]
        assert "remote.work" in names

    def test_event_records_instant_child(self):
        tracer = Tracer(buffer=TraceBuffer())
        with tracer.request("root", trace_id="t-ev"):
            tracer.event("shed", error=True, reason="rate_limit")
        by_name = {s["name"]: s for s in tracer.buffer.get("t-ev")["spans"]}
        assert by_name["shed"]["status"] == "error"
        assert by_name["shed"]["attrs"]["reason"] == "rate_limit"
        tracer.event("outside")  # no active trace: silently fine


class TestTracer:
    def test_disabled_tracer_yields_none_and_keeps_nothing(self):
        tracer = Tracer(buffer=TraceBuffer(), enabled=False)
        with tracer.request("root", trace_id="t-off") as root:
            assert root is None
            with span("child") as child:
                assert child is None
        assert tracer.buffer.get("t-off") is None

    def test_tags_stamped_on_root(self):
        tracer = Tracer(buffer=TraceBuffer(), tags={"tier": "test"})
        with tracer.request("root", trace_id="t-tags"):
            pass
        assert tracer.buffer.get("t-tags")["attrs"]["tier"] == "test"

    def test_export_returns_span_records(self):
        tracer = Tracer(buffer=TraceBuffer())
        with tracer.request("root", trace_id="t-exp"):
            with span("child"):
                pass
        spans = tracer.export("t-exp")
        assert [s["name"] for s in spans] == ["child", "root"]
        assert tracer.export("unknown") is None

    def test_finished_trace_reaches_logger_and_slow_log(self):
        stream = io.StringIO()
        tracer = Tracer(
            buffer=TraceBuffer(),
            slow_log=SlowLog(threshold=0.0),
            logger=JsonLogger(stream),
        )
        with tracer.request("root", trace_id="t-sink", path="/x"):
            pass
        records = list(iter_json_lines(stream.getvalue()))
        assert records[-1]["event"] == "request"
        assert records[-1]["trace_id"] == "t-sink"
        assert records[-1]["status"] == "ok"
        assert tracer.slow_log.snapshot()["captured"] == 1


# -- sinks -------------------------------------------------------------------


def _trace(trace_id, duration=0.1, status="ok", tenant=None, **attrs):
    if tenant is not None:
        attrs["tenant"] = tenant
    return {
        "trace_id": trace_id,
        "name": "http.request",
        "start": 1.0,
        "duration_seconds": duration,
        "status": status,
        "error": None,
        "attrs": attrs,
        "spans": [{"trace_id": trace_id, "name": "http.request"}],
    }


class TestTraceBuffer:
    def test_capacity_evicts_oldest(self):
        buffer = TraceBuffer(capacity=3)
        for i in range(5):
            buffer.add(_trace(f"t{i}"))
        assert len(buffer) == 3
        assert buffer.get("t0") is None
        assert buffer.get("t4") is not None

    def test_readd_merges_spans(self):
        buffer = TraceBuffer()
        buffer.add(_trace("t-merge"))
        second = _trace("t-merge")
        second["spans"] = [{"trace_id": "t-merge", "name": "later"}]
        buffer.add(second)
        assert len(buffer) == 1
        names = [s["name"] for s in buffer.get("t-merge")["spans"]]
        assert names == ["http.request", "later"]

    def test_list_filters_and_orders_newest_first(self):
        buffer = TraceBuffer()
        buffer.add(_trace("fast", duration=0.01))
        buffer.add(_trace("slow", duration=2.0))
        buffer.add(_trace("bad", duration=0.5, status="error", tenant="acme"))
        listed = buffer.list()
        assert [t["trace_id"] for t in listed] == ["bad", "slow", "fast"]
        assert [t["trace_id"] for t in buffer.list(min_duration=0.4)] == [
            "bad", "slow",
        ]
        assert [t["trace_id"] for t in buffer.list(status="error")] == ["bad"]
        assert [t["trace_id"] for t in buffer.list(tenant="acme")] == ["bad"]
        assert len(buffer.list(limit=1)) == 1

    def test_traceless_record_is_ignored(self):
        buffer = TraceBuffer()
        buffer.add({"spans": []})
        assert len(buffer) == 0


class TestSlowLog:
    def test_threshold_gates_capture(self):
        slow = SlowLog(threshold=0.5)
        assert slow.offer(_trace("quick", duration=0.1)) is False
        assert slow.offer(_trace("laggy", duration=0.9, tenant="acme")) is True
        snap = slow.snapshot()
        assert snap["seen"] == 2 and snap["captured"] == 1
        (entry,) = slow.entries()
        assert entry["trace_id"] == "laggy"
        assert entry["tenant"] == "acme"
        assert set(entry) >= {
            "trace_id", "name", "duration_seconds", "status", "path", "ts",
        }

    def test_ring_is_bounded_and_newest_first(self):
        slow = SlowLog(threshold=0.0, capacity=2)
        for i in range(4):
            slow.offer(_trace(f"t{i}", duration=1.0))
        entries = slow.entries()
        assert [e["trace_id"] for e in entries] == ["t3", "t2"]
        assert slow.snapshot()["held"] == 2
        assert len(slow.entries(limit=1)) == 1


class TestJsonLogger:
    def test_emits_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream)
        logger.emit({"event": "a", "n": 1})
        logger.emit({"event": "b", "nested": {"x": [1, 2]}})
        records = list(iter_json_lines(stream.getvalue()))
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[1]["nested"] == {"x": [1, 2]}

    def test_unserializable_values_fall_back_to_str(self):
        stream = io.StringIO()
        JsonLogger(stream).emit({"event": "odd", "obj": object()})
        (record,) = iter_json_lines(stream.getvalue())
        assert record["event"] == "odd"  # default=str kept the line intact

    def test_broken_stream_never_raises(self):
        stream = io.StringIO()
        stream.close()
        JsonLogger(stream).emit({"event": "late"})  # swallowed


# -- LatencyHistogram percentile contract ------------------------------------


class TestReservoirPercentiles:
    def test_sample_count_exposed(self):
        hist = LatencyHistogram()
        for _ in range(10):
            hist.observe(0.01)
        snap = hist.snapshot()
        assert snap["sample_count"] == 10
        assert snap["count"] == 10

    def test_percentiles_describe_recent_reservoir_not_lifetime(self):
        hist = LatencyHistogram()
        for _ in range(10):
            hist.observe(1.0)  # old, slow traffic
        for _ in range(RESERVOIR_SIZE):
            hist.observe(0.001)  # recent, fast traffic fills the reservoir
        snap = hist.snapshot()
        assert snap["count"] == 10 + RESERVOIR_SIZE  # lifetime
        assert snap["sample_count"] == RESERVOIR_SIZE  # reservoir only
        assert snap["p50_seconds"] == pytest.approx(0.001)
        assert snap["p99_seconds"] == pytest.approx(0.001)
        # lifetime buckets still remember the old observations
        assert snap["buckets"]["le_1"] >= 10


# -- Prometheus exposition ---------------------------------------------------


def parse_exposition(text: str):
    """Minimal text-exposition parser: validates and returns samples.

    Enforces the format rules a real scraper relies on: ``# TYPE``
    declared before a family's samples, every sample line shaped
    ``name[{labels}] value``, no duplicate sample identities.
    """
    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in ("counter", "gauge", "histogram"), line
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line}"
        key, _, value = line.rpartition(" ")
        assert key and value, f"malformed sample: {line}"
        float(value)  # must parse
        name = key.split("{", 1)[0]
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        assert family in types, f"sample before TYPE: {line}"
        assert key not in samples, f"duplicate sample: {key}"
        samples[key] = float(value)
    return types, samples


def check_histograms(types, samples):
    """Cumulative bucket monotonicity and ``+Inf == _count`` per series."""
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series: dict[str, list[tuple[float, float]]] = {}
        for key, value in samples.items():
            if not key.startswith(f"{family}_bucket"):
                continue
            labels = key[key.index("{") + 1 : -1]
            pairs = dict(
                item.split("=", 1) for item in labels.split(",") if item
            )
            le = pairs.pop('le').strip('"')
            ident = ",".join(f"{k}={v}" for k, v in sorted(pairs.items()))
            bound = float("inf") if le == "+Inf" else float(le)
            series.setdefault(ident, []).append((bound, value))
        assert series, f"histogram {family} has no bucket samples"
        for ident, buckets in series.items():
            buckets.sort()
            values = [v for _, v in buckets]
            assert values == sorted(values), (family, ident, values)
            assert buckets[-1][0] == float("inf")
            count_key = f"{family}_count"
            if ident:
                count_key += "{" + ident.replace("=", '="') + '"}'
            # labels in count samples keep original format; match loosely
            matches = [
                v for k, v in samples.items()
                if k.startswith(f"{family}_count")
                and all(part.split("=")[0] in k for part in ident.split(","))
            ]
            assert buckets[-1][1] in matches, (family, ident)


@pytest.fixture(scope="module")
def service():
    svc = ExpansionService(
        SessionPool([ServeConfig(name="wiki", n_clusters=3)]),
        cache_size=32,
        workers=2,
        slow_threshold=0.0,  # everything is "slow": exercises the log
    )
    yield svc
    svc.close(drain_timeout=5.0)


class TestPrometheusExposition:
    def test_service_exposition_parses(self, service):
        service.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        service.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        status, payload = service.handle(
            "GET", "/metrics", {"format": "prometheus"}
        )
        assert status == 200
        assert isinstance(payload, PrometheusText)
        types, samples = parse_exposition(bytes(payload).decode())
        check_histograms(types, samples)
        assert types["repro_requests_total"] == "counter"
        assert types["repro_request_latency_seconds"] == "histogram"
        assert types["repro_uptime_seconds"] == "gauge"
        assert any(k.startswith("repro_cache_hits_total") for k in samples)
        assert any(
            k.startswith("repro_stage_latency_seconds_bucket") for k in samples
        )

    def test_json_metrics_stays_default_and_unchanged(self, service):
        status, payload = service.handle("GET", "/metrics", {})
        assert status == 200
        assert isinstance(payload, dict)
        assert {"uptime_seconds", "requests", "cache", "stages"} <= set(payload)
        json.dumps(payload)  # still plain JSON types

    def test_bad_format_is_400(self, service):
        status, payload = service.handle(
            "GET", "/metrics", {"format": "xml"}
        )
        assert status == 400
        assert "format" in payload["message"]

    def test_cluster_shaped_payload_renders(self):
        payload = {
            "uptime_seconds": 5.0,
            "requests": {"expand": {
                "count": 3, "errors": 1, "cache_hits": 2, "cache_misses": 1,
            }},
            "cluster": {
                "routed": {"r0": 2, "r1": 1},
                "shed": 1,
                "failovers": {"r1": 1},
                "restarts": {"r0": 0, "r1": 1},
                "in_flight": {"r0": 0, "r1": 0},
                "queue_depth": 16,
                "feed": {"follow": False, "compaction": {}},
            },
            "replicas": {
                "r0": {"requests": {}},
                "r1": {"error": "replica down"},
            },
        }
        types, samples = parse_exposition(
            bytes(render_prometheus(payload)).decode()
        )
        assert samples['repro_cluster_routed_total{replica="r0"}'] == 2
        assert samples["repro_cluster_shed_total"] == 1
        assert samples['repro_replica_up{replica="r0"}'] == 1
        assert samples['repro_replica_up{replica="r1"}'] == 0


# -- serve tier: root spans, debug endpoints, error trace ids ----------------


class TestServiceTracing:
    def test_trace_param_roots_the_trace(self, service):
        status, payload = service.handle(
            "GET", "/expand",
            {"config": "wiki", "query": "java", TRACE_PARAM: "svc-trace-1"},
        )
        payload = json.loads(payload)
        assert status == 200
        assert TRACE_PARAM not in payload  # stripped before dispatch
        trace = service.tracer.buffer.get("svc-trace-1")
        assert trace is not None
        names = {s["name"] for s in trace["spans"]}
        assert "http.request" in names
        assert "cache.lookup" in names
        assert trace["attrs"]["tier"] == "serve"

    def test_pipeline_stages_become_spans_on_cache_miss(self, service):
        service.handle(
            "GET", "/expand",
            {"config": "wiki", "query": "columbia", TRACE_PARAM: "svc-stages"},
        )
        names = {
            s["name"] for s in service.tracer.buffer.get("svc-stages")["spans"]
        }
        assert any(n.startswith("stage.") for n in names), names

    def test_search_gets_retrieve_span(self, service):
        service.handle(
            "GET", "/search",
            {"config": "wiki", "query": "java", TRACE_PARAM: "svc-search"},
        )
        names = {
            s["name"] for s in service.tracer.buffer.get("svc-search")["spans"]
        }
        assert "stage.retrieve" in names

    def test_error_payload_carries_trace_id(self, service):
        status, payload = service.handle(
            "GET", "/expand", {TRACE_PARAM: "svc-err", "query": "java",
                               "config": "missing"},
        )
        assert status == 404
        assert payload["trace_id"] == "svc-err"
        assert service.tracer.buffer.get("svc-err")["status"] == "error"

    def test_debug_traces_endpoint_filters(self, service):
        service.handle(
            "GET", "/expand",
            {"config": "wiki", "query": "java", TRACE_PARAM: "svc-list"},
        )
        status, payload = service.handle("GET", "/debug/traces", {})
        assert status == 200
        assert payload["tracing"] is True
        assert payload["held"] >= 1
        assert payload["capacity"] == 256
        assert any(t["trace_id"] == "svc-list" for t in payload["traces"])
        status, payload = service.handle(
            "GET", "/debug/traces", {"status": "error"}
        )
        assert all(t["status"] == "error" for t in payload["traces"])
        status, payload = service.handle(
            "GET", "/debug/traces", {"min_duration": "oops"}
        )
        assert status == 400

    def test_debug_slow_endpoint(self, service):
        service.handle(
            "GET", "/expand", {"config": "wiki", "query": "java"}
        )
        status, payload = service.handle("GET", "/debug/slow", {})
        assert status == 200
        assert payload["threshold_seconds"] == 0.0
        assert payload["captured"] >= 1
        assert payload["slow"][0]["trace_id"]

    def test_tracing_disabled_service_short_circuits(self):
        svc = ExpansionService(
            SessionPool([ServeConfig(name="w", n_clusters=3)]),
            workers=1,
            tracing=False,
        )
        try:
            status, payload = svc.handle(
                "GET", "/healthz", {TRACE_PARAM: "never"}
            )
            assert status == 200
            assert svc.tracer.buffer.get("never") is None
            status, payload = svc.handle("GET", "/debug/traces", {})
            assert status == 200 and payload["tracing"] is False
        finally:
            svc.close(drain_timeout=5.0)

    def test_shed_logs_structured_event(self):
        from repro.tenancy import TenantRegistry, TenantSpec

        stream = io.StringIO()
        registry = TenantRegistry(
            specs=[TenantSpec(name="acme", max_in_flight=1)]
        )
        svc = ExpansionService(
            SessionPool([ServeConfig(name="w", n_clusters=3)]),
            workers=1,
            tenants=registry,
            log_stream=stream,
        )
        try:
            gate = threading.Event()
            release = threading.Event()
            original = svc._expand_cached

            def stalled(*args, **kwargs):
                gate.set()
                release.wait(10)
                return original(*args, **kwargs)

            svc._expand_cached = stalled
            worker = threading.Thread(
                target=svc.handle,
                args=("GET", "/expand",
                      {"query": "java", "tenant": "acme"}),
                daemon=True,
            )
            worker.start()
            assert gate.wait(10)
            status, payload = svc.handle(
                "GET", "/expand", {"query": "java", "tenant": "acme"}
            )
            release.set()
            worker.join(10)
            assert status == 429
            sheds = [
                r for r in iter_json_lines(stream.getvalue())
                if r.get("event") == "shed"
            ]
            assert sheds and sheds[0]["reason"] == "in_flight"
            assert sheds[0]["tenant"] == "acme"
        finally:
            svc.close(drain_timeout=5.0)


# -- one measurement: spans, report timings and /metrics agree ---------------


@pytest.fixture()
def fresh_service():
    svc = ExpansionService(
        SessionPool([ServeConfig(name="wiki", n_clusters=3)]),
        cache_size=32,
        workers=2,
    )
    yield svc
    svc.close(drain_timeout=5.0)


def _stage_counts(svc):
    _, metrics = svc.handle("GET", "/metrics", {})
    return metrics["stages"].get("wiki", {})


class TestOneStageMeasurement:
    """Pipeline.run times each stage once; every reader sees that record."""

    def test_cold_expand_spans_timings_and_stats_agree(self, fresh_service):
        svc = fresh_service
        before = _stage_counts(svc)
        status, payload = svc.handle(
            "GET", "/expand",
            {"config": "wiki", "query": "java", TRACE_PARAM: "one-cold"},
        )
        payload = json.loads(payload)
        assert status == 200 and payload["cache"] == "miss"
        timed = [t["stage"] for t in payload["report"]["stage_timings"]]
        spans = svc.tracer.buffer.get("one-cold")["spans"]
        root = next(s for s in spans if s["name"] == "http.request")
        stage_spans = [s for s in spans if s["name"].startswith("stage.")]
        assert [s["name"] for s in stage_spans] == [f"stage.{t}" for t in timed]
        assert all(s["parent_id"] == root["span_id"] for s in stage_spans)
        after = _stage_counts(svc)
        assert list(after) == timed
        for stage in timed:
            was = before.get(stage, {}).get("count", 0)
            assert after[stage]["count"] == was + 1

    def test_failed_expand_counts_one_error_and_no_latency(self, fresh_service):
        svc = fresh_service
        svc.handle("GET", "/expand", {"config": "wiki", "query": "java"})
        before = _stage_counts(svc)["retrieve"]
        status, payload = svc.handle(
            "GET", "/expand",
            {"config": "wiki", "query": "zzzqqq", TRACE_PARAM: "one-err"},
        )
        assert status == 400 and payload["error"] == "ExpansionError"
        after = _stage_counts(svc)["retrieve"]
        assert after["errors"] == before.get("errors", 0) + 1
        assert after["count"] == before["count"]
        spans = svc.tracer.buffer.get("one-err")["spans"]
        retrieve = [s for s in spans if s["name"] == "stage.retrieve"]
        assert [s["status"] for s in retrieve] == ["error"]

    def test_batch_items_keep_their_spans_at_any_worker_count(
        self, fresh_service
    ):
        svc = fresh_service
        query_sets = {
            1: ["eclipse", "cell", "mouse", "domino"],
            2: ["rockets", "columbia", "cvs", "san jose"],
        }
        counts = {}
        for workers, queries in query_sets.items():
            trace_id = f"one-batch-{workers}"
            status, payload = svc.handle(
                "POST", "/batch",
                {"config": "wiki", "queries": queries, "workers": workers,
                 TRACE_PARAM: trace_id},
            )
            payload = json.loads(payload)
            assert status == 200 and payload["n_ok"] == len(queries)
            spans = svc.tracer.buffer.get(trace_id)["spans"]
            ids = {s["span_id"] for s in spans}
            roots = [s for s in spans if s["parent_id"] is None]
            assert [s["name"] for s in roots] == ["http.request"]
            assert all(s["parent_id"] in ids for s in spans if s not in roots)
            counts[workers] = Counter(s["name"] for s in spans)
        assert counts[2] == counts[1]
        assert counts[2]["stage.retrieve"] == 4


# -- HTTP layer: header round-trip -------------------------------------------


@pytest.fixture(scope="module")
def http_server():
    server = create_server(
        ["wiki:dataset=wikipedia,k=3"], port=0, cache_size=32, workers=2
    ).start()
    yield server
    server.stop()


def _http(server, path, headers=None, **params):
    url = server.url + path
    if params:
        url += "?" + urllib.parse.urlencode(params)
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


class TestHttpTraceHeader:
    def test_client_supplied_id_round_trips(self, http_server):
        status, headers, _ = _http(
            http_server, "/healthz",
            headers={TRACE_HEADER: "client-id-1"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "client-id-1"
        assert http_server.service.tracer.buffer.get("client-id-1")

    def test_minted_id_still_reaches_client(self, http_server):
        status, headers, _ = _http(http_server, "/healthz")
        assert status == 200
        minted = headers[TRACE_HEADER]
        assert http_server.service.tracer.buffer.get(minted)

    def test_error_payload_and_header_agree(self, http_server):
        status, headers, body = _http(http_server, "/nope")
        payload = json.loads(body)
        assert status == 404
        assert payload["trace_id"] == headers[TRACE_HEADER]

    def test_junk_header_gets_fresh_id(self, http_server):
        status, headers, _ = _http(
            http_server, "/healthz",
            headers={TRACE_HEADER: "bad id with spaces"},
        )
        assert status == 200
        assert headers[TRACE_HEADER] != "bad id with spaces"

    def test_prometheus_content_type_over_http(self, http_server):
        status, headers, body = _http(
            http_server, "/metrics", format="prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        types, samples = parse_exposition(body.decode())
        check_histograms(types, samples)


# -- coordinator: stitching with fakes, failover spans -----------------------


class FakeReplica:
    """In-process stand-in replying the legacy 2-tuple wire (no extras)."""

    def __init__(self, name: str, spec_factory=None) -> None:
        self.name = name
        self._state = "down"
        self.restarts = -1
        self.fail = False
        self.requests: list[tuple[str, str, dict]] = []
        self.pid = None

    def start(self) -> None:
        self._state = "serving"
        self.restarts += 1

    def stop(self, graceful: bool = True, join_timeout: float = 10.0) -> None:
        self._state = "down"

    def mark_down(self) -> None:
        self._state = "down"

    @property
    def state(self) -> str:
        return self._state

    def alive(self) -> bool:
        return self._state == "serving"

    def request(self, method, path, params, timeout=None):
        if not self.alive() or self.fail:
            raise ClusterError(f"{self.name} is down")
        self.requests.append((method, path, dict(params)))
        payload = {"replica": self.name, "path": path}
        return 200, json.dumps(payload).encode("utf-8"), {}


@pytest.fixture()
def fake_cluster():
    coordinator = ClusterCoordinator(
        ["c:dataset=wikipedia"],
        replicas=3,
        queue_depth=4,
        replica_factory=lambda name, factory: FakeReplica(name, factory),
    )
    coordinator.start()
    yield coordinator
    coordinator.stop()


class TestCoordinatorTracing:
    def test_routed_request_traces_route_and_rpc(self, fake_cluster):
        status, _ = fake_cluster.handle(
            "GET", "/expand",
            {"config": "c", "query": "java", TRACE_PARAM: "coord-1"},
        )
        assert status == 200
        trace = fake_cluster.tracer.buffer.get("coord-1")
        names = [s["name"] for s in trace["spans"]]
        assert "cluster.route" in names
        assert "cluster.rpc" in names
        assert trace["attrs"]["tier"] == "coordinator"
        rpc = next(s for s in trace["spans"] if s["name"] == "cluster.rpc")
        assert rpc["attrs"]["replica"] in ("r0", "r1", "r2")

    def test_trace_params_propagate_over_the_rpc(self, fake_cluster):
        fake_cluster.handle(
            "GET", "/expand",
            {"config": "c", "query": "java", TRACE_PARAM: "coord-prop"},
        )
        sent = [
            params
            for replica in fake_cluster.replicas.values()
            for (_m, _p, params) in replica.requests
        ]
        assert any(p.get(TRACE_PARAM) == "coord-prop" for p in sent)

    def test_crashed_replica_leaves_error_tagged_rpc_span(self, fake_cluster):
        key = fake_cluster.routing_key(
            "/expand", {"config": "c", "query": "java"}
        )
        owner = fake_cluster.ring.node_for(key)
        fake_cluster.replicas[owner].fail = True
        status, _ = fake_cluster.handle(
            "GET", "/expand",
            {"config": "c", "query": "java", TRACE_PARAM: "coord-crash"},
        )
        assert status == 200  # failed over
        spans = fake_cluster.tracer.buffer.get("coord-crash")["spans"]
        rpcs = [s for s in spans if s["name"] == "cluster.rpc"]
        assert len(rpcs) == 2
        assert rpcs[0]["status"] == "error"
        assert rpcs[0]["attrs"]["replica"] == owner
        assert rpcs[1]["status"] == "ok"

    def test_error_payload_carries_trace_id(self, fake_cluster):
        status, payload = fake_cluster.handle(
            "GET", "/nope", {TRACE_PARAM: "coord-404"}
        )
        assert status == 404
        assert payload["trace_id"] == "coord-404"

    def test_debug_endpoints_respond(self, fake_cluster):
        fake_cluster.handle(
            "GET", "/expand",
            {"config": "c", "query": "java", TRACE_PARAM: "coord-dbg"},
        )
        status, payload = fake_cluster.handle("GET", "/debug/traces", {})
        assert status == 200
        assert any(t["trace_id"] == "coord-dbg" for t in payload["traces"])
        status, payload = fake_cluster.handle("GET", "/debug/slow", {})
        assert status == 200
        assert "threshold_seconds" in payload

    def test_cluster_prometheus_format(self, fake_cluster):
        fake_cluster.handle(
            "GET", "/expand", {"config": "c", "query": "java"}
        )
        status, payload = fake_cluster.handle(
            "GET", "/metrics", {"format": "prometheus"}
        )
        assert status == 200
        assert isinstance(payload, PrometheusText)
        types, samples = parse_exposition(bytes(payload).decode())
        check_histograms(types, samples)
        assert any(
            k.startswith("repro_cluster_routed_total") for k in samples
        )
        status, payload = fake_cluster.handle(
            "GET", "/metrics", {"format": "junk"}
        )
        assert status == 400

    def test_tracing_disabled_coordinator(self):
        coordinator = ClusterCoordinator(
            ["c:dataset=wikipedia"],
            replicas=1,
            replica_factory=lambda name, factory: FakeReplica(name, factory),
            tracing=False,
        )
        coordinator.start()
        try:
            status, _ = coordinator.handle(
                "GET", "/expand",
                {"config": "c", "query": "java", TRACE_PARAM: "off"},
            )
            assert status == 200
            assert coordinator.tracer.buffer.get("off") is None
        finally:
            coordinator.stop()


# -- the real thing: stitched traces across 2 replica processes --------------


def _seed_documents(n: int = 10) -> list[Document]:
    vocab = ["java", "coffee", "island", "python", "snake", "language"]
    return [
        Document(
            doc_id=f"doc-{i}",
            terms={vocab[i % len(vocab)]: 2, vocab[(i + 1) % len(vocab)]: 1,
                   f"term-{i}": 1},
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def process_cluster(tmp_path_factory):
    store_path = tmp_path_factory.mktemp("obs-cluster") / "source.sqlite"
    with DocumentStore(store_path) as store:
        store.upsert_all(_seed_documents())
    server = create_cluster(
        [f"db:dataset=wikipedia,backend=sqlite,store={store_path}"],
        replicas=2,
        port=0,
        workers=2,
        queue_depth=8,
        start_timeout=120.0,
    )
    server.start()
    yield server
    server.stop()


@pytest.mark.slow
class TestProcessClusterStitching:
    def test_routed_search_yields_one_cross_process_trace(
        self, process_cluster
    ):
        status, headers, _ = _http(
            process_cluster, "/search",
            headers={TRACE_HEADER: "stitch-1"},
            config="db", query="java",
        )
        assert status == 200
        assert headers[TRACE_HEADER] == "stitch-1"
        status, _, body = _http(
            process_cluster, "/debug/traces", limit=10
        )
        assert status == 200
        traces = json.loads(body)["traces"]
        trace = next(t for t in traces if t["trace_id"] == "stitch-1")
        spans = trace["spans"]
        assert len(spans) >= 6
        assert all(s["trace_id"] == "stitch-1" for s in spans)
        tiers = {s["attrs"].get("tier") for s in spans}
        assert {"coordinator", "replica"} <= tiers
        # the replica's root hangs off the coordinator's rpc span
        rpc = next(s for s in spans if s["name"] == "cluster.rpc")
        replica_root = next(
            s for s in spans
            if s["name"] == "http.request"
            and s["attrs"].get("tier") == "replica"
        )
        assert replica_root["parent_id"] == rpc["span_id"]
        assert replica_root["attrs"]["replica"] in ("r0", "r1")

    def test_replica_crash_traces_error_and_fails_over(self, process_cluster):
        import os
        import signal
        import time

        coordinator = process_cluster.coordinator
        # Find the replica that owns this query and kill its process.
        key = coordinator.routing_key(
            "/search", {"config": "db", "query": "coffee"}
        )
        owner = coordinator.ring.node_for(key)
        pid = coordinator.replicas[owner].pid
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        status = None
        while time.monotonic() < deadline:
            status, _, _ = _http(
                process_cluster, "/search",
                headers={TRACE_HEADER: f"crash-{int(time.monotonic()*1e6)}"},
                config="db", query="coffee",
            )
            if status == 200:
                break
            time.sleep(0.2)
        assert status == 200  # degraded-but-available
        # Some trace in the buffer recorded the failed hop or the request
        # simply routed around the dead replica; either way the cluster
        # answered and /debug/traces kept serving.
        status, _, body = _http(process_cluster, "/debug/traces", limit=50)
        assert status == 200
        # wait for the supervisor to respawn before the next test
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if coordinator.replicas[owner].alive():
                break
            time.sleep(0.25)
