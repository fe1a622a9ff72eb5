"""Render ``/metrics`` snapshots in Prometheus text exposition format.

The JSON ``/metrics`` payload stays the default and byte-compatible;
``?format=prometheus`` runs the same snapshot through
:func:`render_prometheus`, which maps the existing structures onto
standard families:

* request counters → ``repro_requests_total`` / ``repro_request_errors_total``
  / ``repro_cache_hits_total`` / ``repro_cache_misses_total`` (by
  ``endpoint``, plus ``replica`` on per-replica rows)
* :class:`~repro.obs.histogram.LatencyHistogram` snapshots → native
  histograms (cumulative ``_bucket{le=...}`` + ``_sum`` + ``_count``)
  using the histogram's existing bounds
* cache tiers, tenant partitions, coordinator routing/shed/failover and
  feed counters → labelled counters and gauges

The output is plain ``text/plain; version=0.0.4`` — every line is either
``# HELP``, ``# TYPE``, or ``name{labels} value``, so any scraper (or
the minimal parser in ``tests/test_obs.py``) can consume it without new
dependencies.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["PrometheusText", "render_prometheus", "CONTENT_TYPE"]

#: The content type Prometheus scrapers expect for text exposition.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class PrometheusText(bytes):
    """Marker type: pre-encoded exposition output, not a JSON payload.

    The HTTP handlers dispatch on this to send ``text/plain`` instead of
    serializing; the cluster tier's bytes-passthrough path checks it
    first so exposition output is never mislabelled ``application/json``.
    """

    __slots__ = ()


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_labels(labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(val)}"'
        for key, val in labels.items()
        if val is not None
    )
    return "{" + inner + "}" if inner else ""


class _Exposition:
    """Accumulates samples grouped by family, renders HELP/TYPE blocks."""

    def __init__(self) -> None:
        self._families: dict[str, tuple[str, str, list[str]]] = {}
        self._order: list[str] = []

    def sample(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: Any,
        labels: Mapping[str, Any] | None = None,
        suffix: str = "",
    ) -> None:
        if name not in self._families:
            self._families[name] = (kind, help_text, [])
            self._order.append(name)
        lines = self._families[name][2]
        lines.append(
            f"{name}{suffix}{_format_labels(labels)} {_format_value(value)}"
        )

    def histogram(
        self,
        name: str,
        help_text: str,
        snap: Mapping[str, Any],
        labels: Mapping[str, Any] | None = None,
    ) -> None:
        """One LatencyHistogram snapshot as a native histogram family.

        The snapshot's buckets are per-bucket tallies keyed ``le_<bound>``
        / ``le_inf``; exposition buckets are cumulative, so they are
        re-accumulated in bound order here.
        """
        count = int(snap.get("count", 0))
        raw = snap.get("buckets") or {}
        bounds: list[tuple[float, int]] = []
        inf_count = 0
        for key, tally in raw.items():
            if key == "le_inf":
                inf_count = int(tally)
            elif key.startswith("le_"):
                bounds.append((float(key[3:]), int(tally)))
        bounds.sort(key=lambda item: item[0])
        base = dict(labels or {})
        cumulative = 0
        for bound, tally in bounds:
            cumulative += tally
            self.sample(
                name,
                "histogram",
                help_text,
                cumulative,
                {**base, "le": f"{bound:g}"},
                suffix="_bucket",
            )
        self.sample(
            name,
            "histogram",
            help_text,
            cumulative + inf_count,
            {**base, "le": "+Inf"},
            suffix="_bucket",
        )
        self.sample(
            name, "histogram", help_text,
            float(snap.get("total_seconds", 0.0)), base, suffix="_sum",
        )
        self.sample(name, "histogram", help_text, count, base, suffix="_count")

    def render(self) -> str:
        out: list[str] = []
        for name in self._order:
            kind, help_text, lines = self._families[name]
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {kind}")
            out.extend(lines)
        return "\n".join(out) + "\n"


def _render_requests(
    exp: _Exposition,
    requests: Mapping[str, Any],
    labels: Mapping[str, Any] | None = None,
) -> None:
    # Counters render only at the scrape target's own level: the cluster
    # payload already sums replica counts, so repeating them with a
    # ``replica`` label would double-count any sum over the family.
    # Latency histograms exist only per replica (sums don't aggregate
    # percentile reservoirs), so those keep the replica label.
    base = dict(labels or {})
    for endpoint, row in requests.items():
        if not isinstance(row, Mapping):
            continue
        tags = {**base, "endpoint": endpoint}
        if not base:
            exp.sample(
                "repro_requests_total", "counter",
                "Requests handled, by endpoint.",
                int(row.get("count", 0)), tags,
            )
            exp.sample(
                "repro_request_errors_total", "counter",
                "Requests that errored, by endpoint.",
                int(row.get("errors", 0)), tags,
            )
            exp.sample(
                "repro_cache_hits_total", "counter",
                "Response-cache hits, by endpoint.",
                int(row.get("cache_hits", 0)), tags,
            )
            exp.sample(
                "repro_cache_misses_total", "counter",
                "Response-cache misses, by endpoint.",
                int(row.get("cache_misses", 0)), tags,
            )
        latency = row.get("latency")
        if isinstance(latency, Mapping) and latency.get("count"):
            exp.histogram(
                "repro_request_latency_seconds",
                "Request latency, by endpoint.",
                latency,
                tags,
            )


def _render_cache_tier(
    exp: _Exposition, tier: str, stats: Mapping[str, Any]
) -> None:
    for key, value in stats.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        kind = "counter" if key in (
            "hits", "misses", "evictions", "expirations", "invalidations"
        ) else "gauge"
        exp.sample(
            f"repro_cache_{key}", kind, f"Cache {key}, by tier.",
            value, {"tier": tier},
        )


def _render_service(
    exp: _Exposition,
    payload: Mapping[str, Any],
    labels: Mapping[str, Any] | None = None,
) -> None:
    """One single-node ``/metrics`` payload (optionally replica-labelled)."""
    base = dict(labels or {})
    if not base and "uptime_seconds" in payload:  # top-level target only
        exp.sample(
            "repro_uptime_seconds", "gauge", "Seconds since server start.",
            float(payload["uptime_seconds"]),
        )
    _render_requests(exp, payload.get("requests", {}), base)
    cache = payload.get("cache", {})
    if isinstance(cache, Mapping) and not base:
        responses = cache.get("responses")
        if isinstance(responses, Mapping):
            _render_cache_tier(exp, "responses", responses)
        sessions = cache.get("sessions")
        if isinstance(sessions, Mapping):
            for config, info in sessions.items():
                if not isinstance(info, Mapping):
                    continue
                for tier_name, tier_stats in info.items():
                    if isinstance(tier_stats, Mapping):
                        _render_cache_tier(
                            exp, f"{config}/{tier_name}", tier_stats
                        )
    stages = payload.get("stages", {})
    if isinstance(stages, Mapping):
        for config, per_stage in stages.items():
            if not isinstance(per_stage, Mapping):
                continue
            for stage, snap in per_stage.items():
                if isinstance(snap, Mapping) and snap.get("count"):
                    exp.histogram(
                        "repro_stage_latency_seconds",
                        "Pipeline stage latency, by config and stage.",
                        snap,
                        {**base, "config": config, "stage": stage},
                    )
    tenants = payload.get("tenants") if not base else None
    if isinstance(tenants, Mapping):
        for tenant, row in tenants.items():
            if not isinstance(row, Mapping):
                continue
            requests = row.get("requests", 0)
            if isinstance(requests, Mapping):
                total = sum(
                    int(r.get("count", 0))
                    for r in requests.values()
                    if isinstance(r, Mapping)
                )
            else:
                total = int(requests)
            exp.sample(
                "repro_tenant_requests_total", "counter",
                "Requests handled, by tenant.", total,
                {**base, "tenant": tenant},
            )
            exp.sample(
                "repro_tenant_sheds_total", "counter",
                "Requests shed (429), by tenant.", int(row.get("sheds", 0)),
                {**base, "tenant": tenant},
            )
    in_flight = payload.get("tenant_in_flight") if not base else None
    if isinstance(in_flight, Mapping):
        for tenant, depth in in_flight.items():
            exp.sample(
                "repro_tenant_in_flight", "gauge",
                "In-flight requests, by tenant.", int(depth),
                {**base, "tenant": tenant},
            )


def _render_cluster(exp: _Exposition, payload: Mapping[str, Any]) -> None:
    exp.sample(
        "repro_uptime_seconds", "gauge", "Seconds since server start.",
        float(payload.get("uptime_seconds", 0.0)),
    )
    _render_requests(exp, payload.get("requests", {}))
    cluster = payload.get("cluster", {})
    if isinstance(cluster, Mapping):
        for replica, routed in (cluster.get("routed") or {}).items():
            exp.sample(
                "repro_cluster_routed_total", "counter",
                "Requests routed, by replica.", int(routed),
                {"replica": replica},
            )
        exp.sample(
            "repro_cluster_shed_total", "counter",
            "Requests shed by cluster admission.",
            int(cluster.get("shed", 0)),
        )
        for replica, count in (cluster.get("failovers") or {}).items():
            exp.sample(
                "repro_cluster_failovers_total", "counter",
                "Failovers, by replica.", int(count), {"replica": replica},
            )
        for replica, count in (cluster.get("restarts") or {}).items():
            exp.sample(
                "repro_cluster_restarts_total", "counter",
                "Supervised restarts, by replica.", int(count),
                {"replica": replica},
            )
        for replica, depth in (cluster.get("in_flight") or {}).items():
            exp.sample(
                "repro_cluster_in_flight", "gauge",
                "In-flight proxied requests, by replica.", int(depth),
                {"replica": replica},
            )
        exp.sample(
            "repro_cluster_queue_depth", "gauge",
            "Per-replica admission bound.", int(cluster.get("queue_depth", 0)),
        )
        for key, value in (cluster.get("cache") or {}).items():
            if key in ("hits", "misses", "fills", "stale"):
                exp.sample(
                    f"repro_cluster_cache_{key}_total", "counter",
                    f"Coordinator response-cache {key}.", int(value),
                )
        proxy = cluster.get("proxy_latency")
        if isinstance(proxy, Mapping) and proxy.get("count"):
            exp.histogram(
                "repro_cluster_proxy_latency_seconds",
                "End-to-end proxied request latency.", proxy,
            )
        shed = cluster.get("shed_latency")
        if isinstance(shed, Mapping) and shed.get("count"):
            exp.histogram(
                "repro_cluster_shed_latency_seconds",
                "Latency of shed (429) responses.", shed,
            )
        feed = cluster.get("feed")
        if isinstance(feed, Mapping):
            exp.sample(
                "repro_cluster_follow", "gauge",
                "1 when replicas tail the source changefeed.",
                bool(feed.get("follow", False)),
            )
        tenants = cluster.get("tenants")
        in_flight = cluster.get("tenant_in_flight")
        if tenants or in_flight:
            _render_service(
                exp,
                {
                    "tenants": tenants or {},
                    "tenant_in_flight": in_flight or {},
                },
            )
    replicas = payload.get("replicas", {})
    if isinstance(replicas, Mapping):
        for name, sub in replicas.items():
            exp.sample(
                "repro_replica_up", "gauge",
                "1 when the replica answered the metrics scrape.",
                isinstance(sub, Mapping) and "error" not in sub,
                {"replica": name},
            )
            if isinstance(sub, Mapping) and "error" not in sub:
                _render_service(exp, sub, {"replica": name})


def render_prometheus(payload: Mapping[str, Any]) -> PrometheusText:
    """The exposition bytes for a ``/metrics`` JSON payload (either tier)."""
    exp = _Exposition()
    if "cluster" in payload and "replicas" in payload:
        _render_cluster(exp, payload)
    else:
        _render_service(exp, payload)
    return PrometheusText(exp.render().encode("utf-8"))
