"""``repro.obs`` — tracing, structured logging, and telemetry exposition.

The stack's observability layer, stdlib-only:

* :mod:`repro.obs.tracing` — span trees with :mod:`contextvars`
  propagation, the :class:`Tracer`, and cross-process trace stitching
  over the cluster RPC.
* :mod:`repro.obs.sinks` — the bounded :class:`TraceBuffer` behind
  ``/debug/traces``, the always-on :class:`SlowLog` behind
  ``/debug/slow``, and the ``--log-json`` :class:`JsonLogger`.
* :mod:`repro.obs.histogram` — the :class:`LatencyHistogram` behind
  every latency partition of ``/metrics``.
* :mod:`repro.obs.prometheus` — ``/metrics?format=prometheus`` text
  exposition of the existing metrics partitions.

See API.md § Observability for the header contract and span vocabulary.
"""

from repro.obs.histogram import LatencyHistogram
from repro.obs.prometheus import CONTENT_TYPE, PrometheusText, render_prometheus
from repro.obs.sinks import (
    DEFAULT_SLOW_THRESHOLD,
    JsonLogger,
    SlowLog,
    TraceBuffer,
)
from repro.obs.tracing import (
    TRACE_HEADER,
    TRACE_PARAM,
    TRACE_PARENT_PARAM,
    Span,
    Tracer,
    absorb_spans,
    current_span,
    current_trace_id,
    leaf_span,
    new_trace_id,
    sanitize_trace_id,
    span,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_SLOW_THRESHOLD",
    "JsonLogger",
    "LatencyHistogram",
    "PrometheusText",
    "SlowLog",
    "Span",
    "TRACE_HEADER",
    "TRACE_PARAM",
    "TRACE_PARENT_PARAM",
    "TraceBuffer",
    "Tracer",
    "absorb_spans",
    "current_span",
    "current_trace_id",
    "leaf_span",
    "new_trace_id",
    "render_prometheus",
    "sanitize_trace_id",
    "span",
]
