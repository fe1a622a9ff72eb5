"""Spans, trace context, and the :class:`Tracer` — stdlib only.

One request = one *trace*: a tree of :class:`Span` records sharing a
``trace_id``, each with its own ``span_id`` and its parent's as
``parent_id``. The ambient current span rides a :mod:`contextvars`
variable, so child spans created anywhere below the request handler —
pipeline stages, cache lookups, store transactions — attach to the right
parent without threading a context object through every signature.

Cross-process stitching: the coordinator folds ``_trace`` /
``_trace_parent`` into the RPC params, the replica roots its own span
tree under that parent, and ships its finished spans back in the RPC
response envelope; :func:`absorb_spans` splices them into the
coordinator's in-flight trace. One routed ``/search`` therefore yields
one tree spanning both processes.

Cost discipline: when no trace is active (tracing disabled, background
threads, CLI paths) :func:`span` is a single contextvar read and a
``None`` check — instrumented call sites pay nanoseconds, which is what
keeps the warm-path overhead gate in ``benchmarks/bench_obs.py`` honest.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from contextvars import ContextVar
from typing import Any, Mapping

__all__ = [
    "Span",
    "Tracer",
    "TRACE_PARAM",
    "TRACE_PARENT_PARAM",
    "TRACE_HEADER",
    "absorb_spans",
    "current_span",
    "current_trace_id",
    "leaf_span",
    "new_trace_id",
    "sanitize_trace_id",
    "span",
]

#: HTTP header carrying (and echoing) the request's trace id.
TRACE_HEADER = "X-Repro-Trace"

#: Reserved params keys the HTTP/RPC layers fold trace context into
#: (the same trick X-Repro-Tenant uses for the tenant name).
TRACE_PARAM = "_trace"
TRACE_PARENT_PARAM = "_trace_parent"

#: Longest accepted client-supplied trace id (header abuse guard).
_MAX_TRACE_ID = 64

_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)


# Ids only need uniqueness within a trace buffer's lifetime, and spans
# from several processes can land in one trace — so: a random
# per-process prefix plus a monotonically increasing counter. An order
# of magnitude cheaper than os.urandom per id on the warm path
# (itertools.count.__next__ is atomic in CPython; no lock needed).
_TRACE_PREFIX = os.urandom(6).hex()
_TRACE_COUNTER = itertools.count(1)
_SPAN_PREFIX = os.urandom(3).hex()
_SPAN_COUNTER = itertools.count(1)


def new_trace_id() -> str:
    """A fresh trace id, unique for any plausible buffer lifetime."""
    return f"{_TRACE_PREFIX}{next(_TRACE_COUNTER):04x}"


def _new_span_id() -> str:
    return f"{_SPAN_PREFIX}-{next(_SPAN_COUNTER):x}"


_TOKEN_RE = re.compile(r"[A-Za-z0-9_-]{1,%d}\Z" % _MAX_TRACE_ID)


def sanitize_trace_id(raw: Any) -> str | None:
    """A client-supplied trace id, or ``None`` if unusable.

    Accepts modest tokens (alnum plus ``-_``) so callers can hand us
    their own correlation ids; anything else is ignored and the tracer
    mints a fresh id rather than propagating junk into logs. A single
    compiled-regex match: this runs twice per traced request (header
    fold, root mint), so it stays off the profile.
    """
    if raw is None:
        return None
    token = str(raw).strip()
    if _TOKEN_RE.match(token) is None:
        return None
    return token


class Span:
    """One timed operation inside a trace (see module docstring).

    Spans are single-threaded by construction — they live on the context
    variable of the request that created them — so they carry no lock.
    """

    __slots__ = (
        "trace_id",
        "_span_id",
        "parent_id",
        "name",
        "start",
        "duration_seconds",
        "status",
        "error",
        "attrs",
        "_t0",
        "_sink",
        "_token",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        sink: list,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self._span_id: str | None = None
        self.parent_id = parent_id
        self.start = time.time()
        self.duration_seconds: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.attrs: dict[str, Any] = attrs or {}
        self._t0 = time.perf_counter()
        self._sink = sink
        self._token = None

    @property
    def span_id(self) -> str:
        """This span's id, minted on first read.

        Leaf spans (a warm cache lookup, say) never parent a child and
        only surface their id when the trace is materialized for a
        reader — so the mint is deferred until someone actually asks.
        """
        sid = self._span_id
        if sid is None:
            sid = self._span_id = _new_span_id()
        return sid

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def mark_error(self, exc: BaseException | str) -> None:
        self.status = "error"
        if isinstance(exc, BaseException):
            self.error = f"{type(exc).__name__}: {exc}"
        else:
            self.error = str(exc)

    def end(self) -> None:
        """Close the span and append it to the trace's sink.

        The span object itself is appended, not a dict — building a
        9-key dict per span is warm-path work that only read paths
        (/debug/traces, RPC export) need, so the
        :class:`~repro.obs.sinks.TraceBuffer` materializes dicts lazily
        at read time instead.
        """
        if self.duration_seconds is not None:
            return  # idempotent: a double-ended span records once
        self.duration_seconds = time.perf_counter() - self._t0
        self._sink.append(self)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "error": self.error,
            "attrs": dict(self.attrs),
        }


def current_span() -> Span | None:
    """The ambient span, or ``None`` when no trace is active."""
    return _CURRENT.get()


def current_trace_id() -> str | None:
    cur = _CURRENT.get()
    return None if cur is None else cur.trace_id


def _push(parent: Span, name: str, attrs: dict[str, Any] | None) -> Span:
    child = Span(
        name, parent.trace_id, parent.span_id, parent._sink, attrs
    )
    child._token = _CURRENT.set(child)
    return child


def _pop(child: Span) -> None:
    child.end()
    if child._token is not None:
        _CURRENT.reset(child._token)
        child._token = None


class _SpanContext:
    """Hand-rolled context manager: ``@contextmanager``'s generator
    machinery costs several function calls per ``with`` — measurable on
    the warm path, where two of these run per request."""

    __slots__ = ("_name", "_attrs", "_span")

    def __init__(self, name: str, attrs: dict[str, Any] | None) -> None:
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span | None:
        parent = _CURRENT.get()
        if parent is None:
            return None
        self._span = _push(parent, self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        child = self._span
        if child is not None:
            if exc is not None:
                child.mark_error(exc)
            _pop(child)
        return False


def span(name: str, **attrs: Any) -> _SpanContext:
    """A child span of the ambient trace; a cheap no-op without one."""
    return _SpanContext(name, attrs or None)


def leaf_span(name: str, **attrs: Any) -> Span | None:
    """An already-started child span for a straight-line leaf operation.

    Unlike ``with span(...)``, the returned span is *not* pushed onto
    the context variable — it can never parent further children, which
    makes it the right (and cheaper: no ctxvar push/pop, no context
    manager) shape for timing a single operation like a cache probe on
    the warm path. The caller must call :meth:`Span.end` once; returns
    ``None`` when no trace is live.
    """
    parent = _CURRENT.get()
    if parent is None:
        return None
    return Span(name, parent.trace_id, parent.span_id, parent._sink, attrs or None)


def absorb_spans(spans: Any) -> int:
    """Splice remote (already-finished) span records into the live trace.

    The coordinator calls this with the span dicts a replica shipped
    back over the RPC; their ``trace_id`` already matches because the
    coordinator propagated it. Returns the number absorbed.
    """
    cur = _CURRENT.get()
    if cur is None or not isinstance(spans, (list, tuple)):
        return 0
    absorbed = 0
    for record in spans:
        if isinstance(record, Mapping):
            cur._sink.append(dict(record))
            absorbed += 1
    return absorbed


class _NoRequestContext:
    """Shared stateless stand-in when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


_DISABLED_REQUEST = _NoRequestContext()


class _RequestContext:
    """Root-span context: pins the span to the context variable on
    enter, finishes the whole trace into the tracer's sinks on exit."""

    __slots__ = ("_tracer", "_root")

    def __init__(self, tracer: "Tracer", root: Span) -> None:
        self._tracer = tracer
        self._root = root

    def __enter__(self) -> Span:
        root = self._root
        root._token = _CURRENT.set(root)
        return root

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        root = self._root
        if exc is not None:
            root.mark_error(exc)
        if root._token is not None:
            _CURRENT.reset(root._token)
            root._token = None
        root.end()
        self._tracer._finish(root)
        return False


class Tracer:
    """Mints root spans and finishes traces into the configured sinks.

    Parameters
    ----------
    buffer:
        A :class:`~repro.obs.sinks.TraceBuffer` receiving every finished
        trace (``None`` = keep nothing).
    slow_log:
        A :class:`~repro.obs.sinks.SlowLog`; traces whose root duration
        meets its threshold are captured (always on when provided).
    logger:
        A :class:`~repro.obs.sinks.JsonLogger`; one ``request`` line per
        finished root span (the ``--log-json`` access log).
    enabled:
        ``False`` turns :meth:`request` into a no-op context manager —
        the zero-overhead baseline the benchmark gate compares against.
    tags:
        Attributes stamped on every root span (e.g. ``tier``/``replica``).
    """

    def __init__(
        self,
        buffer: Any = None,
        slow_log: Any = None,
        logger: Any = None,
        enabled: bool = True,
        tags: Mapping[str, Any] | None = None,
    ) -> None:
        self.buffer = buffer
        self.slow_log = slow_log
        self.logger = logger
        self.enabled = bool(enabled)
        self.tags: dict[str, Any] = dict(tags or {})

    def request(
        self,
        name: str,
        trace_id: Any = None,
        parent_id: Any = None,
        **attrs: Any,
    ) -> "_RequestContext":
        """The root span of one request; finishes the trace on exit."""
        if not self.enabled:
            return _DISABLED_REQUEST
        root = Span(
            name,
            sanitize_trace_id(trace_id) or new_trace_id(),
            sanitize_trace_id(parent_id),
            sink=[],
            attrs={**self.tags, **attrs},
        )
        return _RequestContext(self, root)

    def event(self, name: str, error: bool = False, **attrs: Any) -> None:
        """An instantaneous child span (+ one JSON log line if logging).

        Used for point decisions worth seeing in a trace — shed
        verdicts, cache invalidations — where a duration is meaningless.
        """
        cur = _CURRENT.get()
        if cur is not None:
            mark = Span(name, cur.trace_id, cur.span_id, cur._sink, dict(attrs))
            if error:
                mark.mark_error(attrs.get("reason", name))
            mark.end()
        logger = self.logger
        if logger is not None:
            line = {"event": name, **attrs}
            if cur is not None:
                line["trace_id"] = cur.trace_id
            logger.emit(line)

    def export(self, trace_id: str) -> list[dict[str, Any]] | None:
        """A finished trace's span records (for the RPC return envelope)."""
        if self.buffer is None:
            return None
        trace = self.buffer.get(trace_id)
        if trace is None:
            return None
        return list(trace.get("spans", ()))

    def _finish(self, root: Span) -> None:
        # Hot path by design: one deque append, one threshold compare.
        # Everything dict-shaped (the trace record, slow entries, span
        # dicts) is built lazily on the read side of the sinks.
        if self.buffer is not None:
            self.buffer.add_root(root)
        if self.slow_log is not None:
            self.slow_log.offer_root(root)
        if self.logger is not None:
            line = {
                "event": "request",
                "trace_id": root.trace_id,
                "name": root.name,
                "duration_ms": round((root.duration_seconds or 0.0) * 1e3, 3),
                "status": root.status,
            }
            if root.error:
                line["error"] = root.error
            line.update(root.attrs)
            self.logger.emit(line)
