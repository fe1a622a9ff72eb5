"""The :class:`Pipeline` composer: ordered stages, timed once each.

A pipeline is an immutable sequence of :class:`Stage` objects executed
over an :class:`~repro.pipeline.context.ExecutionContext`. Composition
methods return *new* pipelines, so a customized pipeline can be derived
from the default one without affecting other sessions::

    pipe = (default_pipeline()
            .replace_stage("candidates", MyMiner())
            .with_stage(MyReranker(), after="retrieve"))
    ctx = pipe.run(ExecutionContext(engine=..., config=..., algorithm=...,
                                    query="java"))

:meth:`Pipeline.run` is the only per-stage instrument. Each stage gets
one ``stage.<name>`` span (a no-op outside a request trace), one
``perf_counter`` pair whose :class:`StageTiming` is appended to the
context, and one sample (or error) in the pipeline's :class:`StageStats`,
which the serve tier publishes under ``/metrics`` ``stages``.

``run`` accepts ``stop_after`` for partial execution (harnesses that
need intermediate artifacts) — the same stage objects execute whether
the pipeline runs whole or in slices.
"""

from __future__ import annotations

import time
from threading import Lock
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.errors import PipelineError
from repro.obs.histogram import LatencyHistogram
from repro.obs.tracing import span
from repro.pipeline.context import ExecutionContext, StageTiming
from repro.pipeline.stages import default_stages


@runtime_checkable
class Stage(Protocol):  # pragma: no cover — structural only
    """Anything with a ``name`` and a ``run(ctx) -> ctx``."""

    name: str

    def run(self, ctx: ExecutionContext) -> ExecutionContext:
        ...


def _check_stage(stage: Any) -> Any:
    if not isinstance(getattr(stage, "name", None), str) or not stage.name:
        raise PipelineError(
            f"stages need a non-empty string .name; got {stage!r}"
        )
    if not callable(getattr(stage, "run", None)):
        raise PipelineError(f"stage {stage.name!r} has no callable .run(ctx)")
    return stage


class StageStats:
    """Per-stage latency histograms and error counts, in first-run order.

    One instance belongs to a pipeline and every pipeline derived from it,
    so it aggregates across all request threads of a session's serving
    lifetime, not per request.
    """

    def __init__(self) -> None:
        self._stages: dict[str, LatencyHistogram] = {}
        self._errors: dict[str, int] = {}
        self._order: list[str] = []
        self._lock = Lock()

    def _histogram(self, stage: str) -> LatencyHistogram:
        with self._lock:
            hist = self._stages.get(stage)
            if hist is None:
                hist = self._stages[stage] = LatencyHistogram()
                self._order.append(stage)
            return hist

    def observe(self, stage: str, seconds: float) -> None:
        """Record one completed run of ``stage``."""
        self._histogram(stage).observe(seconds)

    def error(self, stage: str) -> None:
        """Count one failed run of ``stage``.

        Count only: a placeholder duration would drag the stage's latency
        percentiles toward zero (see ``ServerMetrics.record``).
        """
        self._histogram(stage)  # ensure the stage appears in order
        with self._lock:
            self._errors[stage] = self._errors.get(stage, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """``{stage: histogram snapshot (+ errors)}`` in first-run order."""
        with self._lock:
            order = list(self._order)
            errors = dict(self._errors)
            # Copy the map itself too: reading it lock-free would race
            # _histogram inserting a first-seen stage (a torn read:
            # "dictionary changed size during iteration"). The histograms
            # are internally locked, so holding references outside the
            # lock is fine.
            stages = dict(self._stages)
        out: dict[str, Any] = {}
        for name in order:
            stats = stages[name].snapshot()
            if name in errors:
                stats["errors"] = errors[name]
            out[name] = stats
        return out


class Pipeline:
    """An immutable stage sequence; see module docstring.

    ``stages`` are ordered :class:`Stage` objects. Names must be unique
    (lookups, replacement, and per-stage timings are keyed by name).
    :attr:`stage_stats` is fresh per constructed pipeline and shared with
    every pipeline derived from it.
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self._stages = tuple(_check_stage(s) for s in stages)
        if not self._stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [s.name.lower() for s in self._stages]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise PipelineError(f"duplicate stage names: {', '.join(dupes)}")
        self.stage_stats = StageStats()

    # -- introspection -------------------------------------------------------

    @property
    def stages(self) -> tuple[Stage, ...]:
        return self._stages

    @property
    def names(self) -> tuple[str, ...]:
        """Stage names in execution order."""
        return tuple(s.name for s in self._stages)

    def get_stage(self, name: str) -> Stage:
        """The stage called ``name`` (case-insensitive, like registries)."""
        return self._stages[self._index_of(name)]

    def describe(self) -> list[str]:
        """JSON-able stage-name list (execution order)."""
        return list(self.names)

    def __repr__(self) -> str:
        return f"Pipeline({' -> '.join(self.names)})"

    # -- composition (every method returns a new Pipeline) -------------------

    def _derive(self, stages: tuple[Stage, ...]) -> "Pipeline":
        derived = Pipeline(stages)
        derived.stage_stats = self.stage_stats
        return derived

    def _index_of(self, name: str) -> int:
        key = name.lower() if isinstance(name, str) else name
        for i, stage in enumerate(self._stages):
            if stage.name.lower() == key:
                return i
        raise PipelineError(
            f"unknown stage {name!r}; pipeline stages: {', '.join(self.names)}"
        )

    def with_stage(
        self,
        stage: Stage,
        after: str | None = None,
        before: str | None = None,
    ) -> "Pipeline":
        """Insert ``stage`` after/before an anchor (appended by default)."""
        _check_stage(stage)
        if after is not None and before is not None:
            raise PipelineError("pass either after= or before=, not both")
        if after is not None:
            index = self._index_of(after) + 1
        elif before is not None:
            index = self._index_of(before)
        else:
            index = len(self._stages)
        stages = self._stages[:index] + (stage,) + self._stages[index:]
        return self._derive(stages)

    def replace_stage(self, name: str, stage: Stage) -> "Pipeline":
        """Swap the stage called ``name`` for ``stage`` (same position).

        The replacement must keep the replaced stage's name: timings,
        ``get_stage``/``slice`` lookups, and the report's derived fields
        (``clustering_seconds``) are all keyed by stage name, so a
        renamed replacement would silently break every consumer.
        """
        _check_stage(stage)
        index = self._index_of(name)
        old_name = self._stages[index].name
        if stage.name != old_name:
            raise PipelineError(
                f"replacement for stage {old_name!r} must keep its name; "
                f"got {stage.name!r} (use with_stage()/without_stage() to "
                f"change the stage sequence instead)"
            )
        stages = self._stages[:index] + (stage,) + self._stages[index + 1 :]
        return self._derive(stages)

    def without_stage(self, name: str) -> "Pipeline":
        """Drop the stage called ``name``."""
        index = self._index_of(name)
        return self._derive(self._stages[:index] + self._stages[index + 1 :])

    def slice(self, start: str, stop: str) -> "Pipeline":
        """The sub-pipeline from stage ``start`` through ``stop`` inclusive.

        Shares the stage objects and stage stats with this pipeline — used
        by the interleaved loop to re-run ``tasks -> expand`` per round.
        """
        i, j = self._index_of(start), self._index_of(stop)
        if j < i:
            raise PipelineError(
                f"slice start {start!r} comes after stop {stop!r}"
            )
        return self._derive(self._stages[i : j + 1])

    def split(self, name: str) -> "tuple[Pipeline | None, Pipeline]":
        """``(stages before name, stages from name to the end)``.

        The prefix is ``None`` when ``name`` is the first stage. Both
        halves share this pipeline's stage objects and stage stats — the
        interleaved loop runs the prefix once and the suffix per round,
        so inserted custom stages execute on the correct side.
        """
        index = self._index_of(name)
        prefix = self._derive(self._stages[:index]) if index else None
        return prefix, self._derive(self._stages[index:])

    # -- execution -----------------------------------------------------------

    def run(
        self, ctx: ExecutionContext, stop_after: str | None = None
    ) -> ExecutionContext:
        """Execute the stages over ``ctx``; return the final context.

        ``stop_after`` (a stage name) halts after that stage — partial
        runs for harnesses that need intermediate artifacts. Stage
        exceptions propagate to the caller after they are counted in
        :attr:`stage_stats` and marked on the stage's span.
        """
        last = None if stop_after is None else self._index_of(stop_after)
        stats = self.stage_stats
        for index, stage in enumerate(self._stages):
            name = stage.name
            with span(f"stage.{name}"):
                t0 = time.perf_counter()
                try:
                    out = stage.run(ctx)
                    seconds = time.perf_counter() - t0
                    if not isinstance(out, ExecutionContext):
                        raise PipelineError(
                            f"stage {name!r} returned "
                            f"{type(out).__name__}, not an ExecutionContext"
                        )
                except Exception:
                    stats.error(name)
                    raise
            stats.observe(name, seconds)
            ctx = out.evolve(
                timings=out.timings + (StageTiming(stage=name, seconds=seconds),)
            )
            if index == last:
                break
        return ctx


def default_pipeline() -> Pipeline:
    """The paper's six-stage pipeline (retrieve → ... → expand)."""
    return Pipeline(default_stages())
