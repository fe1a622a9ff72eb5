"""The typed artifact carrier that flows through a :class:`Pipeline`.

An :class:`ExecutionContext` holds everything the expansion pipeline
produces for one seed query — the artifacts that used to flow as
positional returns between ``retrieve``/``cluster``/``build_universe``/
``tasks``/``expand`` — plus the per-stage wall-clock timings.

Contexts are immutable by convention: stages never mutate the context
they receive; they return a new one via :meth:`ExecutionContext.evolve`.
That lets harnesses keep any intermediate context alive without
defensive copying.

Two kinds of fields:

* **runtime** — the components the stages execute with (engine, config,
  algorithm, clusterer, analysis cache). Set once when the context is
  created; stages read but never replace them.
* **artifacts** — what the stages produce (generation, results, counts,
  labels, analysis, universe, candidates, tasks, expanded queries, score) plus
  ``timings`` appended by :meth:`Pipeline.run <repro.pipeline.Pipeline.run>`
  and a free-form ``extras`` mapping for custom stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycles
    import numpy as np

    from repro.core.config import ExpansionConfig
    from repro.core.universe import ExpansionTask, ResultUniverse, TermCounts
    from repro.index.search import SearchResult


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock seconds spent inside one stage's ``run``."""

    stage: str
    seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {"stage": self.stage, "seconds": float(self.seconds)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageTiming":
        return cls(stage=str(payload["stage"]), seconds=float(payload["seconds"]))


@dataclass(frozen=True)
class ExecutionContext:
    """Everything one pipeline run reads and produces; see module docstring."""

    # -- runtime (set at entry, read-only for stages) ------------------------
    engine: Any = None
    config: "ExpansionConfig | None" = None
    algorithm: Any = None
    clusterer: Any = None
    analysis_cache: Any = None  # mutable mapping shared across runs, or None

    # -- artifacts -----------------------------------------------------------
    query: str = ""
    generation: int | None = None  # the index's, read before retrieval
    seed_terms: tuple[str, ...] = ()
    results: "tuple[SearchResult, ...]" = ()
    counts: "TermCounts | None" = None  # the results' doc × term counts
    labels: "np.ndarray | None" = None
    analysis: Any = None  # the results' Analysis, shared across algorithms
    universe: "ResultUniverse | None" = None
    candidates: tuple[str, ...] | None = None
    tasks: "tuple[ExpansionTask, ...]" = ()
    expanded: tuple = ()  # tuple[ExpandedQuery, ...]
    score: float | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    # -- observability -------------------------------------------------------
    timings: tuple[StageTiming, ...] = ()

    def evolve(self, **changes: Any) -> "ExecutionContext":
        """A copy with ``changes`` applied: a dict copy, not ``__init__``."""
        if not _FIELDS.issuperset(changes):
            raise TypeError(f"unknown fields: {sorted(changes.keys() - _FIELDS)}")
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, **changes)
        return new

    def with_extra(self, key: str, value: Any) -> "ExecutionContext":
        """A copy with one ``extras`` entry added (existing keys replaced)."""
        merged = dict(self.extras)
        merged[key] = value
        return self.evolve(extras=merged)

    # -- timing helpers ------------------------------------------------------

    def seconds_for(self, stage: str) -> float:
        """Total seconds recorded for ``stage`` (0.0 when never run)."""
        return sum(t.seconds for t in self.timings if t.stage == stage)


_FIELDS = frozenset(f.name for f in fields(ExecutionContext))
