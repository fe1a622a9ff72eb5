"""repro.pipeline — the composable expansion runtime.

The paper's method is intrinsically staged: retrieve seed results,
cluster them, build the result universe, mine candidate keywords, emit
one expanded query per cluster. This package makes the *pipeline* the
pluggable axis:

* :class:`ExecutionContext` — the typed, immutable-by-convention carrier
  of every artifact a run produces (plus per-stage timings);
* :class:`Stage` — the ``name`` + ``run(ctx) -> ctx`` protocol; the
  built-ins live in :mod:`repro.pipeline.stages`;
* :class:`Pipeline` — the composer (insert / replace / slice stages)
  and the one per-stage instrument: its ``run`` opens the
  ``stage.<name>`` span, appends the :class:`StageTiming`, and feeds
  the pipeline's :class:`StageStats`;
* :func:`default_pipeline` — the paper's six-stage sequence.

Every execution path — ``Session.expand``, ``ClusterQueryExpander``,
the interleaved loop, the PRF comparison, the experiment suite — runs
these same stage objects; the ``STAGES`` registry in
:mod:`repro.api.registries` names them for builder-level composition
(``Session.builder().stage(...)``/``.replace_stage(...)``).
"""

from repro.pipeline.context import ExecutionContext, StageTiming
from repro.pipeline.pipeline import Pipeline, Stage, StageStats, default_pipeline
from repro.pipeline.stages import (
    CandidateStage,
    ClusterStage,
    ExpandStage,
    ReassignStage,
    RetrieveStage,
    TasksStage,
    UniverseStage,
    default_stages,
)

__all__ = [
    "CandidateStage",
    "ClusterStage",
    "ExecutionContext",
    "ExpandStage",
    "Pipeline",
    "ReassignStage",
    "RetrieveStage",
    "Stage",
    "StageStats",
    "StageTiming",
    "TasksStage",
    "UniverseStage",
    "default_pipeline",
    "default_stages",
]
