"""Per-layer self time, measured from outside the program.

Each layer is a set of public functions or methods of ``repro``. The
traced phase of a run replaces them with thin timing wrappers (see
:func:`install`); nothing under ``src/`` knows it is being measured.

A layer's *self time* for one call is the call's duration minus the
durations of the wrapped calls it made on the same thread, so nested
layers (a pipeline stage calling the index, the index calling the
store) each keep only their own share. Calls on other threads (the
cluster's scatter threads, the HTTP server's handler threads) are
timed where they run and never subtracted from a caller elsewhere.

Per-document functions (``TfIdfScorer.score``, ``TermFrequencyCache.tf``)
are deliberately not wrapped: a wrapper costs about a microsecond, more
than the work it would time.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable

#: ``layer name -> ((module, class or None, attribute), ...)`` wrapped in
#: the traced phase. ``serve.edge`` and ``serve.cache`` are measured by the
#: serve workloads themselves (client latency minus handler time, and the
#: service's own cache instance), so they are listed in :data:`LAYER_NAMES`
#: but not here.
WRAPPED: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "index.and_query": (
        ("repro.index.inverted_index", "InvertedIndex", "and_query"),
        ("repro.store.backend", "SQLiteIndexBackend", "and_query"),
    ),
    "index.or_query": (
        ("repro.index.inverted_index", "InvertedIndex", "or_query"),
        ("repro.store.backend", "SQLiteIndexBackend", "or_query"),
    ),
    "index.rank": (
        ("repro.index.scoring", None, "top_k_ranked"),
        ("repro.index.scoring", "TfIdfScorer", "rank"),
    ),
    "pipeline.retrieve": (("repro.pipeline.stages", "RetrieveStage", "run"),),
    "pipeline.cluster": (("repro.pipeline.stages", "ClusterStage", "run"),),
    "pipeline.universe": (("repro.pipeline.stages", "UniverseStage", "run"),),
    "pipeline.candidates": (("repro.pipeline.stages", "CandidateStage", "run"),),
    "pipeline.tasks": (("repro.pipeline.stages", "TasksStage", "run"),),
    "pipeline.expand": (("repro.pipeline.stages", "ExpandStage", "run"),),
    "cluster.kmeans": (("repro.cluster.kmeans", "CosineKMeans", "fit"),),
    "core.iskr": (("repro.core.iskr", "ISKR", "expand"),),
    "core.pebc": (("repro.core.pebc", "PEBC", "expand"),),
    "store.term_postings": (("repro.store.store", "DocumentStore", "term_postings"),),
    # resolve_tenant is looked up as a module global by each serve tier,
    # so it is replaced where it is imported, not where it is defined.
    "tenancy.resolve": (
        ("repro.serve.app", None, "resolve_tenant"),
        ("repro.serve.cluster.coordinator", None, "resolve_tenant"),
    ),
    "serve.pool.ingest": (("repro.serve.pool", "SessionPool", "ingest"),),
    "store.upsert": (("repro.store.store", "DocumentStore", "upsert_all"),),
    "serve.cluster.handle": (
        ("repro.serve.cluster.coordinator", "ClusterCoordinator", "handle"),
    ),
    "serve.cluster.admission": (
        ("repro.serve.admission", "AdmissionController", "try_acquire"),
    ),
    "serve.cluster.rpc": (
        ("repro.serve.cluster.coordinator", "ProcessReplica", "request"),
    ),
}

#: Every layer the per-layer table reports, in display order.
LAYER_NAMES: tuple[str, ...] = (
    "serve.edge",
    "tenancy.resolve",
    "serve.cache",
    "serve.cluster.handle",
    "serve.cluster.admission",
    "serve.cluster.rpc",
    "serve.pool.ingest",
    "store.upsert",
    "pipeline.retrieve",
    "pipeline.cluster",
    "pipeline.universe",
    "pipeline.candidates",
    "pipeline.tasks",
    "pipeline.expand",
    "cluster.kmeans",
    "core.iskr",
    "core.pebc",
    "index.and_query",
    "index.or_query",
    "index.rank",
    "store.term_postings",
)


class SelfTimer:
    """Collects per-call self times for named layers across threads.

    ``samples[layer]`` is a list of self times in seconds, one per
    completed call. The lists exist up front, so concurrent appends
    from server threads never race on creating one.
    """

    def __init__(
        self,
        layers: tuple[str, ...] = LAYER_NAMES,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in layers}
        self._clock = clock
        self._local = threading.local()

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with its calls timed into ``samples[layer]``."""
        record = self.samples[layer].append
        clock = self._clock
        stack_of = self._stack

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record(elapsed - children[0])

        return timed

    def record(self, layer: str, seconds: float) -> None:
        """Add one externally measured sample (e.g. ``serve.edge``)."""
        self.samples[layer].append(seconds)


def install(timer: SelfTimer) -> Callable[[], None]:
    """Wrap every function in :data:`WRAPPED`; returns the undo callable."""
    undo: list[tuple[Any, str, Any]] = []
    for layer, targets in WRAPPED.items():
        for module_name, class_name, attr in targets:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, timer.wrap(layer, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
