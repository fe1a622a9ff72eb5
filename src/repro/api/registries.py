"""The :class:`Registry` class and the built-in component registries.

This module is the canonical home of both the generic string-keyed
:class:`Registry` and the library's pluggable axes. Six axes:

=============  ======================================================
``ALGORITHMS``  expansion algorithms — ``factory(seed, **kw)``
``CLUSTERERS``  clustering backends — ``factory(n_clusters, seed, **kw)``
``SCORERS``     retrieval scorers — ``factory(index, **kw)``
``DATASETS``    corpus builders — ``factory(seed, analyzer, **kw)``
``BACKENDS``    index storage backends — ``factory(corpus, **kw)``
``STAGES``      pipeline stages — ``factory(**kw) -> Stage``
=============  ======================================================

Every factory returns a ready component: algorithms expose
``expand(task)``, clusterers expose ``fit_predict(matrix)``, scorers
expose ``score``/``rank``, datasets return a
:class:`~repro.data.corpus.Corpus`, backends return an
:class:`~repro.index.backend.IndexBackend` over the given corpus, and
stages conform to the :class:`~repro.pipeline.Stage` protocol
(``name`` + ``run(ctx) -> ctx``). Extend any axis with
``@REGISTRY.register("name")``::

    from repro.api import ALGORITHMS

    @ALGORITHMS.register("myalg")
    def _make_myalg(seed, **kwargs):
        return MyAlgorithm(**kwargs)

Names are case-insensitive and stored lowercased. Lookups of unknown
names raise :class:`~repro.errors.RegistryError` listing the known names,
so typos fail loudly at configuration time rather than deep inside a run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.bisecting import BisectingKMeans
from repro.cluster.kmeans import CosineKMeans
from repro.cluster.kmedoids import KMedoids
from repro.cluster.kselect import AdaptiveKClusterer
from repro.cluster.selection import AutoClustering
from repro.core.exact import ExhaustiveOptimalExpansion
from repro.core.fmeasure import DeltaFMeasureRefinement
from repro.core.iskr import ISKR
from repro.core.pebc import PEBC
from repro.core.vsm import VectorSpaceRefinement
from repro.data.xml_ingest import corpus_from_xml
from repro.datasets.shopping import build_shopping_corpus
from repro.datasets.wikipedia import build_wikipedia_corpus
from repro.errors import RegistryError
from repro.index.inverted_index import InvertedIndex
from repro.index.scoring import TfIdfScorer
from repro.pipeline import stages as pipeline_stages

if TYPE_CHECKING:
    from pathlib import Path

    from repro.data.corpus import Corpus
    from repro.index.bm25 import BM25Scorer
    from repro.index.lm import LMDirichletScorer
    from repro.store import DocumentStore, SQLiteIndexBackend
    from repro.text.analyzer import Analyzer

Factory = Callable[..., Any]


class Registry:
    """A named mapping from component names to factories.

    Parameters
    ----------
    kind:
        Human-readable axis name ("algorithm", "clusterer", ...), used in
        error messages.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._factories: dict[str, Factory] = {}

    @property
    def kind(self) -> str:
        return self._kind

    # -- registration --------------------------------------------------------

    def register(
        self, name: str, factory: Factory | None = None
    ) -> Callable[[Factory], Factory] | Factory:
        """Register ``factory`` under ``name``.

        Usable as a decorator (``@REG.register("x")``) or directly
        (``REG.register("x", make_x)``). Re-registering a name replaces the
        previous factory (latest wins), so tests and plugins can override
        built-ins.
        """
        key = self._normalize(name)

        def _add(fn: Factory) -> Factory:
            self._factories[key] = fn
            return fn

        if factory is not None:
            return _add(factory)
        return _add

    def unregister(self, name: str) -> None:
        """Remove ``name``; unknown names raise :class:`RegistryError`."""
        key = self._normalize(name)
        if key not in self._factories:
            raise self._unknown(key)
        del self._factories[key]

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> Factory:
        """The factory registered under ``name``."""
        key = self._normalize(name)
        try:
            return self._factories[key]
        except KeyError:
            raise self._unknown(key) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component: ``get(name)(*args, **kwargs)``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._normalize(name) in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:
        return f"Registry({self._kind!r}, names={list(self.names())})"

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _normalize(name: str) -> str:
        if not isinstance(name, str) or not name.strip():
            raise RegistryError("component names must be non-empty strings")
        return name.strip().lower()

    def _unknown(self, key: str) -> RegistryError:
        known = ", ".join(self.names()) or "<none>"
        return RegistryError(
            f"unknown {self._kind} {key!r}; registered {self._kind}s: {known}"
        )


ALGORITHMS = Registry("algorithm")
CLUSTERERS = Registry("clusterer")
SCORERS = Registry("scorer")
DATASETS = Registry("dataset")
BACKENDS = Registry("backend")
STAGES = Registry("stage")


# -- expansion algorithms ----------------------------------------------------


@ALGORITHMS.register("iskr")
def _make_iskr(seed: int = 0, **kwargs: Any) -> ISKR:
    return ISKR(**kwargs)


@ALGORITHMS.register("pebc")
def _make_pebc(seed: int = 0, **kwargs: Any) -> PEBC:
    return PEBC(seed=seed, **kwargs)


@ALGORITHMS.register("exact")
def _make_exact(seed: int = 0, **kwargs: Any) -> ExhaustiveOptimalExpansion:
    return ExhaustiveOptimalExpansion(**kwargs)


@ALGORITHMS.register("fmeasure")
def _make_fmeasure(seed: int = 0, **kwargs: Any) -> DeltaFMeasureRefinement:
    return DeltaFMeasureRefinement(**kwargs)


@ALGORITHMS.register("vsm")
def _make_vsm(seed: int = 0, **kwargs: Any) -> VectorSpaceRefinement:
    return VectorSpaceRefinement(**kwargs)


# -- clustering backends -----------------------------------------------------


class _FitAdapter:
    """fit_predict facade over backends exposing ``fit(matrix).labels``."""

    def __init__(self, impl: Any) -> None:
        self._impl = impl

    def fit_predict(self, matrix: np.ndarray) -> np.ndarray:
        return self._impl.fit(matrix).labels


@CLUSTERERS.register("kmeans")
def _make_kmeans(n_clusters: int, seed: int = 0, **kwargs: Any) -> _FitAdapter:
    return _FitAdapter(CosineKMeans(n_clusters=n_clusters, seed=seed, **kwargs))


@CLUSTERERS.register("bisecting")
def _make_bisecting(
    n_clusters: int, seed: int = 0, **kwargs: Any
) -> BisectingKMeans:
    return BisectingKMeans(n_clusters=n_clusters, seed=seed, **kwargs)


@CLUSTERERS.register("agglomerative")
def _make_agglomerative(
    n_clusters: int, seed: int = 0, **kwargs: Any
) -> AgglomerativeClustering:
    return AgglomerativeClustering(n_clusters=n_clusters, **kwargs)


@CLUSTERERS.register("kmedoids")
def _make_kmedoids(n_clusters: int, seed: int = 0, **kwargs: Any) -> _FitAdapter:
    return _FitAdapter(KMedoids(n_clusters=n_clusters, seed=seed, **kwargs))


@CLUSTERERS.register("auto")
def _make_auto(n_clusters: int, seed: int = 0, **kwargs: Any) -> AutoClustering:
    return AutoClustering(n_clusters=n_clusters, seed=seed, **kwargs)


@CLUSTERERS.register("kselect")
def _make_kselect(
    n_clusters: int, seed: int = 0, **kwargs: Any
) -> AdaptiveKClusterer:
    if n_clusters < 2:
        raise RegistryError(
            f"clusterer 'kselect' picks k <= n_clusters and needs "
            f"n_clusters >= 2, got {n_clusters}"
        )
    return AdaptiveKClusterer(max_k=n_clusters, seed=seed, **kwargs)


# -- retrieval scorers -------------------------------------------------------


@SCORERS.register("tfidf")
def _make_tfidf(index: Any, **kwargs: Any) -> TfIdfScorer:
    return TfIdfScorer(index, **kwargs)


@SCORERS.register("bm25")
def _make_bm25(index: Any, **kwargs: Any) -> "BM25Scorer":
    from repro.index.bm25 import BM25Scorer

    return BM25Scorer(index, **kwargs)


@SCORERS.register("lm")
def _make_lm(index: Any, **kwargs: Any) -> "LMDirichletScorer":
    from repro.index.lm import LMDirichletScorer

    return LMDirichletScorer(index, **kwargs)


# -- index backends ----------------------------------------------------------


@BACKENDS.register("memory")
def _make_memory_backend(corpus: "Corpus") -> InvertedIndex:
    """Flat in-memory inverted index (the default)."""
    return InvertedIndex(corpus)


@BACKENDS.register("sqlite")
def _make_sqlite_backend(
    corpus: "Corpus",
    path: "str | Path | None" = None,
    store: "DocumentStore | None" = None,
) -> "SQLiteIndexBackend":
    """Durable SQLite-backed index; the store's published documents are its corpus.

    ``store`` is an open :class:`~repro.store.DocumentStore` (the
    serving layer passes one so the pool and the backend share a single
    writer); ``path`` opens or creates a store file. With neither, the
    index lives in a temporary file for the process lifetime — durable
    semantics, throwaway storage.

    An empty store is bulk-loaded from the corpus in one transaction; a
    populated one is verified against the corpus (position-aligned
    doc_ids and lengths) and reused — a mismatched file raises instead
    of silently serving other data.
    """
    import atexit
    import shutil
    import tempfile
    from pathlib import Path

    from repro.store import DocumentStore, SQLiteIndexBackend

    if store is None:
        if path is None:
            tmpdir = tempfile.mkdtemp(prefix="repro-store-")
            # Throwaway storage must not outlive the process.
            atexit.register(shutil.rmtree, tmpdir, True)
            path = Path(tmpdir) / "store.sqlite"
        store = DocumentStore(path)
    elif path is not None:
        raise RegistryError(
            "backend 'sqlite' takes either path=... or store=..., not both"
        )
    return SQLiteIndexBackend(store, corpus=corpus)


# -- datasets ----------------------------------------------------------------


@DATASETS.register("wikipedia")
def _make_wikipedia(
    seed: int = 0, analyzer: "Analyzer | None" = None, **kwargs: Any
) -> "Corpus":
    return build_wikipedia_corpus(seed=seed, analyzer=analyzer, **kwargs)


@DATASETS.register("shopping")
def _make_shopping(
    seed: int = 0, analyzer: "Analyzer | None" = None, **kwargs: Any
) -> "Corpus":
    return build_shopping_corpus(seed=seed, analyzer=analyzer, **kwargs)


@DATASETS.register("xml")
def _make_xml(
    seed: int = 0,
    analyzer: "Analyzer | None" = None,
    documents: "dict[str, str] | None" = None,
    **kwargs: Any,
) -> "Corpus":
    if not documents:
        raise RegistryError(
            "dataset 'xml' needs documents={doc_id: xml_string, ...}"
        )
    return corpus_from_xml(documents, analyzer=analyzer, **kwargs)


# -- pipeline stages ---------------------------------------------------------
# The default expansion pipeline, plus the §7 reassignment step. Factories
# take only kwargs: stages are stateless and read their inputs (engine,
# config, algorithm, ...) off the ExecutionContext at run time.

STAGES.register("retrieve", pipeline_stages.RetrieveStage)
STAGES.register("cluster", pipeline_stages.ClusterStage)
STAGES.register("universe", pipeline_stages.UniverseStage)
STAGES.register("candidates", pipeline_stages.CandidateStage)
STAGES.register("tasks", pipeline_stages.TasksStage)
STAGES.register("expand", pipeline_stages.ExpandStage)
STAGES.register("reassign", pipeline_stages.ReassignStage)
