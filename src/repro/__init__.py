"""repro — reproduction of "Query Expansion Based on Clustered Results".

Liu, Natarajan, Chen. PVLDB 4(6):350-361, 2011.

The library generates, for an ambiguous or exploratory keyword query, a set
of expanded queries that *classifies* the original query's results: results
are clustered, and one expanded query is generated per cluster so that its
result set matches the cluster as closely as possible (maximum F-measure).

Quickstart
----------
The front door is :class:`repro.api.Session`: pick components by their
registry names, build once, expand many times.

>>> from repro import Session
>>> session = (Session.builder()
...            .dataset("wikipedia")
...            .algorithm("iskr")
...            .config(n_clusters=3)
...            .build())
>>> report = session.expand("java")
>>> len(report.expanded) >= 2
True
>>> batch = session.expand_many(["java", "rockets"])
>>> batch.n_ok
2
>>> report == type(report).from_dict(report.to_dict())  # stable JSON schema
True

Algorithms (``iskr``, ``pebc``, ...), clusterers (``kmeans``,
``bisecting``, ...), retrieval scorers (``tfidf``, ``bm25``, ``lm``) and
datasets are all pluggable registries — see API.md. The lower-level
pieces (:class:`SearchEngine`, :class:`ClusterQueryExpander`, the
algorithm classes) remain public for direct wiring.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.api import (
    ALGORITHMS,
    BACKENDS,
    CLUSTERERS,
    DATASETS,
    SCORERS,
    STAGES,
    BatchItem,
    BatchReport,
    CachingSearchEngine,
    Registry,
    Session,
    SessionBuilder,
)

from repro.baselines import (
    ClusterSummarization,
    DataClouds,
    QueryLog,
    QueryLogSuggester,
)
from repro.cluster import (
    AdaptiveKClusterer,
    AgglomerativeClustering,
    AutoClustering,
    BisectingKMeans,
    CosineKMeans,
    KMedoids,
)
from repro.core import (
    ClusterQueryExpander,
    InterleavedExpander,
    DeltaFMeasureRefinement,
    ExhaustiveOptimalExpansion,
    ExpandedQuery,
    ExpansionConfig,
    ExpansionReport,
    ExpansionTask,
    ISKR,
    PEBC,
    ResultUniverse,
    TermCounts,
    VectorSpaceRefinement,
    eq1_score,
    fmeasure,
    precision_recall_f,
)
from repro.data import Corpus, Document, Feature, make_structured_document, make_text_document
from repro.datasets import (
    BenchmarkQuery,
    all_queries,
    build_query_log,
    build_shopping_corpus,
    build_wikipedia_corpus,
    query_by_id,
)
from repro.errors import (
    ClusteringError,
    ConfigError,
    DataError,
    ExpansionError,
    IndexingError,
    PipelineError,
    QueryError,
    RegistryError,
    ReproError,
    SchemaError,
    StoreError,
)
from repro.eval import ExperimentSuite, UserStudySimulator, run_scalability
from repro.index import (
    BM25Scorer,
    IndexBackend,
    InvertedIndex,
    SearchEngine,
    SearchResult,
)
from repro.pipeline import (
    ExecutionContext,
    Pipeline,
    StageTiming,
    default_pipeline,
)
from repro.prf import KLDivergencePRF, RobertsonPRF, RocchioPRF
from repro.store import DocumentStore, SQLiteIndexBackend
from repro.text import Analyzer, PorterStemmer, tokenize

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "AdaptiveKClusterer",
    "AgglomerativeClustering",
    "Analyzer",
    "AutoClustering",
    "BM25Scorer",
    "BatchItem",
    "BatchReport",
    "BenchmarkQuery",
    "BisectingKMeans",
    "CLUSTERERS",
    "CachingSearchEngine",
    "ClusterQueryExpander",
    "ClusterSummarization",
    "ClusteringError",
    "ConfigError",
    "Corpus",
    "CosineKMeans",
    "DATASETS",
    "DataClouds",
    "DataError",
    "DeltaFMeasureRefinement",
    "DocumentStore",
    "Document",
    "ExhaustiveOptimalExpansion",
    "ExpandedQuery",
    "ExpansionConfig",
    "ExpansionError",
    "ExpansionReport",
    "ExpansionTask",
    "ExecutionContext",
    "ExperimentSuite",
    "Feature",
    "ISKR",
    "IndexBackend",
    "IndexingError",
    "InterleavedExpander",
    "InvertedIndex",
    "KLDivergencePRF",
    "KMedoids",
    "PEBC",
    "Pipeline",
    "PipelineError",
    "PorterStemmer",
    "QueryError",
    "QueryLog",
    "QueryLogSuggester",
    "Registry",
    "RegistryError",
    "ReproError",
    "StoreError",
    "ResultUniverse",
    "RobertsonPRF",
    "RocchioPRF",
    "SCORERS",
    "STAGES",
    "SQLiteIndexBackend",
    "SchemaError",
    "SearchEngine",
    "SearchResult",
    "Session",
    "SessionBuilder",
    "StageTiming",
    "TermCounts",
    "UserStudySimulator",
    "VectorSpaceRefinement",
    "all_queries",
    "build_query_log",
    "build_shopping_corpus",
    "build_wikipedia_corpus",
    "default_pipeline",
    "eq1_score",
    "fmeasure",
    "make_structured_document",
    "make_text_document",
    "precision_recall_f",
    "query_by_id",
    "run_scalability",
    "tokenize",
    "__version__",
]
