"""QEC core: the paper's contribution.

Given a user query and a clustering of its results, generate one expanded
query per cluster whose result set is as close to the cluster as possible
(maximal F-measure with the cluster as ground truth, §2). The overall
objective (Eq. 1) is the harmonic mean of per-cluster F-measures.

Modules
-------
- :mod:`~repro.core.universe` — vectorized result-set algebra over the seed
  query's results (``R(q)``, ``E(k)``, weighted ``S(·)``, ``TermCounts``,
  ``CandidateIncidence``).
- :mod:`~repro.core.metrics` — weighted precision / recall / F-measure and
  the Eq. 1 score.
- :mod:`~repro.core.keyword_stats` — candidate-keyword selection (top
  fraction by TF-IDF, §C) and vectorized benefit/cost computation.
- :mod:`~repro.core.iskr` — Iterative Single-Keyword Refinement (§3).
- :mod:`~repro.core.fmeasure` — the delta-F-measure variant baseline (§5).
- :mod:`~repro.core.strategies` — PEBC sample-query generation (§4.1-4.3).
- :mod:`~repro.core.pebc` — Partial Elimination Based Convergence (§4).
- :mod:`~repro.core.expander` — end-to-end pipeline: search → cluster →
  one expanded query per cluster.
"""

from repro.core.config import ExpansionConfig
from repro.core.exact import ExhaustiveOptimalExpansion
from repro.core.expander import ClusterQueryExpander, ExpandedQuery, ExpansionReport
from repro.core.fmeasure import DeltaFMeasureRefinement
from repro.core.interleaved import InterleavedExpander, InterleavedReport
from repro.core.iskr import ISKR
from repro.core.metrics import eq1_score, fmeasure, precision_recall_f
from repro.core.pebc import PEBC
from repro.core.universe import ExpansionTask, ResultUniverse, TermCounts
from repro.core.vsm import VectorSpaceRefinement

__all__ = [
    "InterleavedExpander",
    "InterleavedReport",
    "ClusterQueryExpander",
    "DeltaFMeasureRefinement",
    "ExhaustiveOptimalExpansion",
    "ExpandedQuery",
    "ExpansionConfig",
    "ExpansionReport",
    "ExpansionTask",
    "ISKR",
    "PEBC",
    "ResultUniverse",
    "TermCounts",
    "VectorSpaceRefinement",
    "eq1_score",
    "fmeasure",
    "precision_recall_f",
]
