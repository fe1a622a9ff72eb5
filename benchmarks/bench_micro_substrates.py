"""Micro-benchmarks for the substrates: index build, boolean retrieval,
ranking, clustering, and universe algebra.

These are not paper artifacts; they pin the cost of the building blocks so
performance regressions in the substrates are visible independently of the
end-to-end figures.
"""

import numpy as np

from repro.cluster.kmeans import CosineKMeans
from repro.core.universe import ResultUniverse, TermCounts
from repro.index.inverted_index import InvertedIndex


def test_micro_index_build(benchmark, suite):
    corpus = suite.engine("shopping").corpus
    index = benchmark(lambda: InvertedIndex(corpus))
    assert index.num_documents == len(corpus)


def test_micro_and_query(benchmark, suite):
    engine = suite.engine("shopping")

    def run():
        return engine.index.and_query(["memory", "8gb"])

    positions = benchmark(run)
    assert len(positions) > 0


def test_micro_ranked_search(benchmark, suite):
    engine = suite.engine("wikipedia")
    results = benchmark(lambda: engine.search("columbia", top_k=30))
    assert len(results) == 30


def test_micro_kmeans(benchmark, suite):
    engine = suite.engine("wikipedia")
    docs = [r.document for r in engine.search("java", top_k=30)]
    matrix = TermCounts(docs).tf_matrix()
    result = benchmark(lambda: CosineKMeans(n_clusters=3, seed=0).fit(matrix))
    assert 1 <= result.n_clusters <= 3


def test_micro_universe_masks(benchmark, suite):
    engine = suite.engine("shopping")
    docs = [r.document for r in engine.search("memory")]
    universe = ResultUniverse(docs)
    terms = universe.terms[:50]

    def run():
        total = 0.0
        for t in terms:
            total += universe.weight_of(universe.has_mask(t))
        return total

    total = benchmark(run)
    assert total > 0.0


def test_micro_benefit_cost_refresh(benchmark, suite):
    from repro.core.keyword_stats import BenefitCostTable, select_candidates

    engine = suite.engine("shopping")
    docs = [r.document for r in engine.search("memory")]
    universe = ResultUniverse(docs)
    candidates = select_candidates(engine.index, universe, ("memory",))
    cluster = np.zeros(universe.n, dtype=bool)
    cluster[: universe.n // 3] = True
    table = BenefitCostTable(universe, candidates, cluster)

    def run():
        return table.refresh_all(universe.all_mask())

    n = benchmark(run)
    assert n == len(candidates)
