"""Tests for the synthetic Wikipedia corpus."""

import pytest

from repro.cluster.kmeans import CosineKMeans
from repro.cluster.quality import purity
from repro.core.universe import TermCounts
from repro.datasets.queries import WIKIPEDIA_QUERIES
from repro.datasets.vocab import WIKIPEDIA_SENSES
from repro.datasets.wikipedia import (
    build_wikipedia_corpus,
    sense_names,
    true_sense_labels,
)
from repro.index.search import SearchEngine
from repro.text.analyzer import Analyzer


@pytest.fixture(scope="module")
def analyzer() -> Analyzer:
    return Analyzer(use_stemming=False)


@pytest.fixture(scope="module")
def engine(analyzer) -> SearchEngine:
    corpus = build_wikipedia_corpus(seed=0, docs_per_sense=20, analyzer=analyzer)
    return SearchEngine(corpus, analyzer)


class TestCorpusShape:
    def test_size(self, engine):
        n_senses = sum(len(s) for s in WIKIPEDIA_SENSES.values())
        assert engine.index.num_documents == 20 * n_senses

    def test_deterministic(self, analyzer):
        a = build_wikipedia_corpus(seed=3, docs_per_sense=5, analyzer=analyzer)
        b = build_wikipedia_corpus(seed=3, docs_per_sense=5, analyzer=analyzer)
        assert [d.terms for d in a] == [d.terms for d in b]

    def test_terms_filter(self, analyzer):
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=4, terms=["java"], analyzer=analyzer
        )
        assert len(corpus) == 4 * len(WIKIPEDIA_SENSES["java"])

    def test_documents_are_text(self, engine):
        assert engine.corpus[0].kind == "text"


class TestRetrievability:
    @pytest.mark.parametrize("query", WIKIPEDIA_QUERIES, ids=lambda q: q.qid)
    def test_every_query_has_results(self, engine, query):
        results = engine.search(query.text)
        # Every sense contributes documents containing the query term(s).
        n_senses = len(WIKIPEDIA_SENSES[query.text])
        assert len(results) >= 20 * n_senses

    def test_multi_word_query_and_semantics(self, engine):
        for r in engine.search("san jose"):
            assert "san" in r.document.terms
            assert "jose" in r.document.terms


class TestSenseStructure:
    def test_sense_names(self):
        assert sense_names("java") == ["server", "language", "island"]

    def test_senses_have_distinct_vocabulary(self, analyzer):
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=15, terms=["rockets"], analyzer=analyzer
        )
        truth = true_sense_labels(corpus, "rockets", 15)
        docs = list(corpus)
        # "nba" docs should contain basketball vocabulary far more often
        # than space vocabulary.
        nba_docs = [d for d, t in zip(docs, truth) if t == 0]
        with_nba = sum(1 for d in nba_docs if "basketball" in d.terms or "nba" in d.terms)
        assert with_nba >= len(nba_docs) * 0.6

    def test_clusterable_by_sense(self, analyzer):
        """k-means over TF vectors should mostly recover the senses —
        imperfectly (noise + bleed), like the paper's Wikipedia data."""
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=20, terms=["java"], analyzer=analyzer
        )
        truth = true_sense_labels(corpus, "java", 20)
        matrix = TermCounts(list(corpus)).tf_matrix()
        result = CosineKMeans(n_clusters=3, seed=0).fit(matrix)
        assert purity(result.labels.tolist(), truth) >= 0.6

    def test_true_sense_labels_validates_size(self, analyzer):
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=5, terms=["java"], analyzer=analyzer
        )
        with pytest.raises(ValueError):
            true_sense_labels(corpus, "java", 7)

    def test_bleed_words_present(self, analyzer):
        """Cross-sense bleed makes clustering imperfect by design."""
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=30, terms=["java"], analyzer=analyzer,
            bleed_words=5,
        )
        truth = true_sense_labels(corpus, "java", 30)
        island_core = set(dict(WIKIPEDIA_SENSES["java"])["island"])
        server_docs = [d for d, t in zip(corpus, truth) if t == 0]
        bled = sum(1 for d in server_docs if set(d.terms) & island_core)
        assert bled > 0

    def test_no_bleed_option(self, analyzer):
        corpus = build_wikipedia_corpus(
            seed=0, docs_per_sense=5, terms=["java"], analyzer=analyzer,
            bleed_words=0, noise_words=0,
        )
        truth = true_sense_labels(corpus, "java", 5)
        senses = dict(WIKIPEDIA_SENSES["java"])
        island_core = set(senses["island"])
        server_docs = [d for d, t in zip(corpus, truth) if t == 0]
        for d in server_docs:
            assert not (set(d.terms) & island_core)
