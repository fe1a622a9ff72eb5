"""Tests for partition-based top-k ranking (repro.index.scoring.top_k_ranked)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.data.corpus import Corpus
from repro.index.scoring import TfIdfScorer, top_k_ranked
from repro.index.inverted_index import InvertedIndex
from repro.index.search import SearchEngine
from repro.text.analyzer import Analyzer

from tests.conftest import make_doc


class TestTopKRanked:
    def test_matches_full_sort_prefix(self):
        scores = {0: 3.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 0.5}
        full = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        for k in range(0, 7):
            assert top_k_ranked(list(scores), list(scores.values()), k) == full[:k]

    def test_zero_and_negative_k(self):
        assert top_k_ranked([1, 2], [1.0, 1.0], 0) == []
        assert top_k_ranked([1, 2], [1.0, 1.0], -3) == []

    def test_tie_break_by_position(self):
        out = top_k_ranked([5, 1, 3], [1.0, 1.0, 1.0], 2)
        assert [pos for pos, _ in out] == [1, 3]

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=80,
        ),
        st.integers(min_value=0, max_value=90),
    )
    def test_property_equals_sorted_prefix(self, scores, k):
        positions = list(scores)
        full = sorted(
            ((p, scores[p]) for p in positions), key=lambda kv: (-kv[1], kv[0])
        )
        assert top_k_ranked(positions, [scores[p] for p in positions], k) == full[:k]


class TestEngineTopK:
    def test_search_top_k_equals_truncated_full_search(self):
        docs = [
            make_doc(f"d{i}", {"apple": (i % 4) + 1, f"noise{i}": 1})
            for i in range(30)
        ]
        engine = SearchEngine(Corpus(docs), Analyzer(use_stemming=False))
        full = engine.search("apple")
        for k in (1, 5, 29, 30, 50):
            top = engine.search("apple", top_k=k)
            assert [(r.position, r.score) for r in top] == [
                (r.position, r.score) for r in full
            ][:k]

    def test_scorer_rank_unchanged(self):
        docs = [make_doc("a", {"x": 2}), make_doc("b", {"x": 1})]
        index = InvertedIndex(Corpus(docs))
        ranked = TfIdfScorer(index).rank([0, 1], ["x"])
        assert [pos for pos, _ in ranked] == [0, 1]
