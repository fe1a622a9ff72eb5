"""TermCounts: one doc × term count matrix shared by clustering, the
universe and candidate mining.

The references below are the document-walk implementations the shared
matrix replaced — the TF vectoriser's per-document loop and the
terms × documents tf walk of candidate selection. They live here only
as oracles: the shared path must reproduce them exactly, tie order and
last float bit included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Session
from repro.core.keyword_stats import select_candidates
from repro.core.universe import ResultUniverse, TermCounts
from repro.errors import ExpansionError
from tests.conftest import make_doc

TERMS = [f"t{i}" for i in range(8)]


def reference_tf_matrix(documents) -> np.ndarray:
    """The L2-normalised TF matrix, filled one document at a time."""
    vocab = sorted({t for doc in documents for t in doc.terms})
    column = {t: i for i, t in enumerate(vocab)}
    mat = np.zeros((len(documents), len(vocab)), dtype=np.float64)
    for row, doc in enumerate(documents):
        for term, tf in doc.terms.items():
            mat[row, column[term]] = float(tf)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def reference_select_candidates(index, universe, seed_terms, fraction, min_candidates):
    """Top-fraction TF-IDF terms, tf summed by walking every document."""
    n_docs = max(index.num_documents, 1)
    seed = set(seed_terms)
    scored = []
    for term in universe.terms:
        if term in seed:
            continue
        if int(universe.has_mask(term).sum()) == universe.n:
            continue
        tf = 0
        for doc in universe.documents:
            tf += doc.terms.get(term, 0)
        df = max(index.document_frequency(term), 1)
        scored.append((tf * math.log(1.0 + n_docs / df), term))
    scored.sort(key=lambda item: (-item[0], item[1]))
    keep = max(int(round(len(scored) * fraction)), min(min_candidates, len(scored)))
    return tuple(term for _, term in scored[:keep])


class FixedDfIndex:
    """The two index facts candidate selection reads, fixed per term."""

    def __init__(self, num_documents: int, df: dict[str, int]) -> None:
        self.num_documents = num_documents
        self._df = df

    def document_frequency(self, term: str) -> int:
        return self._df.get(term, 0)


@st.composite
def documents(draw):
    """1-10 documents over a small vocabulary; tf in 1..3, so ties abound."""
    n = draw(st.integers(min_value=1, max_value=10))
    return [
        make_doc(
            f"d{i}",
            draw(
                st.dictionaries(
                    st.sampled_from(TERMS),
                    st.integers(min_value=1, max_value=3),
                    min_size=1,
                    max_size=len(TERMS),
                )
            ),
        )
        for i in range(n)
    ]


class TestAgainstReferences:
    @given(documents())
    def test_tf_matrix_bit_identical(self, docs):
        got = TermCounts(docs).tf_matrix()
        want = reference_tf_matrix(docs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @given(documents())
    def test_has_mask_is_membership(self, docs):
        uni = ResultUniverse(docs)
        for t in TERMS + ["unseen"]:
            assert uni.has_mask(t).tolist() == [t in d.terms for d in docs]

    @settings(max_examples=200)
    @given(
        documents(),
        st.dictionaries(st.sampled_from(TERMS), st.integers(0, 4)),
        st.integers(min_value=1, max_value=40),
        st.lists(st.sampled_from(TERMS), max_size=2),
        st.sampled_from([0.1, 0.2, 0.5, 1.0]),
        st.integers(min_value=0, max_value=5),
    )
    def test_select_candidates_identical(
        self, docs, df, n_docs, seed_terms, fraction, min_candidates
    ):
        index = FixedDfIndex(n_docs, df)
        uni = ResultUniverse(docs)
        args = (index, uni, tuple(seed_terms), fraction, min_candidates)
        assert select_candidates(*args) == reference_select_candidates(*args)


class TestTermCounts:
    def test_counts_and_views(self):
        docs = [make_doc("a", {"x": 2, "y": 1}), make_doc("b", {"y": 3, "z": 1})]
        counts = TermCounts(docs)
        assert counts.vocabulary == ("x", "y", "z")
        assert dict(counts.columns) == {"x": 0, "y": 1, "z": 2}
        assert counts.counts.tolist() == [[2, 1, 0], [0, 3, 1]]
        assert counts.term_tf().tolist() == [2, 4, 1]
        assert counts.incidence().tolist() == [
            [True, False], [True, True], [False, True]
        ]
        assert counts.term_columns(["z", "ghost", "x"]).tolist() == [
            [0, 0, 2], [1, 0, 0]
        ]

    def test_counts_are_read_only(self):
        counts = TermCounts([make_doc("a", {"x": 1})])
        with pytest.raises(ValueError):
            counts.counts[0, 0] = 5

    def test_universe_rejects_counts_of_other_documents(self):
        docs = [make_doc("a", {"x": 1}), make_doc("b", {"y": 1})]
        with pytest.raises(ExpansionError):
            ResultUniverse(docs, counts=TermCounts(docs[:1]))

    def test_universe_shares_given_counts(self):
        docs = [make_doc("a", {"x": 1}), make_doc("b", {"y": 1})]
        counts = TermCounts(docs)
        assert ResultUniverse(docs, counts=counts).counts is counts


@pytest.fixture
def build_count(monkeypatch):
    """Number of TermCounts constructions since the fixture was set up."""
    calls = []
    init = TermCounts.__init__

    def counting_init(self, documents):
        calls.append(len(documents))
        init(self, documents)

    monkeypatch.setattr(TermCounts, "__init__", counting_init)
    return calls


@pytest.fixture(scope="module")
def session():
    return Session.builder().dataset("wikipedia", docs_per_sense=10).build()


class TestOneBuildPerRun:
    def test_cold_expand_builds_once(self, session, build_count):
        session.clear_caches()
        report = session.expand("java")
        assert report.expanded
        assert len(build_count) == 1

    def test_pipeline_shares_counts(self, session):
        ctx = session.run_stages("java")
        assert ctx.universe.counts is ctx.counts

    def test_step_methods_run_alone(self, session, build_count):
        expander = session.pipeline()
        results = expander.retrieve("java")
        labels = expander.cluster(results)
        universe = expander.build_universe(results)
        assert labels.shape == (len(results),)
        assert universe.n == len(results)
        assert len(build_count) == 2
        ctx = session.run_stages("java")
        assert np.array_equal(labels, ctx.labels)
        assert universe.terms == ctx.universe.terms
