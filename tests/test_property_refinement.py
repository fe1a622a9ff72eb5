"""The refinement kernels against their reference loops, bit for bit.

ISKR (AND and OR, with and without removal), PEBC (all three strategies and
the OR sampler), the benefit/cost table and spherical k-means run as
whole-matrix passes over one candidate incidence. Every test here draws a
random universe — tied, unit or arbitrary weights, duplicate documents,
one-result clusters, empty candidate lists, candidates no result contains —
and requires the shipped code to return exactly what the per-keyword loops
in ``tests/refinement_reference.py`` return: equal outcomes on every field,
equal ``value_updates`` counts, equal float bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.kmeans import CosineKMeans
from repro.core.iskr import ISKR
from repro.core.keyword_stats import BenefitCostTable
from repro.core.pebc import PEBC
from repro.core.universe import (
    AND,
    OR,
    CandidateIncidence,
    ExpansionTask,
    ResultUniverse,
    TermCounts,
)
from repro.errors import ExpansionError
from tests.conftest import make_doc
from tests.refinement_reference import (
    ReferenceBenefitCostTable,
    ReferenceISKR,
    ReferencePEBC,
    reference_run_once,
)

KEYWORDS = [f"k{i}" for i in range(8)]
UNSEEN = ["ghost", "zz-unseen"]
SETTINGS = settings(max_examples=120, deadline=None)


@st.composite
def universes(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    docs = []
    for i in range(n):
        if docs and draw(st.integers(0, 4)) == 0:
            bag = dict(docs[draw(st.integers(0, len(docs) - 1))].terms)  # duplicate
        else:
            terms = draw(st.sets(st.sampled_from(KEYWORDS), max_size=len(KEYWORDS)))
            bag = {t: draw(st.integers(1, 3)) for t in sorted(terms)}
            if draw(st.integers(0, 5)) > 0 or not bag:
                bag["seed"] = 1
        docs.append(make_doc(f"d{i}", bag))
    kind = draw(st.sampled_from(["unit", "tied", "free"]))
    if kind == "unit":
        weights = None
    elif kind == "tied":
        weights = draw(
            st.lists(st.sampled_from([0.1, 0.3, 0.7, 1.1]), min_size=n, max_size=n)
        )
    else:
        weights = draw(
            st.lists(
                st.floats(min_value=0.01, max_value=5.0), min_size=n, max_size=n
            )
        )
    return ResultUniverse(docs, weights)


@st.composite
def tasks(draw, semantics=AND):
    uni = draw(universes())
    if draw(st.booleans()):
        cluster = np.zeros(uni.n, dtype=bool)
        cluster[draw(st.integers(0, uni.n - 1))] = True  # one-result cluster
    else:
        bits = draw(st.lists(st.booleans(), min_size=uni.n, max_size=uni.n))
        bits[draw(st.integers(0, uni.n - 1))] = True
        cluster = np.array(bits)
    pool = KEYWORDS + UNSEEN
    candidates = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return ExpansionTask(
        universe=uni,
        cluster_mask=cluster,
        seed_terms=("seed",),
        candidates=tuple(candidates),
        semantics=semantics,
        cluster_id=draw(st.integers(0, 3)),
    )


def assert_same_outcome(new, ref):
    assert new == ref
    for name in ("fmeasure", "precision", "recall"):
        assert repr(getattr(new, name)) == repr(getattr(ref, name))


# -- benefit/cost table --------------------------------------------------------


def assert_same_table(new, ref, n_candidates):
    assert new.total_updates == ref.total_updates
    assert np.array_equal(new.values_array(), ref.values_array())
    for row in range(n_candidates):
        assert new.snapshot(row) == ref.snapshot(row)


@SETTINGS
@given(task=tasks(), data=st.data())
def test_table_matches_reference(task, data):
    uni = task.universe
    new = BenefitCostTable(uni, task.candidates, task.cluster_mask)
    ref = ReferenceBenefitCostTable(uni, task.candidates, task.cluster_mask)
    mask_of = st.lists(st.booleans(), min_size=uni.n, max_size=uni.n).map(np.array)
    q_mask = data.draw(mask_of)
    assert new.refresh_all(q_mask) == ref.refresh_all(q_mask)
    assert_same_table(new, ref, len(task.candidates))
    for _ in range(data.draw(st.integers(1, 4))):
        delta = data.draw(mask_of)
        q_mask = data.draw(mask_of)
        assert new.refresh_affected(q_mask, delta) == ref.refresh_affected(q_mask, delta)
        keywords = data.draw(st.lists(st.sampled_from(KEYWORDS + UNSEEN), max_size=3))
        assert new.refresh_keywords(keywords, q_mask) == ref.refresh_keywords(
            keywords, q_mask
        )
        assert_same_table(new, ref, len(task.candidates))
        excluded = data.draw(st.sets(st.sampled_from(KEYWORDS + UNSEEN)))
        assert new.best_addition(excluded) == ref.best_addition(excluded)


# -- ISKR ----------------------------------------------------------------------


@SETTINGS
@given(
    task=tasks(AND),
    allow_removal=st.booleans(),
    max_iterations=st.sampled_from([1, 2, 100]),
)
def test_iskr_and_matches_reference(task, allow_removal, max_iterations):
    kwargs = dict(max_iterations=max_iterations, allow_removal=allow_removal)
    assert_same_outcome(ISKR(**kwargs).expand(task), ReferenceISKR(**kwargs).expand(task))


@SETTINGS
@given(task=tasks(OR), max_iterations=st.sampled_from([1, 3, 100]))
def test_iskr_or_matches_reference(task, max_iterations):
    assert_same_outcome(
        ISKR(max_iterations=max_iterations).expand(task),
        ReferenceISKR(max_iterations=max_iterations).expand(task),
    )


# -- PEBC ----------------------------------------------------------------------


@SETTINGS
@given(
    task=tasks(AND),
    strategy=st.sampled_from(["single-result", "fixed-order", "random-subset"]),
    n_segments=st.integers(1, 4),
    n_iterations=st.integers(1, 3),
    seed=st.integers(0, 5),
)
def test_pebc_and_matches_reference(task, strategy, n_segments, n_iterations, seed):
    kwargs = dict(
        strategy=strategy, n_segments=n_segments, n_iterations=n_iterations, seed=seed
    )
    assert_same_outcome(PEBC(**kwargs).expand(task), ReferencePEBC(**kwargs).expand(task))


@SETTINGS
@given(task=tasks(OR), n_segments=st.integers(1, 4), seed=st.integers(0, 5))
def test_pebc_or_sampler_matches_reference(task, n_segments, seed):
    kwargs = dict(n_segments=n_segments, seed=seed)
    assert_same_outcome(PEBC(**kwargs).expand(task), ReferencePEBC(**kwargs).expand(task))


# -- the shared pieces ---------------------------------------------------------


@SETTINGS
@given(uni=universes(), data=st.data())
def test_weights_of_matches_weight_of(uni, data):
    rows = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=uni.n, max_size=uni.n),
            max_size=12,
        )
    )
    masks = np.array(rows, dtype=bool).reshape(len(rows), uni.n)
    got = uni.weights_of(masks)
    want = np.array([uni.weight_of(m) for m in masks], dtype=np.float64)
    assert got.tobytes() == want.tobytes()


def test_weights_of_long_rows_match_weight_of():
    rng = np.random.default_rng(7)
    n = 700  # past numpy's 128-element pairwise block
    docs = [make_doc(f"d{i}", {"t"}) for i in range(n)]
    uni = ResultUniverse(docs, rng.random(n) + 0.01)
    masks = rng.random((40, n)) < rng.random((40, 1))
    want = np.array([uni.weight_of(m) for m in masks], dtype=np.float64)
    assert uni.weights_of(masks).tobytes() == want.tobytes()


@SETTINGS
@given(uni=universes())
def test_term_counts_scatter_matches_document_loop(uni):
    counts = uni.counts
    column = {t: i for i, t in enumerate(counts.vocabulary)}
    want = np.zeros_like(counts.counts)
    for row, doc in enumerate(counts.documents):
        for term, tf in doc.terms.items():
            want[row, column[term]] = tf
    assert np.array_equal(counts.counts, want)
    assert counts.counts.dtype == np.int64
    assert not counts.counts.flags.writeable


@SETTINGS
@given(task=tasks())
def test_incidence_rows_gather_matches_has_mask(task):
    uni = task.universe
    terms = list(task.candidates) + ["seed"]
    rows = uni.incidence_rows(terms)
    assert rows.shape == (len(terms), uni.n)
    for row, term in zip(rows, terms):
        assert np.array_equal(row, uni.has_mask(term))
    inc = task.incidence
    assert np.array_equal(inc.has, rows[: len(task.candidates)])
    assert np.array_equal(inc.missing, ~inc.has)
    assert not inc.has.flags.writeable and not inc.missing.flags.writeable


def test_incidence_must_match_the_task():
    uni = ResultUniverse([make_doc("a", {"s", "x"}), make_doc("b", {"s", "y"})])
    inc = CandidateIncidence(uni, ("x",))
    task = ExpansionTask(uni, np.array([True, False]), ("s",), ("x",), incidence=inc)
    assert task.incidence is inc
    with pytest.raises(ExpansionError):
        ExpansionTask(uni, np.array([True, False]), ("s",), ("y",), incidence=inc)
    with pytest.raises(ExpansionError):
        CandidateIncidence(uni, ("x", "x"))


# -- k-means -------------------------------------------------------------------


@st.composite
def tf_matrices(draw):
    n = draw(st.integers(1, 25))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(dict(rows[draw(st.integers(0, len(rows) - 1))]))
        else:
            terms = draw(st.sets(st.sampled_from(KEYWORDS), max_size=len(KEYWORDS)))
            rows.append({t: draw(st.integers(1, 4)) for t in sorted(terms)} or {"z": 1})
    docs = [make_doc(f"d{i}", bag) for i, bag in enumerate(rows)]
    return TermCounts(docs).tf_matrix()


@SETTINGS
@given(
    matrix=tf_matrices(),
    k=st.integers(1, 6),
    max_iter=st.sampled_from([1, 2, 50]),
    seed=st.integers(0, 9),
)
def test_kmeans_run_once_matches_reference(matrix, k, max_iter, seed):
    kmeans = CosineKMeans(n_clusters=k, max_iter=max_iter, seed=seed)
    k = min(k, matrix.shape[0])
    new = kmeans._run_once(matrix, k, np.random.default_rng(seed))
    ref = reference_run_once(kmeans, matrix, k, np.random.default_rng(seed))
    assert np.array_equal(new.labels, ref.labels)
    assert new.labels.dtype == ref.labels.dtype
    assert np.array_equal(new.centroids, ref.centroids)
    assert repr(new.inertia) == repr(ref.inertia)
    assert new.iterations == ref.iterations
