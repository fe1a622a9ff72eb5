"""Candidate mining, spherical k-means, PEBC's single-result sampler and
``best_row`` against their reference copies, bit for bit.

The shipped kernels are single passes over the seed result set's term
counts and candidate incidence; ``tests/kernel_reference.py`` keeps the
loops they replaced. Every test here draws random inputs — tied scores and
weights, seed terms the vocabulary lacks, terms in every result, k > n,
duplicate and all-zero rows, all-``-inf`` values — and requires equal
outputs: the same terms in the same order, the same labels and iteration
counts, and the same float bits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.kmeans import CosineKMeans
from repro.core.keyword_stats import best_row, candidate_scores, select_candidates
from repro.core.pebc import PEBC
from repro.core.strategies import SingleResultStrategy
from repro.core.universe import AND, ExpansionTask, ResultUniverse
from tests.conftest import make_doc
from tests.kernel_reference import (
    ReferenceCosineKMeans,
    ReferenceSingleResultStrategy,
    reference_best_row,
    reference_scored,
    reference_select_candidates,
)

SETTINGS = settings(max_examples=150, deadline=None)


# -- best_row --------------------------------------------------------------------


@st.composite
def scored_rows(draw):
    n = draw(st.integers(0, 30))
    pool = draw(
        st.sampled_from(
            [
                [-np.inf],  # nothing eligible
                [-np.inf, 0.0, 1.0],
                [-np.inf, 0.0, 0.25, 0.5, 3.0, np.inf],
                [0.5, np.inf],
            ]
        )
    )
    values = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    changed = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        changed = changed.astype(np.float64)  # matvec counts are floats
    name_rank = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return values.astype(np.float64), changed, name_rank


@SETTINGS
@given(rows=scored_rows())
def test_best_row_matches_reference(rows):
    assert best_row(*rows) == reference_best_row(*rows)


def test_best_row_ties_and_nothing_eligible():
    values = np.array([1.0, 2.0, 2.0, 2.0, -np.inf])
    changed = np.array([0, 3, 1, 1, 0])
    name_rank = np.array([0, 1, 4, 2, 3])
    assert best_row(values, changed, name_rank) == 3  # fewer changed, then name
    assert best_row(np.full(3, -np.inf), changed[:3], name_rank[:3]) is None
    assert best_row(np.array([]), np.array([]), np.array([])) is None


# -- candidate mining --------------------------------------------------------------


class _DfIndex:
    """What candidate mining reads of an index: N and per-term df."""

    def __init__(self, num_documents: int, dfs: dict[str, int]) -> None:
        self.num_documents = num_documents
        self._dfs = dfs

    def document_frequency(self, term: str) -> int:
        return self._dfs.get(term, 0)


@st.composite
def candidate_inputs(draw):
    n = draw(st.integers(1, 8))
    n_terms = draw(st.integers(1, 120))
    vocabulary = [f"t{i:03d}" for i in range(n_terms)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tf = rng.integers(0, draw(st.integers(1, 4)) + 1, size=(n, n_terms))
    tf[:, rng.random(n_terms) < 0.1] = 1  # terms in every result
    tf[tf.sum(axis=1) == 0, 0] = 1  # no empty documents
    docs = [
        make_doc(f"d{i}", {t: int(c) for t, c in zip(vocabulary, row) if c})
        for i, row in enumerate(tf)
    ]
    n_docs = draw(st.sampled_from([1, n, 97, 5000]) | st.integers(1, 250_000))
    if draw(st.booleans()):  # few distinct df: many tied scores
        dfs = rng.choice([0, 1, 2, max(n_docs // 2, 1)], size=n_terms)
    else:
        dfs = rng.integers(0, n_docs + 1, size=n_terms)
    index = _DfIndex(n_docs, dict(zip(vocabulary, dfs.tolist())))
    seed_terms = tuple(
        draw(st.lists(st.sampled_from(vocabulary + ["ghost", "zz-absent"]), max_size=4))
    )
    return index, ResultUniverse(docs), seed_terms


@SETTINGS
@given(inputs=candidate_inputs())
def test_candidate_scores_match_reference(inputs):
    index, universe, seed_terms = inputs
    cols, scores = candidate_scores(index, universe, seed_terms)
    scored = reference_scored(index, universe, seed_terms)
    assert [universe.counts.vocabulary[c] for c in cols] == [t for _, t in scored]
    want = np.array([s for s, _ in scored], dtype=np.float64)
    assert scores.dtype == np.float64 and scores.tobytes() == want.tobytes()


@SETTINGS
@given(
    inputs=candidate_inputs(),
    fraction=st.sampled_from([0.01, 0.2, 0.5, 1.0]),
    min_candidates=st.integers(0, 20),
)
def test_select_candidates_matches_reference(inputs, fraction, min_candidates):
    args = (*inputs, fraction, min_candidates)
    assert select_candidates(*args) == reference_select_candidates(*args)


def test_candidate_scores_at_corpus_scale():
    # 20,000 terms with dfs spread over a 250,000-document corpus: enough
    # distinct idf arguments that a vectorised log rounding unlike libm's
    # shows up in the score bits.
    rng = np.random.default_rng(0)
    vocabulary = [f"t{i:05d}" for i in range(20_000)]
    counts = rng.integers(0, 4, size=(2, len(vocabulary)))
    docs = [
        make_doc(f"d{i}", {t: int(c) for t, c in zip(vocabulary, row) if c})
        for i, row in enumerate(counts)
    ]
    dfs = rng.integers(1, 250_001, size=len(vocabulary)).tolist()
    index = _DfIndex(250_000, dict(zip(vocabulary, dfs)))
    universe = ResultUniverse(docs)
    _, scores = candidate_scores(index, universe, ("t00000",))
    want = [s for s, _ in reference_scored(index, universe, ("t00000",))]
    assert scores.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert select_candidates(index, universe, ("t00000",)) == (
        reference_select_candidates(index, universe, ("t00000",))
    )


# -- spherical k-means -----------------------------------------------------------------


@st.composite
def nonnegative_matrices(draw):
    n = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 30, 60, 90]))
    width = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    matrix = rng.random((n, width)) * (rng.random((n, width)) < density)
    if draw(st.booleans()):
        matrix = np.floor(matrix * 5.0)  # small integer counts
    for _ in range(draw(st.integers(0, n - 1))):
        matrix[rng.integers(n)] = matrix[rng.integers(n)]  # duplicate rows
    matrix[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    if draw(st.booleans()):  # L2-normalised, as every TF matrix is
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        matrix = matrix / norms
    return matrix


@SETTINGS
@given(
    matrix=nonnegative_matrices(),
    k=st.integers(1, 8),
    max_iter=st.sampled_from([1, 2, 50]),
    n_init=st.sampled_from([1, 4]),
    seed=st.integers(0, 9),
)
def test_kmeans_fit_matches_reference(matrix, k, max_iter, n_init, seed):
    kwargs = dict(n_clusters=k, max_iter=max_iter, n_init=n_init, seed=seed)
    new = CosineKMeans(**kwargs).fit(matrix)
    ref = ReferenceCosineKMeans(**kwargs).fit(matrix)
    assert np.array_equal(new.labels, ref.labels)
    assert new.labels.dtype == ref.labels.dtype
    assert new.centroids.tobytes() == ref.centroids.tobytes()
    assert new.centroids.shape == ref.centroids.shape
    assert new.inertia.hex() == ref.inertia.hex()
    assert new.iterations == ref.iterations


# -- PEBC's single-result sampler --------------------------------------------------------


def make_and_task(rng, n, n_keywords, n_patterns, density, weights, cluster_share):
    """A random AND task whose keywords share ``n_patterns`` incidence
    patterns: keywords in the same results tie on value and on eliminated
    count, so rounding and row position in the matvecs decide between them."""
    keywords = [f"k{i:02d}" for i in range(n_keywords)]
    patterns = rng.random((n, n_patterns)) < density
    has = patterns[:, rng.integers(n_patterns, size=n_keywords)]
    seed_missing = rng.random(n) < 0.1
    docs = []
    for i, row in enumerate(has):
        bag = {kw: 1 for kw, present in zip(keywords, row) if present}
        if not seed_missing[i] or not bag:
            bag["seed"] = 1
        docs.append(make_doc(f"d{i}", bag))
    if weights == "tied":
        weights = rng.choice([0.1, 0.3, 0.7, 1.1], size=n)
    elif weights == "free":
        weights = rng.random(n) + 0.01
    cluster = rng.random(n) < cluster_share
    cluster[rng.integers(n)] = True
    pool = keywords + ["ghost"]
    order = rng.permutation(len(pool))[: rng.integers(len(pool) + 1)]
    candidates = tuple(pool[i] for i in order)
    universe = ResultUniverse(docs, weights)
    return ExpansionTask(universe, cluster, ("seed",), candidates, semantics=AND)


@st.composite
def and_tasks(draw):
    n_keywords = draw(st.integers(1, 24))
    return make_and_task(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        n=draw(st.sampled_from([1, 2, 5, 10, 20, 48, 100])),
        n_keywords=n_keywords,
        n_patterns=draw(st.integers(1, n_keywords)),
        density=draw(st.sampled_from([0.05, 0.2, 0.5, 0.8])),
        weights=draw(st.sampled_from([None, "tied", "free"])),
        cluster_share=draw(st.sampled_from([0.1, 0.5])),
    )


FRACTIONS = st.lists(
    st.sampled_from([0.0, 0.05, 0.25, 0.5, 0.625, 0.75, 1.0, 1.5]), min_size=1, max_size=8
)


def assert_same_sample(new, ref):
    assert new.terms == ref.terms
    assert new.selected == ref.selected
    assert np.array_equal(new.result_mask, ref.result_mask)
    assert repr(new.eliminated_share) == repr(ref.eliminated_share)


@SETTINGS
@given(task=and_tasks(), fractions=FRACTIONS, seed=st.integers(0, 5))
def test_single_result_samples_match_reference(task, fractions, seed):
    sample = SingleResultStrategy().prepare(task)
    strategy = SingleResultStrategy()
    reference = ReferenceSingleResultStrategy()
    shared, fresh, ref_rng = (np.random.default_rng(seed) for _ in range(3))
    for fraction in fractions:  # one rng stream across fractions, as in PEBC
        ref = reference.generate(task, fraction, ref_rng)
        assert_same_sample(sample(fraction, shared), ref)
        assert_same_sample(strategy.generate(task, fraction, fresh), ref)


def test_single_result_samples_match_reference_at_scale():
    # 300 seeded tasks at benchmark scale: 100 results, up to 60 candidates
    # over a few shared patterns. Ties decided by rounding are common here,
    # so any change to the matvecs' bits shows in the chosen keywords.
    rng = np.random.default_rng(0)
    for _ in range(300):
        task = make_and_task(
            rng,
            n=int(rng.choice([48, 100])),
            n_keywords=int(rng.choice([24, 60])),
            n_patterns=int(rng.integers(2, 9)),
            density=float(rng.choice([0.05, 0.2, 0.5])),
            weights=rng.choice(["tied", "free"]),
            cluster_share=float(rng.choice([0.1, 0.5])),
        )
        sample = SingleResultStrategy().prepare(task)
        reference = ReferenceSingleResultStrategy()
        shared, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            ref = reference.generate(task, fraction, ref_rng)
            assert_same_sample(sample(fraction, shared), ref)


class _ReferenceSamplerPEBC(PEBC):
    def _and_sampler(self, task):
        rng = np.random.default_rng(self._seed)
        reference = ReferenceSingleResultStrategy()
        return lambda fraction: reference.generate(task, fraction, rng)


@SETTINGS
@given(
    task=and_tasks(),
    n_segments=st.integers(1, 4),
    n_iterations=st.integers(1, 3),
    seed=st.integers(0, 5),
)
def test_pebc_single_result_matches_reference(task, n_segments, n_iterations, seed):
    kwargs = dict(n_segments=n_segments, n_iterations=n_iterations, seed=seed)
    new = PEBC(**kwargs).expand(task)
    ref = _ReferenceSamplerPEBC(**kwargs).expand(task)
    assert new == ref
    for name in ("fmeasure", "precision", "recall"):
        assert repr(getattr(new, name)) == repr(getattr(ref, name))
