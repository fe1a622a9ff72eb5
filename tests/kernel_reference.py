"""Reference copies of four kernels of the paper's method, kept as test oracles.

These are candidate mining, spherical k-means, PEBC's single-result
sampler and ``best_row`` as they ran before their per-term Python loops
and per-cluster gathers became single passes. They live only here: the
property tests in ``tests/test_property_kernels.py`` require the shipped
kernels to return exactly what these return, down to the last float bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.kmeans import KMeansResult, _compact
from repro.core.keyword_stats import value_ratios
from repro.core.strategies import SampleQuery, _EliminationState
from repro.core.universe import ExpansionTask
from repro.errors import ClusteringError

# -- best_row --------------------------------------------------------------------


def reference_best_row(values, changed, name_rank):
    """One lexsort over (value desc, changed asc, name asc)."""
    if not values.size:
        return None
    row = int(np.lexsort((name_rank, changed, -values))[0])
    return None if values[row] == -np.inf else row


# -- candidate mining --------------------------------------------------------------


def reference_scored(index, universe, seed_terms):
    """``(tf * idf, term)`` of every candidate term, in vocabulary order."""
    n_docs = max(index.num_documents, 1)
    seed = set(seed_terms)
    counts = universe.counts
    tfs = counts.term_tf().tolist()
    present = np.count_nonzero(counts.counts, axis=0).tolist()
    scored = []
    for term, tf, n_has in zip(counts.vocabulary, tfs, present):
        if term in seed or n_has == universe.n:
            continue
        df = max(index.document_frequency(term), 1)
        idf = math.log(1.0 + n_docs / df)
        scored.append((tf * idf, term))
    return scored


def reference_select_candidates(
    index, universe, seed_terms, fraction=0.2, min_candidates=10
):
    """A Python loop over the vocabulary and a lambda-keyed sort."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    scored = reference_scored(index, universe, seed_terms)
    scored.sort(key=lambda item: (-item[0], item[1]))
    keep = max(int(round(len(scored) * fraction)), min(min_candidates, len(scored)))
    return tuple(term for _, term in scored[:keep])


# -- spherical k-means -----------------------------------------------------------------


class ReferenceCosineKMeans:
    """Spherical k-means with a boolean gather and ``.sum`` per stale cluster
    and ``Generator.choice`` for the k-means++ draw."""

    def __init__(self, n_clusters, max_iter=50, n_init=4, seed=0) -> None:
        if n_clusters < 1:
            raise ClusteringError(f"n_clusters must be >= 1, got {n_clusters}")
        self._k = n_clusters
        self._max_iter = max_iter
        self._n_init = n_init
        self._seed = seed

    def fit(self, matrix) -> KMeansResult:
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ClusteringError("matrix must be a non-empty 2-D array")
        k = min(self._k, matrix.shape[0])
        rng = np.random.default_rng(self._seed)
        best = None
        for _ in range(self._n_init):
            result = self._run_once(matrix, k, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        return best

    @staticmethod
    def _seed_centroids(matrix, k, rng):
        n = matrix.shape[0]
        chosen = [int(rng.integers(n))]
        dissim = 1.0 - matrix @ matrix[chosen[0]]
        dissim = np.clip(dissim, 0.0, None)
        while len(chosen) < k:
            total = float(dissim.sum())
            if total <= 1e-12:
                candidates = [i for i in range(n) if i not in set(chosen)]
                chosen.append(int(rng.choice(candidates)))
            else:
                probs = dissim / total
                chosen.append(int(rng.choice(n, p=probs)))
            new_d = 1.0 - matrix @ matrix[chosen[-1]]
            dissim = np.minimum(dissim, np.clip(new_d, 0.0, None))
        return matrix[chosen].copy()

    def _run_once(self, matrix, k, rng) -> KMeansResult:
        centroids = self._seed_centroids(matrix, k, rng)
        labels = np.zeros(matrix.shape[0], dtype=np.int64)
        iterations = 0
        for iterations in range(1, self._max_iter + 1):
            new_labels = np.argmax(matrix @ centroids.T, axis=1)
            if iterations == 1:
                stale = range(k)
            else:
                moved = new_labels != labels
                if not moved.any():
                    break
                stale = np.union1d(labels[moved], new_labels[moved]).tolist()
            sizes = np.bincount(new_labels, minlength=k)
            for c in stale:
                if not sizes[c]:
                    continue
                mean = matrix[new_labels == c].sum(axis=0)
                mean /= sizes[c]
                norm = math.sqrt(mean @ mean)
                if norm > 0:
                    np.divide(mean, norm, out=centroids[c])
            labels = new_labels
        labels, centroids = _compact(labels, centroids)
        sims = matrix @ centroids.T
        inertia = float(matrix.shape[0] - sims[np.arange(matrix.shape[0]), labels].sum())
        return KMeansResult(
            labels=labels, centroids=centroids, inertia=inertia, iterations=iterations
        )


# -- PEBC's single-result sampler --------------------------------------------------------


class ReferenceSingleResultStrategy:
    """§4.3 with a fresh state and three full-matrix matvecs at every step."""

    def generate(
        self, task: ExpansionTask, target_share: float, rng: np.random.Generator
    ) -> SampleQuery:
        state = _EliminationState(task)
        if target_share > 0.0 and state.total_u > 0.0:
            self._eliminate(state, min(target_share, 1.0), rng)
        return state.finish()

    @staticmethod
    def _eliminate(state, target, rng) -> None:
        task, inc = state.task, state.inc
        weights = task.universe.weights
        w_other = np.where(task.cluster_mask, 0.0, weights)
        w_cluster = np.where(task.cluster_mask, weights, 0.0)
        blocked = task.universe.empty_mask()
        guard = 0
        max_steps = len(task.candidates) + task.universe.n + 1
        while state.share < target and guard < max_steps:
            guard += 1
            pickable = np.flatnonzero(state.mask & state.other & ~blocked)
            if not pickable.size:
                break
            r = int(pickable[rng.integers(pickable.size)])
            eligible = inc.missing[:, r] & ~state.chosen
            if not eligible.any():
                blocked[r] = True
                continue
            benefits = inc.missing_float @ (w_other * state.mask)
            costs = inc.missing_float @ (w_cluster * state.mask)
            counts = inc.missing_float @ state.mask.astype(np.float64)
            values = np.where(eligible, value_ratios(benefits, costs), -np.inf)
            row = reference_best_row(values, counts, inc.name_rank)
            if row is None:
                blocked[r] = True
            elif state.take(row, target):
                break
