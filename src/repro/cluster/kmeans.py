"""Spherical k-means: k-means over L2-normalized TF vectors (cosine).

This is the clustering method of the paper's experimental setup (§C): results
are clustered with k-means, and the similarity of two results is the cosine
similarity of their vectors. With unit-norm inputs, maximizing
cosine similarity to the centroid equals minimizing Euclidean distance, and
re-normalizing centroids each round yields the classic spherical k-means.

``k`` is an *upper bound* on the number of clusters, mirroring §1 ("k is an
upper bound specified by the user"): empty clusters are dropped, so the
result may have fewer clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    ``labels[i]`` is the cluster id of point i (ids are 0..n_clusters-1 with
    no gaps); ``centroids`` has one unit-norm row per surviving cluster;
    ``inertia`` is the total cosine dissimilarity (n - sum of similarities);
    ``iterations`` is the number of Lloyd rounds performed.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def members(self, cluster_id: int) -> list[int]:
        """Point indices belonging to ``cluster_id``."""
        return [int(i) for i in np.flatnonzero(self.labels == cluster_id)]

    def clusters(self) -> list[list[int]]:
        """All clusters as lists of point indices."""
        return [self.members(c) for c in range(self.n_clusters)]


class CosineKMeans:
    """Spherical k-means with k-means++-style seeding.

    Parameters
    ----------
    n_clusters:
        Upper bound k on the number of clusters.
    max_iter:
        Maximum Lloyd iterations per restart.
    n_init:
        Number of seeded restarts; the run with lowest inertia wins.
    seed:
        RNG seed; identical inputs and seed give identical output.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 50,
        n_init: int = 4,
        seed: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ClusteringError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ClusteringError(f"max_iter must be >= 1, got {max_iter}")
        if n_init < 1:
            raise ClusteringError(f"n_init must be >= 1, got {n_init}")
        self._k = n_clusters
        self._max_iter = max_iter
        self._n_init = n_init
        self._seed = seed

    def fit(self, matrix: np.ndarray) -> KMeansResult:
        """Cluster the rows of ``matrix`` (assumed L2-normalized)."""
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ClusteringError("matrix must be a non-empty 2-D array")
        n = matrix.shape[0]
        k = min(self._k, n)
        rng = np.random.default_rng(self._seed)
        nonzeros = np.nonzero(matrix)
        best: KMeansResult | None = None
        for _ in range(self._n_init):
            result = self._run_once(matrix, k, rng, nonzeros)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best

    # -- internals --------------------------------------------------------

    @staticmethod
    def _seed_centroids(matrix: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding adapted to cosine dissimilarity (1 - sim)."""
        n = matrix.shape[0]
        chosen = [int(rng.integers(n))]
        dissim = 1.0 - matrix @ matrix[chosen[0]]
        dissim = np.clip(dissim, 0.0, None)
        while len(chosen) < k:
            total = float(dissim.sum())
            if total <= 1e-12:
                # All points coincide with a centroid; pick uniformly.
                candidates = [i for i in range(n) if i not in set(chosen)]
                chosen.append(int(rng.choice(candidates)))
            else:
                # ``rng.choice(n, p=probs)`` past its checks: the same draw.
                cdf = (dissim / total).cumsum()
                cdf /= cdf[-1]
                chosen.append(int(cdf.searchsorted(rng.random(), side="right")))
            new_d = 1.0 - matrix @ matrix[chosen[-1]]
            dissim = np.minimum(dissim, np.clip(new_d, 0.0, None))
        return matrix[chosen].copy()

    def _run_once(
        self, matrix: np.ndarray, k: int, rng: np.random.Generator, nonzeros=None
    ) -> KMeansResult:
        """One Lloyd run (``nonzeros``: ``np.nonzero(matrix)``). Cluster sums
        start at +0.0 and add nonzeros in row order: for float64 input with no
        ``-0.0`` (any TF matrix), the bits of ``matrix[labels == c].sum(0)``."""
        rows, cols = np.nonzero(matrix) if nonzeros is None else nonzeros
        values, width = matrix[rows, cols], matrix.shape[1]
        centroids = self._seed_centroids(matrix, k, rng)
        labels = np.zeros(matrix.shape[0], dtype=np.int64)
        iterations = 0
        for iterations in range(1, self._max_iter + 1):
            new_labels = np.argmax(matrix @ centroids.T, axis=1)
            if iterations == 1:
                stale = set(range(k))
            else:
                moved = new_labels != labels
                if not moved.any():
                    break  # converged: every mean below would come out the same
                # A cluster no point entered or left keeps its members (in
                # index order), so its mean, and centroid, are unchanged.
                stale = set(labels[moved].tolist()) | set(new_labels[moved].tolist())
            sizes = np.bincount(new_labels, minlength=k).tolist()
            # All sums in one scatter-add in input order (``bincount`` of no
            # nonzeros is int zeros); then ``.mean``, ``linalg.norm`` op for op.
            sums = np.bincount(new_labels[rows] * width + cols, values, k * width)
            sums = sums.astype(np.float64, copy=False).reshape(k, width)
            for c in stale:
                if not sizes[c]:
                    continue
                mean = sums[c]
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


def _compact(labels: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty clusters and renumber labels to 0..m-1."""
    used, new_labels = np.unique(labels, return_inverse=True)
    return new_labels.astype(np.int64), centroids[used]
