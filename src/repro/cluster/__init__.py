"""Clustering substrate: cosine k-means, agglomerative, k selection.

The paper clusters seed-query results with k-means over TF vectors under
cosine similarity (§C), from ``TermCounts.tf_matrix()``. Clustering is
pluggable — any ``ClusteringBackend`` can be passed to the expansion
pipeline, supporting the paper's future-work question of how clustering
methods affect the expanded queries.
"""

from repro.cluster.agglomerative import AgglomerativeClustering
from repro.cluster.bisecting import BisectingKMeans
from repro.cluster.kmeans import CosineKMeans, KMeansResult
from repro.cluster.kmedoids import KMedoids, KMedoidsResult, cluster_representatives
from repro.cluster.kselect import AdaptiveKClusterer, KSelection, choose_k
from repro.cluster.quality import (
    normalized_mutual_information,
    purity,
    silhouette_score,
)
from repro.cluster.selection import AutoClustering, default_backends
from repro.cluster.similarity import cosine_similarity, cosine_similarity_matrix

__all__ = [
    "AdaptiveKClusterer",
    "AgglomerativeClustering",
    "AutoClustering",
    "BisectingKMeans",
    "CosineKMeans",
    "KMeansResult",
    "KMedoids",
    "KMedoidsResult",
    "KSelection",
    "cosine_similarity",
    "choose_k",
    "cluster_representatives",
    "cosine_similarity_matrix",
    "default_backends",
    "normalized_mutual_information",
    "purity",
    "silhouette_score",
]
