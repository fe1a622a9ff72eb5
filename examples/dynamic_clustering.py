#!/usr/bin/env python
"""Dynamic clustering-method selection (§7 future work).

The paper's conclusions ask for "techniques for choosing the best
clustering method dynamically". The ``auto`` clusterer runs k-means,
average-link agglomerative and bisecting k-means over the result vectors
and keeps the labeling with the best cosine silhouette. With the session
API a clusterer is just a registry name, so the fixed and dynamic
pipelines differ by one builder call; the registry also hands out the raw
backend when you want to inspect the per-query selection.

Run:  python examples/dynamic_clustering.py
"""

from repro import CLUSTERERS, Session, TermCounts

QUERIES = [("java", 3), ("rockets", 3), ("columbia", 3)]


def main() -> None:
    fixed = Session.builder().dataset("wikipedia").clusterer("kmeans").build()
    # Same corpus and config, dynamic backend selection per query.
    dynamic = Session.builder().dataset("wikipedia").clusterer("auto").build()

    for query, k in QUERIES:
        baseline = fixed.with_config(n_clusters=k).expand(query)
        chosen = dynamic.with_config(n_clusters=k).expand(query)

        # Re-run the selection on the same (cached) retrieval to show the
        # silhouettes behind the choice.
        backend = CLUSTERERS.create("auto", k, seed=0)
        docs = [r.document for r in dynamic.with_config(n_clusters=k).retrieve(query)]
        backend.fit_predict(TermCounts(docs).tf_matrix())
        sils = ", ".join(f"{n}={s:.2f}" for n, s in sorted(backend.scores.items()))

        print(f"=== {query!r}")
        print(f"  fixed k-means     : score {baseline.score:.3f}")
        print(f"  dynamic selection : score {chosen.score:.3f} "
              f"(chose {backend.chosen}; silhouettes {sils})")
        for eq in chosen.expanded:
            print(f"      {eq.display()}   [F={eq.fmeasure:.2f}]")
        print()


if __name__ == "__main__":
    main()
