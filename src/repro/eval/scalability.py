"""Scalability experiment (Figure 7): time vs number of results.

The paper uses QW2 "columbia" and varies the result count from 100 to 500;
reported times include both clustering and query generation, and grow
roughly linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Session
from repro.datasets.vocab import WIKIPEDIA_SENSES


@dataclass(frozen=True)
class ScalabilityPoint:
    """Times (clustering + expansion, seconds) at one result count."""

    n_results: int
    iskr_seconds: float
    pebc_seconds: float


def run_scalability(
    sizes: tuple[int, ...] = (100, 200, 300, 400, 500),
    term: str = "columbia",
    seed: int = 0,
    n_clusters: int = 3,
    backend: str = "memory",
) -> list[ScalabilityPoint]:
    """Run the Fig. 7 sweep and return one point per requested size.

    ``backend`` picks the index storage by registry name (``"memory"``
    or ``"sqlite"``).
    """
    n_senses = len(WIKIPEDIA_SENSES[term])
    points: list[ScalabilityPoint] = []
    for size in sizes:
        docs_per_sense = -(-size // n_senses)  # ceil division
        # One session per corpus size. Fig. 7 times clustering plus generation
        # per algorithm, so each run starts cold: PEBC must not reuse ISKR's.
        session = (
            Session.builder()
            .dataset("wikipedia", docs_per_sense=docs_per_sense, terms=[term])
            .backend(backend)
            .algorithm("iskr")
            .config(n_clusters=n_clusters, top_k_results=size)
            .seed(seed)
            .build()
        )
        session.clear_caches()
        iskr_report = session.expand(term)
        session.clear_caches()
        pebc_report = session.expand(term, algorithm="pebc")
        points.append(
            ScalabilityPoint(
                n_results=iskr_report.n_results,
                iskr_seconds=iskr_report.clustering_seconds
                + iskr_report.expansion_seconds,
                pebc_seconds=pebc_report.clustering_seconds
                + pebc_report.expansion_seconds,
            )
        )
    return points
