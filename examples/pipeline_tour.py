#!/usr/bin/env python
"""Tour of the composable expansion pipeline (repro.pipeline).

The expansion run is a pipeline of typed stages over an
:class:`~repro.pipeline.ExecutionContext`:

    retrieve -> cluster -> universe -> candidates -> tasks -> expand

This tour shows the four things the pipeline API adds on top of
``session.expand``:

1. per-stage wall-clock timings on every report (``stage_timings``);
2. partial runs (``run_stages(query, until=...)``) for harnesses that
   need intermediate artifacts;
3. inserting a custom stage (a reranker) and swapping a built-in one
   (the candidate miner) from the session builder;
4. timings for every stage of the composed pipeline, custom stages
   included (``Pipeline.run`` records them itself).

Run:  python examples/pipeline_tour.py
"""

from repro import Session
from repro.pipeline import CandidateStage


# -- a custom stage: boost title matches before clustering --------------------


class TitleBoostReranker:
    """Move results whose title contains the seed query to the front.

    Stages are plain objects: a ``name`` and ``run(ctx) -> ctx``. They
    never mutate the incoming context — ``ctx.evolve(...)`` returns the
    changed copy.
    """

    name = "title_boost"

    def run(self, ctx):
        query = ctx.query.lower()
        boosted = sorted(
            ctx.results,
            key=lambda r: 0 if query in r.document.title.lower() else 1,
        )
        return ctx.evolve(results=tuple(boosted))


# -- a replacement stage: a narrower candidate miner --------------------------


class NarrowMiner:
    """The default TF-IDF miner, truncated to its top 8 candidates."""

    name = "candidates"  # replaces the built-in stage of the same name

    def __init__(self) -> None:
        self._inner = CandidateStage()

    def run(self, ctx):
        out = self._inner.run(ctx)
        return out.evolve(candidates=out.candidates[:8])


def main() -> None:
    # 1. Every report now carries per-stage timings (schema v2) —
    #    retrieval included, which the pre-pipeline code never measured.
    session = (
        Session.builder()
        .dataset("wikipedia")
        .config(n_clusters=3, top_k_results=30)
        .build()
    )
    report = session.expand("java")
    print("per-stage timings (plain session):")
    for t in report.stage_timings:
        print(f"  {t.stage:12s} {t.seconds * 1e3:8.3f} ms")

    # 2. Partial runs: stop after any stage and read the artifacts.
    ctx = session.run_stages("java", until="tasks")
    print(
        f"\npartial run until 'tasks': {len(ctx.results)} results, "
        f"{len(ctx.tasks)} tasks, {len(ctx.candidates)} candidate keywords"
    )

    # 3. Compose: insert the reranker, swap the miner.
    custom = (
        Session.builder()
        .dataset("wikipedia")
        .config(n_clusters=3, top_k_results=30)
        .stage(TitleBoostReranker(), after="retrieve")
        .replace_stage("candidates", NarrowMiner())
        .build()
    )
    print(f"\ncustom pipeline: {' -> '.join(custom.stage_names)}")

    report = custom.expand("java")
    print(f"score with reranker + narrow miner: {report.score:.3f}")
    print("expanded queries:")
    for eq in report.expanded:
        print(f"  [cluster {eq.cluster_id}] {eq.display()}")

    # 4. The custom stage is observable wherever timings are: the report,
    # its JSON payload, and describe().
    assert "title_boost" in [t.stage for t in report.stage_timings]
    assert "title_boost" in custom.describe()["stages"]
    print("\nper-stage timings (custom pipeline):")
    for t in report.stage_timings:
        print(f"  {t.stage:12s} {t.seconds * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
