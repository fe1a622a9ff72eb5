"""Pipeline machinery overhead: composed stages vs the direct stage loop.

Measures one expansion (retrieve → ... → expand) on the sample corpus
three ways:

* **direct** — calling each stage's ``run(ctx)`` in a bare loop, no
  Pipeline, no timing;
* **pipeline** — ``default_pipeline().run(ctx)`` outside any trace: each
  stage's timing, ``StageStats`` sample and (no-op) span, as every
  Session pays;
* **pipeline, traced** — the same run inside a live
  ``Tracer().request(...)`` root, so every stage also records a
  ``stage.<name>`` span, as a traced served request does.

The contract asserted here (and in CI via ``--smoke``): both pipeline
rows cost **< 5%** over the direct call — the per-stage instrument is
effectively free next to the actual retrieval/clustering/expansion
work. Comparisons use best-of-N wall times to shed scheduler noise.

Run: ``PYTHONPATH=src python benchmarks/bench_pipeline.py [--smoke]``
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import ExpansionConfig
from repro.datasets.wikipedia import build_wikipedia_corpus
from repro.eval.reporting import format_table
from repro.index.search import SearchEngine
from repro.obs import Tracer
from repro.pipeline import ExecutionContext, default_pipeline, default_stages
from repro.text.analyzer import Analyzer

MAX_OVERHEAD = 0.05  # the per-stage instrument must stay under 5%


def _make_context(smoke: bool) -> ExecutionContext:
    from repro.api import ALGORITHMS

    analyzer = Analyzer(use_stemming=False)
    corpus = build_wikipedia_corpus(
        seed=0,
        docs_per_sense=8 if smoke else 40,
        terms=["java"] if smoke else None,
        analyzer=analyzer,
    )
    return ExecutionContext(
        engine=SearchEngine(corpus, analyzer),
        config=ExpansionConfig(n_clusters=3, top_k_results=20 if smoke else 30),
        algorithm=ALGORITHMS.create("iskr", seed=0),
        query="java",
    )


def _best_of_each(fns, repeats: int) -> list[float]:
    """Best wall time per function, measured in interleaved rounds.

    Interleaving (A B C, A B C, ...) rather than timing each function's
    repeats back to back means systematic drift on a noisy host — CPU
    throttling, a neighbor stealing cores mid-benchmark — hits every
    configuration alike instead of skewing the overhead ratio.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def run_bench(smoke: bool) -> int:
    ctx = _make_context(smoke)
    repeats = 15 if smoke else 30

    stages = default_stages()

    def direct():
        out = ctx
        for stage in stages:
            out = stage.run(out)
        return out

    pipeline = default_pipeline()
    tracer = Tracer()

    def traced():
        with tracer.request("bench.pipeline"):
            return pipeline.run(ctx)

    # Warm up once per path (imports, numpy buffers), then measure.
    direct(), pipeline.run(ctx), traced()
    t_direct, t_plain, t_traced = _best_of_each(
        [direct, lambda: pipeline.run(ctx), traced], repeats
    )

    rows = [
        ["direct stage loop", f"{t_direct * 1e3:.3f}", "—"],
        ["Pipeline.run", f"{t_plain * 1e3:.3f}",
         f"{(t_plain / t_direct - 1.0):+.2%}"],
        ["Pipeline.run, traced", f"{t_traced * 1e3:.3f}",
         f"{(t_traced / t_direct - 1.0):+.2%}"],
    ]
    table = format_table(
        ["configuration", "best ms", "overhead"],
        rows,
        title=f"pipeline overhead ({'smoke' if smoke else 'full'} corpus, "
        f"best of {repeats})",
    )
    try:
        from benchmarks.conftest import emit_artifact

        emit_artifact("pipeline_overhead", table)
    except ImportError:  # running from another cwd; still print
        print(table)

    status = 0
    for label, seconds in (("untraced", t_plain), ("traced", t_traced)):
        overhead = seconds / t_direct - 1.0
        if overhead >= MAX_OVERHEAD:
            print(
                f"FAIL: {label} pipeline overhead {overhead:.2%} "
                f">= {MAX_OVERHEAD:.0%}",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"ok: {label} pipeline overhead {overhead:+.2%} "
                f"< {MAX_OVERHEAD:.0%}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small corpus and few repeats (CI mode)",
    )
    args = parser.parse_args(argv)
    return run_bench(smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
