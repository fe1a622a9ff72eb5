"""One run of one workload: set up, prefill and check, measure, report.

A run measures a fixed amount of work: whole blocks of the workload's
sequence, as many as it completed in ``--seconds`` on the reference
machine when the benchmark was defined. Both commits of a comparison
therefore do identical work (the served workloads slow down a little
with every ingest, so a timed cut-off would make the work depend on
speed). One caller sends the ops in a closed loop, and every timing is
reported at reference speed (see :mod:`benchmarks.system.speed`).

``--trace 0`` reports the end-to-end metrics with no wrappers
installed. ``--trace 1`` alternates untraced and traced blocks and
reports the per-layer metrics. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
where ``metrics`` holds exactly the names ``BENCHMARK.json`` lists for
the run's mode, each with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from benchmarks.system import speed
from benchmarks.system.layers import LAYER_NAMES, SelfTimer, install
from benchmarks.system.workloads import WORKLOADS, sequence_digest

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Requests answered 2xx within this many seconds meet the latency
#: objective (the service's default slow-log threshold when this
#: benchmark was defined; fixed here so the workload never moves).
SLO_SECONDS = 0.25

#: A run's timed blocks may take at most this many times ``--seconds``;
#: past that it stops after the current block (a much slower commit
#: then measures less work, and the run says so).
CAP_FACTOR = 3.0


@dataclass
class Phase:
    """Op records of whole blocks, timed at reference speed.

    A record is ``(class, seconds, ok, edge seconds or None)``; the edge
    (see ``serve.edge``) stays in wall seconds like every other
    self-time sample.
    """

    records: list[tuple]
    wall: float
    raw_wall: float

    @classmethod
    def merge(cls, phases: Sequence["Phase"]) -> "Phase":
        return cls(
            [record for phase in phases for record in phase.records],
            sum(phase.wall for phase in phases),
            sum(phase.raw_wall for phase in phases),
        )

    @property
    def ok_seconds(self) -> list[float]:
        return [r[1] for r in self.records if r[2]]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[2])

    @property
    def ops_per_s(self) -> float:
        return len(self.ok_seconds) / self.wall

    def seconds_of(self, *classes: str) -> list[float]:
        return [r[1] for r in self.records if r[2] and r[0] in classes]


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The smoothed ``q``-th percentile in milliseconds (0.0 for none).

    The mean of the samples ranked within 2.5 percentile points of
    ``q``. A block is a fixed multiset of keys, each with its own cost,
    so the pooled distribution is lumpy; a single order statistic that
    falls between two keys' costs would jump from run to run, while this
    mean moves only with the costs themselves.
    """
    if not seconds:
        return 0.0
    ranked = sorted(seconds)
    n = len(ranked)
    low = min(int((q - 2.5) / 100 * n), n - 1) if q > 2.5 else 0
    high = max(int((q + 2.5) / 100 * n), low + 1)
    return statistics.fmean(ranked[low:high]) * 1e3


def run_block(
    workload: Any,
    client: Any,
    sequence: Sequence[Any],
    start: int,
    stop: int,
    before: float,
) -> tuple[Phase, float]:
    """Ops ``[start, stop)`` in a closed loop, probing the host after each.

    Each op is scaled by the probes on either side of it, which follows
    even sub-second slowdowns; returns the phase and the last probe.
    """
    records: list[tuple] = []
    wall = raw_wall = 0.0
    for position in range(start, stop):
        begin = time.perf_counter()
        try:
            cls, seconds, ok, edge = workload.execute(
                client, sequence[position % len(sequence)]
            )
        except Exception as exc:  # noqa: BLE001 — reported as a failed op
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            cls, seconds, ok, edge = "error", 0.0, False, None
        elapsed = time.perf_counter() - begin
        after = speed.probe()
        scale = speed.factor(before, after)
        records.append((cls, seconds * scale, ok, edge))
        wall += elapsed * scale
        raw_wall += elapsed
        before = after
    return Phase(records, wall, raw_wall), before


def run_blocks(
    workload: Any,
    client: Any,
    sequence: Sequence[Any],
    count: int,
    deadline: float,
    around: Callable[[int], Any] = lambda index: contextlib.nullcontext(),
) -> list[Phase]:
    """Blocks ``0..count-1`` (fewer past ``deadline``), one phase each.

    ``around(index)`` is a context manager entered for each block (the
    traced run installs its wrappers there).
    """
    phases: list[Phase] = []
    before = speed.probe()
    for index in range(count):
        span = (index * workload.block, (index + 1) * workload.block)
        with around(index):
            phase, before = run_block(workload, client, sequence, *span, before)
        phases.append(phase)
        if time.perf_counter() >= deadline:
            break
    return phases


def end_to_end(phase: Phase, setup_seconds: list[float], rss_mb: float) -> dict:
    ok = phase.ok_seconds
    within = sum(1 for s in ok if s <= SLO_SECONDS)
    return {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": percentile_ms(ok, 50),
        "latency_p95_ms": percentile_ms(ok, 95),
        "slo_ratio": within / max(len(phase.records), 1),
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    timer: SelfTimer,
    untraced: Phase,
    traced: Phase,
    cache_delta: tuple[int, int],
    feed: tuple[float, float],
    eq1_scores: list[float],
) -> dict:
    out: dict[str, float] = {}
    ops = max(len(traced.records), 1)
    # Self times are raw wall seconds; report them at reference speed
    # with the traced blocks' mean factor. Shares stay wall over wall.
    factor = traced.wall / traced.raw_wall
    for layer in LAYER_NAMES:
        samples = timer.samples[layer]
        out[f"{layer}.calls_per_op"] = len(samples) / ops
        out[f"{layer}.self_ms_p50"] = percentile_ms(samples, 50) * factor
        out[f"{layer}.self_ms_p95"] = percentile_ms(samples, 95) * factor
        out[f"{layer}.self_share"] = sum(samples) / traced.raw_wall
    hits, misses = cache_delta
    out["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["feed.lag"], out["feed.fallbacks"] = feed
    out["bench.trace_overhead"] = traced.ops_per_s / untraced.ops_per_s
    out["quality.eq1_mean"] = statistics.fmean(eq1_scores) if eq1_scores else 0.0
    out["op.expand.p50_ms"] = percentile_ms(untraced.seconds_of("expand"), 50)
    out["op.expand.p95_ms"] = percentile_ms(untraced.seconds_of("expand"), 95)
    out["op.search_and.p50_ms"] = percentile_ms(untraced.seconds_of("search_and"), 50)
    out["op.search_or.p50_ms"] = percentile_ms(untraced.seconds_of("search_or"), 50)
    out["op.search.p95_ms"] = percentile_ms(
        untraced.seconds_of("search_and", "search_or"), 95
    )
    out["op.batch.p50_ms"] = percentile_ms(untraced.seconds_of("batch"), 50)
    out["op.ingest.p50_ms"] = percentile_ms(untraced.seconds_of("ingest"), 50)
    return out


def traced_run(
    workload: Any,
    client: Any,
    sequence: Sequence[Any],
    blocks: int,
    deadline: float,
) -> tuple[dict, list[Phase]]:
    """Alternate untraced and traced blocks; return the per-layer metrics.

    Alternating (rather than two halves) gives both sides the same mix
    of early and late blocks: the served workloads slow down a little
    with every ingest, and halves would bill that to tracing.
    """
    timer = SelfTimer()
    cache = [0, 0]

    @contextlib.contextmanager
    def around(index: int) -> Iterator[None]:
        if index % 2 == 0:
            yield
            return
        before = workload.cache_counts()
        uninstall = install(timer)
        undo_cache = workload.trace(timer)
        try:
            yield
        finally:
            undo_cache()
            uninstall()
        after = workload.cache_counts()
        cache[0] += after[0] - before[0]
        cache[1] += after[1] - before[1]

    phases = run_blocks(workload, client, sequence, blocks, deadline, around)
    off, on = Phase.merge(phases[0::2]), Phase.merge(phases[1::2])
    for record in on.records:
        if record[2] and record[3] is not None:
            timer.record("serve.edge", record[3])
    metrics = per_layer(
        timer, off, on, (cache[0], cache[1]), workload.feed_health(), workload.eq1_scores
    )
    return metrics, [off, on]


def measure(args: argparse.Namespace, workdir: Path) -> tuple[dict, int, int, bool]:
    """Run the workload; ``(metrics, attempted, failed, correct)``."""
    workload = WORKLOADS[args.workload]()
    sequence = workload.sequence(args.seed)
    blocks = max(
        2 if args.trace else 1,
        round(args.seconds * workload.sizing_ops_per_s / workload.block),
    )
    print(
        f"workload {args.workload}: seed {args.seed}, cpu_count {os.cpu_count()}, "
        f"sequence of {len(sequence)} ops (sha256 {sequence_digest(sequence)}), "
        f"measuring {blocks} blocks of {workload.block} ops"
    )
    setup_seconds = []
    client = None
    try:
        for attempt in range(args.setups):
            workload.close()
            before = speed.probe()
            start = time.perf_counter()
            workload.setup(workdir / f"setup-{attempt}")
            elapsed = time.perf_counter() - start
            setup_seconds.append(elapsed * speed.factor(before, speed.probe()))
        prefill_ops, problems = workload.prefill(sequence)
        client = workload.connect()
        deadline = time.perf_counter() + CAP_FACTOR * args.seconds
        if args.trace:
            metrics, phases = traced_run(workload, client, sequence, blocks, deadline)
        else:
            phases = [Phase.merge(run_blocks(workload, client, sequence, blocks, deadline))]
            metrics = end_to_end(phases[0], setup_seconds, workload.peak_rss_mb())
    finally:
        if client is not None:
            client.close()
        workload.close()
    for problem in problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    measured = sum(len(p.records) for p in phases)
    if measured < blocks * workload.block:
        print(
            f"warning: stopped after {measured} ops at the {CAP_FACTOR:g}x time cap; "
            "this run measured less work than the workload defines",
            file=sys.stderr,
        )
    failed = len(problems) + sum(p.failed for p in phases)
    for label, phase in zip(("untraced", "traced") if args.trace else ("timed",), phases):
        print(
            f"  {label}: {len(phase.records)} ops, {phase.failed} failed, "
            f"{phase.raw_wall:.3f} s wall = {phase.wall:.3f} s at reference speed"
        )
    return metrics, prefill_ops + measured, failed, failed == 0


def stop_children(timeout: float = 10.0) -> None:
    """End every process this run started and wait for each.

    The cluster's replicas are stopped by ``workload.close()``; any
    left by a failed set-up are ended here. Spawning them also starts
    multiprocessing's resource tracker, which would otherwise outlive
    this process by a moment: it exits only once every holder of its
    pipe is gone, so it is stopped last.
    """
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setups", type=int, default=3,
        help="complete set-ups per run; setup_s is their median",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.setups < 1:
        parser.error("--seconds must be positive and --setups at least 1")

    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Store files and the cluster's snapshots stay inside the checkout.
    workdir = ROOT / ".bench_build" / "system" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        values, attempted, failed, correct = measure(args, workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(
            f"metric names differ from {SPEC_PATH.name}: "
            f"{sorted(set(values) ^ {m['name'] for m in wanted})}"
        )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
    }
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
