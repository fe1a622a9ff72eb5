"""Run the system benchmark: every workload in fresh child processes.

    PYTHONPATH=src python -m benchmarks.system [--workload NAME]... [--seed N]
        [--smoke] [--runs N]

For each workload this runs ``run.py`` twice, in a fresh process each
time: an untraced run for the end-to-end metrics, then a traced run for
the per-layer self-time table. ``--smoke`` shortens every run to about
1.5 s with a single set-up (all checks stay on). ``--runs N`` instead
runs the untraced measurement N times per workload, on seeds ``--seed``
to ``--seed + N - 1``, and reports each end-to-end metric's median and
quartile spread against a third of its bound, the benchmark's own
stability test.

Every child's result line is echoed as ``RESULT <workload> trace=<0|1>
<json>``; the exit status is non-zero if any child fails or reports
``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.system.layers import LAYER_NAMES

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "system" / "run.py"
SMOKE_SECONDS = 1.5


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool, spec: dict
) -> dict:
    """One fresh-process run; its parsed result (raises if there is none)."""
    command = [
        sys.executable, str(RUN),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command += ["--setups", "1"]
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
    )
    lines = proc.stdout.strip().splitlines()
    metric_names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for line in lines[:-1]:
        if line.split()[:1] and line.split()[0] not in metric_names:
            print(line)  # metric lines are printed again below, with bounds
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload}: run.py exited {proc.returncode} without a result")
    print(f"RESULT {workload} trace={trace} {json.dumps(result)}")
    return result


def print_end_to_end(result: dict, spec: dict) -> None:
    print(f"  end-to-end ({result['attempted']} ops attempted, {result['failed']} failed):")
    for metric in spec["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        print(
            f"    {metric['name']:16s} {value:>12.4f} {metric['unit']:6s} "
            f"({metric['better']} is better, bound {metric['bound']:.0%})"
        )


def print_layers(result: dict) -> None:
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print("  per-layer self time (traced blocks):")
    print(f"    {'layer':26s} {'calls/op':>10s} {'p50 ms':>10s} {'p95 ms':>10s} {'share':>8s}")
    for layer in LAYER_NAMES:
        calls = metrics[f"{layer}.calls_per_op"]
        if calls == 0:
            continue
        print(
            f"    {layer:26s} {calls:10.3f} {metrics[f'{layer}.self_ms_p50']:10.4f} "
            f"{metrics[f'{layer}.self_ms_p95']:10.4f} {metrics[f'{layer}.self_share']:8.1%}"
        )
    layer_keys = {f"{layer}.{field}" for layer in LAYER_NAMES for field in
                  ("calls_per_op", "self_ms_p50", "self_ms_p95", "self_share")}
    for name, value in metrics.items():
        if name not in layer_keys:
            print(f"    {name:34s} {value:12.4f} {result['metrics'][name]['unit']}")


def noise_check(workload: str, seed: int, runs: int, seconds: float, spec: dict) -> bool:
    """``runs`` seeds; is each metric's quartile spread within bound / 3?"""
    results = [
        run_child(workload, seed + i, seconds, 0, False, spec) for i in range(runs)
    ]
    steady = True
    print(f"  spread over {runs} seeds ({seed}..{seed + runs - 1}):")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        ok = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
        steady &= ok
        print(
            f"    {metric['name']:16s} median {median:12.4f}  spread {spread:7.2%}  "
            f"(limit {metric['bound'] / 3:.2%}) {'ok' if ok else 'NOISY'}"
        )
    return steady and all(r["correct"] for r in results)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]

    ok = True
    for workload in args.workload or names:
        print(f"== {workload} ==")
        if args.runs > 1:
            ok &= noise_check(workload, args.seed, args.runs, seconds, spec)
            continue
        untraced = run_child(workload, args.seed, seconds, 0, args.smoke, spec)
        print_end_to_end(untraced, spec)
        traced = run_child(workload, args.seed, seconds, 1, args.smoke, spec)
        print_layers(traced)
        ok &= untraced["correct"] and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
