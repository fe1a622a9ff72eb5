"""Tests of the system benchmark's own machinery.

Run explicitly (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest -q benchmarks/system/tests
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from benchmarks.system import layers
from benchmarks.system.harness import percentile_ms, stop_children
from benchmarks.system.layers import LAYER_NAMES, SelfTimer, install
from benchmarks.system.workloads import WORKLOADS, sequence_digest

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- sequences ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_sequence(name):
    workload = WORKLOADS[name]()
    first, again = workload.sequence(7), WORKLOADS[name]().sequence(7)
    assert json.dumps(first) == json.dumps(again)
    assert sequence_digest(first) == sequence_digest(again)
    assert sequence_digest(workload.sequence(8)) != sequence_digest(first)
    assert len(first) == workload.length


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_reorder_blocks_but_never_change_their_reads(name):
    workload = WORKLOADS[name]()

    def reads(sequence, start):
        block = sequence[start:start + workload.block]
        return sorted(json.dumps(op) for op in block if op[0] != "ingest")

    first, other = workload.sequence(3), workload.sequence(4)
    expected = reads(first, 0)
    for start in range(0, workload.length, workload.block):
        assert reads(first, start) == expected
        assert reads(other, start) == expected
    assert first[: workload.block] != other[: workload.block]


def test_served_blocks_lead_with_their_ingest():
    workload = WORKLOADS["serve_mixed"]()
    sequence = workload.sequence(0)
    ingests = [i for i, op in enumerate(sequence) if op[0] == "ingest"]
    assert ingests == list(range(0, workload.length, workload.block))
    assert WORKLOADS["cluster_mixed"]().sequence(0) == sequence


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_calls_on_the_same_thread_only():
    local = threading.local()

    def clock() -> float:
        return local.now

    def tick(seconds: float) -> None:
        local.now += seconds
        time.sleep(0)  # yield, so the two threads interleave

    timer = SelfTimer(layers=("outer", "inner"), clock=clock)
    inner = timer.wrap("inner", tick)

    def body(own: float, nested: float) -> None:
        tick(own)
        inner(nested)
        tick(own)

    outer = timer.wrap("outer", body)
    barrier = threading.Barrier(2)

    def worker(own: float, nested: float) -> None:
        local.now = 0.0
        barrier.wait()
        for _ in range(200):
            outer(own, nested)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(1.0, 5.0)),
            threading.Thread(target=worker, args=(2.0, 7.0)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert Counter(timer.samples["outer"]) == {2.0: 200, 4.0: 200}
    assert Counter(timer.samples["inner"]) == {5.0: 200, 7.0: 200}


def test_install_wraps_every_target_and_uninstall_restores_it():
    import importlib

    def target(module: str, cls: str | None, attr: str):
        owner = importlib.import_module(module)
        return (getattr(owner, cls) if cls else owner).__dict__[attr]

    targets = [t for group in layers.WRAPPED.values() for t in group]
    originals = [target(*t) for t in targets]
    uninstall = install(SelfTimer())
    try:
        assert all(target(*t) is not o for t, o in zip(targets, originals))
    finally:
        uninstall()
    assert all(target(*t) is o for t, o in zip(targets, originals))
    assert set(layers.WRAPPED) <= set(LAYER_NAMES)


def test_smoothed_percentile_stays_put_when_one_op_crosses_a_gap():
    # Two keys' costs, 4 ms and 8 ms: an order statistic at the median
    # flips between them when one op moves; the smoothed one barely moves.
    even = [0.004] * 500 + [0.008] * 500
    shifted = [0.004] * 499 + [0.008] * 501
    assert percentile_ms(even, 50) == pytest.approx(6.0)
    assert percentile_ms(shifted, 50) == pytest.approx(6.0, rel=0.02)
    uniform = [i / 1000 for i in range(1000)]
    assert percentile_ms(uniform, 95) == pytest.approx(950, rel=0.01)
    assert percentile_ms([], 50) == 0.0


def test_stop_children_ends_spawned_processes_and_the_resource_tracker():
    # The cluster's replicas start like this; so does the tracker.
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True
    )
    child.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None
    stop_children(timeout=5)
    assert child.exitcode is not None
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(tracker, 0)


# -- BENCHMARK.json and the smoke run ----------------------------------------


def test_benchmark_json_follows_the_name_and_size_rules():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def smoke():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.system", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    results: dict[tuple[str, int], dict] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            _, workload, trace, payload = line.split(" ", 3)
            results[(workload, int(trace[len("trace="):]))] = json.loads(payload)
    return proc.returncode, elapsed, results


def test_smoke_runs_every_workload_correctly_in_under_a_minute(smoke):
    returncode, elapsed, results = smoke
    assert returncode == 0
    assert elapsed < 60
    assert set(results) == {(w, t) for w in WORKLOADS for t in (0, 1)}
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_workload_emits_exactly_the_listed_metrics(smoke):
    _, _, results = smoke
    for (workload, trace), result in results.items():
        listed = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed], workload
        for metric in listed:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert isinstance(emitted["value"], float)
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload
    for layer in LAYER_NAMES:  # every layer is reached by some workload
        assert any(
            result["metrics"][f"{layer}.calls_per_op"]["value"] > 0
            for (_, trace), result in results.items() if trace
        ), layer
