"""BENCH_trajectory.json — the repo's headline benchmark, one entry per PR.

Each benchmark script measures one PR in depth; this module keeps the
*longitudinal* record: for every PR, the single number (or gate) that PR
was about, so a reader — or a regression hunt — can see the performance
story end to end without replaying five benchmark suites.

The file lives at the repository root (``BENCH_trajectory.json``) as a
JSON list sorted by PR number::

    [{"pr": 4, "title": ..., "headline": ..., "metrics": {...},
      "source": "benchmarks/bench_serve.py"}, ...]

``record()`` is idempotent per PR — benchmarks call it on every full
(non-``--smoke``) run and the entry is replaced, not duplicated — so
re-running a benchmark refreshes that PR's numbers in place, and a
smoke run (CI, a local check) leaves the file as it is. Machine-dependent figures (throughput,
latency) include enough environment context (``cpu_count``) to be read
honestly across machines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"


def load(path: Path = TRAJECTORY_PATH) -> list[dict[str, Any]]:
    """The trajectory entries, sorted by PR number ([] if absent)."""
    if not path.exists():
        return []
    entries = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(entries, list):
        raise ValueError(f"{path} must hold a JSON list, got {type(entries).__name__}")
    return sorted(entries, key=lambda e: e.get("pr", 0))


def record(
    pr: int,
    title: str,
    headline: str,
    metrics: dict[str, Any] | None = None,
    source: str | None = None,
    path: Path = TRAJECTORY_PATH,
) -> list[dict[str, Any]]:
    """Insert or replace PR ``pr``'s entry and rewrite the file.

    Returns the full (sorted) trajectory after the write.
    """
    entry: dict[str, Any] = {"pr": int(pr), "title": title, "headline": headline}
    if metrics:
        entry["metrics"] = metrics
    if source:
        entry["source"] = source
    entries = [e for e in load(path) if e.get("pr") != entry["pr"]]
    entries.append(entry)
    entries.sort(key=lambda e: e.get("pr", 0))
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return entries
