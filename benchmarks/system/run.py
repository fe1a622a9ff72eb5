"""Measure one workload once; the last output line is the JSON result.

    python3 benchmarks/system/run.py --workload serve_mixed --seed 0 \\
        --seconds 15 --trace 0

Run it from the root of a checkout: it imports ``repro`` from ``src/``
and exits with status 2 when that is missing. See README.md beside this
file for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; the benchmark measures "
            "the repro sources of a full checkout",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is seeded per process, which moves the dict-heavy
        # HTTP path by several percent between otherwise identical runs;
        # every run (and every replica it spawns) hashes the same way.
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        script = str(Path(__file__).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmarks.system.harness import main as run

    return run(sys.argv[1:])


# Replica processes start with the spawn method, which imports this file
# again under another name: nothing may run outside this guard.
if __name__ == "__main__":
    sys.exit(main())
