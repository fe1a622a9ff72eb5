"""One system benchmark: seeded workloads across the Session, HTTP and cluster tiers.

``run.py`` measures one workload once in one process and prints a JSON
result line; ``python -m benchmarks.system`` runs every workload in
fresh child processes and prints the end-to-end and per-layer tables.
See README.md in this directory.
"""
