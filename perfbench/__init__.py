"""Benchmark for the oofa command line: seeded workloads, output checks, traced replay.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``--workload all`` runs every workload in turn.
"""
