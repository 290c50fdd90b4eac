"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload analyze-m8 --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the untraced closed
loop and prints the end-to-end metrics; ``--trace 1`` runs one untraced pass,
then the traced replay and layer probes, and prints the per-layer metrics.
The human-readable report goes to stderr; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# BLAS thread counts are read when numpy loads, so pin them before any import.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.oracle import ROOT, missing_program  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the closed loop, per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import platform
    import subprocess

    import numpy
    import scipy

    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import harness, tracing
    from perfbench.checks import Checker, cli_capture

    env = harness.child_env()
    run = harness.setup(workload, seed, env)
    try:
        checker = Checker(run.workdir, rescore=lambda argv: cli_capture(
            harness.import_cli().main, argv))
        # the traced run needs one untraced pass to compare against
        harness.closed_loop(run, env, 0.0 if trace else seconds, checker,
                            setups=harness.SETUP_REPEATS - 1)
        problems = [f"{o.slot}: {p}" for o in run.warmups + run.outcomes for p in o.problems]
        detail = harness.details(run)
        attempted, failed = run.attempted, run.failed
        if trace:
            metrics = {}
            if run.good():
                metrics, extra, replay_problems = tracing.per_layer(run, env)
                detail.update(extra)
                problems += replay_problems
                attempted += len(run.requests)
                failed += len(replay_problems)
            units = dict(tracing.PER_LAYER)
        else:
            metrics = harness.end_to_end(run)
            units = dict(harness.END_TO_END)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    return {
        "workload": workload,
        "problems": problems,
        "detail": detail,
        "result": {
            "correct": not problems and set(metrics) == set(units),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics},
        },
    }


def report(outcome: dict) -> None:
    err = sys.stderr
    print(f"## {outcome['workload']}", file=err)
    for name, entry in outcome["result"]["metrics"].items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}", file=err)
    for name, value in outcome["detail"].items():
        print(f"  {name:40s} {json.dumps(value)}", file=err)
    for problem in outcome["problems"]:
        print(f"  FAILED {problem}", file=err)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_program()
    if missing:
        print(f"perfbench: cannot run: missing {', '.join(missing)} "
              "(run from the root of an oofa checkout)", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    print(f"# env: {json.dumps(environment(args.seed))}", file=sys.stderr)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(outcome)
            outcomes.append(outcome)
    finally:
        from perfbench.harness import WORK_ROOT

        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if len(outcomes) == 1:
        result = outcomes[0]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outcomes),
            "attempted": sum(o["result"]["attempted"] for o in outcomes),
            "failed": sum(o["result"]["failed"] for o in outcomes),
            "metrics": {f"{o['workload']}/{name}": entry for o in outcomes
                        for name, entry in o["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
