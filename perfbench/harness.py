"""Untraced closed-loop runs: each request is a fresh ``python -m oofa`` process.

One client issues the workload's requests one after another, repeating the
pass until the requests have been busy for the run length; the request in
flight when time runs out finishes, and a run always completes at least one
pass.  Output checks run between requests, outside the timed region: the
first output of each request slot is checked in full, later ones must be
byte-identical to it (every request is deterministic for its inputs).

Gated times are scaled to a reference host speed.  On a shared host, other
tenants slow everything by up to 1.5x for stretches of seconds to minutes,
longer than a run.  So a fixed CPU-bound loop that does not touch the
package is timed before and after every request and set-up, and each
measured time is multiplied by REF_SECONDS / (the loop's time around it).
A change to the package cannot move the loop; the raw times are reported
alongside.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import workloads
from .checks import Checker, common_problems
from .oracle import ROOT, SRC

# Child processes and the in-process replay use one BLAS thread.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
WORK_ROOT = ROOT / ".perfbench_work"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
TAIL_SAMPLES = 10  # samples a tail percentile must leave above it
REF_SECONDS = 0.04  # the reference loop's time on an unloaded 2-core x86 host

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    """One finished request: wall time, peak memory and what it printed."""

    slot: str
    command: str
    seconds: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)
    ref: float = REF_SECONDS  # reference loop time around the request

    @property
    def scaled(self) -> float:
        return self.seconds * REF_SECONDS / self.ref


@functools.cache
def _ref_matrix() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(120, 120))


def host_reference() -> float:
    """Seconds a fixed loop of LAPACK calls and interpreted Python takes now."""
    matrix = _ref_matrix()
    start = time.perf_counter()
    for _ in range(10):
        np.linalg.svd(matrix)
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def run_cli(argv, workdir: Path, env: dict, slot: str = "") -> Outcome:
    """Run ``python -m oofa *argv`` in ``workdir`` through the launcher."""
    out_path, err_path, report = workdir / ".stdout", workdir / ".stderr", workdir / ".report"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-S", str(LAUNCHER), str(report), sys.executable, "-m", "oofa",
             *argv],
            cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher exited {proc.returncode}: {err_path.read_text()}")
    done = json.loads(report.read_text(encoding="utf-8"))
    return Outcome(
        slot, argv[0] if argv else "", done["seconds"], done["maxrss_kb"] / 1024.0,
        done["returncode"],
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def import_cli():
    """The package's ``cli`` module, imported in this process from ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from oofa import cli

    return cli


@dataclass
class Run:
    """Everything one run of a workload measured."""

    workload: str
    seed: int
    requests: list
    workdir: Path
    setups: list[tuple[float, float]] = field(default_factory=list)  # (seconds, ref)
    warmups: list[Outcome] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    passes: int = 0
    candidates: dict = field(default_factory=dict)  # slot -> count per request
    objectives: dict = field(default_factory=dict)  # slot -> reported objective

    @property
    def attempted(self) -> int:
        return len(self.warmups) + len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.warmups + self.outcomes if o.problems)

    def good(self) -> list[Outcome]:
        return [o for o in self.outcomes if not o.problems]


def set_up(workload: str, seed: int, env: dict):
    """Generate the inputs in a fresh directory and issue one untimed warm-up
    request; returns (directory, one pass, (seconds, reference), warm-up)."""
    before = host_reference()
    start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    requests = workloads.build(workload, seed, workdir)
    warm = run_cli(requests[0].argv, workdir, env, "warm-up")
    seconds = time.perf_counter() - start
    warm.problems = common_problems(warm.returncode, warm.stderr)
    return workdir, requests, (seconds, (before + host_reference()) / 2), warm


def setup(workload: str, seed: int, env: dict) -> Run:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir, requests, timing, warm = set_up(workload, seed, env)
    return Run(workload, seed, requests, workdir, [timing], [warm])


def repeat_setup(run: Run, env: dict) -> None:
    """One more set-up, in a directory of its own, for the setup_s median."""
    workdir, _, timing, warm = set_up(run.workload, run.seed, env)
    shutil.rmtree(workdir)
    run.setups.append(timing)
    run.warmups.append(warm)


def closed_loop(run: Run, env: dict, seconds: float, checker: Checker, setups: int = 0) -> None:
    """Repeat passes until requests have been busy ``seconds``; at least one pass.

    ``setups`` more set-ups are made, one after each pass and the rest at the
    end, so that their median spans the run rather than one stretch of host
    load at its start.
    """
    digests: dict[str, str] = {}
    busy = 0.0
    ref = host_reference()
    while run.passes == 0 or busy < seconds:
        for req in run.requests:
            if run.passes >= 1 and busy >= seconds:
                break
            outcome = run_cli(req.argv, run.workdir, env, req.slot)
            busy += outcome.seconds
            after = host_reference()
            outcome.ref, ref = (ref + after) / 2, after
            outcome.problems = common_problems(outcome.returncode, outcome.stderr)
            if not outcome.problems:
                digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
                if req.slot not in digests:
                    outcome.problems = checker.check(req, outcome.stdout)
                    if not outcome.problems:
                        digests[req.slot] = digest
                        record_design(run, req, outcome.stdout)
                elif digests[req.slot] != digest:
                    outcome.problems = ["output differs from the first pass"]
            run.outcomes.append(outcome)
        else:
            run.passes += 1
            if setups > 0:
                repeat_setup(run, env)
                setups -= 1
                ref = host_reference()
    for _ in range(setups):
        repeat_setup(run, env)


def record_design(run: Run, req, stdout: str) -> None:
    if req.command == "design":
        report = json.loads(stdout)
        run.candidates[req.slot] = workloads.design_candidates(req.meta, report)
        run.objectives[req.slot] = report["objective"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) of the highest percentile that still
    leaves TAIL_SAMPLES samples above it, or None with too few samples."""
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    k = n - TAIL_SAMPLES  # 1-based rank of the tail sample
    return 100.0 * k / n, sorted(values)[k - 1], n


def slot_latencies(run: Run, statistic, scaled: bool = False) -> dict[str, float]:
    """``statistic`` of each request slot's latencies over the run's passes."""
    by_slot: dict[str, list[float]] = {}
    for o in run.good():
        by_slot.setdefault(o.slot, []).append(o.scaled if scaled else o.seconds)
    return {slot: statistic(times) for slot, times in by_slot.items()}


def end_to_end(run: Run) -> dict[str, float]:
    """The gated metrics, in seconds at the reference host speed; every
    workload reports all of them."""
    if not run.good():
        return {}
    return {
        "setup_s": statistics.median(s * REF_SECONDS / ref for s, ref in run.setups),
        "run_s": sum(slot_latencies(run, statistics.median, scaled=True).values()),
        "peak_rss_mb": max(o.rss_mb for o in run.warmups + run.outcomes),
    }


def details(run: Run) -> dict:
    """Per-command figures for the report; not gated, present where they apply."""
    good = run.good()
    out: dict = {}
    for command in sorted({o.command for o in good}):
        times = [o.seconds for o in good if o.command == command]
        out[f"{command}_p50_s"] = statistics.median(times)
    criteria_tail = tail([o.seconds for o in good if o.command == "criteria"])
    if criteria_tail:
        pct, value, n = criteria_tail
        out["criteria_tail_s"] = {"value": value, "percentile": pct, "samples": n}
    if run.candidates:
        design_time = sum(o.seconds for o in good if o.command == "design")
        count = sum(run.candidates[o.slot] for o in good if o.command == "design")
        out["design_cands_per_s"] = count / design_time
        objectives = list(run.objectives.values())
        out["design_objective"] = math.exp(sum(map(math.log, objectives)) / len(objectives))
    out["setup_raw_s"] = statistics.median(s for s, _ in run.setups)
    out["run_raw_s"] = sum(slot_latencies(run, statistics.median).values())
    out["host_ref_ms"] = 1e3 * statistics.median(o.ref for o in good)
    out["latency_s"] = slot_latencies(run, lambda times: [round(t, 4) for t in times])
    out["failed_ratio"] = run.failed / run.attempted
    out["requests"] = run.attempted
    out["passes"] = run.passes
    return out
