"""Tests of the benchmark itself: input generation, output checks, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, inputs, tracing, workloads
from perfbench.checks import Checker, cli_capture
from perfbench.oracle import ROOT
from perfbench.workloads import Request

SEED = 3


def cli_main():
    return harness.import_cli().main


def run_in(workdir: Path, argv) -> str:
    """stdout of an in-process CLI call made from ``workdir``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return cli_capture(cli_main(), argv)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    """The analyze-m8 inputs, the average request and its (correct) output."""
    workdir = tmp_path_factory.mktemp("analyze")
    requests = workloads.build("analyze-m8", SEED, workdir)
    average = next(req for req in requests if req.command == "average")
    return workdir, average, run_in(workdir, average.argv)


def test_inputs_are_seeded(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for path in (a, b, c):
        path.mkdir()
    inputs.make_analyze_data(SEED, a)
    inputs.make_analyze_data(SEED, b)
    inputs.make_analyze_data(SEED + 1, c)
    name = "analyze_m8.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / name).read_bytes() != (c / name).read_bytes()


def test_score_designs_have_full_rank(tmp_path):
    for m, path in inputs.make_score_designs(SEED, tmp_path).items():
        orders, y = inputs.read_csv(path)
        assert y is None and len(orders) == inputs.SCORE_RUNS[m]
        assert inputs.full_rank(orders, inputs.ANALYSIS_MODELS)


def test_correct_average_passes(analyze):
    workdir, average, stdout = analyze
    assert Checker(workdir).check(average, stdout) == []


def test_perturbed_estimate_column_fails(analyze):
    workdir, average, stdout = analyze
    lines = stdout.splitlines()
    col = lines[0].split(",").index("est_pwo")
    perturbed = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) + 1e-4)
        perturbed.append(",".join(cells))
    problems = Checker(workdir).check(average, "\n".join(perturbed) + "\n")
    assert any("differs from the oracle" in p for p in problems)


def test_wrong_design_objective_fails(tmp_path):
    req = workloads.build("design-search", SEED, tmp_path)[0]
    assert req.meta["m"] == 5  # the quick search
    report = json.loads(run_in(tmp_path, req.argv))
    checker = Checker(tmp_path, rescore=lambda argv: cli_capture(cli_main(), argv))
    assert checker.check(req, json.dumps(report)) == []
    report["objective"] *= 1.0 + 1e-6
    problems = checker.check(req, json.dumps(report))
    assert any("re-score" in p for p in problems)


def test_rank_deficient_design_counts_as_failed(tmp_path):
    # 30 runs at m = 7 that only ever place component 1 first: cp cannot
    # separate its position effects, so the design is rank-deficient
    orders = [order for order in inputs.all_orders(7) if order[0] == 1][:30]
    assert not inputs.full_rank(orders, ("cp",))
    inputs.write_csv(tmp_path / "bad.csv", orders)
    req = Request("criteria-bad", ("criteria", "--design", "bad.csv", "--models", "cp",
                                   "--criterion", "apv"),
                  {"m": 7, "design": "bad.csv", "models": ("cp",), "criterion": "apv",
                   "orth": False})
    run = harness.Run("score-batch", SEED, [req], tmp_path)
    harness.closed_loop(run, harness.child_env(), 0.0, Checker(tmp_path))
    assert run.attempted == 1 and run.failed == 1
    assert harness.end_to_end(run) == {}


def test_peak_rss_is_the_requests_own(tmp_path):
    # a large benchmark process must not show up in a request's peak memory
    ballast = bytearray(256 * 2**20)
    ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))
    outcome = harness.run_cli(["--version"], tmp_path, harness.child_env())
    assert outcome.returncode == 0 and outcome.stdout.startswith("oofa ")
    assert outcome.rss_mb < 128
    del ballast


def test_tail_percentile_leaves_ten_samples_above():
    assert harness.tail([1.0] * 10) is None
    pct, value, n = harness.tail([float(v) for v in range(1, 41)])
    assert (value, n) == (30.0, 40) and pct == 75.0


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# layer metrics as the benchmark's specification names them; a trailing dot
# means one metric per m or per model family
SPEC_LAYER_NAMES = (
    "cli.startup_ms", "cli.import_ms", "cli.self_ms", "perms.enumerate_ms.", "perms.orders",
    "models.full_factorial_ms.", "models.build_matrix_ms", "models.full_factorial_mb",
    "fitting.ols_fit_ms", "fitting.fits", "ranking.predict_all_ms",
    "ranking.rank_descending_ms", "averaging.average_predictions_ms",
    "criteria.factorial_moments_ms", "criteria.orthogonal_coding_ms",
    "criteria.criterion_value_ms", "search.pass_ms.", "search.sweep_ms",
    "search.candidates", "search.passes", "search.cands_per_s", "dataio.read_design_ms",
    "dataio.fit_json_ms", "dataio.table_ms", "dataio.out_mb", "trace.coverage",
    "trace.overhead",
)
SPEC_COMMAND_NAMES = (
    "fit_p50_s", "predict_p50_s", "average_p50_s", "criteria_p50_s", "design_p50_s",
    "criteria_tail_s", "design_cands_per_s", "design_objective", "failed_ratio",
)


def test_layer_metric_names_match_the_spec():
    names = [name for name, _ in tracing.PER_LAYER]
    for spec in SPEC_LAYER_NAMES:
        if spec.endswith("."):
            assert any(name.startswith(spec) for name in names), spec
        else:
            assert spec in names, spec


def test_command_metric_names_match_the_spec():
    outcomes = [harness.Outcome(f"{cmd}-{i}", cmd, 0.5 + 0.01 * i, 50.0, 0, "", "")
                for cmd in ("fit", "predict", "average", "criteria", "design")
                for i in range(12)]
    run = harness.Run("all", SEED, [], Path("."), [(1.0, harness.REF_SECONDS)], [], outcomes,
                      passes=1)
    run.candidates = {o.slot: 1000 for o in outcomes if o.command == "design"}
    run.objectives = {"design-0": 2.0, "design-1": 8.0}
    detail = harness.details(run)
    assert set(SPEC_COMMAND_NAMES) <= set(detail)
    assert detail["design_objective"] == pytest.approx(4.0)
    assert detail["failed_ratio"] == 0.0
    assert set(harness.end_to_end(run)) == {name for name, _ in harness.END_TO_END}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
