"""End-to-end CLI checks, run in-process through main(argv)."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oofa
from oofa import Design, enumerate_permutations, read_design, write_design
from oofa.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def m3_csv(data_dir):
    return str(data_dir / "m3_runs.csv")


@pytest.fixture
def m4_csv(data_dir):
    return str(data_dir / "m4_n24_block.csv")


@pytest.fixture
def full_factorial_m4(tmp_path):
    path = tmp_path / "ff4.csv"
    orders = [perm.order for perm in enumerate_permutations(4)]
    write_design(path, Design.from_orders(orders))
    return str(path)


# -- enumerate ---------------------------------------------------------------


def test_enumerate_lists_orders_lexicographically(capsys):
    rc, out, err = run_cli(capsys, "enumerate", "--m", "3")
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["pos_1", "pos_2", "pos_3"]
    assert len(rows) == 1 + 6
    assert rows[1] == ["1", "2", "3"]
    assert rows[-1] == ["3", "2", "1"]
    assert err.startswith("# config: enumerate ")


def test_enumerate_with_labels(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--m", "3", "--labels", "A,B,C")
    assert rc == 0
    assert csv_rows(out)[1] == ["A", "B", "C"]


def test_enumerate_rejects_m_over_capacity(capsys):
    rc, _, err = run_cli(capsys, "enumerate", "--m", "9")
    assert rc == 2
    assert "oofa: error:" in err


def test_enumerate_label_count_must_match(capsys):
    rc, _, _ = run_cli(capsys, "enumerate", "--m", "3", "--labels", "A,B")
    assert rc == 2


# -- matrix ------------------------------------------------------------------


def test_matrix_emits_signed_columns(capsys, m3_csv):
    rc, out, _ = run_cli(capsys, "matrix", "--model", "pwo", "--design", m3_csv)
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["b0", "x_1_2", "x_1_3", "x_2_3"]
    assert rows[1] == ["1", "1", "1", "1"]  # A B C keeps every pair in order
    assert {cell for row in rows[1:] for cell in row} == {"1", "-1"}


def test_matrix_taper_given_twice_is_an_error(capsys, m3_csv):
    rc, _, err = run_cli(
        capsys, "matrix", "--model", "tpwo:invh", "--taper", "invh",
        "--design", m3_csv,
    )
    assert rc == 2
    assert "not both" in err


# -- fit ---------------------------------------------------------------------


def test_fit_emits_json_summary(capsys, m3_csv, oracle_fixtures):
    rc, out, err = run_cli(capsys, "fit", "--model", "pwo", "--data", m3_csv)
    assert rc == 0
    payload = json.loads(out)
    want = oracle_fixtures["m3"]["fits"]["pwo"]
    assert payload["model"] == "pwo"
    assert payload["n"] == 6
    assert math.isclose(payload["rss"], want["rss"], rel_tol=1e-10)
    assert math.isclose(payload["aic"], want["aic"], rel_tol=1e-10)
    assert [c["term"] for c in payload["coefficients"]][:2] == ["b0", "x_1_2"]
    assert err.startswith("# config: fit ")


def test_fit_out_writes_same_json(capsys, m3_csv, tmp_path):
    out_path = tmp_path / "fit.json"
    rc, out, _ = run_cli(
        capsys, "fit", "--model", "rs2", "--data", m3_csv, "--out", str(out_path)
    )
    assert rc == 0
    assert json.loads(out_path.read_text()) == json.loads(out)


def test_fit_block_flag_needs_block_column(capsys, m3_csv):
    rc, _, err = run_cli(capsys, "fit", "--model", "pwo", "--data", m3_csv, "--block")
    assert rc == 2
    assert "block" in err


def test_fit_unknown_model(capsys, m3_csv):
    rc, _, _ = run_cli(capsys, "fit", "--model", "quux", "--data", m3_csv)
    assert rc == 2


def test_fit_missing_file(capsys, tmp_path):
    rc, _, _ = run_cli(
        capsys, "fit", "--model", "pwo", "--data", str(tmp_path / "nope.csv")
    )
    assert rc == 2


# -- average -----------------------------------------------------------------


def test_average_table_shape_and_warning(capsys, m3_csv):
    rc, out, err = run_cli(
        capsys, "average", "--data", m3_csv,
        "--models", "pwo,tpwo:invh,cp,rs2,nn",
    )
    assert rc == 0
    rows = csv_rows(out)
    header = rows[0]
    assert header[:3] == ["pos_1", "pos_2", "pos_3"]
    assert "est_pwo" in header and "rank_tpwo:invh" in header
    assert header[-3:] == ["ma_estimate", "ma_rank", "ma_se"]
    assert len(rows) == 1 + 6
    assert "saturated" in err and "nn" in err  # excluded, but still printed


def test_average_matches_oracle_fixture(capsys, m3_csv, oracle_fixtures):
    rc, out, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,tpwo:invh,cp,rs2",
    )
    assert rc == 0
    rows = csv_rows(out)
    col = rows[0].index("ma_estimate")
    got = [float(row[col]) for row in rows[1:]]
    np.testing.assert_allclose(
        got, oracle_fixtures["m3"]["model_average"]["estimates"], rtol=1e-8
    )


def test_average_top_sorts_by_ma_rank(capsys, m3_csv):
    rc, out, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,rs2", "--top", "2",
    )
    assert rc == 0
    rows = csv_rows(out)
    assert len(rows) == 1 + 2
    rank_col = rows[0].index("ma_rank")
    assert [row[rank_col] for row in rows[1:]] == ["1", "2"]


def test_average_top_out_of_range(capsys, m3_csv):
    rc, _, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo", "--top", "7"
    )
    assert rc == 2


def test_average_explicit_weights(capsys, m3_csv):
    rc, out, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,rs2",
        "--weights", "0.25,0.75",
    )
    assert rc == 0
    assert len(csv_rows(out)) == 7


def test_average_weight_errors(capsys, m3_csv):
    rc, _, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,rs2",
        "--weights", "0.5",
    )
    assert rc == 2
    rc, _, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,rs2",
        "--weights", "a,b",
    )
    assert rc == 2


@pytest.mark.parametrize("weights", ["0.5,nan", "inf,0.5"])
def test_average_rejects_non_finite_weights(capsys, m3_csv, weights):
    rc, out, err = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo,rs2", "--weights", weights,
    )
    assert rc == 2 and out == ""
    assert err.splitlines()[1:] == ["oofa: error: ValidationError: model weights must be finite"]


def test_average_all_saturated_is_numerical_failure(capsys, m3_csv):
    rc, _, err = run_cli(capsys, "average", "--data", m3_csv, "--models", "nn")
    assert rc == 1
    assert "saturated" in err


def test_average_duplicate_models_rejected(capsys, m3_csv):
    rc, _, _ = run_cli(capsys, "average", "--data", m3_csv, "--models", "pwo,pwo")
    assert rc == 2


# -- predict -----------------------------------------------------------------


@pytest.fixture
def pwo_fit_json(capsys, m3_csv, tmp_path):
    path = tmp_path / "pwo_fit.json"
    rc, _, _ = run_cli(
        capsys, "fit", "--model", "pwo", "--data", m3_csv, "--out", str(path)
    )
    assert rc == 0
    return str(path)


def test_predict_top_one_is_the_best_order(capsys, pwo_fit_json, oracle_fixtures):
    rc, out, _ = run_cli(capsys, "predict", "--fit", pwo_fit_json, "--top", "1")
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["order", "estimate", "std_error", "rank"]
    assert len(rows) == 2
    pred = oracle_fixtures["m3"]["predictions"]["pwo"]
    best = pred["ranks"].index(1)
    assert rows[1][0] == oracle_fixtures["m3"]["orders_lex"][best]
    assert math.isclose(float(rows[1][1]), pred["estimates"][best], rel_tol=1e-10)
    assert rows[1][3] == "1"


def test_predict_minimize_flips_ranking(capsys, pwo_fit_json, oracle_fixtures):
    rc, out, _ = run_cli(
        capsys, "predict", "--fit", pwo_fit_json, "--minimize", "--top", "1"
    )
    assert rc == 0
    row = csv_rows(out)[1]
    pred = oracle_fixtures["m3"]["predictions"]["pwo"]
    worst = int(np.argmin(pred["estimates"]))
    assert row[0] == oracle_fixtures["m3"]["orders_lex"][worst]


def test_predict_all_orders_match_fixture(capsys, pwo_fit_json, oracle_fixtures):
    rc, out, _ = run_cli(capsys, "predict", "--fit", pwo_fit_json)
    assert rc == 0
    rows = csv_rows(out)[1:]
    pred = oracle_fixtures["m3"]["predictions"]["pwo"]
    assert [row[0] for row in rows] == oracle_fixtures["m3"]["orders_lex"]
    np.testing.assert_allclose(
        [float(row[1]) for row in rows], pred["estimates"], rtol=1e-10
    )
    assert [int(row[3]) for row in rows] == pred["ranks"]


def test_predict_and_average_build_no_permutation_objects(capsys, m3_csv, pwo_fit_json):
    before = enumerate_permutations.cache_info()
    for argv in (
        ["predict", "--fit", pwo_fit_json, "--top", "2"],
        ["average", "--data", m3_csv, "--models", "pwo,rs2,nn", "--format", "json"],
    ):
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0, argv
    assert enumerate_permutations.cache_info() == before


def test_predict_missing_fit_file(capsys, tmp_path):
    rc, _, _ = run_cli(capsys, "predict", "--fit", str(tmp_path / "gone.json"))
    assert rc == 2


def _tampered_fit(path, tmp_path, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    out = tmp_path / "tampered.json"
    out.write_text(json.dumps(payload), encoding="utf-8")
    return str(out)


def assert_parse_error(rc, err):
    assert rc == 2
    lines = [line for line in err.splitlines() if not line.startswith("# config:")]
    assert len(lines) == 1 and lines[0].startswith("oofa: error: ParseError: "), err


def test_predict_rejects_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"model": "pwo", "coeff', encoding="utf-8")
    rc, out, err = run_cli(capsys, "predict", "--fit", str(path))
    assert_parse_error(rc, err)
    assert out == ""


def test_predict_rejects_truncated_xtx_inv(capsys, pwo_fit_json, tmp_path):
    path = _tampered_fit(pwo_fit_json, tmp_path,
                         lambda d: d.update(xtx_inv=d["xtx_inv"][:-1]))
    rc, _, err = run_cli(capsys, "predict", "--fit", path)
    assert_parse_error(rc, err)
    assert "xtx_inv is 3 x 4, expected 4 x 4" in err


def test_predict_rejects_wrong_coefficient_count(capsys, pwo_fit_json, tmp_path):
    extra = {"term": "x_3_4", "estimate": 1.0}
    path = _tampered_fit(pwo_fit_json, tmp_path,
                         lambda d: d["coefficients"].append(extra))
    rc, _, err = run_cli(capsys, "predict", "--fit", path)
    assert_parse_error(rc, err)
    assert "5 coefficients" in err and "4 terms" in err


# -- overflowing responses ---------------------------------------------------


@pytest.fixture
def huge_csv(m3_csv, tmp_path):
    """m3_runs.csv with finite responses near +-1e308."""
    rows = csv_rows(open(m3_csv, encoding="utf-8").read())
    path = tmp_path / "huge.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for k, row in enumerate(rows[1:]):
            writer.writerow(row[:-1] + [repr((-1) ** k * (0.5 + 0.1 * (k % 5)) * 1.5e308)])
    return str(path)


def assert_overflow_error(rc, out, err, model):
    assert rc == 1 and out == ""
    lines = [line for line in err.splitlines() if not line.startswith("# config:")]
    assert len(lines) == 1, err
    assert lines[0].startswith(f"oofa: error: EstimabilityError: model {model} overflows")
    assert "rescale y" in lines[0]


@pytest.mark.parametrize("model", ["pwo", "cp"])
def test_fit_overflow_is_one_error_line(capsys, huge_csv, model):
    rc, out, err = run_cli(capsys, "fit", "--model", model, "--data", huge_csv)
    assert_overflow_error(rc, out, err, model)


def test_average_overflow_names_the_cause(capsys, huge_csv):
    rc, out, err = run_cli(capsys, "average", "--data", huge_csv, "--models", "pwo,cp")
    assert_overflow_error(rc, out, err, "pwo")
    assert "Saturated" not in err


def test_predict_overflow_is_one_error_line(capsys, pwo_fit_json, tmp_path):
    def edit(payload):
        for row in payload["coefficients"]:
            row["estimate"] = 1e308
    path = _tampered_fit(pwo_fit_json, tmp_path, edit)
    rc, out, err = run_cli(capsys, "predict", "--fit", path)
    assert rc == 1 and out == ""
    assert err.splitlines()[1:] == [
        "oofa: error: EstimabilityError: predictions of model pwo overflow; "
        "rescale y, for example divide it by a power of ten"
    ]


@pytest.mark.parametrize("field", ["coefficients", "rss", "xtx_inv"])
def test_predict_rejects_non_finite_fit_values(capsys, pwo_fit_json, tmp_path, field):
    def edit(payload):
        if field == "coefficients":
            payload["coefficients"][1]["estimate"] = math.inf
        elif field == "rss":
            payload["rss"] = math.inf
        else:
            payload["xtx_inv"][0][0] = math.nan
    rc, out, err = run_cli(capsys, "predict", "--fit", _tampered_fit(pwo_fit_json, tmp_path, edit))
    assert_parse_error(rc, err)
    assert out == "" and "not finite" in err


def test_non_utf8_design_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("pos_1,pos_2,pos_3,y\nA,B,C,1\n\u00c4,B,C,2\n".encode("latin-1"))
    rc, _, err = run_cli(capsys, "fit", "--model", "pwo", "--data", str(path))
    assert_parse_error(rc, err)
    assert "UTF-8" in err


def test_importing_the_cli_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(oofa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import oofa.cli, sys; assert 'scipy' not in sys.modules"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# -- criteria ----------------------------------------------------------------


def test_criteria_full_factorial_values(capsys, full_factorial_m4):
    rc, out, err = run_cli(
        capsys, "criteria", "--design", full_factorial_m4,
        "--models", "pwo,cp,rs2,nn", "--criterion", "apv",
    )
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["model", "criterion", "value", "orientation"]
    values = {row[0]: float(row[2]) for row in rows[1:]}
    assert math.isclose(values["pwo"], 12 / 23, rel_tol=1e-10)
    assert math.isclose(values["cp"], 18 / 23, rel_tol=1e-10)
    assert math.isclose(values["rs2"], 16 / 23, rel_tol=1e-10)
    assert math.isclose(values["nn"], 22 / 23, rel_tol=1e-10)
    assert all(row[3] == "min" for row in rows[1:])
    assert err.startswith("# config: criteria ")


def test_criteria_d_is_maximized(capsys, full_factorial_m4):
    rc, out, _ = run_cli(
        capsys, "criteria", "--design", full_factorial_m4,
        "--models", "pwo", "--criterion", "d",
    )
    assert rc == 0
    row = csv_rows(out)[1]
    assert row[3] == "max"
    assert float(row[2]) > 0


def test_criteria_orth_leaves_apv_alone(capsys, full_factorial_m4):
    values = []
    for extra in ([], ["--orth"]):
        rc, out, _ = run_cli(
            capsys, "criteria", "--design", full_factorial_m4,
            "--models", "rs2", "--criterion", "apv", *extra,
        )
        assert rc == 0
        values.append(float(csv_rows(out)[1][2]))
    assert math.isclose(values[0], values[1], rel_tol=1e-10)


def test_criteria_rank_deficient_design_fails_numerically(capsys, tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("pos_1,pos_2,pos_3\nA,B,C\nB,A,C\n")
    rc, _, err = run_cli(
        capsys, "criteria", "--design", str(path), "--models", "pwo",
        "--criterion", "apv",
    )
    assert rc == 1
    assert "pwo" in err


# -- design ------------------------------------------------------------------


def test_design_search_is_deterministic(capsys, tmp_path):
    argv = ["design", "--m", "3", "--runs", "8", "--models", "pwo",
            "--restarts", "3", "--seed", "11"]
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["m"] == 3 and report["runs"] == 8
    assert report["seed"] == 11
    assert len(report["design"]) == 8
    assert report["passes"] == len(report["objective_trace"]) - 1
    assert math.isclose(min(report["objective_trace"]), report["objective"])
    assert set(report["member_values"]) == {"pwo"}


def test_design_out_round_trips(capsys, tmp_path):
    path = tmp_path / "found.csv"
    rc, out, _ = run_cli(
        capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo",
        "--restarts", "2", "--seed", "3", "--out", str(path),
    )
    assert rc == 0
    assert path.read_text().splitlines()[0] == "run,pos_1,pos_2,pos_3"
    design = read_design(path)
    report = json.loads(out)
    # re-reading renumbers components by first appearance, so compare the
    # label sequences (the searched design uses the default labels 1..m)
    labels = design.component_labels
    got = [[labels[c - 1] for c in run.order] for run in design.runs]
    assert got == [[str(c) for c in order] for order in report["design"]]


def test_design_seed_env_fallback(capsys, monkeypatch):
    argv = ["design", "--m", "3", "--runs", "8", "--models", "pwo",
            "--restarts", "2"]
    monkeypatch.setenv("OOFA_SEED", "77")
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["seed"] == 77
    # explicit --seed wins over the environment
    rc, out, _ = run_cli(capsys, *argv + ["--seed", "5"])
    assert json.loads(out)["seed"] == 5


def test_design_negative_seed_is_rejected(capsys):
    rc, out, err = run_cli(
        capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo", "--seed", "-1",
    )
    assert rc == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("oofa: error:")]
    assert len(errors) == 1 and "seed" in errors[0]
    assert "Traceback" not in err


def test_design_non_integer_env_seed_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv("OOFA_SEED", "abc")
    rc, out, err = run_cli(capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo")
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        "oofa: error: ValidationError: OOFA_SEED must be an integer, got 'abc'"
    ]


def test_infinite_sigma2_is_rejected(capsys, full_factorial_m4):
    for argv in (
        ["criteria", "--design", full_factorial_m4, "--models", "pwo", "--criterion", "apv"],
        ["design", "--m", "3", "--runs", "8", "--models", "pwo"],
    ):
        rc, out, err = run_cli(capsys, *argv, "--sigma2", "inf")
        assert rc == 2 and out == ""
        assert err.splitlines()[-1].startswith("oofa: error: ValidationError: sigma2")


def test_overflowing_criterion_value_fails_numerically(capsys, full_factorial_m4):
    for argv in (
        ["criteria", "--design", full_factorial_m4, "--models", "pwo", "--criterion", "d"],
        ["design", "--m", "3", "--runs", "8", "--models", "pwo", "--criterion", "d"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(capsys, *argv, "--sigma2", "1e308")
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("# config:")
        assert lines[1].startswith("oofa: error: EstimabilityError: criterion d with sigma2 = 1e+308")


def test_design_too_few_runs(capsys):
    rc, _, err = run_cli(
        capsys, "design", "--m", "3", "--runs", "3", "--models", "pwo",
    )
    assert rc == 2
    assert "runs" in err


def test_design_compound_weights(capsys):
    rc, out, _ = run_cli(
        capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo,rs2",
        "--weights", "0.4,0.6", "--restarts", "2", "--seed", "1",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["weights"] == [0.4, 0.6]
    assert set(report["member_values"]) == {"pwo", "rs2"}


@pytest.mark.parametrize("weights", ["0.5,nan", "inf,0.5"])
def test_design_rejects_non_finite_weights(capsys, weights):
    rc, out, err = run_cli(
        capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo,rs2",
        "--weights", weights,
    )
    assert rc == 2 and out == ""
    assert err.splitlines()[-1] == "oofa: error: ValidationError: compound weights must be finite"


def test_design_zero_weight_member_does_not_warn(capsys):
    # nn at m = 3 is inestimable on most 8-run designs, so its weight of 0
    # meets +inf scores throughout the search
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(
            capsys, "design", "--m", "3", "--runs", "8", "--models", "pwo,nn",
            "--weights", "1,0", "--restarts", "2", "--seed", "3",
        )
    assert rc == 0
    assert len(err.splitlines()) == 1
    report = json.loads(out)
    assert report["objective"] == report["member_values"]["pwo"]


# -- surface -----------------------------------------------------------------


def test_surface_grid_rows_and_best_cell(capsys, m3_csv, oracle_fixtures):
    rc, out, _ = run_cli(
        capsys, "surface", "--data", m3_csv, "--grid", "3",
    )
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["p1", "p2", "eta", "kind", "best"]
    grid = [row for row in rows[1:] if row[3] == "grid"]
    design = [row for row in rows[1:] if row[3] == "design"]
    assert len(grid) == 9 and len(design) == 6
    best = [row for row in grid if row[4] == "1"]
    assert len(best) == 1
    want_p1, want_p2 = oracle_fixtures["m3"]["surface"]["best_point"]
    assert math.isclose(float(best[0][0]), want_p1, rel_tol=1e-10)
    assert math.isclose(float(best[0][1]), want_p2, rel_tol=1e-10)
    fixture_grid = oracle_fixtures["m3"]["surface"]["grid"]
    np.testing.assert_allclose(
        [[float(v) for v in row[:3]] for row in grid], fixture_grid, rtol=1e-8
    )


def test_surface_rejects_other_m(capsys, m4_csv):
    rc, _, err = run_cli(capsys, "surface", "--data", m4_csv, "--grid", "3")
    assert rc == 2
    assert "m = 3" in err


def test_surface_rejects_other_models(capsys, m3_csv):
    rc, _, _ = run_cli(
        capsys, "surface", "--data", m3_csv, "--grid", "3", "--model", "pwo"
    )
    assert rc == 2


def test_surface_grid_must_be_at_least_two(capsys, m3_csv):
    rc, _, _ = run_cli(capsys, "surface", "--data", m3_csv, "--grid", "1")
    assert rc == 2


# -- global behaviour ---------------------------------------------------------


def test_every_command_logs_config(capsys, m3_csv):
    for argv in (
        ["enumerate", "--m", "3"],
        ["matrix", "--model", "pwo", "--design", m3_csv],
        ["fit", "--model", "pwo", "--data", m3_csv],
        ["average", "--data", m3_csv, "--models", "pwo"],
        ["criteria", "--design", m3_csv, "--models", "pwo", "--criterion", "av"],
        ["surface", "--data", m3_csv, "--grid", "2"],
    ):
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 0, argv
        assert err.splitlines()[0].startswith(f"# config: {argv[0]} "), argv


def test_json_format_output(capsys, m3_csv):
    rc, out, _ = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo",
        "--format", "json",
    )
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert list(rows[0])[:3] == ["pos_1", "pos_2", "pos_3"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "oofa" in capsys.readouterr().out
