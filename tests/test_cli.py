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
from oofa import Design, enumerate_permutations, parse_model, read_design, write_design
from oofa.cli import MAX_GRID, build_parser, main
from oofa.dataio import fit_from_dict, fit_to_dict, to_json
from oofa.search import MAX_RUNS


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


@pytest.mark.parametrize("m, labels", [("3", "A,A,B"), ("2", ","), ("3", "A, ,B"), ("2", "A, A ")])
def test_enumerate_labels_must_be_distinct_and_non_empty(capsys, m, labels):
    rc, out, err = run_cli(capsys, "enumerate", "--m", m, "--labels", labels)
    assert rc == 2 and out == ""
    assert err.splitlines()[-1].startswith("oofa: error: ValidationError: --labels must be")


# -- matrix ------------------------------------------------------------------


def test_matrix_emits_signed_columns(capsys, m3_csv):
    rc, out, _ = run_cli(capsys, "matrix", "--model", "pwo", "--design", m3_csv)
    assert rc == 0
    rows = csv_rows(out)
    assert rows[0] == ["b0", "x_1_2", "x_1_3", "x_2_3"]
    assert rows[1] == ["1", "1", "1", "1"]  # A B C keeps every pair in order
    assert {cell for row in rows[1:] for cell in row} == {"1", "-1"}


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


@pytest.mark.parametrize("argv", [
    ["fit", "--model", "pwo", "--data", None],
    ["design", "--m", "3", "--runs", "8", "--models", "pwo", "--restarts", "1"],
], ids=["fit", "design"])
def test_an_out_that_cannot_be_opened_leaves_stdout_empty(capsys, m3_csv, tmp_path, argv):
    """``--out`` is written before stdout, so a request whose ``--out`` fails
    prints no result, only its error."""
    argv = [m3_csv if arg is None else arg for arg in argv]
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "missing" / "out"))
    assert rc == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("oofa: error: FileNotFoundError: ")


def test_geom_ratio_keeps_every_digit(capsys, m3_csv, full_factorial_m4, tmp_path):
    label = "tpwo:geom=0.1234567890123456"
    path = tmp_path / "geom_fit.json"
    rc, _, _ = run_cli(capsys, "fit", "--model", label, "--data", m3_csv, "--out", str(path))
    assert rc == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["taper"] == "geom=0.1234567890123456"
    assert fit_from_dict(payload).spec == parse_model(label)
    rc, _, _ = run_cli(capsys, "predict", "--fit", str(path), "--top", "1")
    assert rc == 0
    rc, out, err = run_cli(
        capsys, "criteria", "--design", full_factorial_m4, "--criterion", "d",
        "--models", "tpwo:geom=0.1234567890123,tpwo:geom=0.1234567890124",
    )
    assert rc == 0, err
    assert len(csv_rows(out)) == 3


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
    rc, _, err = run_cli(
        capsys, "average", "--data", m3_csv, "--models", "pwo", "--top", "7"
    )
    assert rc == 2
    assert "oofa: error: ValidationError: --top must be in 1..6, got 7" in err


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


def test_no_command_builds_permutation_objects(capsys, monkeypatch, m3_csv, m4_csv,
                                               pwo_fit_json, tmp_path):
    """Every command works on order arrays: Permutation is an adaptor type."""
    built = []
    original = oofa.Permutation.__init__
    monkeypatch.setattr(oofa.Permutation, "__init__",
                        lambda self, order: built.append(self) or original(self, order))
    assert oofa.Permutation((2, 1)) and len(built) == 1  # the count sees a construction
    before = enumerate_permutations.cache_info()
    commands = {
        "enumerate": ["enumerate", "--m", "4", "--labels", "a,b,c,d"],
        "matrix": ["matrix", "--model", "cp", "--design", m4_csv],
        "fit": ["fit", "--model", "rs2", "--data", m4_csv, "--block",
                "--out", str(tmp_path / "fit.json")],
        "predict": ["predict", "--fit", pwo_fit_json, "--top", "2"],
        "average": ["average", "--data", m3_csv, "--models", "pwo,rs2,nn", "--format", "json"],
        "criteria": ["criteria", "--design", m4_csv, "--models", "pwo,cp", "--criterion", "apv",
                     "--orth"],
        "surface": ["surface", "--data", m3_csv, "--grid", "3"],
        "design": ["design", "--m", "4", "--runs", "12", "--models", "pwo", "--restarts", "1",
                   "--max-passes", "1", "--out", str(tmp_path / "d4.csv")],
    }
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(commands) == set(sub.choices)
    for name, argv in commands.items():
        rc, _, _ = run_cli(capsys, *argv)
        assert rc == 0, name
        assert len(built) == 1, name
    assert enumerate_permutations.cache_info() == before


@pytest.mark.parametrize("top", ["0", "7"])
def test_predict_top_out_of_range(capsys, pwo_fit_json, top):
    """Worded as average words it: the flag, not the library's ``k``."""
    rc, out, err = run_cli(capsys, "predict", "--fit", pwo_fit_json, "--top", top)
    assert rc == 2 and out == ""
    assert f"oofa: error: ValidationError: --top must be in 1..6, got {top}" in err


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


@pytest.mark.parametrize("text", ["[1, 2]", '"pwo"', "3", "null"])
def test_predict_rejects_a_fit_that_is_not_an_object(capsys, tmp_path, text):
    path = tmp_path / "not_an_object.json"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run_cli(capsys, "predict", "--fit", str(path))
    assert_parse_error(rc, err)
    assert "oofa: error: ParseError: fit JSON must be an object" in err
    assert out == ""


#: Nested fit JSON fields of the wrong type, and the field each error names.
BAD_NESTED_FIELDS = {
    "data-array": (lambda d: d.update(data=[1, 2], coefficients=[]), "data must be an object"),
    "orders-number": (lambda d: d["data"].update(orders=5), "data.orders must be an array"),
    "order-number": (lambda d: d["data"]["orders"].__setitem__(2, 7),
                     "data.orders[2] must be an array"),
    "coefficients-object": (lambda d: d.update(coefficients={"term": "x"}),
                            "coefficients must be an array"),
    "coefficient-number": (lambda d: d.update(coefficients=[1]),
                           "coefficients[0] must be an object"),
}


@pytest.mark.parametrize("case", BAD_NESTED_FIELDS)
def test_predict_names_a_nested_field_of_the_wrong_type(capsys, pwo_fit_json, tmp_path, case):
    edit, message = BAD_NESTED_FIELDS[case]
    rc, out, err = run_cli(capsys, "predict", "--fit", _tampered_fit(pwo_fit_json, tmp_path, edit))
    assert_parse_error(rc, err)
    assert f"oofa: error: ParseError: malformed fit JSON: {message}\n" in err
    assert out == ""


#: Edits to fit JSON fields that predict does not read: it refits from the stored data.
UNREAD_FIELD_EDITS = {
    "xtx_inv-truncated": lambda d: d.update(xtx_inv=d["xtx_inv"][:-1]),
    "xtx_inv-nan": lambda d: d["xtx_inv"][0].__setitem__(0, math.nan),
    "rss-inf": lambda d: d.update(rss=math.inf),
    "sigma2_hat-x100": lambda d: d.update(sigma2_hat=100 * d["sigma2_hat"]),
    "aic": lambda d: d.update(aic=d["aic"] - 50),
}


@pytest.mark.parametrize("edit", UNREAD_FIELD_EDITS)
def test_predict_ignores_fields_it_does_not_read(capsys, pwo_fit_json, tmp_path, edit):
    path = _tampered_fit(pwo_fit_json, tmp_path, UNREAD_FIELD_EDITS[edit])
    for extra in ([], ["--top", "2", "--format", "json"]):
        _, expected, _ = run_cli(capsys, "predict", "--fit", pwo_fit_json, *extra)
        rc, out, _ = run_cli(capsys, "predict", "--fit", path, *extra)
        assert rc == 0 and out == expected


@pytest.mark.parametrize("index", range(4))
def test_predict_refuses_an_edited_coefficient(capsys, pwo_fit_json, tmp_path, index):
    def edit(payload):
        payload["coefficients"][index]["estimate"] *= 1 + 1e-6
    rc, out, err = run_cli(capsys, "predict", "--fit", _tampered_fit(pwo_fit_json, tmp_path, edit))
    assert_parse_error(rc, err)
    assert out == "" and "disagree with a refit" in err


def assert_validation_error(rc, err, message):
    assert rc == 2
    lines = [line for line in err.splitlines() if not line.startswith("# config:")]
    assert lines == [f"oofa: error: ValidationError: {message}"], err


def _first_component_replaced(value):
    def edit(payload):
        order = payload["data"]["orders"][0]
        order[order.index(1)] = value
    return edit


#: Fit files whose fields hold values of the wrong JSON type, and the end of
#: the one error line each must give.
BAD_DATA_TYPES = {
    "labels-string": (lambda d: d["data"].update(labels="ABC"),
                      "data.labels must be an array"),
    "labels-numbers": (lambda d: d["data"].update(labels=[1, 2, 3]),
                       "data.labels must be an array of strings"),
    "block-string": (lambda d: d["data"].update(block="xxxxxx"), "data.block must be an array"),
    "block-long-string": (lambda d: d["data"].update(block="x" * 60),
                          "data.block must be an array"),
    "block-numbers": (lambda d: d["data"].update(block=[1, 1, 1, 2, 2, 2]),
                      "data.block must be an array of strings"),
    "order-true": (_first_component_replaced(True), "data.orders[0] must be an array of integers"),
    "order-float": (_first_component_replaced(1.0),
                    "data.orders[0] must be an array of integers"),
    "order-string": (_first_component_replaced("1"),
                     "data.orders[0] must be an array of integers"),
    "y-bool": (lambda d: d["data"]["y"].__setitem__(0, True), "data.y must be an array of numbers"),
    "y-string": (lambda d: d["data"]["y"].__setitem__(2, "1.5"),
                 "data.y must be an array of numbers"),
    "y-object": (lambda d: d["data"].update(y={"a": 1}), "data.y must be an array"),
    # a JSON integer beyond the float range
    "y-huge": (lambda d: d["data"]["y"].__setitem__(0, 10**400),
               "missing or bad field int too large to convert to float"),
    "estimate-huge": (lambda d: d["coefficients"][0].update(estimate=10**400),
                      "missing or bad field int too large to convert to float"),
}


@pytest.mark.parametrize("case", BAD_DATA_TYPES)
def test_predict_refuses_fit_fields_of_the_wrong_type(capsys, pwo_fit_json, tmp_path, case):
    edit, message = BAD_DATA_TYPES[case]
    rc, out, err = run_cli(capsys, "predict", "--fit", _tampered_fit(pwo_fit_json, tmp_path, edit))
    assert_parse_error(rc, err)
    assert err.endswith(f"oofa: error: ParseError: malformed fit JSON: {message}\n")
    assert out == ""


#: One value of each JSON type.
JSON_VALUES = {"string": "x", "number": 1.5, "bool": True, "null": None, "array": [],
               "object": {}}

#: Each field of a blocked tpwo fit file: its path of keys and indices, the
#: JSON types it may hold, and the field the error line names (for an item of
#: an array, the array).  An item of an order may hold no type of
#: ``JSON_VALUES``: 1.5 is a number, not an integer.
FIT_FIELDS = {
    "model": (("model",), {"string"}, "model"),
    "taper": (("taper",), {"string", "null"}, "taper"),
    "coefficients": (("coefficients",), {"array"}, "coefficients"),
    "coefficients[0]": (("coefficients", 0), {"object"}, "coefficients[0]"),
    "coefficients[0].term": (("coefficients", 0, "term"), {"string"}, "coefficients[0].term"),
    "coefficients[0].estimate": (("coefficients", 0, "estimate"), {"number"},
                                 "coefficients[0].estimate"),
    "data": (("data",), {"object"}, "data"),
    "data.orders": (("data", "orders"), {"array"}, "data.orders"),
    "data.orders[0]": (("data", "orders", 0), {"array"}, "data.orders[0]"),
    "data.orders[0][0]": (("data", "orders", 0, 0), set(), "data.orders[0]"),
    "data.block": (("data", "block"), {"array", "null"}, "data.block"),
    "data.block[0]": (("data", "block", 0), {"string"}, "data.block"),
    "data.labels": (("data", "labels"), {"array"}, "data.labels"),
    "data.labels[0]": (("data", "labels", 0), {"string"}, "data.labels"),
    "data.y": (("data", "y"), {"array"}, "data.y"),
    "data.y[0]": (("data", "y", 0), {"number"}, "data.y"),
}


@pytest.fixture
def blocked_tpwo_fit_json(capsys, m4_csv, tmp_path):
    path = tmp_path / "tpwo_block_fit.json"
    rc, _, _ = run_cli(capsys, "fit", "--model", "tpwo:invh", "--data", m4_csv, "--block",
                       "--out", str(path))
    assert rc == 0
    rc, _, _ = run_cli(capsys, "predict", "--fit", str(path), "--top", "1")
    assert rc == 0
    return str(path)


def _field_set(path, value):
    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value
    return edit


@pytest.mark.parametrize("field,kind", [(field, kind) for field, (_, ok, _) in FIT_FIELDS.items()
                                        for kind in JSON_VALUES if kind not in ok])
def test_predict_names_each_fit_field_of_a_wrong_json_type(capsys, blocked_tpwo_fit_json,
                                                           tmp_path, field, kind):
    path, _, name = FIT_FIELDS[field]
    tampered = _tampered_fit(blocked_tpwo_fit_json, tmp_path,
                             _field_set(path, JSON_VALUES[kind]))
    rc, out, err = run_cli(capsys, "predict", "--fit", tampered)
    assert_parse_error(rc, err)
    assert f"oofa: error: ParseError: malformed fit JSON: {name} must be " in err
    assert out == ""


@pytest.mark.parametrize("labels", [["A", "A", "B"], ["A", "", "B"], ["A", "B"]])
def test_predict_refuses_fit_labels_that_are_not_distinct_names(capsys, pwo_fit_json, tmp_path,
                                                                 labels):
    path = _tampered_fit(pwo_fit_json, tmp_path, lambda d: d["data"].update(labels=labels))
    rc, out, err = run_cli(capsys, "predict", "--fit", path)
    assert_validation_error(
        rc, err, f"component labels must be 3 distinct non-empty names, got {labels!r}")
    assert out == ""


@pytest.mark.parametrize("command", [
    ["fit", "--model", "pwo", "--data"],
    ["average", "--models", "pwo,rs2", "--data"],
    ["criteria", "--models", "pwo", "--criterion", "apv", "--design"],
])
def test_design_file_with_an_empty_component_cell_is_refused(capsys, tmp_path, command):
    path = tmp_path / "empty_cell.csv"
    path.write_text("pos_1,pos_2,pos_3,y\nA,,B,1.0\n,A,B,2.0\nB,A,,3.0\nA,B,,4.0\n"
                    ",B,A,5.0\nB,,A,6.5\nA,,B,7.0\n", encoding="utf-8")
    rc, out, err = run_cli(capsys, *command, str(path))
    assert_validation_error(
        rc, err, "component labels must be 3 distinct non-empty names, got ['A', '', 'B']")
    assert out == ""


def test_predict_refit_failure_ends_as_fit_does(capsys, pwo_fit_json, huge_csv, tmp_path):
    """Data edited so that the model overflows on it fails as `fit` fails on it."""
    huge = read_design(huge_csv)
    path = _tampered_fit(pwo_fit_json, tmp_path,
                         lambda d: d["data"].update(y=huge.response.tolist()))
    rc, out, err = run_cli(capsys, "predict", "--fit", path)
    rc_fit, _, err_fit = run_cli(capsys, "fit", "--model", "pwo", "--data", huge_csv)
    assert (rc, out) == (rc_fit, "") == (1, "")
    assert err.splitlines()[1:] == err_fit.splitlines()[1:]


def test_block_fit_file_round_trips(capsys, m4_csv, tmp_path):
    path = tmp_path / "block.json"
    rc, _, _ = run_cli(capsys, "fit", "--model", "pwo", "--data", m4_csv, "--block",
                       "--out", str(path))
    assert rc == 0
    text = path.read_text(encoding="utf-8")
    again = fit_to_dict(fit_from_dict(json.loads(text)))
    assert again["n_block_cols"] == 1
    resaved = tmp_path / "again.json"
    resaved.write_text(to_json(again) + "\n", encoding="utf-8")
    assert resaved.read_text(encoding="utf-8") == text
    _, expected, _ = run_cli(capsys, "predict", "--fit", str(path))
    rc, out, _ = run_cli(capsys, "predict", "--fit", str(resaved))
    assert rc == 0 and out == expected


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
    """Coefficients that would overflow the predictions cannot be a refit of the data."""
    def edit(payload):
        for row in payload["coefficients"]:
            row["estimate"] = 1e308
    path = _tampered_fit(pwo_fit_json, tmp_path, edit)
    rc, out, err = run_cli(capsys, "predict", "--fit", path)
    assert_parse_error(rc, err)
    assert out == "" and "disagree with a refit" in err


@pytest.mark.parametrize("field", ["coefficients", "y"])
def test_predict_rejects_non_finite_fit_values(capsys, pwo_fit_json, tmp_path, field):
    def edit(payload):
        if field == "coefficients":
            payload["coefficients"][1]["estimate"] = math.inf
        else:
            payload["data"]["y"][0] = math.nan
    rc, out, err = run_cli(capsys, "predict", "--fit", _tampered_fit(pwo_fit_json, tmp_path, edit))
    if field == "coefficients":
        assert_parse_error(rc, err)
        assert "disagree with a refit" in err
    else:
        assert rc == 2 and err.splitlines()[1:] == [
            "oofa: error: ValidationError: responses must all be finite"
        ]
    assert out == ""


def test_non_utf8_design_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("pos_1,pos_2,pos_3,y\nA,B,C,1\n\u00c4,B,C,2\n".encode("latin-1"))
    rc, _, err = run_cli(capsys, "fit", "--model", "pwo", "--data", str(path))
    assert_parse_error(rc, err)
    assert "UTF-8" in err


def test_design_file_may_start_with_a_utf8_bom(capsys, m3_csv, tmp_path):
    """Excel's "CSV UTF-8" writes a byte-order mark before the header."""
    path = tmp_path / "bom.csv"
    with open(m3_csv, "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    rc, expected, _ = run_cli(capsys, "fit", "--model", "pwo", "--data", m3_csv)
    assert rc == 0
    rc, out, err = run_cli(capsys, "fit", "--model", "pwo", "--data", str(path))
    assert rc == 0, err
    assert out == expected


def test_rank_deficient_fit_names_its_dependent_columns_without_scipy(tmp_path):
    """Two distinct orders, twice each: pwo at m = 3 has rank 2 of 4 columns."""
    path = tmp_path / "two_orders.csv"
    path.write_text("pos_1,pos_2,pos_3,y\nA,B,C,1\nB,A,C,2\nA,B,C,3\nB,A,C,5\n",
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(oofa.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; sys.modules['scipy'] = None; "
            "from oofa.cli import main; sys.exit(main())")
    done = subprocess.run([sys.executable, "-c", code, "fit", "--model", "pwo", "--data", str(path)],
                          env=env, capture_output=True, text=True)
    lines = [line for line in done.stderr.splitlines() if not line.startswith("# config:")]
    head = ("oofa: error: EstimabilityError: model pwo is not estimable on this design "
            "(rank 2 < 4 columns); dependent columns: ")
    assert done.returncode == 1 and len(lines) == 1 and lines[0].startswith(head), done.stderr
    named = lines[0][len(head):].split(", ")
    assert len(set(named)) == len(named) == 2
    # b0, x_1_3 and x_2_3 are one column of ones; x_1_2 is independent of it
    assert set(named) <= {"b0", "x_1_3", "x_2_3"}


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


@pytest.mark.parametrize("sigma2", ["1e-320", "5e-324"])
@pytest.mark.parametrize("criterion", ["apv", "av", "a"])
def test_subnormal_criterion_value_fails_numerically(capsys, m4_csv, criterion, sigma2):
    """A value below the smallest normal float has lost digits, all of them once
    it underflows to 0: at sigma2 = 1e-320 the apv of this design would print as
    5.21733322008e-321, not 5.21739130435e-321, and at 5e-324 as 0."""
    for argv in (
        ["criteria", "--design", m4_csv, "--models", "pwo", "--criterion", criterion],
        ["design", "--m", "4", "--runs", "12", "--models", "pwo", "--criterion", criterion,
         "--restarts", "1", "--seed", "1"],
    ):
        rc, out, err = run_cli(capsys, *argv, "--sigma2", sigma2)
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("# config:")
        assert lines[1].startswith(
            f"oofa: error: EstimabilityError: criterion {criterion} with sigma2 = {sigma2} "
        )


def test_small_normal_criterion_value_keeps_its_digits(capsys, m4_csv):
    argv = ["--design", m4_csv, "--models", "pwo", "--criterion", "apv"]
    rc, out, _ = run_cli(capsys, "criteria", *argv, "--sigma2", "1e-300")
    assert rc == 0 and out.splitlines()[1] == "pwo,apv,5.21739130435e-301,min"
    rc, out, _ = run_cli(capsys, "criteria", *argv)
    assert rc == 0 and out.splitlines()[1] == "pwo,apv,0.521739130435,min"


def test_design_too_few_runs(capsys):
    rc, _, err = run_cli(
        capsys, "design", "--m", "3", "--runs", "3", "--models", "pwo",
    )
    assert rc == 2
    assert "runs" in err


def test_design_run_count_is_bounded(capsys):
    rc, out, err = run_cli(
        capsys, "design", "--m", "3", "--runs", "1000000000000", "--models", "pwo",
    )
    assert rc == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"oofa: error: ValidationError: n_runs must be <= {MAX_RUNS}, got 1000000000000"
    )


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


def test_surface_grid_must_be_at_least_two(capsys, m3_csv):
    rc, _, _ = run_cli(capsys, "surface", "--data", m3_csv, "--grid", "1")
    assert rc == 2


@pytest.mark.parametrize("grid", [str(MAX_GRID + 1), "10000000"])
def test_surface_grid_is_bounded(capsys, m3_csv, grid):
    rc, out, err = run_cli(capsys, "surface", "--data", m3_csv, "--grid", grid)
    assert rc == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"oofa: error: ValidationError: --grid must be in 2..{MAX_GRID}, got {grid}"
    )


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
