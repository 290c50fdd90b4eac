"""CSV/JSON round trips, label mapping, and the fit serialization."""

import io
import json
import math

import numpy as np
import pytest

from oofa import (
    Dataset,
    Design,
    ParseError,
    ValidationError,
    ols_fit,
    parse_model,
    predict_all,
    read_design,
    write_design,
)
from oofa.dataio import (
    COEF_RTOL,
    LabelColumn,
    fit_from_dict,
    fit_to_dict,
    table_to_csv,
    table_to_json,
    write_table,
)


def _read_text(text):
    return read_design(io.StringIO(text))


def test_reads_reference_file(m3_dataset):
    assert isinstance(m3_dataset, Dataset)
    assert m3_dataset.m == 3
    assert m3_dataset.n == 6
    assert m3_dataset.design.component_labels == ("A", "B", "C")
    assert m3_dataset.design.runs[3].label(("A", "B", "C")) == "B C A"
    np.testing.assert_allclose(
        m3_dataset.response, [26.7, 35.3, 32.4, 48.7, 35.9, 37.6]
    )


def test_design_without_response():
    design = _read_text("pos_1,pos_2\nx,y\ny,x\n")
    assert isinstance(design, Design)
    assert design.component_labels == ("x", "y")
    assert [r.order for r in design.runs] == [(1, 2), (2, 1)]


def test_label_mapping_is_first_appearance():
    design = _read_text("pos_1,pos_2,pos_3\nB,A,C\nA,B,C\n")
    assert design.component_labels == ("B", "A", "C")
    assert design.runs[0].order == (1, 2, 3)
    assert design.runs[1].order == (2, 1, 3)


def test_round_trip_is_identity(m4_dataset, tmp_path):
    path = tmp_path / "copy.csv"
    write_design(path, m4_dataset)
    again = read_design(path)
    assert again.design.runs == m4_dataset.design.runs
    assert again.design.block == m4_dataset.design.block
    assert again.design.component_labels == m4_dataset.design.component_labels
    np.testing.assert_array_equal(again.response, m4_dataset.response)
    # and the emitted text is stable
    first, second = io.StringIO(), io.StringIO()
    write_design(first, m4_dataset)
    write_design(second, again)
    assert first.getvalue() == second.getvalue()


def test_run_index_column_round_trip():
    design = _read_text("pos_1,pos_2\nB,A\nA,B\n")
    out = io.StringIO()
    write_design(out, design, run_index=True)
    text = out.getvalue()
    assert text.splitlines()[0] == "run,pos_1,pos_2"
    assert text.splitlines()[1] == "1,B,A"
    again = _read_text(text)
    assert again.runs == design.runs


def test_repeated_component_reports_row():
    with pytest.raises(ValidationError, match="row 2"):
        _read_text("pos_1,pos_2,pos_3\nA,B,C\nA,A,C\n")


def test_ragged_row_reports_row():
    with pytest.raises(ParseError, match="row 1"):
        _read_text("pos_1,pos_2,pos_3\nA,B\n")


def test_header_errors():
    with pytest.raises(ParseError):
        _read_text("a,b\nA,B\n")
    with pytest.raises(ParseError):
        _read_text("pos_1,pos_2,weird\nA,B,1\n")
    with pytest.raises(ParseError):
        _read_text("")
    with pytest.raises(ParseError, match="numeric"):
        _read_text("pos_1,pos_2,y\nA,B,oops\n")


def test_too_many_labels_rejected():
    with pytest.raises(ValidationError, match="row 2"):
        _read_text("pos_1,pos_2\nA,B\nA,C\n")


def test_format_float():
    """Floats take 12 significant digits in CSV."""
    cells = [1 / 3, 1.0, 1e-5, -2.5, 123456789012345.0]
    text = table_to_csv(["x"], [[v] for v in cells])
    assert text.splitlines() == ["x", "0.333333333333", "1", "1e-05", "-2.5", "1.23456789012e+14"]


def test_table_to_csv_formats_cells():
    text = table_to_csv(["name", "value", "count"], [["x", 1 / 3, 2]])
    assert text == "name,value,count\nx,0.333333333333,2\n"


@pytest.mark.parametrize("labels", [("A", "b,c", 'd"e', "f\x00"), (1, 2, 3, 4), (0.5, 1.0, 2.0, 3.0)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_label_columns_write_like_their_cells(labels, fmt):
    """A LabelColumn is typed from its labels, and writes what its cells would."""
    codes = np.random.default_rng(0).integers(0, len(labels), size=(2, 9000))
    cells = [[labels[c] for c in row] for row in codes]
    header = ["first", "second", "n"]
    out, want = io.StringIO(), io.StringIO()
    write_table(out, header, [LabelColumn(labels, codes[0]), LabelColumn(labels, codes[1]),
                              np.arange(9000)], fmt)
    write_table(want, header, [cells[0], cells[1], np.arange(9000)], fmt)
    assert out.getvalue() == want.getvalue()


def test_table_to_json_key_order_and_nan():
    text = table_to_json(["b", "a"], [["first", float("nan")], ["second", 1.5]])
    rows = json.loads(text)
    assert list(rows[0].keys()) == ["b", "a"]
    assert rows[0]["a"] is None
    assert rows[1]["a"] == 1.5


def test_fit_json_round_trip(m4_dataset):
    fit = ols_fit(parse_model("cp"), m4_dataset)
    payload = json.loads(json.dumps(fit_to_dict(fit)))
    again = fit_from_dict(payload)
    assert again.spec == fit.spec
    assert again.term_labels == fit.term_labels
    np.testing.assert_allclose(again.coefficients, fit.coefficients, rtol=1e-15)
    before, after = predict_all(fit), predict_all(again)
    np.testing.assert_allclose(after.estimates, before.estimates, rtol=1e-12)
    np.testing.assert_allclose(after.std_errors, before.std_errors, rtol=1e-12)
    np.testing.assert_array_equal(after.ranks, before.ranks)


def test_fit_json_round_trip_saturated(m3_dataset):
    fit = ols_fit(parse_model("nn"), m3_dataset)
    again = fit_from_dict(json.loads(json.dumps(fit_to_dict(fit))))
    assert again.sigma2_hat is None and again.aic is None
    table = predict_all(again)
    assert np.all(np.isnan(table.std_errors))


def test_fit_json_schema_fields(m3_dataset):
    payload = fit_to_dict(ols_fit(parse_model("tpwo:geom=0.5"), m3_dataset))
    for key in ("model", "taper", "coefficients", "rss", "rmse", "df_error",
                "aic", "bic", "n"):
        assert key in payload
    assert payload["model"] == "tpwo"
    assert payload["taper"] == "geom=0.5"
    assert payload["coefficients"][0]["term"] == "b0"
    assert math.isfinite(payload["rss"])


def test_fit_from_dict_refits_and_ignores_stored_summaries(m4_dataset):
    fit = ols_fit(parse_model("cp"), m4_dataset)
    payload = json.loads(json.dumps(fit_to_dict(fit)))
    payload.update(rss=-1.0, sigma2_hat=1e9, aic=None, n=1, p_effective=0, xtx_inv=[[0.0]])
    again = fit_from_dict(payload)
    for name in ("coefficients", "xtx_inv"):
        np.testing.assert_array_equal(getattr(again, name), getattr(fit, name))
    for name in ("rss", "df_error", "p_effective", "n", "sigma2_hat", "aic", "n_block_cols"):
        assert getattr(again, name) == getattr(fit, name)


@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_fit_from_dict_coefficient_tolerance(m3_dataset, factor, accepted):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    payload = fit_to_dict(fit)
    shift = factor * COEF_RTOL * np.max(np.abs(fit.coefficients))
    payload["coefficients"][-1]["estimate"] += shift
    if accepted:
        np.testing.assert_array_equal(fit_from_dict(payload).coefficients, fit.coefficients)
    else:
        with pytest.raises(ParseError, match="disagree"):
            fit_from_dict(payload)


def test_fit_from_dict_rejects_garbage(m3_dataset):
    good = fit_to_dict(ols_fit(parse_model("pwo"), m3_dataset))
    with pytest.raises(ParseError):
        fit_from_dict({"model": "pwo"})
    tampered = json.loads(json.dumps(good))
    tampered["coefficients"][1]["term"] = "x_9_9"
    with pytest.raises(ParseError, match="terms"):
        fit_from_dict(tampered)


def test_blank_lines_are_ignored():
    data = _read_text("pos_1,pos_2,y\n\nA,B,1.5\n\nB,A,2.5\n")
    assert data.n == 2
