"""The block table writer against row-by-row reference rendering.

``reference_csv`` and ``reference_json`` format one cell at a time, as the
table output did before it was written column by column; the block writer
and everything the CLI prints through it must match them byte for byte.
"""

import csv
import enum
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oofa import (
    CandidateSet, Dataset, Design, average_predictions, ols_fit, parse_model, predict_all, top_k,
)
from oofa import dataio
from oofa.cli import _weighted_candidates, main
from oofa.dataio import (
    LabelColumn, OrderColumn, fit_from_dict, read_design, table_to_csv, table_to_json,
    write_design, write_table,
)
from oofa.perms import order_array
from oofa.ranking import PredictionTable, rank_descending

BLOCK_SIZES = (1, 3, dataio.BLOCK_ROWS, 4096)


# -- reference rendering -------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.12g" % float(value)


def _json_number(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def reference_csv(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return out.getvalue()


def reference_json(header, rows) -> str:
    records = [
        {key: (v if isinstance(v, str) else _json_number(v)) for key, v in zip(header, row)}
        for row in rows
    ]
    return json.dumps(records, indent=2)


# -- generated tables ----------------------------------------------------------

TRICKY_TEXT = ["", ",", '"', "\n", "\r\n", "a,b", 'say "hi"', "é", "☃ snow", " ", "%s", "%", "\\"]
TRICKY_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                 1 / 3, 123456789012345.0, 1e300]

CELLS = {
    "str": st.one_of(st.sampled_from(TRICKY_TEXT), st.text()),
    "float": st.one_of(st.sampled_from(TRICKY_FLOATS), st.floats()),
    "int": st.integers(),
    "int64": st.integers(-(2**63), 2**63 - 1),
}
AS_ARRAY = {"str": object, "float": float, "int64": np.int64}


@st.composite
def tables(draw):
    """(header, columns as lists, columns as arrays where the kind allows)."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    n = draw(st.integers(0, 10))
    header = draw(st.lists(st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=4)),
                           min_size=len(kinds), max_size=len(kinds), unique=True))
    columns = [draw(st.lists(CELLS[kind], min_size=n, max_size=n)) for kind in kinds]
    arrays = [np.array(col, dtype=AS_ARRAY[kind]) if kind in AS_ARRAY else col
              for kind, col in zip(kinds, columns)]
    return header, columns, arrays


@settings(max_examples=150, deadline=None)
@given(tables())
def test_block_writer_matches_row_by_row_rendering(table):
    header, columns, arrays = table
    rows = [list(row) for row in zip(*columns)]
    want_csv, want_json = reference_csv(header, rows), reference_json(header, rows)
    for size in BLOCK_SIZES:
        with mock.patch.object(dataio, "BLOCK_ROWS", size):
            assert table_to_csv(header, rows) == want_csv
            assert table_to_json(header, rows) == want_json
            for cols in (columns, arrays):
                out = io.StringIO()
                write_table(out, header, cols)
                assert out.getvalue() == want_csv
                out = io.StringIO()
                write_table(out, header, cols, "json")
                assert out.getvalue() == want_json + "\n"


def test_numpy_scalars_in_rows_render_like_python_values():
    rows = [[np.float64(0.1), np.int64(3), np.float32(2.5), np.str_("x")]]
    header = ["a", "b", "c", "d"]
    assert table_to_csv(header, rows) == reference_csv(header, rows)
    assert table_to_json(header, rows) == reference_json(header, rows)


ORDERS = [" ".join(order) for order in itertools.permutations("ABCDE")]


@pytest.mark.parametrize("header, columns", [
    pytest.param(["label", "x"], [["plain", "a,b", "x", 'q"', "", "line\nbreak", "cr\r", "plain"],
                                  [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]], id="some-cells-quoted"),
    pytest.param(["label", "x"], [["cr\r", "plain"], [0.5, 1.5]], id="lone-carriage-return"),
    pytest.param(["order", "estimate", "rank"],
                 [ORDERS, np.linspace(-1, 1, len(ORDERS)), np.arange(1, len(ORDERS) + 1)],
                 id="distinct-orders"),
    pytest.param(["order", "estimate"], [[o.replace("C", "C,1") for o in ORDERS],
                                         np.linspace(-1, 1, len(ORDERS))], id="orders-with-comma"),
    pytest.param(["order", "estimate"], [[o.replace("C", 'C"') for o in ORDERS],
                                         np.linspace(-1, 1, len(ORDERS))], id="orders-with-quote"),
    pytest.param(["only"], [["", "a", "", "b,c"]], id="one-column-empty-strings"),
    pytest.param(["only"], [np.array([0.25, math.nan])], id="one-column-floats"),
    pytest.param(["u64", "u8"],
                 [np.array([0, 2**64 - 1, 7], dtype=np.uint64), np.array([0, 255, 1], dtype=np.uint8)],
                 id="uint"),
    pytest.param(["%s", "%", "%%d", "%(x)s"], [["%s", "%%", "%d", "100%"], ["%", "a%sb", "%%%", "%(x)s"],
                                               [1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4]], id="percent-signs"),
])
def test_template_writer_matches_row_by_row_rendering(header, columns):
    want = reference_csv(header, [list(row) for row in zip(*columns)])
    for size in BLOCK_SIZES:
        with mock.patch.object(dataio, "BLOCK_ROWS", size):
            out = io.StringIO()
            write_table(out, header, columns)
            assert out.getvalue() == want


#: Names csv must quote or a % template must not take in, with one repeated.
ODD_NAMES = ("a,b", 'say "hi"', "x\ny", "é", "%s", "a,b")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("names", [ODD_NAMES, ODD_NAMES[2:], ("p", "q", "r", "s")],
                         ids=["odd-and-repeated", "odd", "plain"])
def test_label_and_order_columns_match_row_by_row_rendering(fmt, names):
    """Label and order columns make their cells one block at a time: the text
    must not depend on where the blocks split the rows."""
    orders = order_array(len(names))  # int8 components 1..m, as the CLI passes them
    first, last = orders[:, 0] - 1, orders[:, -1] - 1
    x = np.linspace(-1.0, 1.0, len(orders))
    text = [" ".join(names[c - 1] for c in order) for order in orders.tolist()]
    tables = [
        (["order", "first", "x", "last"],
         [OrderColumn(names, orders), LabelColumn(names, first), x, LabelColumn(names, last)],
         [[t, names[f], v, names[g]] for t, f, v, g in zip(text, first, x, last)]),
        (["order"], [OrderColumn(names, orders)], [[t] for t in text]),
        (["first"], [LabelColumn(names, first)], [[names[f]] for f in first]),
    ]
    for header, columns, rows in tables:
        want = reference_json(header, rows) + "\n" if fmt == "json" else reference_csv(header, rows)
        for size in BLOCK_SIZES:
            with mock.patch.object(dataio, "BLOCK_ROWS", size):
                out = io.StringIO()
                write_table(out, header, columns, fmt)
                assert out.getvalue() == want, (header, size)


def reference_design_csv(obj, run_index) -> str:
    """The row-by-row design writer that write_design replaced."""
    design = obj.design if isinstance(obj, Dataset) else obj
    response = obj.response if isinstance(obj, Dataset) else None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = (["run"] if run_index else []) + [f"pos_{k}" for k in range(1, design.m + 1)]
    if design.block is not None:
        header.append("block")
    if response is not None:
        header.append("y")
    writer.writerow(header)
    labels = design.component_labels
    for i, run in enumerate(design.runs):
        row = ([str(i + 1)] if run_index else []) + [labels[c - 1] for c in run.order]
        if design.block is not None:
            row.append(design.block[i])
        if response is not None:
            row.append("%.12g" % float(response[i]))
        writer.writerow(row)
    return out.getvalue()


#: Label text csv must quote or a % template must not take in.
LABEL_TEXT = st.text(alphabet=[",", '"', "\n", "%", "é", "a", "s", " "], min_size=1, max_size=4)


@st.composite
def designs(draw):
    """Designs with odd component labels, with and without blocks and y."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 8))
    orders = [draw(st.permutations(range(1, m + 1))) for _ in range(n)]
    labels = draw(st.none() | st.lists(LABEL_TEXT, min_size=m, max_size=m, unique=True))
    block = draw(st.none() | st.lists(LABEL_TEXT | st.just(""), min_size=n, max_size=n))
    design = Design.from_orders(orders, block, labels)
    if not draw(st.booleans()):
        return design
    y = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1 / 3, 1e300, 5e-324]),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=n, max_size=n))
    return Dataset(design, np.array(y))


@settings(max_examples=150, deadline=None)
@given(designs(), st.booleans())
def test_write_design_matches_row_by_row_rendering(obj, run_index):
    want = reference_design_csv(obj, run_index)
    for size in BLOCK_SIZES:
        with mock.patch.object(dataio, "BLOCK_ROWS", size):
            out = io.StringIO()
            write_design(out, obj, run_index=run_index)
            assert out.getvalue() == want


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@pytest.mark.parametrize("columns, want", [
    pytest.param([[True, 2], [1.5, 2.5]], "a,b\nTrue,1.5\n2,2.5\n", id="bool-and-int"),
    pytest.param([[_Level.LOW, _Level.HIGH], ["x", "y"]],
                 f"a,b\n{str(_Level.LOW)},x\n{str(_Level.HIGH)},y\n", id="int-enum"),
    pytest.param([[True, 2]], "a\nTrue\n2\n", id="one-column-bool-and-int"),
])
def test_int_columns_write_each_cell_through_str(columns, want):
    """A column of ints and int subclasses writes ``str`` of each cell, whatever the path."""
    out = io.StringIO()
    write_table(out, ["a", "b"][:len(columns)], columns)
    assert out.getvalue() == want


def test_malformed_tables_are_rejected():
    with pytest.raises(ValueError):
        write_table(io.StringIO(), ["a", "b"], [[1.0]])
    with pytest.raises(ValueError):
        write_table(io.StringIO(), ["a", "b"], [[1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        table_to_csv(["a", "b"], [[1.0]])


# -- CLI output against the reference rendering of in-process tables ------------


def _stdout(capsys, argv):
    assert main(list(argv)) == 0, argv
    return capsys.readouterr().out


def _render(argv, header, rows) -> str:
    if "json" in argv:
        return reference_json(header, rows) + "\n"
    return reference_csv(header, rows)


#: Component labels that csv must quote (or that must not reach a % template).
ODD_LABELS = ("a,b", 'say "hi"', "x\ny", "é")


@pytest.fixture(scope="module")
def data_files(tmp_path_factory, data_dir):
    """The m = 3, 4, 5 data files, plus the m = 4 file relabeled with ODD_LABELS."""
    paths = {name: data_dir / name for name in ("m3_runs.csv", "m4_n24_block.csv",
                                                "m5_n40_block.csv")}
    data = read_design(paths["m4_n24_block.csv"])
    design = data.design
    odd = Design.from_orders([run.order for run in design.runs], design.block, ODD_LABELS)
    paths["m4_odd_labels.csv"] = tmp_path_factory.mktemp("data") / "m4_odd_labels.csv"
    write_design(paths["m4_odd_labels.csv"], Dataset(odd, data.response))
    assert read_design(paths["m4_odd_labels.csv"]).design.component_labels == ODD_LABELS
    return paths


@pytest.fixture(scope="module")
def fit_files(tmp_path_factory, data_files):
    """Fit JSON files: pwo on m = 4 blocked data (plain and odd labels), nn saturated on m = 3."""
    root = tmp_path_factory.mktemp("fits")
    paths = {}
    for name, model, data, extra in (("pwo4", "pwo", "m4_n24_block.csv", ["--block"]),
                                     ("odd4", "pwo", "m4_odd_labels.csv", ["--block"]),
                                     ("nn3", "nn", "m3_runs.csv", [])):
        paths[name] = str(root / f"{name}.json")
        argv = ["fit", "--model", model, "--data", str(data_files[data]), "--out", paths[name]]
        with mock.patch("sys.stdout", io.StringIO()), mock.patch("sys.stderr", io.StringIO()):
            assert main(argv + extra) == 0
    return paths


@pytest.mark.parametrize("block", [3, dataio.BLOCK_ROWS, 4096])
@pytest.mark.parametrize("fit_name, extra", [
    ("pwo4", []),
    ("pwo4", ["--format", "json"]),
    ("pwo4", ["--top", "5"]),
    ("pwo4", ["--minimize", "--top", "7", "--format", "json"]),
    ("pwo4", ["--minimize"]),
    ("nn3", []),
    ("nn3", ["--format", "json"]),
    ("odd4", []),
    ("odd4", ["--top", "5", "--format", "json"]),
])
def test_predict_output_is_the_reference_rendering(capsys, monkeypatch, fit_files, block,
                                                   fit_name, extra):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", block)
    argv = ["predict", "--fit", fit_files[fit_name], *extra]
    with open(fit_files[fit_name], encoding="utf-8") as handle:
        fit = fit_from_dict(json.load(handle))
    table = predict_all(fit)
    if "--minimize" in extra:
        table = PredictionTable(table.orders, table.estimates, table.std_errors,
                                rank_descending(-table.estimates))
    if "--top" in extra:
        table = top_k(table, int(extra[extra.index("--top") + 1]))
    if fit_name == "nn3":
        assert np.all(np.isnan(table.std_errors))
    labels = fit.data.design.component_labels
    rows = [[perm.label(labels), table.estimates[i], table.std_errors[i], int(table.ranks[i])]
            for i, perm in enumerate(table.perms)]
    want = _render(argv, ["order", "estimate", "std_error", "rank"], rows)
    assert _stdout(capsys, argv) == want


@pytest.mark.parametrize("block", [3, dataio.BLOCK_ROWS, 4096])
@pytest.mark.parametrize("data, models, extra", [
    ("m3_runs.csv", "pwo,tpwo:invh,nn,rs2", []),
    ("m3_runs.csv", "pwo,rs2", ["--format", "json", "--weights", "0.25,0.75"]),
    ("m4_n24_block.csv", "pwo,cp,rs2", ["--block", "--top", "10"]),
    ("m4_n24_block.csv", "pwo,cp,rs2", ["--block", "--format", "json"]),
    ("m5_n40_block.csv", "pwo,tpwo:invh", ["--block", "--top", "9", "--format", "json"]),
    ("m4_odd_labels.csv", "pwo,cp", ["--block"]),
    ("m4_odd_labels.csv", "pwo,cp", ["--block", "--top", "4", "--format", "json"]),
])
def test_average_output_is_the_reference_rendering(capsys, monkeypatch, data_files, block,
                                                   data, models, extra):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", block)
    argv = ["average", "--data", str(data_files[data]), "--models", models, *extra]
    loaded = read_design(data_files[data])
    if "--block" not in extra:
        loaded = Dataset(loaded.design.without_block(), loaded.response)
    fits = [ols_fit(parse_model(label), loaded) for label in models.split(",")]
    if "--weights" in extra:
        weights = [float(w) for w in extra[extra.index("--weights") + 1].split(",")]
        candidates = CandidateSet(tuple(fits), tuple(weights))
    else:
        candidates, _ = _weighted_candidates(fits, "akaike")
    averaged = average_predictions(candidates)
    by_fit = {id(fit): (est, ranks) for fit, est, ranks in
              zip(candidates.fits, averaged.model_estimates, averaged.model_ranks)}
    for fit in fits:
        if id(fit) not in by_fit:
            table = predict_all(fit)
            by_fit[id(fit)] = (table.estimates, table.ranks)

    header = [f"pos_{k}" for k in range(1, loaded.m + 1)]
    for fit in fits:
        header += [f"est_{fit.spec.label}", f"rank_{fit.spec.label}"]
    header += ["ma_estimate", "ma_rank", "ma_se"]
    order = range(len(averaged))
    if "--top" in extra:
        order = np.argsort(averaged.ranks)[: int(extra[extra.index("--top") + 1])]
    labels = loaded.design.component_labels
    perms = averaged.perms
    rows = []
    for i in order:
        row = [labels[c - 1] for c in perms[i].order]
        for fit in fits:
            est, ranks = by_fit[id(fit)]
            row += [est[i], int(ranks[i])]
        row += [averaged.estimates[i], int(averaged.ranks[i]), averaged.std_errors[i]]
        rows.append(row)
    assert _stdout(capsys, argv) == _render(argv, header, rows)


@pytest.mark.parametrize("block", [3, dataio.BLOCK_ROWS, 4096])
@pytest.mark.parametrize("labels, extra", [
    (None, []),
    (('say "hi"', "x\ny", "é", "%s"), []),
    (('say "hi"', "x\ny", "é", "%s"), ["--format", "json"]),
])
def test_enumerate_output_is_the_reference_rendering(capsys, monkeypatch, block, labels, extra):
    monkeypatch.setattr(dataio, "BLOCK_ROWS", block)
    names = labels or ("1", "2", "3", "4")
    argv = ["enumerate", "--m", "4", *(["--labels", ",".join(names)] if labels else []), *extra]
    rows = [list(order) for order in itertools.permutations(names)]
    want = _render(argv, ["pos_1", "pos_2", "pos_3", "pos_4"], rows)
    assert _stdout(capsys, argv) == want
