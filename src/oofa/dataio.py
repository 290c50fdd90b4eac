"""CSV/JSON ingestion and emission shared by the CLI commands.

Design files are UTF-8 comma-separated with a mandatory header

    pos_1,...,pos_m[,block][,y]

one row per run: the component added first, second, ..., an optional block
label, an optional numeric response.  Component labels are arbitrary
strings mapped to internal ids 1..m by first appearance (reading order);
the mapping is kept on the Design so writing round-trips the original
labels.  Emitted decimals carry 12 significant digits; JSON objects keep
insertion key order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .design import Design
from .errors import ParseError, ValidationError
from .fitting import Dataset, FitResult
from .models import ModelSpec, parse_model, term_labels

#: Rows formatted and written at a time by :func:`write_table`.
BLOCK_ROWS = 4096


def format_float(value: float) -> str:
    """12-significant-digit decimal, locale-independent."""
    return "%.12g" % float(value)


def _open_source(source) -> tuple[IO[str], bool]:
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "r", encoding="utf-8", newline=""), True


def _open_target(target) -> tuple[IO[str], bool]:
    if hasattr(target, "write"):
        return target, False
    return open(Path(target), "w", encoding="utf-8", newline=""), True


def _parse_header(header: list[str]) -> tuple[int, bool, bool, bool]:
    cells = [c.strip() for c in header]
    has_run = bool(cells) and cells[0] == "run"
    if has_run:
        cells = cells[1:]
    m = 0
    while m < len(cells) and cells[m] == f"pos_{m + 1}":
        m += 1
    if m == 0:
        raise ParseError(
            f"header must start with pos_1, pos_2, ...; got {header!r}"
        )
    rest = cells[m:]
    has_block = bool(rest) and rest[0] == "block"
    if has_block:
        rest = rest[1:]
    has_y = bool(rest) and rest[0] == "y"
    if has_y:
        rest = rest[1:]
    if rest:
        raise ParseError(f"unexpected column {rest[0]!r} in header {header!r}")
    return m, has_block, has_y, has_run


def read_design(source) -> Design | Dataset:
    """Parse a design file; returns a Dataset when a ``y`` column is present."""
    stream, owned = _open_source(source)
    try:
        rows = list(csv.reader(stream))
    except UnicodeDecodeError as exc:
        raise ParseError(f"design file is not valid UTF-8 text ({exc.reason})") from None
    finally:
        if owned:
            stream.close()
    rows = [row for row in rows if row]  # drop blank lines
    if not rows:
        raise ParseError("empty design file")
    m, has_block, has_y, has_run = _parse_header(rows[0])
    width = has_run + m + has_block + has_y

    ids: dict[str, int] = {}
    orders: list[tuple[int, ...]] = []
    blocks: list[str] = []
    responses: list[float] = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise ParseError(f"row {i}: expected {width} cells, got {len(row)}")
        if has_run:
            row = row[1:]  # run index column carries no information
        seen: set[int] = set()
        order = []
        for cell in row[:m]:
            label = cell.strip()
            if label not in ids:
                if len(ids) == m:
                    raise ValidationError(
                        f"row {i}: component {label!r} would be the "
                        f"{m + 1}-th distinct label"
                    )
                ids[label] = len(ids) + 1
            c = ids[label]
            if c in seen:
                raise ValidationError(f"row {i}: component {label!r} repeated")
            seen.add(c)
            order.append(c)
        orders.append(tuple(order))
        if has_block:
            blocks.append(row[m].strip())
        if has_y:
            cell = row[-1].strip()
            try:
                responses.append(float(cell))
            except ValueError:
                raise ParseError(f"row {i}: response {cell!r} is not numeric") from None

    labels = tuple(sorted(ids, key=ids.get))
    design = Design.from_orders(orders, blocks if has_block else None, labels)
    if has_y:
        return Dataset(design, np.array(responses))
    return design


def write_design(target, obj: Design | Dataset, run_index: bool = False) -> None:
    """Write a Design or Dataset back out in the design-file format."""
    design = obj.design if isinstance(obj, Dataset) else obj
    response = obj.response if isinstance(obj, Dataset) else None
    stream, owned = _open_target(target)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        header = (["run"] if run_index else []) + [
            f"pos_{k}" for k in range(1, design.m + 1)
        ]
        if design.block is not None:
            header.append("block")
        if response is not None:
            header.append("y")
        writer.writerow(header)
        labels = design.component_labels
        for i, run in enumerate(design.runs):
            row = ([str(i + 1)] if run_index else []) + [
                labels[c - 1] for c in run.order
            ]
            if design.block is not None:
                row.append(design.block[i])
            if response is not None:
                row.append(format_float(response[i]))
            writer.writerow(row)
    finally:
        if owned:
            stream.close()


def write_table(stream: IO[str], header: Sequence[str], columns: Sequence, fmt: str = "csv") -> None:
    """Write a table given column by column, as CSV or as JSON text.

    Each column is a 1-D array or sequence whose cells share one type:
    strings are written as they are, booleans as ``true``/``false``,
    integers in decimal and floats as :func:`format_float` does in CSV.
    ``fmt="json"`` writes exactly ``json.dumps(records, indent=2)`` of the
    list of row objects (keys in header order, NaN as ``null``) and a
    newline.  Rows are formatted and written BLOCK_ROWS at a time, so the
    formatted table never sits in memory whole.
    """
    header = list(header)
    if not header or len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    if fmt == "json":  # a repeated key keeps its first place and its last value, as in a dict
        last = {key: j for j, key in enumerate(header)}
        header = list(last)
        columns = [columns[last[key]] for key in header]
    typed = [_typed_column(column) for column in columns]
    n = len(typed[0][1])
    if any(len(values) != n for _, values in typed):
        raise ValueError("table columns differ in length")
    if fmt == "json":
        _write_json(stream, header, typed, n)
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, BLOCK_ROWS):
            writer.writerows(zip(*_format_block(typed, start, _CSV_CELLS)))


def _write_json(stream: IO[str], header: list[str], typed: list, n: int) -> None:
    if n == 0:
        stream.write("[]\n")
        return
    fields = ",\n".join(
        "    " + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in header
    )
    record = "  {\n" + fields + "\n  }"
    stream.write("[\n")
    for start in range(0, n, BLOCK_ROWS):
        if start:
            stream.write(",\n")
        stream.write(",\n".join([record % row for row in zip(*_format_block(typed, start, _JSON_CELLS))]))
    stream.write("\n]\n")


def _typed_column(column) -> tuple[str, object]:
    """(kind, values): kind 'f', 'i', 'b' or 's' says how the cells are written."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        kind = "i" if column.dtype.kind == "u" else column.dtype.kind
        return kind, column
    types = set(map(type, column))
    if all(issubclass(t, str) for t in types):
        return "s", column
    if all(issubclass(t, (bool, np.bool_)) for t in types):
        return "b", column
    if all(issubclass(t, (int, np.integer)) for t in types):
        return "i", column
    return "f", np.asarray(column, dtype=float)


def _format_block(typed: list, start: int, cells: dict) -> list[list[str]]:
    """Rows start..start+BLOCK_ROWS of every column, formatted, column by column."""
    out = []
    for kind, values in typed:
        block = values[start:start + BLOCK_ROWS]
        out.append(cells[kind](block.tolist() if isinstance(block, np.ndarray) else block))
    return out


def _json_floats(values: list) -> list[str]:
    return [_JSON_SPECIAL.get(text, text) for text in map(float.__repr__, values)]


_JSON_SPECIAL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
_BOOLS = {True: "true", False: "false"}
_CSV_CELLS = {
    "f": lambda values: ["%.12g" % v for v in values],
    "i": lambda values: list(map(str, values)),
    "b": lambda values: [_BOOLS[v] for v in values],
    "s": list,
}
_JSON_CELLS = {
    "f": _json_floats,
    "i": _CSV_CELLS["i"],
    "b": _CSV_CELLS["b"],
    "s": lambda values: list(map(encode_basestring_ascii, values)),
}


def table_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a table as CSV text with 12-significant-digit decimals."""
    out = io.StringIO()
    write_table(out, header, _columns(header, rows))
    return out.getvalue()


def table_to_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a table as a JSON list of row objects, keys in header order."""
    out = io.StringIO()
    write_table(out, header, _columns(header, rows), "json")
    return out.getvalue()[:-1]  # without the newline write_table ends JSON with


def _columns(header: Sequence[str], rows: Iterable[Sequence]) -> list:
    rows = [list(row) for row in rows]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"every row needs {len(header)} cells, one per header name")
    return [[row[j] for row in rows] for j in range(len(header))]


def _json_number(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return None if math.isnan(value) else value


def to_json(obj) -> str:
    """JSON text with insertion-ordered keys (the module-wide convention)."""
    return json.dumps(obj, indent=2)


def fit_to_dict(fit: FitResult) -> dict:
    """JSON-ready fit summary; enough detail to rebuild the fit for predict."""
    out = {
        "model": fit.spec.family.value,
        "taper": fit.spec.taper.label if fit.spec.taper is not None else None,
        "coefficients": [
            {"term": term, "estimate": float(est)}
            for term, est in zip(fit.term_labels, fit.coefficients)
        ],
        "rss": float(fit.rss),
        "rmse": _json_number(fit.rmse) if fit.rmse is not None else None,
        "df_error": int(fit.df_error),
        "aic": _json_number(fit.aic) if fit.aic is not None else None,
        "bic": _json_number(fit.bic) if fit.bic is not None else None,
        "n": int(fit.n),
        # extras beyond the advertised schema, consumed by `predict`
        "m": int(fit.m),
        "p_effective": int(fit.p_effective),
        "n_block_cols": int(fit.n_block_cols),
        "sigma2_hat": _json_number(fit.sigma2_hat) if fit.sigma2_hat is not None else None,
        "log_lik": _json_number(fit.log_lik) if fit.log_lik is not None else None,
        "xtx_inv": [[float(v) for v in row] for row in fit.xtx_inv],
        "data": {
            "orders": [list(run.order) for run in fit.data.design.runs],
            "block": list(fit.data.design.block) if fit.data.design.block else None,
            "labels": list(fit.data.design.component_labels),
            "y": [float(v) for v in fit.data.response],
        },
    }
    return out


def fit_from_dict(payload: dict) -> FitResult:
    """Rebuild a FitResult from :func:`fit_to_dict` output."""
    try:
        label = payload["model"]
        if payload.get("taper"):
            label = f"{label}:{payload['taper']}"
        spec: ModelSpec = parse_model(label)
        data_part = payload["data"]
        design = Design.from_orders(
            [tuple(o) for o in data_part["orders"]],
            data_part.get("block"),
            data_part.get("labels"),
        )
        data = Dataset(design, np.array(data_part["y"], dtype=float))
        coeff_rows = payload["coefficients"]
        labels = tuple(row["term"] for row in coeff_rows)
        coefficients = np.array([row["estimate"] for row in coeff_rows], dtype=float)
        fit = FitResult(
            spec=spec,
            data=data,
            term_labels=labels,
            coefficients=coefficients,
            rss=float(payload["rss"]),
            df_error=int(payload["df_error"]),
            p_effective=int(payload["p_effective"]),
            n=int(payload["n"]),
            sigma2_hat=_opt_float(payload.get("sigma2_hat")),
            rmse=_opt_float(payload.get("rmse")),
            log_lik=_opt_float(payload.get("log_lik")),
            aic=_opt_float(payload.get("aic")),
            bic=_opt_float(payload.get("bic")),
            xtx_inv=np.array(payload["xtx_inv"], dtype=float),
            n_block_cols=int(payload["n_block_cols"]),
        )
    except ValidationError:  # a ValueError too, but already says what is wrong
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed fit JSON: missing or bad field {exc}") from None
    model_terms = term_labels(spec, design.m)
    if len(labels) != len(model_terms) + fit.n_block_cols:
        raise ParseError(
            f"fit JSON has {len(labels)} coefficients; model {spec.label} with "
            f"{fit.n_block_cols} block columns has {len(model_terms) + fit.n_block_cols} terms"
        )
    expected = model_terms + tuple(f"block_{j}" for j in range(1, fit.n_block_cols + 1))
    if labels != expected:
        raise ParseError("fit JSON terms do not match the declared model")
    p = len(labels)
    if fit.xtx_inv.shape != (p, p):
        shape = " x ".join(str(k) for k in fit.xtx_inv.shape)
        raise ParseError(f"fit JSON xtx_inv is {shape or 'a scalar'}, expected {p} x {p}")
    if not (np.all(np.isfinite(fit.coefficients)) and np.all(np.isfinite(fit.xtx_inv))
            and math.isfinite(fit.rss)):
        raise ParseError("fit JSON has a coefficient, rss or xtx_inv entry that is not finite")
    return fit


def _opt_float(value) -> float | None:
    return None if value is None else float(value)
