"""CSV ingestion and the table writer shared by the CLI commands.

Design files are UTF-8 comma-separated with a mandatory header

    pos_1,...,pos_m[,block][,y]

one row per run: the component added first, second, ..., an optional block
label, an optional numeric response.  Component labels are arbitrary
strings mapped to internal ids 1..m by first appearance (reading order);
the mapping is kept on the Design so writing round-trips the original
labels.  Emitted decimals carry 12 significant digits.  Fit files, JSON
reports and the rows of JSON tables are :mod:`oofa.jsonio`'s.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import _forward
from .design import Dataset, Design
from .errors import ParseError, ValidationError
from .models import split_start
from .records import Record

#: Rows formatted and written at a time by :func:`write_table`.
BLOCK_ROWS = 1024


def _open_source(source) -> tuple[IO[str], bool]:
    if hasattr(source, "read"):
        return source, False
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes first
    return open(Path(source), "r", encoding="utf-8-sig", newline=""), True


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
    body = rows[1:]
    short = next((i for i, row in enumerate(body, start=1) if len(row) != width), 0)
    if short:
        raise ParseError(f"row {short}: expected {width} cells, got {len(body[short - 1])}")
    # component ids by first appearance: a row is an order unless it repeats an
    # id or holds one above m, a label too many
    cells = [cell.strip() for row in body for cell in row[has_run:has_run + m]]
    ids = {label: c for c, label in enumerate(dict.fromkeys(cells), start=1)}
    orders = np.array([ids[label] for label in cells], dtype=np.intp).reshape(-1, m)
    bad = np.flatnonzero((np.sort(orders, axis=1) != np.arange(1, m + 1)).any(axis=1))
    if bad.size:  # name its first component that is a label too many or a repeat
        row = orders[bad[0]].tolist()
        c = next(c for j, c in enumerate(row) if c > m or c in row[:j])
        what = f"would be the {m + 1}-th distinct label" if c > m else "repeated"
        raise ValidationError(f"row {bad[0] + 1}: component {tuple(ids)[c - 1]!r} {what}")
    blocks = [row[has_run + m].strip() for row in body] if has_block else None
    design = Design(orders, blocks, tuple(ids))
    if not has_y:
        return design
    responses = []
    for i, row in enumerate(body, start=1):
        try:
            responses.append(float(row[-1]))
        except ValueError:
            raise ParseError(f"row {i}: response {row[-1].strip()!r} is not numeric") from None
    return Dataset(design, np.array(responses))


def write_design(target, obj: Design | Dataset, run_index: bool = False) -> None:
    """Write a Design or Dataset back out in the design-file format, through
    :func:`write_table`."""
    design = obj.design if isinstance(obj, Dataset) else obj
    header, columns = position_columns(design.orders, design.component_labels)
    if run_index:
        header.insert(0, "run")
        columns.insert(0, np.arange(1, design.n + 1))
    if design.block is not None:
        header.append("block")
        columns.append(design.block)
    if isinstance(obj, Dataset):
        header.append("y")
        columns.append(obj.response)
    stream, owned = _open_target(target)
    try:
        write_table(stream, header, columns)
    finally:
        if owned:
            stream.close()


class LabelColumn(Record):
    """A table column whose cells are ``labels[codes]``, such as the component
    labels at one position of every order: :func:`write_table` tells their
    type from the few labels rather than from each cell, and makes the cells
    of one block of rows at a time."""

    __slots__ = ("labels", "codes")

    def __init__(self, labels: Sequence, codes: np.ndarray) -> None:
        self._set(labels, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.asarray(self.labels, dtype=object)[self.codes[rows]]


def position_columns(orders: np.ndarray, labels: Sequence) -> tuple[list[str], list]:
    """The header ``pos_1..pos_m`` and a :class:`LabelColumn` per position of
    the (n, m) component ``orders``: the label of the component there."""
    return ([f"pos_{k}" for k in range(1, orders.shape[1] + 1)],
            [LabelColumn(labels, components - 1) for components in orders.T])


class OrderColumn(Record):
    """A table column of orders: row i of the (n, m) ``orders``, components
    1..m, written as the labels of its components joined by a space, such as
    ``"B C A"``.  :func:`write_table` makes the cells of one block of rows at
    a time."""

    __slots__ = ("labels", "orders")

    def __init__(self, labels: Sequence[str], orders: np.ndarray) -> None:
        self._set(labels, orders)

    def __len__(self) -> int:
        return len(self.orders)

    def __getitem__(self, rows: slice) -> list[str]:
        names = np.asarray(self.labels, dtype=object)[self.orders[rows] - 1]
        return list(map(" ".join, names.tolist()))


def write_table(stream: IO[str], header: Sequence[str], columns: Sequence, fmt: str = "csv",
                fork: bool = False) -> None:
    """Write a table given column by column, as CSV or as JSON text.

    Each column is a :class:`LabelColumn`, an :class:`OrderColumn` (cells
    are strings), or a 1-D array or sequence whose cells share one type:
    strings are written as they are, integers in decimal and floats in CSV
    as 12-significant-digit decimals (``%.12g``).  ``fmt="json"`` writes
    exactly ``json.dumps(records, indent=2)`` of the list of row objects
    (keys in header order, NaN as ``null``) and a newline, for distinct
    header names.  Rows are formatted and written BLOCK_ROWS at a time, so the
    formatted table never sits in memory whole; in both formats each block
    is one ``%`` of a row template built once per table.  With ``fork``, a
    forked child process may format the second half of the rows: see
    :mod:`oofa.split`.
    """
    header = list(header)
    if not header or len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    typed = [_typed_column(column) for column in columns]
    n = len(typed[0][1])
    if any(len(values) != n for _, values in typed):
        raise ValueError("table columns differ in length")
    if fmt == "json":
        if n == 0:
            stream.write("[]\n")
            return
        from .jsonio import json_rows

        stream.write("[\n")
        write_rows, tail = json_rows(header, typed), "\n]\n"
    else:
        csv.writer(stream, lineterminator="\n").writerow(header)
        write_rows, tail = _csv_rows(typed), ""
    # the child's half is copied out through the stream's binary buffer
    start = split_start(n, BLOCK_ROWS) if fork and hasattr(stream, "buffer") else None
    if start is None:
        write_rows(stream, 0, n)
    else:
        from .split import write

        write(stream, write_rows, n, start)
    stream.write(tail)


def _csv_rows(typed: list):
    """``write_rows(stream, start, stop)``: the CSV rows of the blocks of
    ``typed`` that begin in rows start..stop."""
    # Cells reach the template as arguments, never as part of it, so a % in a cell is safe.
    # Ints go in through %s, which is str for int subclasses (bool, IntEnum) too.
    template = ",".join("%.12g" if kind == "f" else "%s" for kind, _ in typed) + "\n"

    def write_rows(stream: IO[str], start: int, stop: int) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        for begin in range(start, stop, BLOCK_ROWS):
            block = _block(typed, begin)
            if len(typed) > 1 and not any(
                kind == "s" and _needs_quoting(cells) for (kind, _), cells in zip(typed, block)
            ):
                cells = _format_block(typed, block, _TEMPLATE_CELLS)
                stream.write(template * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))
            else:  # csv.writer quotes these cells, and writes an empty lone field as ""
                writer.writerows(zip(*_format_block(typed, block, _CSV_CELLS)))

    return write_rows


def _typed_column(column) -> tuple[str, object]:
    """(kind, values): kind 'f', 'i' or 's' says how the cells are written."""
    if isinstance(column, LabelColumn):
        kind, labels = _typed_column(list(column.labels))
        return kind, LabelColumn(labels, column.codes)
    if isinstance(column, OrderColumn):
        return "s", column
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        kind = "i" if column.dtype.kind == "u" else column.dtype.kind
        return kind, column
    types = set(map(type, column))
    if all(issubclass(t, str) for t in types):
        return "s", column
    if all(issubclass(t, (int, np.integer)) for t in types):
        return "i", column
    return "f", np.asarray(column, dtype=float)


def _block(typed: list, start: int) -> list[list]:
    """Rows start..start+BLOCK_ROWS of every column, as lists, column by column.
    Label and order columns make their cells here, one block at a time."""
    out = []
    for _, values in typed:
        block = values[start:start + BLOCK_ROWS]
        out.append(block.tolist() if isinstance(block, np.ndarray) else block)
    return out


def _format_block(typed: list, block: list[list], cells: dict) -> list[list[str]]:
    """The cells of a :func:`_block`, formatted, column by column."""
    return [cells[kind](values) for (kind, _), values in zip(typed, block)]


def _as_is(values: list) -> list:
    return values


def _needs_quoting(cells: Sequence[str]) -> bool:
    """Whether csv.writer (QUOTE_MINIMAL) would quote any of these cells.

    It quotes a field only when the field holds the delimiter, the quote
    character or a line-break character.
    """
    text = "".join(cells)
    return "," in text or '"' in text or "\n" in text or "\r" in text


_CSV_CELLS = {
    "f": lambda values: ["%.12g" % v for v in values],
    "i": lambda values: list(map(str, values)),
    "s": _as_is,
}
#: Cells for a CSV row template: floats and ints go in as values (``%.12g``, ``%s``).
_TEMPLATE_CELLS = {**_CSV_CELLS, "f": _as_is, "i": _as_is}


__getattr__ = _forward(globals(), {"jsonio": ("fit_from_dict", "fit_to_dict", "to_json"),
                                   "adaptors": ("table_to_csv", "table_to_json")})
