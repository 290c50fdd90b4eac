"""JSON I/O: fit files, report text and the records of a JSON table, which
:func:`~oofa.dataio.write_table` writes.  Only requests that read or write
JSON import this module, and with it ``json``."""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import IO, TYPE_CHECKING

import numpy as np

from . import dataio
from .design import Dataset, Design
from .errors import ParseError, ValidationError
from .models import ModelSpec, parse_model

if TYPE_CHECKING:
    from .fitting import FitResult

#: Largest difference :func:`fit_from_dict` allows between a stored
#: coefficient and its refit, relative to the largest refit coefficient.
COEF_RTOL = 1e-9


def json_rows(header: list[str], typed: list):
    """``write_rows(stream, start, stop)``: the JSON records of the blocks of
    ``typed`` that begin in rows start..stop, each block after the first
    led by the ``,`` that ends the record before it."""
    fields = ",\n".join(
        "    " + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in header
    )
    record = "  {\n" + fields + "\n  }"

    def write_rows(stream: IO[str], start: int, stop: int) -> None:
        for begin in range(start, stop, dataio.BLOCK_ROWS):
            if begin:
                stream.write(",\n")
            cells = dataio._format_block(typed, dataio._block(typed, begin), _JSON_CELLS)
            records = ",\n".join([record] * len(cells[0]))
            stream.write(records % tuple(chain.from_iterable(zip(*cells))))

    return write_rows


def _json_floats(values: list) -> list[str]:
    texts = list(map(float.__repr__, values))
    if isfinite(sum(values)):  # no NaN or infinity among them
        return texts
    return [_JSON_SPECIAL.get(text, text) for text in texts]


_JSON_SPECIAL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_CELLS = {
    "f": _json_floats,
    "i": dataio._CSV_CELLS["i"],
    "s": lambda values: list(map(encode_basestring_ascii, values)),
}


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
        "rmse": fit.rmse,
        "df_error": int(fit.df_error),
        "aic": fit.aic,
        "bic": fit.bic,
        "n": int(fit.n),
        # extras beyond the advertised schema, for information only: `predict`
        # refits the model to `data` and reads none of them
        "m": int(fit.m),
        "p_effective": int(fit.p_effective),
        "n_block_cols": int(fit.n_block_cols),
        "sigma2_hat": fit.sigma2_hat,
        "log_lik": fit.log_lik,
        "xtx_inv": [[float(v) for v in row] for row in fit.xtx_inv],
        "data": {
            "orders": fit.data.design.orders.tolist(),
            "block": list(fit.data.design.block) if fit.data.design.block else None,
            "labels": list(fit.data.design.component_labels),
            "y": [float(v) for v in fit.data.response],
        },
    }
    return out


#: The name in an error message of each kind a fit field may be.
_JSON_NOUNS = {dict: "an object", list: "an array", str: "a string", float: "a number"}


def _json_field(value, kind: type, where: str, items: tuple = ()):
    """``value``, or a ParseError naming ``where`` unless it is a ``kind``
    (``dict`` for a JSON object, ``list`` for an array, ``str`` for a string,
    ``float`` for a number, which an integer is and a bool is not) and, for
    ``items`` = (name, types), an array of items of exactly those types."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ParseError(f"malformed fit JSON: {where} must be {_JSON_NOUNS[kind]}")
    if items and not all(type(v) in items[1] for v in value):
        raise ParseError(f"malformed fit JSON: {where} must be an array of {items[0]}")
    return value


#: The items of each ``data`` array of a fit file, and whether it may be null.
#: Each of the orders is an array of integers, which true, false and 1.0 are not.
_DATA_FIELDS = {
    "orders": ((), False),
    "block": (("strings", (str,)), True),
    "labels": (("strings", (str,)), False),
    "y": (("numbers", (int, float)), False),
}


def fit_from_dict(payload: dict) -> FitResult:
    """Refit the model to the data a :func:`fit_to_dict` payload carries.

    Only ``model``, ``taper``, ``data`` and the coefficient rows are read.
    The stored terms must be the refit's and every stored estimate within
    ``COEF_RTOL`` times the largest refit coefficient of its refit value, so
    an edited file is refused rather than used.  A refit that fails ends as
    ``oofa fit`` does on the same data.
    """
    from .fitting import ols_fit

    if not isinstance(payload, dict):
        raise ParseError("fit JSON must be an object")
    try:
        label = _json_field(payload["model"], str, "model")
        taper = payload.get("taper")
        if taper is not None and _json_field(taper, str, "taper"):
            label = f"{label}:{taper}"
        spec: ModelSpec = parse_model(label)
        data_part = _json_field(payload["data"], dict, "data")
        fields = {
            name: None if nullable and data_part.get(name) is None
            else _json_field(data_part.get(name), list, f"data.{name}", items)
            for name, (items, nullable) in _DATA_FIELDS.items()
        }
        orders = [_json_field(o, list, f"data.orders[{i}]", ("integers", (int,)))
                  for i, o in enumerate(fields["orders"])]
        design = Design(orders, fields["block"], fields["labels"])
        data = Dataset(design, np.array(fields["y"], dtype=float))
        coeff_rows = [
            _json_field(row, dict, f"coefficients[{i}]")
            for i, row in enumerate(_json_field(payload["coefficients"], list, "coefficients"))
        ]
        labels = tuple(_json_field(row["term"], str, f"coefficients[{i}].term")
                       for i, row in enumerate(coeff_rows))
        stored = np.array([_json_field(row["estimate"], float, f"coefficients[{i}].estimate")
                           for i, row in enumerate(coeff_rows)], dtype=float)
    except ValidationError:  # a ValueError too, but already says what is wrong
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed fit JSON: missing or bad field {exc}") from None
    fit = ols_fit(spec, data)
    if len(labels) != len(fit.term_labels):
        raise ParseError(
            f"fit JSON has {len(labels)} coefficients; model {spec.label} with "
            f"{fit.n_block_cols} block columns has {len(fit.term_labels)} terms"
        )
    if labels != fit.term_labels:
        raise ParseError("fit JSON terms do not match the declared model")
    drift = np.max(np.abs(stored - fit.coefficients))
    if not drift <= COEF_RTOL * np.max(np.abs(fit.coefficients)):  # NaN and inf fail too
        raise ParseError(
            "fit JSON coefficients disagree with a refit of the data it carries "
            f"(largest difference {float(drift):.3g})"
        )
    return fit
