"""The handlers of ``fit``, ``predict``, ``average`` and ``surface``, which
:func:`oofa.cli.main` imports for these commands alone."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

import numpy as np

from .cli import _emit_config, _emit_table, _model_list, _parse_weight_list
from .dataio import OrderColumn, position_columns, read_design
from .design import Dataset
from .errors import ParseError, SaturatedModelError, ValidationError
from .fitting import FitResult, ols_fit
from .models import Family, ModelSpec, _positions, parse_model, rs2_rows

if TYPE_CHECKING:
    from .averaging import CandidateSet

#: Largest ``surface --grid``: the grid has grid² points, and 1000² rows is
#: already far more than a plot of the (p1, p2) plane needs.
MAX_GRID = 1000


def _check_top(top: int | None, count: int) -> None:
    if top is not None and not 1 <= top <= count:
        raise ValidationError(f"--top must be in 1..{count}, got {top}")


def _load_dataset(path: str) -> Dataset:
    loaded = read_design(path)
    if not isinstance(loaded, Dataset):
        raise ValidationError(f"{path} has no response column y")
    return loaded


def _apply_block(data: Dataset, use_block: bool) -> Dataset:
    if use_block:
        if data.design.block is None:
            raise ValidationError("--block given but the file has no block column")
        return data
    return Dataset(data.design.without_block(), data.response)


def _cmd_fit(args: argparse.Namespace) -> None:
    from .jsonio import fit_to_dict, to_json

    _emit_config(args)
    spec = parse_model(args.model)
    data = _apply_block(_load_dataset(args.data), args.block)
    fit = ols_fit(spec, data)
    text = to_json(fit_to_dict(fit))
    if args.out:  # first, so an --out that fails leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)


def _weighted_candidates(
    fits: list[FitResult], weights_arg: str
) -> tuple[CandidateSet, list[FitResult]]:
    """Candidate set plus any fits carried along for display only."""
    from .averaging import CandidateSet

    if weights_arg != "akaike":
        weights = _parse_weight_list(weights_arg, len(fits))
        return CandidateSet(tuple(fits), tuple(weights)), []
    usable, display_only = [], []
    for fit in fits:
        if fit.sigma2_hat is None:
            display_only.append(fit)
            print(
                f"# warning: {fit.spec.label} is saturated (no dispersion "
                "estimate); excluded from averaging, predictions still shown",
                file=sys.stderr,
            )
        else:
            usable.append(fit)
    if not usable:
        raise SaturatedModelError(
            "every candidate model is saturated; nothing to average"
        )
    return CandidateSet.from_akaike(usable), display_only


def _cmd_average(args: argparse.Namespace) -> None:
    from .averaging import average_predictions
    from .ranking import predict_all

    _emit_config(args)
    specs = _model_list(args.models)
    data = _apply_block(_load_dataset(args.data), args.block)
    fits = [ols_fit(spec, data) for spec in specs]
    candidates, display_only = _weighted_candidates(fits, args.weights)
    averaged = average_predictions(candidates, args.fork)

    predicted = {
        id(fit): (est, ranks)
        for fit, est, ranks in zip(candidates.fits, averaged.model_estimates, averaged.model_ranks)
    }
    for fit in display_only:
        table = predict_all(fit)
        predicted[id(fit)] = (table.estimates, table.ranks)
    per_model = [(fit.spec.label, *predicted[id(fit)]) for fit in fits]

    rows = slice(None)
    _check_top(args.top, len(averaged))
    if args.top is not None:
        rows = np.argsort(averaged.ranks)[: args.top]
    header, columns = position_columns(averaged.orders[rows], data.design.component_labels)
    for label, est, ranks in per_model:
        header += [f"est_{label}", f"rank_{label}"]
        columns += [est[rows], ranks[rows]]
    header += ["ma_estimate", "ma_rank", "ma_se"]
    columns += [averaged.estimates[rows], averaged.ranks[rows], averaged.std_errors[rows]]
    _emit_table(args, header, columns)


def _cmd_predict(args: argparse.Namespace) -> None:
    import json

    from .jsonio import fit_from_dict
    from .ranking import PredictionTable, predict_all, rank_descending, top_k

    _emit_config(args)
    with open(args.fit, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ParseError(f"{args.fit} is not a JSON fit file: {exc}") from None
    fit = fit_from_dict(payload)
    table = predict_all(fit)
    if args.minimize:
        table = PredictionTable(
            table.orders, table.estimates, table.std_errors, rank_descending(-table.estimates)
        )
    _check_top(args.top, len(table))
    if args.top is not None:
        table = top_k(table, args.top)
    _emit_table(args, ["order", "estimate", "std_error", "rank"],
                [OrderColumn(fit.data.design.component_labels, table.orders),
                 table.estimates, table.std_errors, table.ranks])


def _cmd_surface(args: argparse.Namespace) -> None:
    from .ranking import predict_rows

    _emit_config(args)
    data = _apply_block(_load_dataset(args.data), args.block)
    if data.m != 3:
        raise ValidationError(f"surface supports m = 3 only, got m = {data.m}")
    if not 2 <= args.grid <= MAX_GRID:
        raise ValidationError(f"--grid must be in 2..{MAX_GRID}, got {args.grid}")
    fit = ols_fit(ModelSpec(Family.RS2), data)

    m = data.m
    lo, hi = 2.0 / (m * (m + 1)), 2.0 * m / (m * (m + 1))
    axis = np.linspace(lo, hi, args.grid)
    p1, p2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    grid_p = np.column_stack([p1, p2, 1.0 - p1 - p2])
    eta, _ = predict_rows(fit, rs2_rows(grid_p))
    design_p = _positions(data.design.orders) * (2.0 / (m * (m + 1)))
    eta_design, _ = predict_rows(fit, rs2_rows(design_p))

    p = np.vstack([grid_p, design_p])
    kind = ["grid"] * len(eta) + ["design"] * len(eta_design)
    best = (np.arange(len(kind)) == np.argmax(eta)).astype(int)
    _emit_table(args, ["p1", "p2", "eta", "kind", "best"],
                [p[:, 0], p[:, 1], np.concatenate([eta, eta_design]), kind, best])
