"""Command-line interface: fit, average, rank, criteria, search, surface.

Every invocation prints its effective configuration to stderr as a single
``# config:`` line, so any run can be reproduced from its logs.  Exit codes:
0 success, 2 argument/validation problems, 1 numerical failures (rank
deficiency, saturation, search dead ends).  Each command imports the package
modules it uses when it runs, so a request loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__
from .errors import OofaError, ParseError, SaturatedModelError, ValidationError

if TYPE_CHECKING:
    from .averaging import CandidateSet
    from .design import Dataset, Design
    from .fitting import FitResult
    from .models import ModelSpec

#: Largest ``surface --grid``: the grid has grid² points, and 1000² rows is
#: already far more than a plot of the (p1, p2) plane needs.
MAX_GRID = 1000


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _emit_config(args: argparse.Namespace) -> None:
    """Print every parsed argument but the command and its handler, in parser order."""
    parts = [f"{key.replace('_', '-')}={value}" for key, value in vars(args).items()
             if key not in ("command", "func", "fork")]
    print(f"# config: {args.command} " + " ".join(parts), file=sys.stderr)


def _emit_table(args: argparse.Namespace, header, columns) -> None:
    from .dataio import write_table

    write_table(sys.stdout, header, columns, getattr(args, "format", "csv"), args.fork)


def _check_top(top: int | None, count: int) -> None:
    if top is not None and not 1 <= top <= count:
        raise ValidationError(f"--top must be in 1..{count}, got {top}")


def _model_list(text: str) -> list[ModelSpec]:
    from .models import parse_model

    labels = [part for part in text.split(",") if part.strip()]
    if not labels:
        raise ValidationError("empty model list")
    specs = [parse_model(part) for part in labels]
    if len({spec.label for spec in specs}) != len(specs):
        raise ValidationError(f"duplicate models in {text!r}")
    return specs


def _load_dataset(path: str) -> Dataset:
    from .dataio import read_design
    from .design import Dataset

    loaded = read_design(path)
    if not isinstance(loaded, Dataset):
        raise ValidationError(f"{path} has no response column y")
    return loaded


def _load_design(path: str) -> Design:
    from .dataio import read_design
    from .design import Dataset

    loaded = read_design(path)
    return loaded.design if isinstance(loaded, Dataset) else loaded


def _apply_block(data: Dataset, use_block: bool) -> Dataset:
    from .design import Dataset

    if use_block:
        if data.design.block is None:
            raise ValidationError("--block given but the file has no block column")
        return data
    return Dataset(data.design.without_block(), data.response)


def _parse_weight_list(text: str, count: int) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad weight list {text!r}") from None
    if len(weights) != count:
        raise ValidationError(f"{len(weights)} weights for {count} models")
    return weights


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args: argparse.Namespace) -> None:
    from .dataio import position_columns
    from .design import check_labels
    from .perms import check_capacity, order_array

    _emit_config(args)
    check_capacity(args.m)
    labels = None
    if args.labels:
        labels = tuple(part.strip() for part in args.labels.split(","))
        check_labels(labels, args.m, "--labels")
    named = labels or tuple(str(c) for c in range(1, args.m + 1))
    _emit_table(args, *position_columns(order_array(args.m), named))


def _cmd_matrix(args: argparse.Namespace) -> None:
    from .models import order_matrix, parse_model

    _emit_config(args)
    spec = parse_model(args.model)
    built = order_matrix(spec, _load_design(args.design).orders)
    _emit_table(args, built.term_labels, list(built.values.T))


def _cmd_fit(args: argparse.Namespace) -> None:
    from .dataio import fit_to_dict, to_json
    from .fitting import ols_fit
    from .models import parse_model

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
    from .dataio import position_columns
    from .fitting import ols_fit
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
        table = predict_all(fit, args.fork)
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
    from .dataio import OrderColumn, fit_from_dict
    from .ranking import PredictionTable, predict_all, rank_descending, top_k

    _emit_config(args)
    with open(args.fit, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ParseError(f"{args.fit} is not a JSON fit file: {exc}") from None
    fit = fit_from_dict(payload)
    table = predict_all(fit, args.fork)
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


def _cmd_criteria(args: argparse.Namespace) -> None:
    from .criteria import ORIENTATION, CriterionKind, CriterionSpec, criterion_value

    _emit_config(args)
    specs = _model_list(args.models)
    design = _load_design(args.design)
    kind = CriterionKind(args.criterion)
    crit = CriterionSpec(kind, args.sigma2, args.orth)
    values = [criterion_value(spec, crit, design) for spec in specs]
    _emit_table(args, ["model", "criterion", "value", "orientation"], [
        [spec.label for spec in specs],
        [args.criterion] * len(specs),
        values,
        [ORIENTATION[kind]] * len(specs),
    ])


def _cmd_design(args: argparse.Namespace) -> None:
    from .criteria import CompoundMember, CompoundSpec, CriterionKind, CriterionSpec
    from .dataio import to_json, write_design
    from .search import SearchConfig, exchange_search

    if args.seed is None:
        env_seed = os.environ.get("OOFA_SEED", "0")
        try:
            args.seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"OOFA_SEED must be an integer, got {env_seed!r}") from None
    _emit_config(args)
    specs = _model_list(args.models)
    crit = CriterionSpec(CriterionKind(args.criterion), args.sigma2, args.orth)
    if args.weights == "equal":
        objective = CompoundSpec.equal_weights(specs, crit)
    else:
        weights = _parse_weight_list(args.weights, len(specs))
        objective = CompoundSpec(
            tuple(CompoundMember(spec, crit, w) for spec, w in zip(specs, weights))
        )
    config = SearchConfig(
        m=args.m,
        n_runs=args.runs,
        objective=objective,
        restarts=args.restarts,
        seed=args.seed,
        max_passes=args.max_passes,
    )
    result = exchange_search(config)
    report = {
        "m": args.m,
        "runs": args.runs,
        "models": [spec.label for spec in specs],
        "criterion": args.criterion,
        "sigma2": args.sigma2,
        "orthogonal_coding": bool(args.orth),
        "weights": [member.weight for member in objective.members],
        "restarts": args.restarts,
        "seed": args.seed,
        "objective": result.objective,
        "member_values": {
            member.model.label: value
            for member, value in zip(objective.members, result.member_values)
        },
        "best_restart": result.restart,
        "passes": len(result.objective_trace) - 1,
        "objective_trace": list(result.objective_trace),
        "design": result.design.orders.tolist(),
    }
    if args.out:  # first, so an --out that fails leaves stdout empty
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_design(handle, result.design, run_index=True)
    print(to_json(report))


def _cmd_surface(args: argparse.Namespace) -> None:
    from .fitting import ols_fit
    from .models import Family, ModelSpec, _positions, rs2_rows
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


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oofa",
        description="Order-of-addition experiments: model fitting, model "
        "averaging, rank prediction, and design search.",
    )
    parser.add_argument("--version", action="version", version=f"oofa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="csv"):
        p.add_argument("--format", choices=["csv", "json"], default=default,
                       help=f"output format (default {default})")

    p = sub.add_parser("enumerate", help="list all m! orders")
    p.add_argument("--m", type=int, required=True, help="number of components (<= 8)")
    p.add_argument("--labels", default=None, help="comma-separated component names")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("matrix", help="model matrix for a design file")
    p.add_argument("--model", required=True)
    p.add_argument("--design", required=True, help="design CSV (pos_1..pos_m)")
    add_format(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("fit", help="least-squares fit of one model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="design CSV with a y column")
    p.add_argument("--block", action="store_true", help="include the block column")
    p.add_argument("--out", default=None, help="also write the fit JSON here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("average", help="model-averaged predictions for all orders")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="comma-separated model list")
    p.add_argument("--weights", default="akaike", help="'akaike' or w1,w2,...")
    p.add_argument("--block", action="store_true")
    p.add_argument("--top", type=int, default=None, help="emit only the K best orders")
    add_format(p)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("predict", help="rank all orders from a saved fit")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--minimize", action="store_true",
                   help="rank 1 = smallest estimate instead of largest")
    add_format(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("criteria", help="design criteria for given models")
    p.add_argument("--design", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--criterion", choices=["apv", "av", "a", "d"], required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--orth", action="store_true", help="use the orthogonal coding")
    add_format(p)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("design", help="search for a good N-run design")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--criterion", choices=["apv", "av", "a", "d"], default="apv")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--orth", action="store_true")
    p.add_argument("--weights", default="equal", help="'equal' or a1,a2,...")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $OOFA_SEED, else 0)")
    p.add_argument("--max-passes", type=int, default=50, dest="max_passes")
    p.add_argument("--out", default=None, help="write the design CSV here")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("surface", help="response-surface grid on the (p1, p2) plane")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", type=int, required=True, help="grid points per axis")
    p.add_argument("--block", action="store_true")
    add_format(p)
    p.set_defaults(func=_cmd_surface)

    return parser


def main(argv=None, fork: bool = False) -> int:
    """Run one request; return its exit code.  With ``fork``, which
    :func:`run` alone passes, a request that walks or prints a long run of
    rows may split it with a forked child process: see :mod:`oofa.split`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fork = fork
    try:
        args.func(args)
    except ValidationError as exc:
        return _report(exc, 2)
    except (OofaError, np.linalg.LinAlgError) as exc:
        return _report(exc, 1)
    except OSError as exc:
        return _report(exc, 2)
    return 0


def _report(exc: BaseException, code: int) -> int:
    """Print ``exc`` as the request's one ``oofa: error:`` line; return ``code``."""
    message = " ".join(str(exc).split())
    print(f"oofa: error: {type(exc).__name__}: {message}", file=sys.stderr)
    return code


def run(argv=None) -> NoReturn:
    """Run ``main`` as the whole process, then end it with ``os._exit``: no teardown.

    Safe because every file a command writes is closed before ``main``
    returns (by the owners of ``dataio._open_target`` streams, and the
    ``with open(...)`` blocks of ``fit`` and ``design``); stdout and stderr
    are flushed here.  Owning the process, the request may fork (``main``'s
    ``fork``).  Under a profiler or tracer it does not, and the interpreter
    exits normally, as it does when ``main`` raises.
    """
    monitoring = getattr(sys, "monitoring", None)  # cProfile and coverage from 3.12
    if (sys.getprofile() or sys.gettrace()
            or monitoring and any(monitoring.get_tool(i) for i in range(6))):
        sys.exit(main(argv))
    code = main(argv, fork=True)
    try:
        sys.stdout.flush()
    except OSError as exc:  # the reader has gone
        if code == 0:  # a failed request has reported its own error
            code = _report(exc, 2)
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report to
    os._exit(code)


if __name__ == "__main__":
    run()
