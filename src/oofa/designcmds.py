"""The handlers of ``enumerate``, ``matrix``, ``criteria`` and ``design``,
which :func:`oofa.cli.main` imports for these commands alone."""

from __future__ import annotations

import argparse
import os

from .cli import _emit_config, _emit_table, _model_list, _parse_weight_list
from .dataio import position_columns, read_design, write_design
from .design import Dataset, Design, check_labels
from .errors import ValidationError
from .models import order_matrix, parse_model
from .perms import check_capacity, order_array


def _load_design(path: str) -> Design:
    loaded = read_design(path)
    return loaded.design if isinstance(loaded, Dataset) else loaded


def _cmd_enumerate(args: argparse.Namespace) -> None:
    _emit_config(args)
    check_capacity(args.m)
    labels = None
    if args.labels:
        labels = tuple(part.strip() for part in args.labels.split(","))
        check_labels(labels, args.m, "--labels")
    named = labels or tuple(str(c) for c in range(1, args.m + 1))
    _emit_table(args, *position_columns(order_array(args.m), named))


def _cmd_matrix(args: argparse.Namespace) -> None:
    _emit_config(args)
    spec = parse_model(args.model)
    built = order_matrix(spec, _load_design(args.design).orders)
    _emit_table(args, built.term_labels, list(built.values.T))


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
    from .jsonio import to_json
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
