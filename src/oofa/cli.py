"""Command-line interface: fit, average, rank, criteria, search, surface.

Every invocation prints its effective configuration to stderr as a single
``# config:`` line, so any run can be reproduced from its logs.  Exit codes:
0 success, 2 argument/validation problems, 1 numerical failures (rank
deficiency, saturation, search dead ends).  Each command imports its handler
and the package modules it uses when it runs, so a request loads only those.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__, _forward
from .errors import OofaError, ValidationError

if TYPE_CHECKING:
    from .models import ModelSpec


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _emit_config(args: argparse.Namespace) -> None:
    """Print every parsed argument but the command, in parser order."""
    parts = [f"{key.replace('_', '-')}={value}" for key, value in vars(args).items()
             if key not in ("command", "fork")]
    print(f"# config: {args.command} " + " ".join(parts), file=sys.stderr)


def _emit_table(args: argparse.Namespace, header, columns) -> None:
    from .dataio import write_table

    write_table(sys.stdout, header, columns, getattr(args, "format", "csv"), args.fork)


def _model_list(text: str) -> list[ModelSpec]:
    from .models import parse_model

    labels = [part for part in text.split(",") if part.strip()]
    if not labels:
        raise ValidationError("empty model list")
    specs = [parse_model(part) for part in labels]
    if len({spec.label for spec in specs}) != len(specs):
        raise ValidationError(f"duplicate models in {text!r}")
    return specs


def _parse_weight_list(text: str, count: int) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad weight list {text!r}") from None
    if len(weights) != count:
        raise ValidationError(f"{len(weights)} weights for {count} models")
    return weights


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

    p = sub.add_parser("matrix", help="model matrix for a design file")
    p.add_argument("--model", required=True)
    p.add_argument("--design", required=True, help="design CSV (pos_1..pos_m)")
    add_format(p)

    p = sub.add_parser("fit", help="least-squares fit of one model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="design CSV with a y column")
    p.add_argument("--block", action="store_true", help="include the block column")
    p.add_argument("--out", default=None, help="also write the fit JSON here")

    p = sub.add_parser("average", help="model-averaged predictions for all orders")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="comma-separated model list")
    p.add_argument("--weights", default="akaike", help="'akaike' or w1,w2,...")
    p.add_argument("--block", action="store_true")
    p.add_argument("--top", type=int, default=None, help="emit only the K best orders")
    add_format(p)

    p = sub.add_parser("predict", help="rank all orders from a saved fit")
    p.add_argument("--fit", required=True, help="fit JSON from the fit command")
    p.add_argument("--top", type=int, default=None)
    p.add_argument("--minimize", action="store_true",
                   help="rank 1 = smallest estimate instead of largest")
    add_format(p)

    p = sub.add_parser("criteria", help="design criteria for given models")
    p.add_argument("--design", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--criterion", choices=["apv", "av", "a", "d"], required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--orth", action="store_true", help="use the orthogonal coding")
    add_format(p)

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

    p = sub.add_parser("surface", help="response-surface grid on the (p1, p2) plane")
    p.add_argument("--data", required=True)
    p.add_argument("--grid", type=int, required=True, help="grid points per axis")
    p.add_argument("--block", action="store_true")
    add_format(p)

    return parser


def main(argv=None, fork: bool = False) -> int:
    """Run one request; return its exit code.  With ``fork``, which
    :func:`run` alone passes, a request that walks or prints a long run of
    rows may split it with a forked child process: see :mod:`oofa.split`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.fork = fork
    handler = __getattr__(f"_cmd_{args.command}")  # imports that command's module alone
    try:
        handler(args)
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


#: Each command's handler, ``_cmd_<command>``, by module.
__getattr__ = _forward(globals(), {
    "designcmds": ("_cmd_criteria", "_cmd_design", "_cmd_enumerate", "_cmd_matrix"),
    "datacmds": ("_cmd_average", "_cmd_fit", "_cmd_predict", "_cmd_surface")})

if __name__ == "__main__":
    # The handler modules import this module as oofa.cli: one copy, not two.
    sys.modules["oofa.cli"] = sys.modules[__name__]
    run()
