"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the request's
output is correct.  Reference values come from the brute-force module
``tests/_oracle.py`` (loops, explicit inverses), never from the package,
except where the check is itself a CLI call: a `design` report is re-scored
by running the `criteria` command on the design it wrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np

from . import inputs
from .oracle import oracle
from .workloads import Request

REL_TOL = 1e-9  # tables carry 12 significant digits
SAMPLE_ROWS = 40
TOP_PROBES = 200
ORACLE_CRITERIA_MAX_M = 6  # apv_direct materializes a w x w centering matrix


def close(a: float, b: float, scale: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def common_problems(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {returncode}: {tail[0]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    configs = [line for line in stderr.splitlines() if line.startswith("# config:")]
    if len(configs) != 1:
        problems.append(f"{len(configs)} '# config:' lines on stderr, expected 1")
    return problems


def parse_table(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    if fmt == "json":
        records = json.loads(text)
        header = list(records[0]) if records else []
        return header, [[str(rec[key]) for key in header] for rec in records]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def is_ranking(ranks: list[int], total: int) -> bool:
    return sorted(ranks) == list(range(1, total + 1))


class Checker:
    """Checks one workload's outputs; caches oracle fits and matrices per run."""

    def __init__(self, workdir, rescore=None):
        self.workdir = workdir
        self.rescore = rescore  # callable(argv) -> stdout of an in-process CLI call
        self._fits: dict = {}
        self._full: dict = {}
        self._data: dict = {}

    # -- oracle plumbing -----------------------------------------------------

    def data(self, name: str):
        """(orders, y, label -> id) for an input file."""
        if name not in self._data:
            orders, y = inputs.read_csv(self.workdir / name)
            with open(self.workdir / name, encoding="utf-8", newline="") as handle:
                first = next(row for row in list(csv.reader(handle))[1:] if row)
            labels = {label: k + 1 for k, label in enumerate(first[: len(orders[0])])}
            self._data[name] = (orders, y, labels)
        return self._data[name]

    def oracle_fit(self, model: str, data: str) -> dict:
        key = (model, data)
        if key not in self._fits:
            orders, y, _ = self.data(data)
            self._fits[key] = oracle().fit(oracle().matrix(model, orders), y)
        return self._fits[key]

    def full_matrix(self, model: str, m: int) -> np.ndarray:
        key = (model, m)
        if key not in self._full:
            self._full[key] = oracle().matrix(model, oracle().perms_lex(m))
        return self._full[key]

    def oracle_criterion(self, model: str, kind: str, orth: bool, orders) -> float:
        m = len(orders[0])
        x = oracle().matrix(model, orders)
        xf = self.full_matrix(model, m)
        if orth:
            # X_f^T X_f = R^T R; coded rows x R^{-1} sqrt(w) give X_f^T X_f = w I
            r = np.linalg.cholesky(xf.T @ xf).T
            coding = np.linalg.inv(r) * math.sqrt(len(xf))
            x, xf = x @ coding, xf @ coding
        if kind == "apv":
            return oracle().apv_direct(x, xf)
        if kind == "av":
            return oracle().av_direct(x, xf)
        if kind == "a":
            return oracle().a_direct(x)
        return oracle().d_direct(x)

    def predict_order(self, model: str, data: str, order) -> tuple[float, float]:
        row = oracle().matrix(model, [order])[0]
        est, var = oracle().predict(row, self.oracle_fit(model, data))
        return est, math.sqrt(max(var, 0.0))

    def sample_indices(self, total: int, count: int) -> list[int]:
        step = max(1, total // count)
        return list(range(0, total, step))[:count]

    # -- per-command checks --------------------------------------------------

    def check(self, req: Request, stdout: str) -> list[str]:
        try:
            return getattr(self, "check_" + req.command)(req, stdout)
        except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
            return [f"unparseable output: {type(exc).__name__}: {exc}"]

    def check_fit(self, req: Request, stdout: str) -> list[str]:
        meta = req.meta
        report = json.loads(stdout)
        ref = self.oracle_fit(meta["model"], meta["data"])
        est = np.array([row["estimate"] for row in report["coefficients"]])
        problems = []
        if est.shape != ref["beta"].shape:
            return [f"{len(est)} coefficients, oracle has {len(ref['beta'])}"]
        scale = float(np.max(np.abs(ref["beta"])))
        worst = float(np.max(np.abs(est - ref["beta"])))
        if worst > 1e-8 * scale:
            problems.append(f"coefficients differ from the oracle by {worst:.3g}")
        if not close(report["rss"], ref["rss"], 1e-12, rel=1e-8):
            problems.append(f"rss {report['rss']} != oracle {ref['rss']}")
        if not close(report["aic"], ref["aic"], 1.0, rel=1e-8):
            problems.append(f"aic {report['aic']} != oracle {ref['aic']}")
        saved = (self.workdir / meta["out"]).read_text(encoding="utf-8")
        if saved.strip() != stdout.strip():
            problems.append("--out file differs from stdout")
        return problems

    def check_predict(self, req: Request, stdout: str) -> list[str]:
        meta = req.meta
        header, rows = parse_table(stdout, meta.get("format", "csv"))
        if header != ["order", "estimate", "std_error", "rank"]:
            return [f"unexpected header {header}"]
        orders_data, _, labels = self.data(meta["data"])
        m = len(orders_data[0])
        total = meta.get("top") or math.factorial(m)
        if len(rows) != total:
            return [f"{len(rows)} rows, expected {total}"]
        ranks = [int(row[3]) for row in rows]
        est = [float(row[1]) for row in rows]
        problems = []
        if meta.get("top"):
            if ranks != list(range(1, total + 1)):
                problems.append("top rows are not ranks 1..K in order")
        elif not is_ranking(ranks, total):
            problems.append("ranks are not a permutation of 1..m!")
        by_rank = sorted(zip(ranks, est))
        if any(a[1] < b[1] - REL_TOL * abs(b[1]) for a, b in zip(by_rank, by_rank[1:])):
            problems.append("a better rank has a smaller estimate")
        for i in self.sample_indices(len(rows), SAMPLE_ROWS):
            order = tuple(labels[token] for token in rows[i][0].split())
            ref_est, ref_se = self.predict_order(meta["model"], meta["data"], order)
            if not (close(est[i], ref_est, 1.0) and close(float(rows[i][2]), ref_se, 1e-6)):
                problems.append(f"row {i} ({rows[i][0]}) differs from the oracle")
                break
        if meta.get("top"):
            shown = {row[0] for row in rows}
            floor = min(est)
            rng = np.random.default_rng(0)
            pool = inputs.all_orders(m)
            inverse = {v: k for k, v in labels.items()}
            for j in rng.choice(len(pool), size=TOP_PROBES, replace=False):
                order = pool[j]
                if " ".join(inverse[c] for c in order) in shown:
                    continue
                ref_est, _ = self.predict_order(meta["model"], meta["data"], order)
                if ref_est > floor + REL_TOL * abs(floor):
                    problems.append(f"order {order} beats the K-th shown estimate")
                    break
        return problems

    def check_average(self, req: Request, stdout: str) -> list[str]:
        meta = req.meta
        header, rows = parse_table(stdout, "csv")
        orders_data, _, labels = self.data(meta["data"])
        m = len(orders_data[0])
        models = meta["models"]
        expected = [f"pos_{k}" for k in range(1, m + 1)]
        for model in models:
            expected += [f"est_{model}", f"rank_{model}"]
        expected += ["ma_estimate", "ma_rank", "ma_se"]
        if header != expected:
            return [f"unexpected header {header}"]
        w = math.factorial(m)
        if len(rows) != w:
            return [f"{len(rows)} rows, expected {w}"]
        problems = []
        table = np.array([[float(v) for v in row[m:]] for row in rows])
        est_cols = table[:, 0 : 2 * len(models) : 2]
        for k in [*range(1, 2 * len(models), 2), 2 * len(models) + 1]:
            if not is_ranking(table[:, k].astype(int).tolist(), w):
                problems.append(f"column {header[m + k]} is not a permutation of 1..m!")
        ma = table[:, 2 * len(models)]
        slack = REL_TOL * np.maximum(np.abs(est_cols).max(axis=1), 1.0)
        if np.any(ma < est_cols.min(axis=1) - slack) or np.any(ma > est_cols.max(axis=1) + slack):
            problems.append("ma_estimate outside the per-model range")
        fits = [self.oracle_fit(model, meta["data"]) for model in models]
        weights = oracle().akaike_weights([fit["aic"] for fit in fits])
        for i in self.sample_indices(w, SAMPLE_ROWS):
            order = tuple(labels[token] for token in rows[i][:m])
            per_model = [self.predict_order(model, meta["data"], order) for model in models]
            avg, var = oracle().model_average(
                [[e] for e, _ in per_model], [[se * se] for _, se in per_model], weights
            )
            ok = all(close(table[i, 2 * j], e, 1.0) for j, (e, _) in enumerate(per_model))
            ok &= close(ma[i], avg[0], 1.0) and close(table[i, -1], math.sqrt(var[0]), 1e-6)
            if not ok:
                problems.append(f"row {i} ({' '.join(rows[i][:m])}) differs from the oracle")
                break
        return problems

    def check_criteria(self, req: Request, stdout: str) -> list[str]:
        meta = req.meta
        header, rows = parse_table(stdout, "csv")
        if header != ["model", "criterion", "value", "orientation"]:
            return [f"unexpected header {header}"]
        if [row[0] for row in rows] != list(meta["models"]):
            return [f"models {[row[0] for row in rows]} != {list(meta['models'])}"]
        orientation = "max" if meta["criterion"] == "d" else "min"
        problems = []
        orders, _, _ = self.data(meta["design"])
        for model, crit, value, orient in rows:
            value = float(value)
            if crit != meta["criterion"] or orient != orientation:
                problems.append(f"{model}: criterion/orientation {crit}/{orient}")
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{model}: value {value} is not finite and positive")
            elif meta["m"] <= ORACLE_CRITERIA_MAX_M:
                ref = self.oracle_criterion(model, crit, meta["orth"], orders)
                if not close(value, ref, 0.0, rel=1e-8):
                    problems.append(f"{model}: {crit} {value} != oracle {ref}")
        return problems

    def check_design(self, req: Request, stdout: str) -> list[str]:
        meta = req.meta
        report = json.loads(stdout)
        m, runs = meta["m"], meta["runs"]
        design = [tuple(order) for order in report["design"]]
        if len(design) != runs or any(sorted(o) != list(range(1, m + 1)) for o in design):
            return [f"design is not {runs} orders of 1..{m}"]
        with open(self.workdir / meta["out"], encoding="utf-8", newline="") as handle:
            saved_tokens = [row[1:] for row in list(csv.reader(handle))[1:] if row]
        if saved_tokens != [[str(c) for c in order] for order in design]:
            return ["--out file does not hold the reported design"]
        argv = ["criteria", "--design", str(self.workdir / meta["out"]),
                "--models", ",".join(meta["models"]), "--criterion", meta["criterion"]]
        argv += ["--orth"] if meta["orth"] else []
        _, rows = parse_table(self.rescore(argv), "csv")
        values = [float(row[2]) for row in rows]
        oriented = [1.0 / v if meta["criterion"] == "d" else v for v in values]
        rescored = sum(oriented) / len(oriented)
        problems = []
        if not close(report["objective"], rescored, 0.0):
            problems.append(f"objective {report['objective']} != criteria re-score {rescored}")
        if m <= ORACLE_CRITERIA_MAX_M:
            for model, value in report["member_values"].items():
                ref = self.oracle_criterion(model, meta["criterion"], meta["orth"], design)
                if not close(value, ref, 0.0, rel=1e-8):
                    problems.append(f"{model}: member value {value} != oracle {ref}")
        return problems


def cli_capture(main, argv) -> str:
    """stdout of an in-process ``oofa.cli.main(argv)`` call; raises on failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0:
        raise ValueError(f"oofa {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()
