"""Seeded input files for the benchmark workloads.

Everything the program reads is written here, from one integer seed, so the
same seed always gives byte-identical inputs.  Before a design is handed to
the program, its model matrix is built with the independent row-by-row
builders of ``tests/_oracle.py`` and checked for full column rank under
every model that will be requested on it; a rank-deficient draw is
replaced by the next draw from the same generator.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

from .oracle import oracle

LETTERS = "ABCDEFGH"

# the five families every analysis and scoring request uses
ANALYSIS_MODELS = ("pwo", "tpwo:invh", "cp", "rs2", "nn")

ANALYZE_M = 8
ANALYZE_N = 80
NOISE_SD = 1.0

# score-batch designs: runs per m, comfortably above the largest p (nn: m(m-1))
SCORE_RUNS = {6: 40, 7: 52, 8: 64}

MAX_DRAWS = 50


def all_orders(m: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, m + 1)))


def label_order(order) -> list[str]:
    return [LETTERS[c - 1] for c in order]


def ids_by_first_appearance(rows: list[list[str]]) -> list[tuple[int, ...]]:
    """Component ids as the design-file format assigns them (first seen = 1)."""
    ids: dict[str, int] = {}
    out = []
    for row in rows:
        for label in row:
            ids.setdefault(label, len(ids) + 1)
        out.append(tuple(ids[label] for label in row))
    return out


def full_rank(orders, models) -> bool:
    for model in models:
        x = oracle().matrix(model, orders)
        if x.shape[0] < x.shape[1] or oracle().rank_of(x) < x.shape[1]:
            return False
    return True


def draw_design(rng: np.random.Generator, m: int, n: int, models) -> list[tuple[int, ...]]:
    """n distinct orders of 1..m, full column rank for every model in ``models``.

    Orders are relabelled so that the first run is 1..m; the file then
    assigns each component the id the oracle uses.
    """
    pool = all_orders(m)
    for _ in range(MAX_DRAWS):
        picks = rng.choice(len(pool), size=n, replace=False)
        orders = [pool[i] for i in picks]
        relabel = {c: k + 1 for k, c in enumerate(orders[0])}
        orders = [tuple(relabel[c] for c in order) for order in orders]
        if full_rank(orders, models):
            return orders
    raise RuntimeError(f"no full-rank {n}-run design at m = {m} in {MAX_DRAWS} draws")


def planted_response(rng: np.random.Generator, orders) -> np.ndarray:
    """y = 50 + PWO effect + N(0, NOISE_SD^2) noise."""
    x = oracle().matrix("pwo", orders)
    beta = np.concatenate([[50.0], rng.normal(0.0, 1.5, size=x.shape[1] - 1)])
    return x @ beta + rng.normal(0.0, NOISE_SD, size=len(orders))


def write_csv(path: Path, orders, y=None) -> None:
    m = len(orders[0])
    header = [f"pos_{k}" for k in range(1, m + 1)] + (["y"] if y is not None else [])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, order in enumerate(orders):
            row = label_order(order)
            if y is not None:
                row.append(repr(float(y[i])))
            writer.writerow(row)


def make_analyze_data(seed: int, workdir: Path) -> Path:
    rng = np.random.default_rng([seed, ANALYZE_M])
    orders = draw_design(rng, ANALYZE_M, ANALYZE_N, ANALYSIS_MODELS)
    path = workdir / "analyze_m8.csv"
    write_csv(path, orders, planted_response(rng, orders))
    return path


def make_score_designs(seed: int, workdir: Path) -> dict[int, Path]:
    paths = {}
    for m, n in SCORE_RUNS.items():
        rng = np.random.default_rng([seed, m, n])
        path = workdir / f"score_m{m}.csv"
        write_csv(path, draw_design(rng, m, n, ANALYSIS_MODELS))
        paths[m] = path
    return paths


def read_csv(path: Path) -> tuple[list[tuple[int, ...]], np.ndarray | None]:
    """(orders as ids, response or None) straight from a design file."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    header, body = rows[0], rows[1:]
    if header[0] == "run":
        header, body = header[1:], [row[1:] for row in body]
    m = sum(1 for name in header if name.startswith("pos_"))
    orders = ids_by_first_appearance([row[:m] for row in body])
    y = np.array([float(row[-1]) for row in body]) if header[-1] == "y" else None
    return orders, y
