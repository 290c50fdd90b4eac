"""Predict every possible order from one fit and rank the results.

Predictions are evaluated at block covariate zero, which (under the
sum-to-zero coding used by :mod:`oofa.fitting`) is the across-block average.
Rank 1 is the largest estimate; ties are broken by lexicographic run order
so ranks are always a permutation of 1..m!.
"""

from __future__ import annotations

from math import factorial
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import models
from .errors import EstimabilityError, ValidationError
from .fitting import FitResult
from .models import _positions, model_rows, split_start
from .perms import order_array
from .records import Record

if TYPE_CHECKING:
    from .adaptors import Permutation


class PredictionTable(Record):
    """Per-order estimates with conditional standard errors and ranks.

    Row i is the order ``orders[i]`` (a (w, m) array of components 1..m).
    ``std_errors`` is NaN throughout when the fit has no dispersion estimate
    (saturated or exact fit): point predictions stay valid, their
    uncertainty does not.
    """

    __slots__ = ("orders", "estimates", "std_errors", "ranks")

    def __init__(self, orders: np.ndarray, estimates: np.ndarray, std_errors: np.ndarray,
                 ranks: np.ndarray) -> None:
        self._set(orders, estimates, std_errors, ranks)

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """The row orders as :class:`Permutation` objects (built on each access)."""
        from .adaptors import as_permutations

        return as_permutations(self.orders)

    def take(self, rows) -> "PredictionTable":
        """The table of the given rows, in the given order."""
        return PredictionTable(
            self.orders[rows], self.estimates[rows], self.std_errors[rows], self.ranks[rows]
        )


def rank_descending(estimates: np.ndarray, out: np.ndarray | None = None,
                    key: np.ndarray | None = None) -> np.ndarray:
    """Rank 1 = largest; ties keep the earlier (lexicographic) row first.

    The ranks are written to ``out``, an int array as long as ``estimates``,
    when one is given.  ``key``, a float64 array of that length, takes the
    sort keys, so a caller that ranks several vectors can reuse one; beyond
    these only the sort's order is allocated.
    """
    est = np.asarray(estimates, dtype=float)
    key = np.empty(len(est)) if key is None else key
    order = np.argsort(np.negative(est, out=key), kind="stable")
    ranks = np.empty(len(est), dtype=int) if out is None else out
    ranks[order] = np.arange(1, len(est) + 1)
    return ranks


#: Orders per product in :func:`predict_rows` and
#: :func:`~oofa.averaging.combine_predictions`.  A BLAS picks its kernel,
#: and with it the order of each order's sums, by the shape of a product:
#: with OpenBLAS 0.3.31, a 384-row product with rs2's 35-column covariance
#: sums otherwise than a 1,024-row one, so the last bits of a standard error
#: depended on where the walk cut its blocks.  Every product takes this many
#: orders, the last ones padded with zeros, so no result depends on the cut.
PRODUCT_ROWS = 1024

#: Orders per unit of a walk that ``models.split_start`` may cut in two
#: (:func:`walk_orders`).  A walk forks from four units on, so at 4,096
#: orders, the walk's block size when that rule was set, m = 8 (40,320
#: orders) forks and m = 7 (5,040) does not.  A multiple of
#: ``models.BLOCK_ROWS``, so the cut falls between two blocks of the walk.
WALK_SPLIT_ROWS = 4096


def predict_rows(fit: FitResult, model_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point predictions and conditional variances at block covariate zero.

    ``model_rows`` holds model-column covariates only; block columns enter
    as zeros, so the full fitted covariance (which carries the
    model-times-block correlations) still applies.  Variances are NaN when
    the fit has no dispersion estimate.  Raises EstimabilityError when a
    prediction or variance overflows.  The rows are taken
    :data:`PRODUCT_ROWS` at a time, so a row's results do not depend on the
    rows it comes with.
    """
    rows = np.ascontiguousarray(model_rows, dtype=float)
    n, k = rows.shape
    if k != fit.n_model_cols:
        raise ValidationError(
            f"rows have {k} columns, fit has {fit.n_model_cols} model columns"
        )
    est, var = np.empty(n), np.full(n, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, PRODUCT_ROWS):
            tile, b = rows[start:start + PRODUCT_ROWS], min(PRODUCT_ROWS, n - start)
            if b < PRODUCT_ROWS:
                tile = np.pad(tile, ((0, PRODUCT_ROWS - b), (0, 0)))
            est[start:start + b] = (tile @ fit.model_coefficients)[:b]
            if fit.sigma2_hat is not None:
                prod = tile @ fit.xtx_inv[:k, :k]
                prod *= tile
                var[start:start + b] = np.maximum(fit.sigma2_hat * prod.sum(axis=1)[:b], 0.0)
    if not (np.all(np.isfinite(est)) and (fit.sigma2_hat is None or np.all(np.isfinite(var)))):
        raise EstimabilityError(
            f"predictions of model {fit.spec.label} overflow; rescale y, for example "
            "divide it by a power of ten"
        )
    return est, var


def position_blocks(m: int, start: int = 0, stop: int | None = None
                    ) -> Iterator[tuple[slice, np.ndarray]]:
    """The positions q_c of all m! orders, ``models.BLOCK_ROWS`` orders at a
    time, as (rows, q) pairs: ``rows`` is a slice of consecutive rows of
    :func:`~oofa.perms.order_array` and ``q`` holds the positions of those
    orders, computed from them alone, so no m!-row position array is ever
    kept.  The blocks come in ascending order and tile the orders once;
    given ``start`` (a multiple of the block size) and ``stop``, only the
    blocks that begin in rows start..stop come.
    """
    for begin in range(start, factorial(m) if stop is None else stop, models.BLOCK_ROWS):
        rows = slice(begin, begin + models.BLOCK_ROWS)
        yield rows, _positions(order_array(m)[rows])


def predict_factorial(
    fits: Sequence[FitResult], start: int = 0, stop: int | None = None,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """:func:`predict_rows` of each of K fits of one m at every one of the m!
    orders, as (rows, est, var) per block of
    :func:`position_blocks` ``(m, start, stop)``: ``est`` and
    ``var`` are (K, b) and hold the predictions at the b orders of rows
    ``rows`` of :func:`~oofa.perms.order_array`.  The orders are walked once;
    each block's positions serve every fit, and only one block of model rows
    is held at a time.
    """
    for rows, q in position_blocks(fits[0].m, start, stop):
        est, var = zip(*(predict_rows(fit, model_rows(fit.spec, q)) for fit in fits))
        yield rows, np.array(est), np.array(var)


def walk_orders(m: int, fill: Callable, shapes: Sequence[tuple], fork: bool = False
                ) -> list[np.ndarray]:
    """One float array of shape ``(*shape, m!)`` per shape in ``shapes``,
    filled by ``fill(arrays, start, stop)``, which fills rows start..stop of
    each from :func:`position_blocks` ``(m, start, stop)``.
    With ``fork``, a forked child process may fill the second half: see
    :mod:`oofa.split`.  Only a walk that predicts several models asks for
    it: one model's m = 8 walk takes about 20 ms, too little to repay the
    fork and the copy-on-write faults that follow it.
    """
    n = factorial(m)
    start = split_start(n, WALK_SPLIT_ROWS) if fork else None
    if start is not None:
        from .split import walk

        return walk(fill, n, start, shapes)
    arrays = [np.empty((*shape, n)) for shape in shapes]
    fill(arrays, 0, n)
    return arrays


def predict_all(fit: FitResult) -> PredictionTable:
    """Evaluate the fit at every one of the m! orders, in lexicographic order."""
    def fill(arrays, start, stop):
        est, var = arrays
        for rows, block_est, block_var in predict_factorial([fit], start, stop):
            est[rows], var[rows] = block_est[0], block_var[0]

    est, var = walk_orders(fit.m, fill, [(), ()])
    # the variances are not kept: their square roots take their place
    return PredictionTable(order_array(fit.m), est, np.sqrt(var, out=var), rank_descending(est))


def top_k(table: PredictionTable, k: int) -> PredictionTable:
    """The k best rows, ordered by rank."""
    if not 1 <= k <= len(table):
        raise ValidationError(f"k must be in 1..{len(table)}, got {k}")
    return table.take(np.argsort(table.ranks)[:k])
