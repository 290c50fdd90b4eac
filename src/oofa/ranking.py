"""Predict every possible order from one fit and rank the results.

Predictions are evaluated at block covariate zero, which (under the
sum-to-zero coding used by :mod:`oofa.fitting`) is the across-block average.
Rank 1 is the largest estimate; ties are broken by lexicographic run order
so ranks are always a permutation of 1..m!.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import models
from .errors import EstimabilityError, ValidationError
from .fitting import FitResult
from .models import model_rows, position_blocks
from .perms import Permutation, as_permutations, order_array


@dataclass(frozen=True, eq=False)
class PredictionTable:
    """Per-order estimates with conditional standard errors and ranks.

    Row i is the order ``orders[i]`` (a (w, m) array of components 1..m).
    ``std_errors`` is NaN throughout when the fit has no dispersion estimate
    (saturated or exact fit): point predictions stay valid, their
    uncertainty does not.
    """

    orders: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    ranks: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.orders, self.estimates, self.std_errors, self.ranks):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """The row orders as :class:`Permutation` objects (built on each access)."""
        return as_permutations(self.orders)

    def take(self, rows) -> "PredictionTable":
        """The table of the given rows, in the given order."""
        return PredictionTable(
            self.orders[rows], self.estimates[rows], self.std_errors[rows], self.ranks[rows]
        )


def rank_descending(estimates: np.ndarray) -> np.ndarray:
    """Rank 1 = largest; ties keep the earlier (lexicographic) row first."""
    est = np.asarray(estimates, dtype=float)
    order = np.argsort(-est, kind="stable")
    ranks = np.empty(len(est), dtype=int)
    ranks[order] = np.arange(1, len(est) + 1)
    return ranks


def predict_rows(fit: FitResult, model_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point predictions and conditional variances at block covariate zero.

    ``model_rows`` holds model-column covariates only; block columns enter
    as zeros, so the full fitted covariance (which carries the
    model-times-block correlations) still applies.  Variances are NaN when
    the fit has no dispersion estimate.  Raises EstimabilityError when a
    prediction or variance overflows.
    """
    rows = np.asarray(model_rows, dtype=float)
    k = fit.n_model_cols
    if rows.shape[1] != k:
        raise ValidationError(
            f"rows have {rows.shape[1]} columns, fit has {k} model columns"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        est = rows @ fit.model_coefficients
        if fit.sigma2_hat is None:
            var = np.full(len(rows), np.nan)
        else:
            prod = rows @ fit.xtx_inv[:k, :k]
            prod *= rows
            var = np.maximum(fit.sigma2_hat * prod.sum(axis=1), 0.0)
    if not (np.all(np.isfinite(est)) and (fit.sigma2_hat is None or np.all(np.isfinite(var)))):
        raise EstimabilityError(
            f"predictions of model {fit.spec.label} overflow; rescale y, for example "
            "divide it by a power of ten"
        )
    return est, var


def predict_factorial(
    fits: Sequence[FitResult], start: int = 0, stop: int | None = None,
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """:func:`predict_rows` of each of K fits of one m at every one of the m!
    orders, as (rows, est, var) per block of
    :func:`~oofa.models.position_blocks` ``(m, start, stop)``: ``est`` and
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
    each from :func:`~oofa.models.position_blocks` ``(m, start, stop)``.
    With ``fork``, a forked child process may fill the second half: see
    :mod:`oofa.split`.
    """
    if fork:
        from .split import walk

        return walk(fill, factorial(m), models.BLOCK_ROWS, shapes)
    arrays = [np.empty((*shape, factorial(m))) for shape in shapes]
    fill(arrays, 0, factorial(m))
    return arrays


def predict_all(fit: FitResult, fork: bool = False) -> PredictionTable:
    """Evaluate the fit at every one of the m! orders, in lexicographic order.

    With ``fork``, a forked child process may walk the second half of the
    orders: see :mod:`oofa.split`.
    """
    def fill(arrays, start, stop):
        est, var = arrays
        for rows, block_est, block_var in predict_factorial([fit], start, stop):
            est[rows], var[rows] = block_est[0], block_var[0]

    est, var = walk_orders(fit.m, fill, [(), ()], fork)
    return PredictionTable(order_array(fit.m), est, np.sqrt(var), rank_descending(est))


def top_k(table: PredictionTable, k: int) -> PredictionTable:
    """The k best rows, ordered by rank."""
    if not 1 <= k <= len(table):
        raise ValidationError(f"k must be in 1..{len(table)}, got {k}")
    return table.take(np.argsort(table.ranks)[:k])
