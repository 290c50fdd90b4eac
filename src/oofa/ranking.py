"""Predict every possible order from one fit and rank the results.

Predictions are evaluated at block covariate zero, which (under the
sum-to-zero coding used by :mod:`oofa.fitting`) is the across-block average.
Rank 1 is the largest estimate; ties are broken by lexicographic run order
so ranks are always a permutation of 1..m!.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fitting import FitResult
from .models import full_factorial_matrix
from .perms import Permutation, enumerate_permutations


@dataclass(frozen=True)
class PredictionTable:
    """Per-order estimates with conditional standard errors and ranks.

    ``std_errors`` is NaN throughout when the fit has no dispersion estimate
    (saturated or exact fit): point predictions stay valid, their
    uncertainty does not.
    """

    perms: tuple[Permutation, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    ranks: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.estimates, self.std_errors, self.ranks):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.perms)

    def sorted_by_rank(self) -> "PredictionTable":
        order = np.argsort(self.ranks)
        return PredictionTable(
            tuple(self.perms[i] for i in order),
            self.estimates[order],
            self.std_errors[order],
            self.ranks[order],
        )


def rank_descending(estimates: np.ndarray) -> np.ndarray:
    """Rank 1 = largest; ties keep the earlier (lexicographic) row first."""
    est = np.asarray(estimates, dtype=float)
    order = np.lexsort((np.arange(len(est)), -est))
    ranks = np.empty(len(est), dtype=int)
    ranks[order] = np.arange(1, len(est) + 1)
    return ranks


def predict_rows(fit: FitResult, model_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point predictions and conditional variances at block covariate zero.

    ``model_rows`` holds model-column covariates only; block columns enter
    as zeros, so the full fitted covariance (which carries the
    model-times-block correlations) still applies.  Variances are NaN when
    the fit has no dispersion estimate.
    """
    rows = np.asarray(model_rows, dtype=float)
    k = fit.n_model_cols
    if rows.shape[1] != k:
        raise ValidationError(
            f"rows have {rows.shape[1]} columns, fit has {k} model columns"
        )
    est = rows @ fit.model_coefficients
    if fit.sigma2_hat is None:
        return est, np.full(len(rows), np.nan)
    cov_model = fit.xtx_inv[:k, :k]
    var = fit.sigma2_hat * ((rows @ cov_model) * rows).sum(axis=1)
    return est, np.maximum(var, 0.0)


def predict_all(fit: FitResult) -> PredictionTable:
    """Evaluate the fit at every one of the m! orders, in lexicographic order."""
    perms = enumerate_permutations(fit.m)
    xf = full_factorial_matrix(fit.spec, fit.m)
    est, var = predict_rows(fit, xf.values)
    return PredictionTable(perms, est, np.sqrt(var), rank_descending(est))


def top_k(table: PredictionTable, k: int) -> PredictionTable:
    """The k best rows, ordered by rank."""
    if not 1 <= k <= len(table):
        raise ValidationError(f"k must be in 1..{len(table)}, got {k}")
    best = table.sorted_by_rank()
    return PredictionTable(
        best.perms[:k],
        best.estimates[:k].copy(),
        best.std_errors[:k].copy(),
        best.ranks[:k].copy(),
    )
