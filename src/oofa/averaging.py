"""Model-averaged predictions and their variances over a candidate set.

The averaged estimate at order i is the weight-convex combination of the
per-model predictions,

    avg_i = sum_k w_k est_{k,i},

and its variance combines each model's conditional prediction variance with
that model's squared spread around the average:

    var_i = ( sum_k w_k sqrt( cvar_{k,i} + (est_{k,i} - avg_i)^2 ) )^2.

Degenerate cases follow directly: with one model the average is that model's
prediction and variance; with identical point predictions the spread term
vanishes and equal conditional variances pass through unchanged; with zero
conditional variances only the spread contributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SaturatedModelError, ValidationError
from .fitting import FitResult, akaike_weights, information_criteria
from .perms import Permutation, as_permutations, order_array
from .ranking import predict_factorial, rank_descending

WEIGHT_SUM_TOL = 1e-9


def combine_predictions(
    estimates: np.ndarray, conditional_variances: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight K per-model prediction vectors into one estimate and variance.

    ``estimates`` and ``conditional_variances`` are (K, w); ``weights`` is
    (K,) and must sum to one.
    """
    est = np.asarray(estimates, dtype=float)
    cvar = np.asarray(conditional_variances, dtype=float)
    w = np.asarray(weights, dtype=float)
    if est.shape != cvar.shape or est.ndim != 2 or w.shape != (est.shape[0],):
        raise ValidationError("estimates, variances and weights have mismatched shapes")
    if not np.all(np.isfinite(w)):
        raise ValidationError("model weights must be finite")
    if np.any(w < 0):
        raise ValidationError("model weights must be non-negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"model weights must sum to 1, got {w.sum()!r}")
    if np.any(cvar < 0):
        raise ValidationError("conditional variances must be non-negative")
    avg = w @ est
    spread = est - avg
    var = (w @ np.sqrt(cvar + spread**2)) ** 2
    return avg, var


@dataclass(frozen=True)
class CandidateSet:
    """K fits of the same dataset with normalized model weights."""

    fits: tuple[FitResult, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.fits:
            raise ValidationError("a candidate set needs at least one fit")
        if len(self.weights) != len(self.fits):
            raise ValidationError(
                f"{len(self.weights)} weights for {len(self.fits)} fits"
            )
        if not all(math.isfinite(w) for w in self.weights):
            raise ValidationError("model weights must be finite")
        if any(w < 0 for w in self.weights):
            raise ValidationError("model weights must be non-negative")
        total = sum(self.weights)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"model weights must sum to 1, got {total!r}")
        first = self.fits[0].data
        for fit in self.fits:
            if fit.data is not first and not (
                np.array_equal(fit.data.response, first.response)
                and fit.data.design.runs == first.design.runs
            ):
                raise ValidationError("all fits must share one dataset")
            if fit.sigma2_hat is None:
                raise SaturatedModelError(
                    f"model {fit.spec.label} has no dispersion estimate "
                    "(saturated fit) and cannot enter model averaging"
                )

    @classmethod
    def from_akaike(cls, fits) -> "CandidateSet":
        """Weight the fits by their AIC values."""
        fits = tuple(fits)
        aics = [information_criteria(f)[0] for f in fits]
        return cls(fits, tuple(float(w) for w in akaike_weights(aics)))


@dataclass(frozen=True)
class AveragedPrediction:
    """Model-averaged estimate, standard error and rank for every order.

    Row i is the order ``orders[i]`` (a (w, m) array of components 1..m).
    ``model_estimates`` and ``model_ranks`` are (K, w): row k holds the
    point predictions of the k-th candidate fit, and their ranks, from
    which the average was formed.
    """

    orders: np.ndarray
    estimates: np.ndarray
    variances: np.ndarray
    std_errors: np.ndarray
    ranks: np.ndarray
    model_estimates: np.ndarray
    model_ranks: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.orders, self.estimates, self.variances, self.std_errors,
                    self.ranks, self.model_estimates, self.model_ranks):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """The row orders as :class:`Permutation` objects (built on each access)."""
        return as_permutations(self.orders.tolist())


def average_predictions(candidates: CandidateSet) -> AveragedPrediction:
    """Average the candidate models' predictions over all m! orders."""
    m = candidates.fits[0].m
    per_model_est, per_model_var = [], []
    for fit in candidates.fits:
        est, var = predict_factorial(fit)
        per_model_est.append(est)
        per_model_var.append(var)
    model_est = np.array(per_model_est)
    avg, var = combine_predictions(model_est, np.array(per_model_var), np.array(candidates.weights))
    model_ranks = np.array([rank_descending(est) for est in model_est])
    return AveragedPrediction(
        order_array(m), avg, var, np.sqrt(var), rank_descending(avg), model_est, model_ranks
    )


def average_variance_summary(prediction: AveragedPrediction) -> float:
    """Mean of the averaged-prediction variances over all orders."""
    if len(prediction) == 0:
        raise ValidationError("empty prediction table")
    return float(np.mean(prediction.variances))
