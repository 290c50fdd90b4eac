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

from dataclasses import dataclass

import numpy as np

from .design import check_weights
from .errors import SaturatedModelError, ValidationError
from .fitting import FitResult, akaike_weights, information_criteria
from .perms import Permutation, as_permutations, order_array
from .ranking import predict_factorial, rank_descending, walk_orders


def combine_predictions(
    estimates: np.ndarray, conditional_variances: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight K per-model prediction vectors into one estimate and variance.

    ``estimates`` and ``conditional_variances`` are (K, w); ``weights`` is
    (K,) and must sum to one.  :func:`average_predictions` calls it on one
    block of orders at a time.
    """
    est = np.asarray(estimates, dtype=float)
    cvar = np.asarray(conditional_variances, dtype=float)
    w = np.asarray(weights, dtype=float)
    if est.shape != cvar.shape or est.ndim != 2 or w.shape != (est.shape[0],):
        raise ValidationError("estimates, variances and weights have mismatched shapes")
    check_weights(w, "model")
    if np.any(cvar < 0):
        raise ValidationError("conditional variances must be non-negative")
    avg = w @ est
    return avg, (w @ np.sqrt(cvar + (est - avg) ** 2)) ** 2


@dataclass(frozen=True, eq=False)
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
        check_weights(self.weights, "model")
        first = self.fits[0].data
        for fit in self.fits:
            if fit.data is not first and not (
                np.array_equal(fit.data.response, first.response)
                and np.array_equal(fit.data.design.orders, first.design.orders)
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


@dataclass(frozen=True, eq=False)
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
        return as_permutations(self.orders)


def average_predictions(candidates: CandidateSet, fork: bool = False) -> AveragedPrediction:
    """Average the candidate models' predictions over all m! orders.

    The orders are walked once (:func:`~oofa.ranking.predict_factorial`) and
    each block of predictions is combined as it arrives, so only the (K, m!)
    estimates and the m!-long results are kept.  With ``fork``, a forked
    child process may walk the second half of the orders: see
    :mod:`oofa.split`.
    """
    m, weights = candidates.fits[0].m, np.array(candidates.weights)

    def fill(arrays, start, stop):
        model_est, avg, var = arrays
        for rows, est, cvar in predict_factorial(candidates.fits, start, stop):
            model_est[:, rows] = est
            avg[rows], var[rows] = combine_predictions(est, cvar, weights)

    model_est, avg, var = walk_orders(m, fill, [(len(candidates.fits),), (), ()], fork)
    model_ranks = np.empty(model_est.shape, dtype=int)
    for ranks, est in zip(model_ranks, model_est):
        ranks[:] = rank_descending(est)
    return AveragedPrediction(
        order_array(m), avg, var, np.sqrt(var), rank_descending(avg),
        model_est, model_ranks,
    )
