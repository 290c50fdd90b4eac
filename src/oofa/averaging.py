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

from typing import TYPE_CHECKING

import numpy as np

from .design import check_weights
from .errors import SaturatedModelError, ValidationError
from .fitting import FitResult, akaike_weights, information_criteria
from .perms import order_array
from .ranking import PRODUCT_ROWS, predict_factorial, rank_descending, walk_orders
from .records import Record

if TYPE_CHECKING:
    from .adaptors import Permutation


def combine_predictions(
    estimates: np.ndarray, conditional_variances: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weight K per-model prediction vectors into one estimate and variance.

    ``estimates`` and ``conditional_variances`` are (K, w); ``weights`` is
    (K,) and must sum to one.  :func:`average_predictions` calls it on one
    block of orders at a time.  The orders are weighted
    :data:`~oofa.ranking.PRODUCT_ROWS` at a time, padded with zeros, so an
    order's results do not depend on the orders it comes with.
    """
    est = np.asarray(estimates, dtype=float)
    cvar = np.asarray(conditional_variances, dtype=float)
    w = np.asarray(weights, dtype=float)
    if est.shape != cvar.shape or est.ndim != 2 or w.shape != (est.shape[0],):
        raise ValidationError("estimates, variances and weights have mismatched shapes")
    check_weights(w, "model")
    if np.any(cvar < 0):
        raise ValidationError("conditional variances must be non-negative")
    n = est.shape[1]
    avg, var = np.empty(n), np.empty(n)
    for start in range(0, n, PRODUCT_ROWS):
        cols, b = slice(start, start + PRODUCT_ROWS), min(PRODUCT_ROWS, n - start)
        tile, ctile = est[:, cols], cvar[:, cols]
        if b < PRODUCT_ROWS:
            pad = ((0, 0), (0, PRODUCT_ROWS - b))
            tile, ctile = np.pad(tile, pad), np.pad(ctile, pad)
        mean = w @ tile
        avg[cols] = mean[:b]
        var[cols] = ((w @ np.sqrt(ctile + (tile - mean) ** 2)) ** 2)[:b]
    return avg, var


class CandidateSet(Record):
    """K fits of the same dataset with normalized model weights."""

    __slots__ = ("fits", "weights")

    def __init__(self, fits: tuple[FitResult, ...], weights: tuple[float, ...]) -> None:
        if not fits:
            raise ValidationError("a candidate set needs at least one fit")
        if len(weights) != len(fits):
            raise ValidationError(f"{len(weights)} weights for {len(fits)} fits")
        check_weights(weights, "model")
        first = fits[0].data
        for fit in fits:
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
        object.__setattr__(self, "fits", fits)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_akaike(cls, fits) -> "CandidateSet":
        """Weight the fits by their AIC values."""
        fits = tuple(fits)
        aics = [information_criteria(f)[0] for f in fits]
        return cls(fits, tuple(float(w) for w in akaike_weights(aics)))


class AveragedPrediction(Record):
    """Model-averaged estimate, standard error and rank for every order.

    Row i is the order ``orders[i]`` (a (w, m) array of components 1..m).
    ``model_estimates`` and ``model_ranks`` are (K, w): row k holds the
    point predictions of the k-th candidate fit, and their ranks, from
    which the average was formed.
    """

    __slots__ = ("orders", "estimates", "variances", "std_errors", "ranks", "model_estimates",
                 "model_ranks")

    def __init__(self, orders: np.ndarray, estimates: np.ndarray, variances: np.ndarray,
                 std_errors: np.ndarray, ranks: np.ndarray, model_estimates: np.ndarray,
                 model_ranks: np.ndarray) -> None:
        for arr in (orders, estimates, variances, std_errors, ranks, model_estimates,
                    model_ranks):
            arr.setflags(write=False)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "estimates", estimates)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "std_errors", std_errors)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "model_estimates", model_estimates)
        object.__setattr__(self, "model_ranks", model_ranks)

    def __len__(self) -> int:
        return len(self.orders)

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """The row orders as :class:`Permutation` objects (built on each access)."""
        from .adaptors import as_permutations

        return as_permutations(self.orders)


def average_predictions(candidates: CandidateSet, fork: bool = False) -> AveragedPrediction:
    """Average the candidate models' predictions over all m! orders.

    The orders are walked once (:func:`~oofa.ranking.predict_factorial`) and
    each block of predictions is combined as it arrives, so only the (K, m!)
    estimates and the m!-long results are kept.  With ``fork``, a forked
    child process may walk the second half of the orders of two or more
    models: see :mod:`oofa.split`.
    """
    m, weights = candidates.fits[0].m, np.array(candidates.weights)

    def fill(arrays, start, stop):
        model_est, avg, var = arrays
        for rows, est, cvar in predict_factorial(candidates.fits, start, stop):
            model_est[:, rows] = est
            avg[rows], var[rows] = combine_predictions(est, cvar, weights)

    k = len(candidates.fits)
    model_est, avg, var = walk_orders(m, fill, [(k,), (), ()], fork and k > 1)
    # The ranks are written in place, and one scratch array serves every
    # rank's sort keys and then takes the standard errors.
    model_ranks, scratch = np.empty(model_est.shape, dtype=int), np.empty(len(avg))
    for ranks, est in zip(model_ranks, model_est):
        rank_descending(est, ranks, scratch)
    ranks = rank_descending(avg, key=scratch)
    return AveragedPrediction(order_array(m), avg, var, np.sqrt(var, out=scratch), ranks,
                              model_est, model_ranks)
