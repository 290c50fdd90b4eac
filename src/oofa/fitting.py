"""Ordinary least squares with dispersion, information criteria and weights.

Fits are solved through the singular value decomposition of the design
matrix -- never by forming (X^T X)^{-1} explicitly -- with singular values
below 1e-10 times the largest treated as zero.  Block labels on the design
contribute sum-to-zero coded columns, appended after the model columns and
labelled ``block_1``, ``block_2``, ...

Information criteria use the full Gaussian maximum-likelihood convention
with the error variance counted as a parameter:

    log_lik = -(n/2) (ln(2 pi RSS / n) + 1)
    AIC     = -2 log_lik + 2 (p + 1)
    BIC     = -2 log_lik + ln(n) (p + 1)

Only differences of these values across models fitted to the same response
are meaningful; the additive constant depends on the convention.
"""

from __future__ import annotations

import math

import numpy as np

from .design import RANK_RTOL, Dataset
from .errors import EstimabilityError, SaturatedModelError, ValidationError
from .models import DesignMatrix, ModelSpec, order_matrix
from .records import Record


class FitResult(Record):
    """One fitted model: coefficients, dispersion, information criteria.

    ``p_effective`` is the rank of the fitted matrix including any block
    columns; ``df_error = n - p_effective``.  On a saturated fit
    (``df_error == 0``) or an exact fit (``rss == 0``), the dispersion and
    criterion fields that stop being defined are ``None``.
    """

    __slots__ = ("spec", "data", "term_labels", "coefficients", "rss", "df_error",
                 "p_effective", "n", "sigma2_hat", "rmse", "log_lik", "aic", "bic", "xtx_inv",
                 "n_block_cols")
    _unshown = ("data", "xtx_inv")

    def __init__(self, spec: ModelSpec, data: Dataset, term_labels: tuple[str, ...],
                 coefficients: np.ndarray, rss: float, df_error: int, p_effective: int, n: int,
                 sigma2_hat: float | None, rmse: float | None, log_lik: float | None,
                 aic: float | None, bic: float | None, xtx_inv: np.ndarray,
                 n_block_cols: int) -> None:
        self._set(spec, data, term_labels, coefficients, rss, df_error, p_effective, n, sigma2_hat,
                  rmse, log_lik, aic, bic, xtx_inv, n_block_cols)

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def n_model_cols(self) -> int:
        return len(self.term_labels) - self.n_block_cols

    @property
    def model_coefficients(self) -> np.ndarray:
        return self.coefficients[: self.n_model_cols]


def assemble_matrix(
    spec: ModelSpec, data: Dataset
) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Model columns plus sum-to-zero block columns; returns the block count."""
    built: DesignMatrix = order_matrix(spec, data.design.orders)
    blocks = data.design.block_matrix()
    if blocks.shape[1] == 0:
        return built.values, built.term_labels, 0
    labels = built.term_labels + tuple(
        f"block_{j}" for j in range(1, blocks.shape[1] + 1)
    )
    return np.hstack([built.values, blocks]), labels, blocks.shape[1]


#: Relative gap below which two pivot candidates in ``_dependent_columns`` tie.
PIVOT_RTOL = 1e-9


def _dependent_columns(null_basis: np.ndarray) -> list[int]:
    """Indices of columns that, once dropped, leave a full-rank matrix.

    ``null_basis`` holds a basis of the matrix's null space as rows.
    Gauss-Jordan elimination pivots each row on its largest remaining entry;
    the basis restricted to the pivot columns is then the identity, so no
    null vector lives on the other columns alone, and they have full rank.
    Entries within ``PIVOT_RTOL`` of the largest count as equal, and the last
    of them is taken: rounding noise then cannot pick an early column, such
    as the intercept, over later ones that are the same column.
    """
    basis = null_basis.copy()
    pivots = []
    for i, row in enumerate(basis):
        size = np.abs(row)
        j = int(np.flatnonzero(size >= (1.0 - PIVOT_RTOL) * size.max())[-1])
        row /= row[j]
        others = np.arange(len(basis)) != i
        basis[others] -= np.outer(basis[others, j], row)
        pivots.append(j)
    return sorted(pivots)


def ols_fit(spec: ModelSpec, data: Dataset) -> FitResult:
    """Least-squares fit of one model family to a dataset.

    Raises :class:`EstimabilityError` (naming the dependent columns) when
    the matrix is rank-deficient, and when the response is so large that
    the fit overflows.  A saturated fit is returned, with the unavailable
    summaries set to ``None``.
    """
    x, labels, n_block_cols = assemble_matrix(spec, data)
    y = data.response
    n, p = x.shape
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    if rank < p:
        if len(vt) < p:  # n < p: the thin SVD holds only n rows of V^T
            vt = np.linalg.svd(x)[2]
        dependent = tuple(labels[j] for j in _dependent_columns(vt[rank:]))
        raise EstimabilityError(
            f"model {spec.label} is not estimable on this design "
            f"(rank {rank} < {p} columns); dependent columns: "
            + ", ".join(dependent),
            dependent_columns=dependent,
        )
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        beta = vt.T @ ((u.T @ y) / s)
        resid = y - x @ beta
        rss = float(max(resid @ resid, 0.0))
        xtx_inv = (vt.T / s**2) @ vt
    df = n - rank
    sigma2 = rmse = log_lik = aic = bic = None
    if df > 0:
        sigma2 = rss / df
        rmse = math.sqrt(sigma2)
        if rss > 0.0:
            log_lik = -(n / 2.0) * (math.log(2.0 * math.pi * rss / n) + 1.0)
            aic = -2.0 * log_lik + 2.0 * (rank + 1)
            bic = -2.0 * log_lik + math.log(n) * (rank + 1)
    summaries = (beta, rss, xtx_inv, log_lik, aic, bic)
    if not all(np.all(np.isfinite(v)) for v in summaries if v is not None):
        raise EstimabilityError(
            f"model {spec.label} overflows on this response (a coefficient, the rss or "
            "an information criterion is not finite); rescale y, for example divide "
            "it by a power of ten"
        )
    return FitResult(
        spec=spec,
        data=data,
        term_labels=labels,
        coefficients=beta,
        rss=rss,
        df_error=df,
        p_effective=rank,
        n=n,
        sigma2_hat=sigma2,
        rmse=rmse,
        log_lik=log_lik,
        aic=aic,
        bic=bic,
        xtx_inv=xtx_inv,
        n_block_cols=n_block_cols,
    )


def information_criteria(fit: FitResult) -> tuple[float, float]:
    """(AIC, BIC) of a fit, or an error when they are undefined."""
    if fit.aic is None or fit.bic is None:
        if fit.df_error == 0:
            raise SaturatedModelError(
                f"model {fit.spec.label} is saturated (n = p = {fit.n}): "
                "no error degrees of freedom, information criteria undefined"
            )
        raise SaturatedModelError(
            f"model {fit.spec.label} fits the data exactly (rss = 0): "
            "information criteria undefined"
        )
    return fit.aic, fit.bic


def akaike_weights(criteria) -> np.ndarray:
    """Normalized exp(-I/2) weights, computed shift-invariantly.

    The minimum criterion value is subtracted before exponentiating, so
    arbitrarily large inputs cannot overflow; the result is unchanged
    because the shift cancels in the normalization.
    """
    values = np.asarray(criteria, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("akaike_weights needs a non-empty vector of criteria")
    if not np.all(np.isfinite(values)):
        raise ValidationError("information criteria must all be finite")
    raw = np.exp(-(values - values.min()) / 2.0)
    return raw / raw.sum()

