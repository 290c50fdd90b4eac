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
from dataclasses import dataclass, field

import numpy as np

from .design import Design
from .errors import (
    EstimabilityError,
    SaturatedModelError,
    ValidationError,
)
from .models import DesignMatrix, ModelSpec, build_matrix

#: Relative singular-value threshold below which a column is rank-deficient.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Dataset:
    """A design together with its observed responses."""

    design: Design
    response: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.response, dtype=float)
        if y.ndim != 1:
            raise ValidationError("response must be a one-dimensional vector")
        if len(y) != self.design.n:
            raise ValidationError(
                f"{len(y)} responses for {self.design.n} runs"
            )
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must all be finite")
        y.setflags(write=False)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def m(self) -> int:
        return self.design.m


@dataclass(frozen=True)
class FitResult:
    """One fitted model: coefficients, dispersion, information criteria.

    ``p_effective`` is the rank of the fitted matrix including any block
    columns; ``df_error = n - p_effective``.  On a saturated fit
    (``df_error == 0``) or an exact fit (``rss == 0``), the dispersion and
    criterion fields that stop being defined are ``None``.
    """

    spec: ModelSpec
    data: Dataset = field(repr=False)
    term_labels: tuple[str, ...]
    coefficients: np.ndarray
    rss: float
    df_error: int
    p_effective: int
    n: int
    sigma2_hat: float | None
    rmse: float | None
    log_lik: float | None
    aic: float | None
    bic: float | None
    xtx_inv: np.ndarray = field(repr=False)
    n_block_cols: int

    def __post_init__(self) -> None:
        self.coefficients.setflags(write=False)
        self.xtx_inv.setflags(write=False)

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def n_model_cols(self) -> int:
        return len(self.term_labels) - self.n_block_cols

    @property
    def model_coefficients(self) -> np.ndarray:
        return self.coefficients[: self.n_model_cols]

    def coefficient(self, term: str) -> float:
        try:
            return float(self.coefficients[self.term_labels.index(term)])
        except ValueError:
            raise ValidationError(f"no term named {term!r} in this fit") from None


def assemble_matrix(
    spec: ModelSpec, data: Dataset
) -> tuple[np.ndarray, tuple[str, ...], int]:
    """Model columns plus sum-to-zero block columns; returns the block count."""
    built: DesignMatrix = build_matrix(spec, data.design.runs)
    blocks = data.design.block_matrix()
    if blocks.shape[1] == 0:
        return built.values, built.term_labels, 0
    labels = built.term_labels + tuple(
        f"block_{j}" for j in range(1, blocks.shape[1] + 1)
    )
    return np.hstack([built.values, blocks]), labels, blocks.shape[1]


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
        # scipy only names the dependent columns; importing it costs more
        # than most requests, so it stays off the common path
        import scipy.linalg

        _, _, pivots = scipy.linalg.qr(x, mode="economic", pivoting=True)
        dependent = tuple(labels[j] for j in sorted(pivots[rank:]))
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
