"""Design-quality criteria over the space of all m! candidate orders.

With X the model matrix of the N-run design and X_f the matrix of all
w = m! orders, the two prediction-variance criteria are

    apv = (2 sigma^2 / (w - 1)) tr[ (X^T X)^{-1} X_f^T (I - J/w) X_f ]
    av  = (sigma^2 / w)         tr[ (X^T X)^{-1} X_f^T X_f ]

-- the average variance of a predicted difference between two orders, and
the average prediction variance.  Both depend only on the model's column
span, so they are invariant under reparameterization.  The classical
A-criterion (sigma^2/p) tr[(X^T X)^{-1}] (minimize) and D-criterion
sigma^2 |X^T X|^{1/p} (maximize) are provided for comparison; A is *not*
reparameterization-invariant, which is why an orthogonal coding
(X_f^T X_f = w I) is offered -- under it, av coincides with the A-criterion.

The w-row moment matrices X_f^T X_f and X_f^T (I - J/w) X_f depend only on
(model, m) and are cached; the p x p versions are all the criteria ever
touch.  Block labels on a design are deliberately ignored here: blocks are
fitted nuisance parameters, not part of the prediction target.

Every criterion demands a full-rank X and raises
:class:`~oofa.errors.EstimabilityError` otherwise.  A compound objective is
a weighted sum over (model, criterion) members with each member oriented so
that smaller is better (the D-criterion enters through its reciprocal).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .design import Design
from .errors import EstimabilityError, ValidationError
from .fitting import RANK_RTOL
from .models import ModelSpec, build_matrix, full_factorial_matrix

WEIGHT_SUM_TOL = 1e-9


class CriterionKind(str, enum.Enum):
    APV = "apv"
    AV = "av"
    A_OPT = "a"
    D_OPT = "d"


#: Whether each criterion is minimized or maximized by a good design.
ORIENTATION = {
    CriterionKind.APV: "min",
    CriterionKind.AV: "min",
    CriterionKind.A_OPT: "min",
    CriterionKind.D_OPT: "max",
}


@dataclass(frozen=True)
class CriterionSpec:
    """Which criterion to evaluate, at what error variance, in which coding."""

    kind: CriterionKind
    sigma2: float = 1.0
    orthogonal_coding: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValidationError(f"sigma2 must be finite and positive, got {self.sigma2!r}")


@dataclass(frozen=True)
class CompoundMember:
    model: ModelSpec
    criterion: CriterionSpec
    weight: float


@dataclass(frozen=True)
class CompoundSpec:
    """A weighted set of (model, criterion) members, weights summing to one."""

    members: tuple[CompoundMember, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("a compound criterion needs at least one member")
        if any(mem.weight < 0 for mem in self.members):
            raise ValidationError("compound weights must be non-negative")
        total = sum(mem.weight for mem in self.members)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"compound weights must sum to 1, got {total!r}")

    @classmethod
    def single(cls, model: ModelSpec, criterion: CriterionSpec) -> "CompoundSpec":
        return cls((CompoundMember(model, criterion, 1.0),))

    @classmethod
    def equal_weights(
        cls, models: Sequence[ModelSpec], criterion: CriterionSpec
    ) -> "CompoundSpec":
        """One member per model, all with the same criterion and weight 1/K."""
        models = tuple(models)
        if not models:
            raise ValidationError("a compound criterion needs at least one member")
        share = 1.0 / len(models)
        return cls(tuple(CompoundMember(mod, criterion, share) for mod in models))

    def max_param_count(self, m: int) -> int:
        return max(mem.model.param_count(m) for mem in self.members)


# ---------------------------------------------------------------------------
# matrix-level core: criteria from explicit matrices
# ---------------------------------------------------------------------------


def checked_gram(x: np.ndarray, what: str = "design matrix") -> np.ndarray:
    """X^T X after verifying X has full column rank."""
    x = np.asarray(x, dtype=float)
    s = np.linalg.svd(x, compute_uv=False)
    if x.shape[0] < x.shape[1] or s[-1] <= RANK_RTOL * s[0]:
        raise EstimabilityError(
            f"{what} is rank-deficient ({int(np.sum(s > RANK_RTOL * s[0]))} "
            f"of {x.shape[1]} columns independent)"
        )
    return x.T @ x


def apv_from_matrices(x: np.ndarray, xf: np.ndarray, sigma2: float = 1.0) -> float:
    """Average pairwise prediction-difference variance, from raw matrices."""
    gram = checked_gram(x)
    xf = np.asarray(xf, dtype=float)
    w = xf.shape[0]
    centered = xf - xf.mean(axis=0)
    moment = centered.T @ centered
    return float(2.0 * sigma2 / (w - 1) * np.trace(np.linalg.solve(gram, moment)))


def av_from_matrices(x: np.ndarray, xf: np.ndarray, sigma2: float = 1.0) -> float:
    """Average prediction variance over the candidate rows, from raw matrices."""
    gram = checked_gram(x)
    xf = np.asarray(xf, dtype=float)
    w = xf.shape[0]
    return float(sigma2 / w * np.trace(np.linalg.solve(gram, xf.T @ xf)))


def a_from_matrix(x: np.ndarray, sigma2: float = 1.0) -> float:
    gram = checked_gram(x)
    eigvals = np.linalg.eigvalsh(gram)
    return float(sigma2 / x.shape[1] * np.sum(1.0 / eigvals))


def d_from_matrix(x: np.ndarray, sigma2: float = 1.0) -> float:
    gram = checked_gram(x)
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise EstimabilityError("singular moment matrix in D-criterion")
    return float(sigma2 * np.exp(logdet / x.shape[1]))


# ---------------------------------------------------------------------------
# cached full-factorial moment matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def factorial_moments(spec: ModelSpec, m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(X_f^T X_f, X_f^T (I - J/w) X_f, w), computed once per (model, m).

    Immutable after creation; concurrent readers are safe (worst case two
    threads build the same entry once).
    """
    xf = full_factorial_matrix(spec, m).values
    w = xf.shape[0]
    plain = xf.T @ xf
    centered_rows = xf - xf.mean(axis=0)
    centered = centered_rows.T @ centered_rows
    plain.setflags(write=False)
    centered.setflags(write=False)
    return plain, centered, w


def _design_gram(spec: ModelSpec, design: Design) -> np.ndarray:
    x = build_matrix(spec, design.runs).values
    try:
        return checked_gram(x, what=f"model {spec.label} on this design")
    except EstimabilityError as exc:
        raise EstimabilityError(
            f"model {spec.label} is not estimable on this {design.n}-run design: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# design-level criteria
# ---------------------------------------------------------------------------


def apv(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """Average variance of predicted differences across all m! orders."""
    _, centered, w = factorial_moments(spec, design.m)
    gram = _design_gram(spec, design)
    return float(2.0 * sigma2 / (w - 1) * np.trace(np.linalg.solve(gram, centered)))


def av(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """Average prediction variance across all m! orders."""
    plain, _, w = factorial_moments(spec, design.m)
    gram = _design_gram(spec, design)
    return float(sigma2 / w * np.trace(np.linalg.solve(gram, plain)))


def a_criterion(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """(sigma^2/p) tr[(X^T X)^{-1}]; smaller is better."""
    gram = _design_gram(spec, design)
    eigvals = np.linalg.eigvalsh(gram)
    return float(sigma2 / gram.shape[0] * np.sum(1.0 / eigvals))


def d_criterion(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """sigma^2 |X^T X|^{1/p}; larger is better."""
    gram = _design_gram(spec, design)
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0:
        raise EstimabilityError(
            f"model {spec.label}: singular moment matrix in D-criterion"
        )
    return float(sigma2 * np.exp(logdet / gram.shape[0]))


# ---------------------------------------------------------------------------
# orthogonal coding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthogonalCoding:
    """Row transform making the full-factorial moment matrix equal w I.

    From the triangular factorization X_f^T X_f = R^T R, each covariate row
    x maps to x R^{-1} sqrt(w).
    """

    spec: ModelSpec
    m: int
    w: int
    r: np.ndarray
    _r_inv_scaled: np.ndarray

    def __post_init__(self) -> None:
        self.r.setflags(write=False)
        self._r_inv_scaled.setflags(write=False)

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """Transform covariate rows into the orthogonal coding."""
        return np.asarray(rows, dtype=float) @ self._r_inv_scaled


def orthogonal_coding(spec: ModelSpec, m: int) -> OrthogonalCoding:
    """Coding transform for a family over the full factorial of size w = m!."""
    plain, _, w = factorial_moments(spec, m)
    try:
        r = np.linalg.cholesky(plain).T
    except np.linalg.LinAlgError:
        raise EstimabilityError(
            f"model {spec.label} has a rank-deficient full-factorial matrix at m = {m}"
        ) from None
    r_inv = np.linalg.solve(r, np.eye(r.shape[0]))
    return OrthogonalCoding(spec, m, w, r, r_inv * np.sqrt(w))


# ---------------------------------------------------------------------------
# single and compound evaluation
# ---------------------------------------------------------------------------


def criterion_value(model: ModelSpec, criterion: CriterionSpec, design: Design) -> float:
    """Evaluate one criterion for one model on a design, honoring the coding."""
    if not criterion.orthogonal_coding:
        dispatch = {
            CriterionKind.APV: apv,
            CriterionKind.AV: av,
            CriterionKind.A_OPT: a_criterion,
            CriterionKind.D_OPT: d_criterion,
        }
        return dispatch[criterion.kind](model, design, criterion.sigma2)
    coding = orthogonal_coding(model, design.m)
    x = coding.apply(build_matrix(model, design.runs).values)
    if criterion.kind is CriterionKind.APV:
        xf = coding.apply(full_factorial_matrix(model, design.m).values)
        return apv_from_matrices(x, xf, criterion.sigma2)
    if criterion.kind is CriterionKind.AV:
        # coded X_f^T X_f = w I, so av reduces to sigma^2 tr[(X^T X)^{-1}]
        return a_from_matrix(x, criterion.sigma2) * x.shape[1]
    if criterion.kind is CriterionKind.A_OPT:
        return a_from_matrix(x, criterion.sigma2)
    return d_from_matrix(x, criterion.sigma2)


def oriented_value(kind: CriterionKind, value: float) -> float:
    """Map a criterion value so that smaller is always better."""
    if kind is CriterionKind.D_OPT:
        if value <= 0:
            raise EstimabilityError("non-positive D-criterion value")
        return 1.0 / value
    return value


def compound(spec: CompoundSpec, design: Design) -> float:
    """Weighted sum of oriented member criteria; smaller is better."""
    total = 0.0
    for member in spec.members:
        value = criterion_value(member.model, member.criterion, design)
        total += member.weight * oriented_value(member.criterion.kind, value)
    return float(total)
