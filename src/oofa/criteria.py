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

All four criteria are read off one thin SVD of X by a single batched
kernel, :func:`criterion_values`, which the design search shares; X^T X is
never formed.  Every criterion demands a full-rank X and raises
:class:`~oofa.errors.EstimabilityError` otherwise, or when its value
overflows.  A compound objective is a weighted sum over (model, criterion)
members with each member oriented so that smaller is better (the
D-criterion enters through its reciprocal).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .design import Design
from .errors import EstimabilityError, ValidationError
from .fitting import RANK_RTOL
from .models import ModelSpec, build_matrix, factorial_blocks, full_factorial_matrix

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
        if not all(math.isfinite(mem.weight) for mem in self.members):
            raise ValidationError("compound weights must be finite")
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
# the criterion kernel: every criterion value comes from here
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemberRows:
    """A criterion as the kernel scores it: ``scale`` tr[M^-1 ``moment``] for
    apv and av, ``moment`` None and ``scale`` sigma^2 for A and D, in the
    criterion's coding.  From :func:`member_rows` it also knows the model,
    m and the coding of model rows (None without ``--orth``)."""

    criterion: CriterionSpec
    moment: np.ndarray | None
    scale: float
    coding: OrthogonalCoding | None = None
    model: ModelSpec | None = None
    m: int = 0

    def code(self, x: np.ndarray) -> np.ndarray:
        return x if self.coding is None else self.coding.apply(x)

    @cached_property
    def candidates(self) -> np.ndarray:
        """All w = m! candidate rows, coded; built on first use, so the A-
        and D-criteria of one design never build the full factorial."""
        rows = self.code(full_factorial_matrix(self.model, self.m).values)
        rows.setflags(write=False)
        return rows


def criterion_values(x: np.ndarray, rows: MemberRows) -> tuple[np.ndarray, np.ndarray]:
    """(value, column rank) of each model matrix in a (B, N, p) stack.

    All is read off one thin SVD X = U S V^T, so X^T X (condition number
    cond(X)^2) is never formed.  With W = V S^-1, (X^T X)^-1 = W W^T: apv and
    av are ``scale`` tr[W^T C W], A is (scale / p) sum s^-2 and D is scale
    exp(2 sum log s / p).  Values at rank < p are meaningless; callers mask
    them.  A full-rank matrix whose value is not finite, or whose D is below
    the smallest normal float, raises EstimabilityError.
    """
    kind, moment, scale = rows.criterion.kind, rows.moment, rows.scale
    p = x.shape[2]
    if moment is None:
        s = np.linalg.svd(x, compute_uv=False)
    else:
        _, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind is CriterionKind.D_OPT:
            values = scale * np.exp(2.0 * np.log(s).sum(axis=1) / p)
        elif moment is None:
            values = scale / p * (s**-2.0).sum(axis=1)
        else:
            w = np.swapaxes(vt, 1, 2) / s[:, None, :]
            values = scale * np.einsum("bij,bij->b", moment @ w, w)
    # compounds take 1/D, so an estimable D must be at least the smallest normal float
    floor = np.finfo(float).tiny if kind is CriterionKind.D_OPT else -np.inf
    bad = np.flatnonzero((rank == p) & ~(np.isfinite(values) & (values >= floor)))
    if bad.size:
        raise EstimabilityError(
            f"criterion {kind.value} with sigma2 = {rows.criterion.sigma2!r} evaluates to "
            f"{float(values[bad[0]])!r} on an estimable design; use a sigma2 nearer 1"
        )
    return values, rank


def _single_value(x: np.ndarray, rows: MemberRows, what: str = "design matrix") -> float:
    """The kernel on a batch of one; raises if X is rank-deficient."""
    x = np.asarray(x, dtype=float)
    values, rank = criterion_values(x[None], rows)
    if rank[0] < x.shape[1]:
        raise EstimabilityError(
            f"{what} is rank-deficient ({rank[0]} of {x.shape[1]} columns independent)"
        )
    return float(values[0])


# ---------------------------------------------------------------------------
# cached full-factorial moment matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def factorial_moments(spec: ModelSpec, m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(X_f^T X_f, X_f^T (I - J/w) X_f, w), computed once per (model, m).

    X_f is streamed in blocks of rows (:func:`~oofa.models.factorial_blocks`)
    and never held whole.  The centered moment is accumulated about a fixed
    shift c, the column means of the first block, which samples all orders:
    X_f^T (I - J/w) X_f = (X_f - 1c)^T (X_f - 1c) - s s^T / w, with s the
    column sums of X_f - 1c.  Summing about c rather than 0 keeps the
    cancellation small: X_f^T X_f - s s^T / w with s the plain column sums
    loses about two digits for rs2 and rs3.  s leaves out the first block,
    which sums to zero about its own mean up to rounding, so that a single
    block gives exactly the Gram of the centered rows.

    Immutable after creation; concurrent readers are safe (worst case two
    threads build the same entry once).
    """
    p = spec.param_count(m)
    plain, shifted, sums, w = np.zeros((p, p)), np.zeros((p, p)), np.zeros(p), 0
    shift = None
    for _, block in factorial_blocks(spec, m):
        plain += block.T @ block
        if shift is None:
            shift = block.mean(axis=0)
            block -= shift
        else:
            block -= shift
            sums += block.sum(axis=0)
        shifted += block.T @ block
        w += len(block)
    centered = shifted - np.outer(sums, sums) / w
    plain.setflags(write=False)
    centered.setflags(write=False)
    return plain, centered, w


# ---------------------------------------------------------------------------
# matrix-level and design-level entry points
# ---------------------------------------------------------------------------


def apv_from_matrices(x: np.ndarray, xf: np.ndarray, sigma2: float = 1.0) -> float:
    """Average pairwise prediction-difference variance, from raw matrices."""
    xf = np.asarray(xf, dtype=float)
    centered = xf - xf.mean(axis=0)
    crit = CriterionSpec(CriterionKind.APV, sigma2)
    return _single_value(x, MemberRows(crit, centered.T @ centered, 2.0 * sigma2 / (len(xf) - 1)))


def av_from_matrices(x: np.ndarray, xf: np.ndarray, sigma2: float = 1.0) -> float:
    """Average prediction variance over the candidate rows, from raw matrices."""
    xf = np.asarray(xf, dtype=float)
    crit = CriterionSpec(CriterionKind.AV, sigma2)
    return _single_value(x, MemberRows(crit, xf.T @ xf, sigma2 / len(xf)))


def a_from_matrix(x: np.ndarray, sigma2: float = 1.0) -> float:
    return _single_value(x, MemberRows(CriterionSpec(CriterionKind.A_OPT, sigma2), None, sigma2))


def d_from_matrix(x: np.ndarray, sigma2: float = 1.0) -> float:
    return _single_value(x, MemberRows(CriterionSpec(CriterionKind.D_OPT, sigma2), None, sigma2))


def apv(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """Average variance of predicted differences across all m! orders."""
    return criterion_value(spec, CriterionSpec(CriterionKind.APV, sigma2), design)


def av(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """Average prediction variance across all m! orders."""
    return criterion_value(spec, CriterionSpec(CriterionKind.AV, sigma2), design)


def a_criterion(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """(sigma^2/p) tr[(X^T X)^{-1}]; smaller is better."""
    return criterion_value(spec, CriterionSpec(CriterionKind.A_OPT, sigma2), design)


def d_criterion(spec: ModelSpec, design: Design, sigma2: float = 1.0) -> float:
    """sigma^2 |X^T X|^{1/p}; larger is better."""
    return criterion_value(spec, CriterionSpec(CriterionKind.D_OPT, sigma2), design)


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


@lru_cache(maxsize=None)
def member_rows(model: ModelSpec, criterion: CriterionSpec, m: int) -> MemberRows:
    """The :class:`MemberRows` of one (model, criterion, m), cached."""
    kind, sigma2 = criterion.kind, criterion.sigma2
    coding = orthogonal_coding(model, m) if criterion.orthogonal_coding else None
    if kind in (CriterionKind.A_OPT, CriterionKind.D_OPT):
        return MemberRows(criterion, None, sigma2, coding, model, m)
    plain, centered, w = factorial_moments(model, m)
    if kind is CriterionKind.APV:
        moment, scale = centered, 2.0 * sigma2 / (w - 1)
    else:
        moment, scale = plain, sigma2 / w
    if coding is not None:  # the coded rows are x T, so their moment is T^T C T
        moment = coding.apply(coding.apply(moment).T)
        moment.setflags(write=False)
    return MemberRows(criterion, moment, scale, coding, model, m)


def criterion_value(model: ModelSpec, criterion: CriterionSpec, design: Design) -> float:
    """Evaluate one criterion for one model on a design, honoring the coding."""
    rows = member_rows(model, criterion, design.m)
    x = rows.code(build_matrix(model, design.runs).values)
    return _single_value(x, rows, f"model {model.label} on this {design.n}-run design")


def oriented_value(kind: CriterionKind, value: float | np.ndarray) -> float | np.ndarray:
    """Map criterion values so that smaller is always better; 1/D is finite
    because the kernel rejects an estimable D below the smallest normal float."""
    return 1.0 / value if kind is CriterionKind.D_OPT else value


def compound(spec: CompoundSpec, design: Design) -> float:
    """Weighted sum of oriented member criteria; smaller is better."""
    total = 0.0
    for member in spec.members:
        value = criterion_value(member.model, member.criterion, design)
        total += member.weight * oriented_value(member.criterion.kind, value)
    return float(total)
