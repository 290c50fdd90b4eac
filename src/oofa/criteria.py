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

The moment matrices X_f^T X_f and X_f^T (I - J/w) X_f depend only on
(model, m) and are cached (:func:`factorial_moments`); the p x p versions
are all the criteria ever touch.  Each entry is the correctly rounded exact
value wherever the rows can be made integers (every family but tpwo with
the geom taper).
Block labels on a design are deliberately ignored here: blocks are fitted
nuisance parameters, not part of the prediction target.

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
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import models
from .design import RANK_RTOL, Design, check_weights
from .errors import EstimabilityError, ValidationError
from .models import ModelSpec, moment_orders, order_matrix
from .records import Record, ValueRecord


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


class CriterionSpec(ValueRecord):
    """Which criterion to evaluate, at what error variance, in which coding."""

    __slots__ = ("kind", "sigma2", "orthogonal_coding")

    def __init__(self, kind: CriterionKind, sigma2: float = 1.0,
                 orthogonal_coding: bool = False) -> None:
        if not (math.isfinite(sigma2) and sigma2 > 0):
            raise ValidationError(f"sigma2 must be finite and positive, got {sigma2!r}")
        self._set(kind, sigma2, orthogonal_coding)


class CompoundMember(ValueRecord):
    __slots__ = ("model", "criterion", "weight")

    def __init__(self, model: ModelSpec, criterion: CriterionSpec, weight: float) -> None:
        self._set(model, criterion, weight)


class CompoundSpec(ValueRecord):
    """A weighted set of (model, criterion) members, weights summing to one."""

    __slots__ = ("members",)

    def __init__(self, members: tuple[CompoundMember, ...]) -> None:
        if not members:
            raise ValidationError("a compound criterion needs at least one member")
        check_weights([mem.weight for mem in members], "compound")
        self._set(members)

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


class MemberRows(Record):
    """A criterion as the kernel scores it: ``scale`` tr[M^-1 ``moment``] for
    apv and av, ``moment`` None and ``scale`` sigma^2 for A and D, in the
    criterion's coding, which :meth:`code` applies to model rows (None
    without ``--orth``)."""

    __slots__ = ("criterion", "moment", "scale", "coding")

    def __init__(self, criterion: CriterionSpec, moment: np.ndarray | None, scale: float,
                 coding: OrthogonalCoding | None = None) -> None:
        self._set(criterion, moment, scale, coding)

    def code(self, x: np.ndarray) -> np.ndarray:
        return x if self.coding is None else self.coding.apply(x)


def criterion_values(x: np.ndarray, rows: MemberRows) -> tuple[np.ndarray, np.ndarray]:
    """(value, column rank) of each model matrix in a (B, N, p) stack.

    All is read off one thin SVD X = U S V^T, so X^T X (condition number
    cond(X)^2) is never formed.  With W = V S^-1, (X^T X)^-1 = W W^T: apv and
    av are ``scale`` tr[W^T C W], A is (scale / p) sum s^-2 and D is scale
    exp(2 sum log s / p).  Values at rank < p are meaningless; callers mask
    them.  A full-rank matrix whose value is not finite, or is below the
    smallest normal float in size, raises EstimabilityError: such a value
    has lost digits, or all of them at 0, and compounds take 1/D.  Only an
    apv whose trace is exactly 0 (no column varies over the orders) may be 0.
    """
    kind, moment, scale = rows.criterion.kind, rows.moment, rows.scale
    p = x.shape[2]
    if moment is None:
        s = np.linalg.svd(x, compute_uv=False)
    else:
        _, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = np.sum(s > RANK_RTOL * s[:, :1], axis=1)
    zero = False  # which values are an exact 0 trace
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if kind is CriterionKind.D_OPT:
            values = scale * np.exp(2.0 * np.log(s).sum(axis=1) / p)
        elif moment is None:
            values = scale / p * (s**-2.0).sum(axis=1)
        else:
            w = np.swapaxes(vt, 1, 2) / s[:, None, :]
            trace = np.einsum("bij,bij->b", moment @ w, w)
            zero = trace == 0
            values = scale * trace
    normal = (np.abs(values) >= np.finfo(float).tiny) | zero
    bad = np.flatnonzero((rank == p) & ~(np.isfinite(values) & normal))
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


#: Orders per block of :func:`factorial_moments`' tpwo:geom sums.  Every other
#: family has integer rows, whose sums are exact in any blocks, and takes the
#: walk's ``models.BLOCK_ROWS``.  The geom rows are not integers, so their sums
#: round, and at m = 8 sums over 1,024 orders move the geom=0.3 and geom=0.7
#: moments by up to 3.7e-16 of their largest entry.  Kept at 4,096, every
#: moment is what it has been.
MOMENT_BLOCK_ROWS = 4096


@lru_cache(maxsize=None)
def factorial_moments(spec: ModelSpec, m: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(X_f^T X_f, X_f^T (I - J/w) X_f, w), computed once per (model, m).

    Both are Gram matrices over the w = m! orders, summed over the
    symmetry-reduced order set of :func:`~oofa.models.moment_orders` (at
    m = 8, 1,680 orders instead of 40,320; 20,160 for rs3 and rs3s, 56 for
    cp) and expanded.  The centered moment expands the same way, because the
    canonical columns have the same means over these orders as over all.

    The rows are built ``models.BLOCK_ROWS`` orders at a time
    (:data:`MOMENT_BLOCK_ROWS` for tpwo:geom) and never held whole.  They
    are built at the integer positions q_c (the invh taper scaled by
    lcm(1..m-1)), so for every family but tpwo with the geom taper their
    Gram G and column sums s are exact, and each entry takes one correctly
    rounded division: G / D and (n G - s s^T) / (n D), D the divisor.  The
    geom rows are summed in floating point the same way; their tapered
    columns have mean zero and the intercept's centered entry is exactly
    n n - n n = 0, so n G - s s^T loses no digits to cancellation.

    Immutable after creation; concurrent readers are safe (worst case two
    threads build the same entry once).
    """
    orders = moment_orders(spec, m)
    p = spec.param_count(m)
    gram, sums, n = np.zeros((p, p)), np.zeros(p), 0
    # The block sizes and models.model_rows are read when this runs, so a
    # changed block size or a wrapped row builder takes effect here too.
    geom = spec.taper is not None and spec.taper.kind is models.TaperKind.GEOMETRIC
    size = MOMENT_BLOCK_ROWS if geom else models.BLOCK_ROWS
    for start in range(0, len(orders.positions), size):
        block = models.model_rows(spec, orders.positions[start:start + size],
                                  standardized=False)
        gram += block.T @ block
        sums += block.sum(axis=0)
        n += len(block)
    # Integer rows keep every step below 2**53 (the largest is n D = 4.4e13, rs3 at
    # m = 8), so all is exact but the division.
    centered = orders.repeats * (n * gram - np.outer(sums, sums)) / (n * orders.divisor)
    plain = orders.repeats * gram / orders.divisor
    plain, centered = plain.take(orders.canonical), centered.take(orders.canonical)
    plain.setflags(write=False)
    centered.setflags(write=False)
    return plain, centered, n * orders.repeats


# ---------------------------------------------------------------------------
# orthogonal coding
# ---------------------------------------------------------------------------


class OrthogonalCoding(Record):
    """Row transform making the full-factorial moment matrix equal w I.

    From the triangular factorization X_f^T X_f = R^T R, each covariate row
    x maps to x R^{-1} sqrt(w).
    """

    __slots__ = ("spec", "m", "w", "r", "_r_inv_scaled")

    def __init__(self, spec: ModelSpec, m: int, w: int, r: np.ndarray,
                 _r_inv_scaled: np.ndarray) -> None:
        self._set(spec, m, w, r, _r_inv_scaled)

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
        return MemberRows(criterion, None, sigma2, coding)
    plain, centered, w = factorial_moments(model, m)
    if kind is CriterionKind.APV:
        moment, scale = centered, 2.0 * sigma2 / (w - 1)
    else:
        moment, scale = plain, sigma2 / w
    if coding is not None:  # the coded rows are x T, so their moment is T^T C T
        moment = coding.apply(coding.apply(moment).T)
    return MemberRows(criterion, moment, scale, coding)


def criterion_value(model: ModelSpec, criterion: CriterionSpec, design: Design) -> float:
    """Evaluate one criterion for one model on a design, honoring the coding."""
    rows = member_rows(model, criterion, design.m)
    x = rows.code(order_matrix(model, design.orders).values)
    return _single_value(x, rows, f"model {model.label} on this {design.n}-run design")
