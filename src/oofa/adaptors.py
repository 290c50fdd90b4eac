"""Adaptors for callers that want objects, not arrays, such as the acceptance
tests and the benchmark's probes: :class:`Permutation` orders, criteria of raw
matrices or of one design, and tables given row by row.  No command loads
this module; the modules these names came from still serve them."""

from __future__ import annotations

import io
import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .criteria import (CompoundSpec, CriterionKind, CriterionSpec, MemberRows, _single_value,
                       criterion_value)
from .dataio import write_table
from .design import Design
from .errors import EstimabilityError, ValidationError
from .models import (DesignMatrix, Family, ModelSpec, Taper, TaperKind, full_factorial_matrix,
                     order_matrix)
from .perms import check_capacity
from .records import Record, ValueRecord
from .search import oriented_value


class Permutation(ValueRecord):
    """One ordering of the components 1..m, an adaptor type: the package holds
    orders as int8 arrays (:func:`~oofa.perms.order_array`, ``Design.orders``).

    ``order[j]`` is the component applied at position j+1; it must be a
    bijection on {1, ..., m}.
    """

    __slots__ = ("order",)

    def __init__(self, order: tuple[int, ...]) -> None:
        if not isinstance(order, tuple):
            order = tuple(order)
        m = len(order)
        if m == 0:
            raise ValidationError("a permutation needs at least one component")
        if sorted(order) != list(range(1, m + 1)):
            raise ValidationError(f"order {order!r} is not a permutation of 1..{m}")
        self._set(order)

    @property
    def m(self) -> int:
        return len(self.order)

    def positions(self) -> tuple[int, ...]:
        """Positions q_c indexed by component: element c-1 is q_c."""
        q = [0] * self.m
        for pos, comp in enumerate(self.order, start=1):
            q[comp - 1] = pos
        return tuple(q)

    def label(self, labels: tuple[str, ...] | None = None) -> str:
        """Space-separated external labels, e.g. ``"B C A"``."""
        if labels is None:
            return " ".join(str(c) for c in self.order)
        return " ".join(labels[c - 1] for c in self.order)


class StdPositions(Record):
    """Standardized positions p_c of one run, indexed by component."""

    __slots__ = ("p",)

    def __init__(self, p: tuple[float, ...]) -> None:
        self._set(p)

    @property
    def m(self) -> int:
        return len(self.p)


@lru_cache(maxsize=None)
def enumerate_permutations(m: int) -> tuple[Permutation, ...]:
    """All m! orderings of 1..m in lexicographic order, the rows of
    :func:`~oofa.perms.order_array`.

    Deterministic and cached; the returned tuple (and its elements) are
    immutable, so sharing across threads is safe.
    """
    check_capacity(m)
    return tuple(
        Permutation(order) for order in itertools.permutations(range(1, m + 1))
    )


def standardize(perm: Permutation) -> StdPositions:
    """Map a run to its standardized positions p_c = 2 q_c / (m (m + 1)), q_c
    the 1-based position of component c.  Over any complete ordering

        sum_c p_c          = 1
        sum_c p_c^2        = 2 (2m + 1) / (3 m (m + 1))
        sum_{c<d} p_c p_d  = (3 m^2 - m - 2) / (6 m (m + 1)),

    which is what makes the reduced response-surface parameterizations of
    :mod:`oofa.models` full rank without an explicit intercept; the test
    suite asserts these to 1e-12 for every permutation up to m = 8.
    """
    m = perm.m
    scale = 2.0 / (m * (m + 1))
    return StdPositions(tuple(q * scale for q in perm.positions()))


def as_permutations(orders: np.ndarray) -> tuple[Permutation, ...]:
    """The rows of an (n, m) order array as :class:`Permutation` objects."""
    return tuple(map(Permutation, orders.tolist()))


def build_matrix(spec: ModelSpec, runs: Sequence[Permutation | Sequence[int]]) -> DesignMatrix:
    """The model matrix of the given runs, one row per run: an adaptor for
    :class:`Permutation` objects or plain orders, which are checked and
    converted once to the order array a :class:`~oofa.design.Design` holds."""
    return order_matrix(spec, Design([getattr(run, "order", run) for run in runs]).orders)


def pwo_to_ltpwo_maps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mapping matrices between the PWO and linearly tapered PWO columns.

    Returns (A, B) with X_ltpwo = X_pwo @ A and X_pwo = X_ltpwo @ B over the
    full factorial (hence over any design, row-wise), and A @ B = I.  The two
    column spaces coincide, which is why both models always produce the same
    fitted values.
    """
    x_pwo = full_factorial_matrix(ModelSpec(Family.PWO), m).values
    x_lt = full_factorial_matrix(
        ModelSpec(Family.TPWO, Taper(TaperKind.LINEAR)), m
    ).values
    try:
        a = np.linalg.solve(x_pwo.T @ x_pwo, x_pwo.T @ x_lt)
        b = np.linalg.solve(x_lt.T @ x_lt, x_lt.T @ x_pwo)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - full rank for m >= 2
        raise EstimabilityError(f"singular moment matrix at m = {m}: {exc}") from exc
    return a, b


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


def compound(spec: CompoundSpec, design: Design) -> float:
    """Weighted sum of oriented member criteria; smaller is better."""
    total = 0.0
    for member in spec.members:
        value = criterion_value(member.model, member.criterion, design)
        total += member.weight * oriented_value(member.criterion.kind, value)
    return float(total)


def table_to_csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a table as CSV text with 12-significant-digit decimals."""
    out = io.StringIO()
    write_table(out, header, _columns(header, rows))
    return out.getvalue()


def table_to_json(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a table as a JSON list of row objects, keys in header order."""
    out = io.StringIO()
    write_table(out, header, _columns(header, rows), "json")
    return out.getvalue()[:-1]  # without the newline write_table ends JSON with


def _columns(header: Sequence[str], rows: Iterable[Sequence]) -> list:
    rows = [list(row) for row in rows]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"every row needs {len(header)} cells, one per header name")
    return [[row[j] for row in rows] for j in range(len(header))]
