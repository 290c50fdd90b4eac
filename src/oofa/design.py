"""Designs and datasets: runs (an int8 order array) with optional block labels
and responses, plus the rank and weight tolerances every layer shares."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ValidationError
from .records import Record

if TYPE_CHECKING:
    from .adaptors import Permutation

#: Relative singular-value threshold below which a column is rank-deficient.
RANK_RTOL = 1e-10
#: How far from one the weights of a model average or a compound may sum.
WEIGHT_SUM_TOL = 1e-9


class Design(Record):
    """N runs over the same m components, with optional per-run block labels.

    ``orders`` is a read-only (N, m) ``int8`` array of components 1..m, run i
    in row i, as :func:`~oofa.perms.order_array` holds them, built from any
    (N, m) integers and checked; block labels and ``labels`` are kept as
    strings.  ``labels[c-1]`` is the external name of component c ("1".."m"
    by default).  Blocks are nuisance batch markers: they are fitted
    (sum-to-zero coded) but never enter design criteria.  Designs compare by
    identity (compare ``orders`` with ``np.array_equal``).
    """

    __slots__ = ("orders", "block", "labels")

    def __init__(self, orders: np.ndarray, block: tuple[str, ...] | None = None,
                 labels: tuple[str, ...] | None = None) -> None:
        orders = _checked_orders(orders)
        if block is not None:
            block = tuple(map(str, block))
        if labels is not None:
            labels = tuple(map(str, labels))
        if block is not None and len(block) != len(orders):
            raise ValidationError(f"{len(block)} block labels for {len(orders)} runs")
        if labels is not None:
            check_labels(labels, orders.shape[1], "component labels")
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_orders(cls, orders, block=None, labels=None) -> "Design":
        """The same as ``Design(orders, block, labels)``."""
        return cls(orders, block, labels)

    @property
    def runs(self) -> tuple[Permutation, ...]:
        """The runs as :class:`~oofa.adaptors.Permutation` objects, built on each access."""
        from .adaptors import as_permutations

        return as_permutations(self.orders)

    @property
    def m(self) -> int:
        return self.orders.shape[1]

    @property
    def n(self) -> int:
        return self.orders.shape[0]

    @property
    def component_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(c) for c in range(1, self.m + 1))

    @property
    def block_levels(self) -> tuple[str, ...]:
        """Distinct block labels in first-appearance order."""
        return () if self.block is None else tuple(dict.fromkeys(self.block))

    def block_matrix(self) -> np.ndarray:
        """Sum-to-zero block coding, one column per non-reference level.

        Level j (of L, in first-appearance order) codes as +1 in column j,
        the last level as -1 in every column.  The mean of the L coded rows
        is the zero vector, so evaluating a fit at block = 0 averages over
        blocks.
        """
        levels = self.block_levels
        if len(levels) < 2:
            return np.zeros((self.n, 0))
        index = {lab: k for k, lab in enumerate(levels)}
        level = np.array([index[lab] for lab in self.block])  # type: ignore[union-attr]
        out = (level[:, None] == np.arange(len(levels) - 1)).astype(float)
        out[level == len(levels) - 1] = -1.0
        return out

    def without_block(self) -> "Design":
        if self.block is None:
            return self
        return Design(self.orders, None, self.labels)


class Dataset(Record):
    """A design together with its observed responses."""

    __slots__ = ("design", "response")

    def __init__(self, design: Design, response: np.ndarray) -> None:
        y = np.asarray(response, dtype=float)
        if y.ndim != 1:
            raise ValidationError("response must be a one-dimensional vector")
        if len(y) != design.n:
            raise ValidationError(f"{len(y)} responses for {design.n} runs")
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must all be finite")
        y.setflags(write=False)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def m(self) -> int:
        return self.design.m


def _checked_orders(orders) -> np.ndarray:
    """``orders`` as a read-only (N, m) ``int8`` array, or a ValidationError
    that names the first bad run.  One vectorized check: a row of integers
    (not bools) sorts to 1..m exactly when it is an order of 1..m, so no
    other value can be narrowed, or wrap, into a component."""
    numeric = isinstance(orders, np.ndarray) and orders.dtype != object
    rows = orders if numeric else list(map(tuple, orders))
    if len(rows) == 0:
        raise ValidationError("at least one run is required")
    m = len(rows[0])
    if not 1 <= m <= np.iinfo(np.int8).max:
        raise ValidationError(f"a run needs 1 to 127 components, got {m}")
    kinds = {rows.dtype.type} if numeric else set(map(type, itertools.chain(*rows)))
    try:
        values = np.asarray(rows) if all(map(_is_integer, kinds)) else None
    except ValueError:  # ragged rows
        values = None
    if values is None or values.shape != (len(rows), m) or not (
            np.sort(values, axis=1) == np.arange(1, m + 1)).all():
        raise _first_bad_run(rows, m)
    values = values.astype(np.int8)
    values.setflags(write=False)
    return values


def _is_integer(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _first_bad_run(rows, m: int) -> ValidationError:
    """The error naming the first run of ``rows`` that is not an order of 1..m."""
    for i, row in enumerate(rows, start=1):
        row = tuple(row.tolist() if isinstance(row, np.ndarray) else row)
        if len(row) != m:
            return ValidationError(f"run {i} has {len(row)} components, expected {m}")
        if not all(map(_is_integer, map(type, row))) or sorted(row) != list(range(1, m + 1)):
            return ValidationError(f"order {row!r} is not a permutation of 1..{m}")
    raise AssertionError("every run is an order of 1..m")


def check_labels(labels: Sequence[str], m: int, what: str) -> None:
    """Raise ValidationError unless ``labels`` are m distinct non-empty
    names; ``what`` ("component labels", "--labels") names them in the
    message."""
    if len(labels) != m or "" in labels or len(set(labels)) != m:
        raise ValidationError(
            f"{what} must be {m} distinct non-empty names, got {list(labels)!r}"
        )


def check_weights(weights, what: str) -> None:
    """Raise ValidationError unless the weights are finite, non-negative and
    sum to one within WEIGHT_SUM_TOL; ``what`` ("model", "compound") names
    them in the message."""
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"{what} weights must be finite")
    if np.any(w < 0):
        raise ValidationError(f"{what} weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"{what} weights must sum to 1, got {total!r}")
