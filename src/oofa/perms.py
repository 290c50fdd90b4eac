"""Permutation enumeration and standardized-position arithmetic.

A run of an order-of-addition experiment is an ordering of m components,
identified internally as integers 1..m.  With q_c the 1-based position of
component c in a run, the standardized position is

    p_c = 2 q_c / (m (m + 1)),

which satisfies three exact constraints over any complete ordering:

    sum_c p_c          = 1
    sum_c p_c^2        = 2 (2m + 1) / (3 m (m + 1))
    sum_{c<d} p_c p_d  = (3 m^2 - m - 2) / (6 m (m + 1))

These identities are what make the reduced response-surface parameterizations
in :mod:`oofa.models` full rank without an explicit intercept; the test suite
asserts them to 1e-12 for every permutation up to m = 8.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError, ValidationError

#: Hard cap on the component count: downstream modules materialize all m!
#: orders (40320 rows at m = 8), so larger m is refused outright.
MAX_COMPONENTS = 8


@dataclass(frozen=True)
class Permutation:
    """One ordering of the components 1..m, an adaptor type: the package holds
    orders as int8 arrays (:func:`order_array`, ``Design.orders``).

    ``order[j]`` is the component applied at position j+1; it must be a
    bijection on {1, ..., m}.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.order, tuple):
            object.__setattr__(self, "order", tuple(self.order))
        m = len(self.order)
        if m == 0:
            raise ValidationError("a permutation needs at least one component")
        if sorted(self.order) != list(range(1, m + 1)):
            raise ValidationError(
                f"order {self.order!r} is not a permutation of 1..{m}"
            )

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


@dataclass(frozen=True, eq=False)
class StdPositions:
    """Standardized positions p_c of one run, indexed by component."""

    p: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.p)


def check_capacity(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValidationError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= MAX_COMPONENTS:
        raise CapacityError(
            f"m must be between 1 and {MAX_COMPONENTS} (got {m}); "
            f"all m! orders are materialized, which is infeasible beyond "
            f"{MAX_COMPONENTS}! = {factorial(MAX_COMPONENTS)}"
        )
    return m


@lru_cache(maxsize=None)
def enumerate_permutations(m: int) -> tuple[Permutation, ...]:
    """All m! orderings of 1..m in lexicographic order.

    Deterministic and cached; the returned tuple (and its elements) are
    immutable, so sharing across threads is safe.
    """
    check_capacity(m)
    return tuple(
        Permutation(order) for order in itertools.permutations(range(1, m + 1))
    )


@lru_cache(maxsize=None)
def order_array(m: int) -> np.ndarray:
    """All m! orderings of 1..m as a read-only (m!, m) ``int8`` array.

    Rows are in the lexicographic order of :func:`enumerate_permutations`,
    so row i is ``enumerate_permutations(m)[i].order``.  Cached; code that
    only needs the orders (model matrices, the search pool) indexes this
    instead of building m! :class:`Permutation` objects.  One byte per entry
    holds m <= 8 (0.3 MB at m = 8): cast to a wider type before multiplying
    or summing entries.
    """
    check_capacity(m)
    # Built in intp, np.take's index type, and narrowed once.  Built in int8, the
    # m = 8 `average` request took 30k minor page faults instead of 8k and 10 %
    # longer: without this early 2.6 MB temporary, glibc trims and re-grows its
    # heap between the blocks of model rows.
    orders = ascending_tail_orders(m, 0).astype(np.int8)
    orders.setflags(write=False)
    return orders


def ascending_tail_orders(m: int, tail: int) -> np.ndarray:
    """The orders of 1..m whose last ``tail`` components ascend, in
    lexicographic order, as an (m!/tail!, m) ``intp`` array: the rows
    ``order_array(m)[::factorial(tail)]``, which are the first completion of
    each (m - tail)-component prefix, built without the others.

    Built up from the single ascending order of ``tail`` components: the k!/tail!
    orders of 1..k are one block per leading component c, whose rest maps
    the orders of 1..k-1 onto the other components in ascending order, which
    keeps the blocks, the rows within them and their ascending tails.  The
    smaller arrays are not kept.
    """
    orders = np.arange(1, tail + 1, dtype=np.intp)[None, :]
    for k in range(tail + 1, m + 1):
        sub, orders = orders, np.empty((k * len(orders), k), dtype=np.intp)
        components = np.arange(k + 1)
        for c, block in enumerate(np.split(orders, k), start=1):
            block[:, 0] = c
            # rest[j] is the j-th component other than c (rest[0] = 0 is unused);
            # no index is out of range, and mode "clip" writes without a temporary
            rest = components[components != c]
            np.take(rest, sub, out=block[:, 1:], mode="clip")
    return orders


def standardize(perm: Permutation) -> StdPositions:
    """Map a run to its standardized positions p_c = 2 q_c / (m (m + 1))."""
    m = perm.m
    scale = 2.0 / (m * (m + 1))
    return StdPositions(tuple(q * scale for q in perm.positions()))


def as_permutations(orders: np.ndarray) -> tuple[Permutation, ...]:
    """The rows of an (n, m) order array as :class:`Permutation` objects."""
    return tuple(map(Permutation, orders.tolist()))
