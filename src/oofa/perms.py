"""The orders of an order-of-addition experiment: each run applies the m
components, identified internally as integers 1..m, in some order.  This
module holds all m! orders as one cached int8 array, the orders whose last
components ascend, and the cap on m.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from . import _forward
from .errors import CapacityError, ValidationError

#: Hard cap on the component count: downstream modules materialize all m!
#: orders (40320 rows at m = 8), so larger m is refused outright.
MAX_COMPONENTS = 8


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
def order_array(m: int) -> np.ndarray:
    """All m! orderings of 1..m as a read-only (m!, m) ``int8`` array.

    Rows are in lexicographic order, so row i is the order of
    ``adaptors.enumerate_permutations(m)[i]``.  Cached.  One byte per entry
    holds m <= 8 (0.3 MB at m = 8): cast to a wider type before multiplying
    or summing entries.
    """
    check_capacity(m)
    # Built in intp, np.take's index type, and narrowed once.  Built in int8, the
    # m = 8 `average` request took 39k minor page faults instead of 11k and 10 %
    # longer (1,024-order blocks): without this early 2.6 MB temporary, glibc
    # trims and re-grows its heap between the blocks of model rows.
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


__getattr__ = _forward(globals(), {"adaptors": (
    "Permutation", "StdPositions", "as_permutations", "enumerate_permutations", "standardize")})
