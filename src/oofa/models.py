"""Design-matrix construction for the order-of-addition regression families.

Families
--------
``PWO``
    Intercept plus pairwise-ordering indicators x_cd for c < d, where
    x_cd = +1 if component c precedes component d and -1 otherwise.
    1 + m(m-1)/2 columns.
``TPWO``
    Tapered PWO: each x_cd is scaled by a decreasing function z(h) of the
    positional distance h_cd = |q_c - q_d| between the pair.  Available
    tapers: z(h) = 1/h, z(h) = r^(h-1) for a fixed ratio 0 < r < 1, and the
    linear z(h) = m - h.  Same column count as PWO.  With the linear taper
    the column space equals the PWO column space (see
    :func:`~oofa.adaptors.pwo_to_ltpwo_maps`), so both models produce
    identical fits.
``CP``
    Component-position indicators: intercept plus tau_c_j = 1 if component c
    occupies position j, for c <= m-1 and j <= m-1 (component m and position
    m are the baseline).  1 + (m-1)^2 columns.
``RS2``
    Second-order response surface on standardized positions: p_c and p_c^2
    for c <= m-1, plus p_c p_d for c < d <= m-1.  No intercept and no p_m
    terms -- the position constraints put the constant in the span already,
    so adding an intercept would not increase the rank.  (m-1)(m+2)/2
    columns.
``RS3``
    Third-order surface.  Columns, in order: p_c for c <= m; cross products
    p_c p_d for c <= m-2, c < d <= m; asymmetric cubic columns
    p_c p_d (p_c - p_d) for c <= m-2, c < d <= m-1; triple products
    p_c p_d p_e for c <= m-3, c < d <= m-1, d < e <= m.  These index bounds
    drop exactly one cross product (p_{m-1} p_m) and one triple
    (p_{m-2} p_{m-1} p_m), which the position constraints make redundant;
    the resulting matrix has full column rank on the complete set of m!
    orders for every supported m (see README, "Numerical notes", for the
    degrees-of-freedom cross-checks that pin these bounds down).
``RS3_SPECIAL``
    RS3 without the asymmetric cubic columns.
``NN``
    Nearest-neighbour adjacency: w_cd = 1 if component c immediately
    precedes component d, for all ordered pairs c != d.  No intercept; every
    row sums to m - 1.  m(m-1) columns.

Column labels are stable and file-safe: ``b0``, ``x_1_2``, ``tau_2_1``,
``p_1``, ``p_1^2``, ``p_1*p_2``, ``a_1_2`` (asymmetric cubic),
``p_1*p_2*p_3``, ``w_1_2``.  Canonical order: intercept first (when the
family has one), then terms by ascending index tuples, linear before
quadratic before asymmetric-cubic before cubic.

Each family's columns are written down once, as (kind, indices) groups in
:func:`_column_groups`; the labels, the model rows, the parameter count and
the moment bookkeeping of :func:`moment_orders` are all read from it.
"""

from __future__ import annotations

import enum
import itertools
import os
from functools import lru_cache
from math import factorial, lcm
from typing import NamedTuple

import numpy as np

from . import _forward
from .errors import UnsupportedModelError, ValidationError
from .perms import ascending_tail_orders, order_array
from .records import Record, ValueRecord

#: Orders per block when the m! orders are walked (``ranking.position_blocks``).
#: A block's model rows and their product with the covariance stay in a 2 MiB
#: L2 cache: for nn at m = 8 (56 columns) each is 0.46 MB at 1,024 orders and
#: 1.8 MB at 4,096.  The five-model m = 8 walk took 63 ms at 1,024 orders,
#: against 71 ms in whole 4,096-order products (one BLAS thread, 2-core
#: x86-64).  No less than ``ranking.PRODUCT_ROWS``, whose products pad a
#: shorter block: at 256 orders the walk took 201 ms.
BLOCK_ROWS = 1024


class Family(str, enum.Enum):
    PWO = "pwo"
    TPWO = "tpwo"
    CP = "cp"
    RS2 = "rs2"
    RS3 = "rs3"
    RS3_SPECIAL = "rs3s"
    NN = "nn"


class TaperKind(str, enum.Enum):
    INV_H = "invh"
    GEOMETRIC = "geom"
    LINEAR = "linear"


class Taper(ValueRecord):
    """Distance-decay function z(h) applied to pairwise-ordering effects."""

    __slots__ = ("kind", "ratio")

    def __init__(self, kind: TaperKind, ratio: float | None = None) -> None:
        if kind is TaperKind.GEOMETRIC:
            if ratio is None or not 0.0 < float(ratio) < 1.0:
                raise ValidationError(
                    f"geometric taper needs a ratio strictly between 0 and 1, got {ratio!r}"
                )
        elif ratio is not None:
            raise ValidationError(f"taper {kind.value} takes no ratio")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ratio", ratio)

    @property
    def label(self) -> str:
        if self.kind is TaperKind.GEOMETRIC:
            return f"geom={float(self.ratio)!r}"
        return self.kind.value


class ModelSpec(ValueRecord):
    """Which regression family to build, including the taper for TPWO."""

    __slots__ = ("family", "taper")

    def __init__(self, family: Family, taper: Taper | None = None) -> None:
        if family is Family.TPWO and taper is None:
            raise ValidationError("tpwo needs a taper: invh, geom=<ratio>, or linear")
        if family is not Family.TPWO and taper is not None:
            raise ValidationError(f"{family.value} takes no taper")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "taper", taper)

    @property
    def include_intercept(self) -> bool:
        """Forced per family: only PWO/TPWO/CP carry an explicit intercept."""
        return self.family in (Family.PWO, Family.TPWO, Family.CP)

    @property
    def label(self) -> str:
        if self.family is Family.TPWO:
            return f"tpwo:{self.taper.label}"  # type: ignore[union-attr]
        return self.family.value

    def param_count(self, m: int) -> int:
        return sum(idx.shape[1] for _, idx in _column_groups(self, m))


class DesignMatrix(Record):
    """A built model matrix with its labelled columns."""

    __slots__ = ("values", "term_labels", "m", "spec")

    def __init__(self, values: np.ndarray, term_labels: tuple[str, ...], m: int,
                 spec: ModelSpec) -> None:
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "term_labels", term_labels)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "spec", spec)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def p(self) -> int:
        return int(self.values.shape[1])


def parse_model(label: str) -> ModelSpec:
    """Parse a model identifier like ``pwo`` or ``tpwo:geom=0.5``."""
    text = label.strip().lower()
    name, _, taper_text = text.partition(":")
    aliases = {"rs3_special": "rs3s", "rs3special": "rs3s"}
    name = aliases.get(name, name)
    try:
        family = Family(name)
    except ValueError:
        known = ", ".join(f.value for f in Family)
        raise ValidationError(f"unknown model {label!r}; expected one of: {known}") from None
    if family is not Family.TPWO:
        if taper_text:
            raise ValidationError(f"{family.value} takes no taper (got {label!r})")
        return ModelSpec(family)
    if not taper_text:
        raise ValidationError("tpwo needs a taper: invh, geom=<ratio>, or linear")
    if taper_text.startswith("geom="):
        try:
            ratio = float(taper_text[5:])
        except ValueError:
            raise ValidationError(f"bad geometric ratio in {label!r}") from None
        return ModelSpec(Family.TPWO, Taper(TaperKind.GEOMETRIC, ratio))
    try:
        kind = TaperKind(taper_text)
    except ValueError:
        raise ValidationError(
            f"unknown taper {taper_text!r}; expected invh, geom=<ratio>, or linear"
        ) from None
    if kind is TaperKind.GEOMETRIC:
        raise ValidationError("geometric taper needs a ratio: tpwo:geom=<ratio>")
    return ModelSpec(Family.TPWO, Taper(kind))


def taper_value(taper: Taper, h: int, m: int) -> float:
    """Evaluate z(h) for a positional distance h in 1..m-1."""
    if not 1 <= h <= m - 1:
        raise ValidationError(f"distance h must be in 1..{m - 1}, got {h}")
    if taper.kind is TaperKind.INV_H:
        return 1.0 / h
    if taper.kind is TaperKind.GEOMETRIC:
        return float(taper.ratio) ** (h - 1)
    return float(m - h)


def _taper_table(taper: Taper, m: int) -> np.ndarray:
    """z(h) for h = 1..m-1, indexed by h-1."""
    return np.array([taper_value(taper, h, m) for h in range(1, m)])


def _positions(orders: np.ndarray) -> np.ndarray:
    """(n, m) float array of positions from (n, m) component orders: column
    c-1 holds q_c per run.  The orders may be ``int8``: they only index."""
    n, m = orders.shape
    q = np.empty((n, m))
    q[np.arange(n)[:, None], orders - 1] = np.arange(1, m + 1)
    return q


def _combinations(*bounds: int) -> np.ndarray:
    """(r, k) 0-based indices c < d < ... with c < bounds[0], d < bounds[1],
    ..., r = len(bounds), in lexicographic order."""
    rows = [t for t in itertools.combinations(range(bounds[-1]), len(bounds))
            if all(i < b for i, b in zip(t, bounds))]
    return np.array(rows, dtype=np.intp).reshape(-1, len(bounds)).T.copy()


class _Kind(NamedTuple):
    """A kind of column group: the label format of a column's 1-based
    indices, how many leading indices are components (the rest are
    positions), and the degree in the positions (a surface column built at
    q_c rather than p_c is T^degree times the model column, T = m(m+1)/2)."""

    label: str
    components: int
    degree: int


#: Every kind of column group.
_KINDS = {
    "b0": _Kind("b0", 0, 0),
    "x": _Kind("x_{}_{}", 2, 0),
    "tau": _Kind("tau_{}_{}", 1, 0),
    "w": _Kind("w_{}_{}", 2, 0),
    "p": _Kind("p_{}", 1, 1),
    "p^2": _Kind("p_{}^2", 1, 2),
    "pp": _Kind("p_{}*p_{}", 2, 2),
    "a": _Kind("a_{}_{}", 2, 3),
    "ppp": _Kind("p_{}*p_{}*p_{}", 3, 3),
}


@lru_cache(maxsize=None)
def _column_groups(spec: ModelSpec, m: int) -> tuple[tuple[str, np.ndarray], ...]:
    """The columns of the family at m as (kind, indices) groups, in column
    order: column i of the read-only (w, k) ``indices`` holds the 0-based
    indices of the group's i-th column, c (and d, e) or, for ``tau``, c and
    j - 1.  The one list of every family's columns: labels, rows, counts and
    moment bookkeeping all read it."""
    if m < 2:
        raise ValidationError(f"model matrices need m >= 2, got m = {m}")
    f = spec.family
    if f in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
        raise UnsupportedModelError(
            f"{spec.label} is undefined for m = {m}: no third-order terms exist"
        )
    groups = [("b0", np.empty((0, 1), dtype=np.intp))] if spec.include_intercept else []
    if f in (Family.PWO, Family.TPWO):
        groups.append(("x", _combinations(m - 1, m)))
    elif f is Family.CP:
        groups.append(("tau", np.indices((m - 1, m - 1)).reshape(2, -1)))
    elif f is Family.NN:
        groups.append(("w", np.stack(np.nonzero(~np.eye(m, dtype=bool)))))
    elif f is Family.RS2:
        first = np.arange(m - 1)[None]
        groups += [("p", first), ("p^2", first), ("pp", _combinations(m - 2, m - 1))]
    else:
        groups += [("p", np.arange(m)[None]), ("pp", _combinations(m - 2, m))]
        if f is Family.RS3:
            groups.append(("a", _combinations(m - 2, m - 1)))
        groups.append(("ppp", _combinations(m - 3, m - 1, m)))
    for _, idx in groups:
        idx.setflags(write=False)
    return tuple(groups)


@lru_cache(maxsize=None)
def term_labels(spec: ModelSpec, m: int) -> tuple[str, ...]:
    """Column labels of the family at m, in column order."""
    return tuple(_KINDS[kind].label.format(*(col + 1))
                 for kind, idx in _column_groups(spec, m) for col in idx.T)


def _group_values(kind: str, idx: np.ndarray, v: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """(k, n) values of one column group at ``v``, whose row c-1 holds q_c
    per run, or p_c for the surface kinds of standardized rows; ``z`` is the
    taper table of tapered ``x`` columns."""
    if kind == "b0":
        return np.ones((1, v.shape[1]))
    if kind in ("x", "w"):
        # q_c takes the values 1..m, so int8 differences are exact, and the
        # gathered rows take an eighth of the memory of float64 ones
        c, d = idx
        q = v.astype(np.int8)
        diff = q[d] - q[c]
        if kind == "w":
            return diff == 1
        sign = np.where(diff > 0, 1.0, -1.0)
        return sign if z is None else sign * z[np.abs(diff).astype(np.intp) - 1]
    if kind == "tau":
        # The (c, j) grid as one broadcast: a gather of q_c per column is
        # twice as slow.
        m = len(v)
        return (v[:m - 1, None] == np.arange(1, m)[:, None]).reshape(-1, v.shape[1])
    if kind in ("p", "p^2"):
        # components 1..k, as a view: a gathered copy makes rs2 rows about 15 % slower
        p = v[:idx.shape[1]]
        return p if kind == "p" else p ** 2
    if kind == "a":
        c, d = idx  # gathered twice: holding v[c] and v[d] makes rs3 rows slower
        return v[c] * v[d] * (v[c] - v[d])
    rows = v[idx[0]]  # pp and ppp: products of positions
    for i in idx[1:]:
        rows = rows * v[i]
    return rows


def model_rows(spec: ModelSpec, q: np.ndarray, standardized: bool = True) -> np.ndarray:
    """(n, p) model rows of the runs whose positions q_c are the rows of ``q``.

    With ``standardized`` false the surface families put q_c itself in place
    of p_c and the invh taper puts lcm(1..m-1) / h in place of 1 / h, so
    that every family but tpwo with the geom taper has integer entries (see
    :func:`moment_orders`).
    """
    m = q.shape[1]
    q = np.ascontiguousarray(q.T)  # row c-1 holds q_c: the gathers below copy whole rows
    z = None
    if spec.family is Family.TPWO:
        z = _taper_table(spec.taper, m)
        if not standardized and spec.taper.kind is TaperKind.INV_H:
            z = lcm(*range(1, m)) // np.arange(1, m)
    elif standardized and spec.family in (Family.RS2, Family.RS3, Family.RS3_SPECIAL):
        q = q * (2.0 / (m * (m + 1)))
    return _rows_from_groups(spec, q, z)


def rs2_rows(p: np.ndarray) -> np.ndarray:
    """RS2 model rows at standardized positions ``p`` (n, m) that need not
    come from an order, such as the points of a response-surface grid."""
    return _rows_from_groups(ModelSpec(Family.RS2), np.ascontiguousarray(p.T))


def _rows_from_groups(spec: ModelSpec, v: np.ndarray, z: np.ndarray | None = None) -> np.ndarray:
    """The column groups of ``spec`` at ``v`` (see :func:`_group_values`),
    transposed and side by side, in one new C-contiguous (n, p) float array.
    The layout matters: a row-wise product with another layout can take a
    different BLAS kernel and change the last bits of predictions."""
    groups = [_group_values(kind, idx, v, z) for kind, idx in _column_groups(spec, len(v))]
    out = np.empty((v.shape[1], sum(len(g) for g in groups)))
    np.concatenate(groups, axis=0, out=out.T)
    return out


def order_matrix(spec: ModelSpec, orders: np.ndarray) -> DesignMatrix:
    """The model matrix of the (n, m) component ``orders``, such as
    ``Design.orders``: :func:`model_rows` at their positions."""
    m = orders.shape[1]
    return DesignMatrix(model_rows(spec, _positions(orders)), term_labels(spec, m), m, spec)


def split_start(n: int, block: int) -> int | None:
    """Where :mod:`oofa.split` cuts a walk of ``n`` rows taken ``block`` rows at
    a time: the first row of the forked child's half, at the block boundary
    nearest the middle.  None, to walk all the rows in one process, when
    either process would get fewer than two blocks, the host lacks
    ``os.fork`` or ``os.memfd_create``, or this process may run on one CPU
    only, where the two halves would take turns.  Callers import
    :mod:`oofa.split` only for a walk that this cuts."""
    blocks = -(-n // block)
    if blocks < 4 or not (hasattr(os, "fork") and hasattr(os, "memfd_create")):
        return None
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
        return None
    return blocks // 2 * block


class MomentOrders(Record):
    """How to sum a Gram matrix of model rows over all m! orders: see
    :func:`moment_orders`.

    ``positions``: (n, m) positions of the orders to sum over.
    ``canonical``: (p, p) flat index of the canonical pair of each entry.
    ``repeats``: how many of all m! orders each order summed over stands for.
    ``divisor``: (p, p) integers a_i a_j, where column i of the rows built at
    q_c (``standardized`` false) is a_i times the model column: T^d_i for the
    surface families, T = m(m+1)/2 and d_i the degree of column i in the
    positions; lcm(1..m-1) for the tapered columns of tpwo:invh; 1
    otherwise.  A Gram of those rows, over these, is the Gram of the model
    rows.
    """

    __slots__ = ("positions", "canonical", "repeats", "divisor")

    def __init__(self, positions: np.ndarray, canonical: np.ndarray, repeats: int,
                 divisor: np.ndarray) -> None:
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "repeats", repeats)
        object.__setattr__(self, "divisor", divisor)


def moment_orders(spec: ModelSpec, m: int) -> MomentOrders:
    """The orders a Gram matrix over all m! orders can be summed over, and
    how to expand that sum.

    Each column depends on the positions of at most k/2 components (a position
    index such as j in ``tau_c_j`` is fixed, not a component), so an entry
    (i, j) of the Gram depends on the positions of the set U of at most k
    components of columns i and j.  Under the uniform distribution on orders
    the positions of any |U| distinct components are uniform over their
    ordered placements, whichever components they are.  So the entry equals
    the entry at the canonical pair, the columns whose components are U
    mapped order-preservingly onto 1..|U| (which keeps the sign of x_cd and
    a_cd), and that entry depends on components 1..k only.  Over the
    m!/(m-k)! orders in which components k+1..m appear in ascending order,
    the positions of components 1..k take each ordered placement once, so
    the sum over all m! orders is ``repeats`` = (m-k)! times the sum over
    these.  k is min(m, 4), but min(m, 6) for rs3 and rs3s and min(m, 2)
    for cp; at k = m the orders are all m! of them.

    An entry taken from its canonical pair keeps that pair's rounding error,
    which no longer cancels as it does within a Gram.  So the rows are built
    at q_c rather than p_c, and with the invh taper scaled by lcm(1..m-1):
    every family but tpwo with the geom taper then has integer rows, whose
    sums are exact, and ``divisor`` turns them into the moments of the model
    rows with one rounding per entry.
    """
    k = min(m, 2 * max(_KINDS[kind].components for kind, _ in _column_groups(spec, m)))
    # Orders read as positions rather than components: the last m - k entries
    # ascend, so components k+1..m take ascending positions.
    positions = ascending_tail_orders(m, m - k).astype(float)
    return MomentOrders(positions, _canonical_pairs(spec, m, k), factorial(m - k),
                        _position_divisor(spec, m))


def _position_divisor(spec: ModelSpec, m: int) -> np.ndarray:
    """(p, p) integers a_i a_j of :class:`MomentOrders`."""
    invh = spec.family is Family.TPWO and spec.taper.kind is TaperKind.INV_H
    scale = np.concatenate([
        np.full(idx.shape[1], lcm(*range(1, m)) if invh and kind == "x"
                else (m * (m + 1) // 2) ** _KINDS[kind].degree, dtype=np.int64)
        for kind, idx in _column_groups(spec, m)])
    return np.outer(scale, scale).astype(float)


def _term_parts(spec: ModelSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(templates, components) of the columns of :func:`_column_groups`.

    ``templates[i]`` numbers the kind of column i and its indices that are
    not components (``x_3_5`` and ``x_1_2`` share one, ``tau_3_1`` and
    ``tau_3_2`` do not: j is a position); row i of ``components`` holds its
    1-based components, padded with 0.
    """
    parts = [((kind, *col[_KINDS[kind].components:]), col[:_KINDS[kind].components] + 1)
             for kind, idx in _column_groups(spec, m) for col in idx.T]
    names = {name: t for t, name in enumerate(dict.fromkeys(name for name, _ in parts))}
    components = np.zeros((len(parts), max(len(comps) for _, comps in parts)), dtype=np.intp)
    for i, (_, comps) in enumerate(parts):
        components[i, :len(comps)] = comps
    return np.array([names[name] for name, _ in parts], dtype=np.intp), components


@lru_cache(maxsize=None)
def _canonical_pairs(spec: ModelSpec, m: int, k: int) -> np.ndarray:
    """(p, p) flat indices i' p + j' of the canonical pair of each entry (i, j)
    of a Gram matrix (see :func:`moment_orders`), computed for all pairs at
    once.  Raises if a pair has more than k components or a canonical column
    does not exist."""
    templates, components = _term_parts(spec, m)
    p, width = components.shape
    i = np.arange(p)[:, None, None]
    j = np.arange(p)[None, :, None]
    # in_union[i, j, c]: component c belongs to column i or column j (slot 0 is padding)
    in_union = np.zeros((p, p, m + 1), dtype=bool)
    in_union[i, j, components[:, None, :]] = True
    in_union[i, j, components[None, :, :]] = True
    in_union[:, :, 0] = False
    # rank[i, j, c]: how many components of the union are <= c, so 0 for padding
    rank = np.cumsum(in_union, axis=2)
    # a column is looked up by its template and its components as digits in base m + 1
    span = (m + 1) ** width
    digits = (m + 1) ** np.arange(width - 1, -1, -1)
    lookup = np.full((templates.max() + 1) * span, -1, dtype=np.intp)
    lookup[templates * span + components @ digits] = np.arange(p)
    canonical_i = lookup[templates[:, None] * span + rank[i, j, components[:, None, :]] @ digits]
    canonical_j = lookup[templates[None, :] * span + rank[i, j, components[None, :, :]] @ digits]
    if rank.max() > k or (canonical_i < 0).any() or (canonical_j < 0).any():
        raise RuntimeError(f"{spec.label} at m = {m} has no canonical columns within 1..{k}")
    return canonical_i * p + canonical_j


@lru_cache(maxsize=None)
def full_factorial_matrix(spec: ModelSpec, m: int) -> DesignMatrix:
    """Model matrix over all m! orders, rows in lexicographic order.

    Cached per (spec, m): safe because the result is immutable.
    """
    return order_matrix(spec, order_array(m))


__getattr__ = _forward(globals(), {"adaptors": ("build_matrix", "pwo_to_ltpwo_maps"),
                                   "ranking": ("WALK_SPLIT_ROWS", "position_blocks")})
