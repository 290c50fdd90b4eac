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
    :func:`pwo_to_ltpwo_maps`), so both models produce identical fits.
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
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, lcm
from typing import Iterator, Sequence

import numpy as np

from .errors import EstimabilityError, UnsupportedModelError, ValidationError
from .perms import Permutation, as_permutations, order_array

#: Rows per block when the m! full factorial is streamed (:func:`factorial_blocks`).
BLOCK_ROWS = 4096


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


@dataclass(frozen=True)
class Taper:
    """Distance-decay function z(h) applied to pairwise-ordering effects."""

    kind: TaperKind
    ratio: float | None = None

    def __post_init__(self) -> None:
        if self.kind is TaperKind.GEOMETRIC:
            if self.ratio is None or not 0.0 < float(self.ratio) < 1.0:
                raise ValidationError(
                    f"geometric taper needs a ratio strictly between 0 and 1, got {self.ratio!r}"
                )
        elif self.ratio is not None:
            raise ValidationError(f"taper {self.kind.value} takes no ratio")

    @property
    def label(self) -> str:
        if self.kind is TaperKind.GEOMETRIC:
            return f"geom={self.ratio:.12g}"
        return self.kind.value


@dataclass(frozen=True)
class ModelSpec:
    """Which regression family to build, including the taper for TPWO."""

    family: Family
    taper: Taper | None = None

    def __post_init__(self) -> None:
        if self.family is Family.TPWO and self.taper is None:
            raise ValidationError(
                "tpwo needs a taper: invh, geom=<ratio>, or linear"
            )
        if self.family is not Family.TPWO and self.taper is not None:
            raise ValidationError(f"{self.family.value} takes no taper")

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
        f = self.family
        if f in (Family.PWO, Family.TPWO):
            return 1 + m * (m - 1) // 2
        if f is Family.CP:
            return 1 + (m - 1) ** 2
        if f is Family.RS2:
            return (m - 1) * (m + 2) // 2
        if f is Family.NN:
            return m * (m - 1)
        pairs = m * (m - 1) // 2 - 1
        triples = m * (m - 1) * (m - 2) // 6 - 1
        count = m + pairs + triples
        if f is Family.RS3:
            count += (m - 1) * (m - 2) // 2
        return count


@dataclass(frozen=True)
class DesignMatrix:
    """A built model matrix with its labelled columns."""

    values: np.ndarray
    term_labels: tuple[str, ...]
    m: int
    spec: ModelSpec

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

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
    c-1 holds q_c per run."""
    n, m = orders.shape
    q = np.empty((n, m))
    q[np.arange(n)[:, None], orders - 1] = np.arange(1, m + 1)
    return q


def _pairs(c_max: int, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (c, d) of the pairs c < d with c < c_max and d < d_max, in
    lexicographic order."""
    c, d = np.triu_indices(d_max, 1)
    keep = c < c_max
    return c[keep], d[keep]


def _triples(m: int) -> np.ndarray:
    """0-based (c, d, e) rows of the RS3 triple products: c < d < e with
    c < m - 3 and d < m - 1, in lexicographic order."""
    rows = [t for t in itertools.combinations(range(m), 3) if t[0] < m - 3 and t[1] < m - 1]
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def _check_supported(spec: ModelSpec, m: int) -> None:
    if m < 2:
        raise ValidationError(f"model matrices need m >= 2, got m = {m}")
    if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
        raise UnsupportedModelError(
            f"{spec.label} is undefined for m = {m}: no third-order terms exist"
        )


@lru_cache(maxsize=None)
def term_labels(spec: ModelSpec, m: int) -> tuple[str, ...]:
    """Column labels of the family at m, in column order."""
    _check_supported(spec, m)
    f = spec.family
    labels = ["b0"] if spec.include_intercept else []
    if f in (Family.PWO, Family.TPWO):
        labels += [f"x_{c + 1}_{d + 1}" for c, d in zip(*_pairs(m - 1, m))]
    elif f is Family.CP:
        labels += [f"tau_{c}_{j}" for c in range(1, m) for j in range(1, m)]
    elif f is Family.NN:
        labels += [f"w_{c + 1}_{d + 1}" for c, d in zip(*np.nonzero(~np.eye(m, dtype=bool)))]
    elif f is Family.RS2:
        labels += [f"p_{c}" for c in range(1, m)] + [f"p_{c}^2" for c in range(1, m)]
        labels += [f"p_{c + 1}*p_{d + 1}" for c, d in zip(*_pairs(m - 2, m - 1))]
    else:
        labels += [f"p_{c}" for c in range(1, m + 1)]
        labels += [f"p_{c + 1}*p_{d + 1}" for c, d in zip(*_pairs(m - 2, m))]
        if f is Family.RS3:
            labels += [f"a_{c + 1}_{d + 1}" for c, d in zip(*_pairs(m - 2, m - 1))]
        labels += ["p_{}*p_{}*p_{}".format(*(t + 1)) for t in _triples(m)]
    return tuple(labels)


def _surface_groups(family: Family, p: np.ndarray) -> list[np.ndarray]:
    """RS2, RS3 or RS3_SPECIAL columns at the standardized positions whose
    row c-1 holds p_c (an (m, n) array), as (k, n) groups in column order."""
    m = len(p)
    if family is Family.RS2:
        c, d = _pairs(m - 2, m - 1)
        return [p[:m - 1], p[:m - 1] ** 2, p[c] * p[d]]
    c, d = _pairs(m - 2, m)
    groups = [p, p[c] * p[d]]
    if family is Family.RS3:
        c, d = _pairs(m - 2, m - 1)
        groups.append(p[c] * p[d] * (p[c] - p[d]))
    t = _triples(m)
    groups.append(p[t[:, 0]] * p[t[:, 1]] * p[t[:, 2]])
    return groups


#: The degree in the positions of each group of :func:`_surface_groups`.
_SURFACE_DEGREES = {Family.RS2: (1, 2, 2), Family.RS3: (1, 2, 3, 3), Family.RS3_SPECIAL: (1, 2, 3)}


def _model_rows(spec: ModelSpec, q: np.ndarray, standardized: bool = True) -> np.ndarray:
    """(n, p) model rows of the runs whose positions q_c are the rows of ``q``.

    With ``standardized`` false the surface families put q_c itself in place
    of p_c and the invh taper puts lcm(1..m-1) / h in place of 1 / h, so
    that every family but tpwo with the geom taper has integer entries (see
    :func:`moment_orders`).
    """
    n, m = q.shape
    _check_supported(spec, m)
    f = spec.family
    q = np.ascontiguousarray(q.T)  # row c-1 holds q_c: the gathers below copy whole rows
    groups = [np.ones((1, n))] if spec.include_intercept else []
    if f in (Family.PWO, Family.TPWO):
        c, d = _pairs(m - 1, m)
        diff = q[d] - q[c]
        sign = np.where(diff > 0, 1.0, -1.0)
        if f is Family.TPWO:
            z = _taper_table(spec.taper, m)
            if not standardized and spec.taper.kind is TaperKind.INV_H:
                z = lcm(*range(1, m)) // np.arange(1, m)
            sign *= z[np.abs(diff).astype(np.intp) - 1]
        groups.append(sign)
    elif f is Family.CP:
        groups.append((q[:m - 1, None] == np.arange(1, m)[:, None]).reshape(-1, n))
    elif f is Family.NN:
        c, d = np.nonzero(~np.eye(m, dtype=bool))
        groups.append(q[d] - q[c] == 1)
    else:
        groups += _surface_groups(f, q * (2.0 / (m * (m + 1))) if standardized else q)
    return _rows_from_groups(groups)


def rs2_rows(p: np.ndarray) -> np.ndarray:
    """RS2 model rows at standardized positions ``p`` (n, m) that need not
    come from an order, such as the points of a response-surface grid."""
    return _rows_from_groups(_surface_groups(Family.RS2, np.ascontiguousarray(p.T)))


def _rows_from_groups(groups: list[np.ndarray]) -> np.ndarray:
    """The (k, n) column groups, transposed and side by side, in one new
    C-contiguous (n, p) float array.  The layout matters: a row-wise product
    with another layout can take a different BLAS kernel and change the last
    bits of predictions."""
    out = np.empty((groups[0].shape[1], sum(len(g) for g in groups)))
    np.concatenate(groups, axis=0, out=out.T)
    return out


def build_matrix(spec: ModelSpec, runs: Sequence[Permutation]) -> DesignMatrix:
    """Build the model matrix for the given runs, one row per run."""
    runs = as_permutations(runs)
    m = runs[0].m
    for i, run in enumerate(runs):
        if run.m != m:
            raise ValidationError(f"run {i + 1} has {run.m} components, expected {m}")
    orders = np.array([run.order for run in runs], dtype=np.intp)
    return _matrix_from_positions(spec, _positions(orders))


def _matrix_from_positions(spec: ModelSpec, q: np.ndarray) -> DesignMatrix:
    """The model matrix of the runs whose positions q_c are the rows of ``q``."""
    values = _model_rows(spec, q)
    return DesignMatrix(values, term_labels(spec, q.shape[1]), q.shape[1], spec)


def factorial_blocks(
    spec: ModelSpec, m: int, positions: np.ndarray | None = None, standardized: bool = True
) -> Iterator[tuple[slice, np.ndarray]]:
    """The model rows of all m! orders, at most :data:`BLOCK_ROWS` at a time,
    as (rows, block) pairs: ``block`` is C-contiguous and holds the rows
    ``rows`` of the full factorial (:func:`full_factorial_matrix`).  Given
    ``positions``, an (n, m) array of positions q_c such as
    :func:`moment_orders` returns, the rows are those of its orders instead;
    ``standardized`` is passed on to the row builder.

    With k blocks, block b holds the orders b, b + k, b + 2k, ..., so every
    block is a sample spread over all orders, and a single block is the
    whole matrix.  Consumers that reduce over the orders (moments,
    predictions) hold O(BLOCK_ROWS * p) model rows instead of m! x p.
    """
    q = _factorial_positions(m) if positions is None else positions
    count = -(-len(q) // BLOCK_ROWS)
    for b in range(count):
        rows = slice(b, None, count)
        yield rows, _model_rows(spec, q[rows], standardized)


@dataclass(frozen=True, eq=False)
class MomentOrders:
    """How to sum a Gram matrix of model rows over all m! orders: see
    :func:`moment_orders`."""

    #: (n, m) positions of the orders to sum over.
    positions: np.ndarray
    #: (p, p) flat index of the canonical pair of each entry.
    canonical: np.ndarray
    #: How many of all m! orders each order summed over stands for.
    repeats: int
    #: (p, p) integers a_i a_j, where column i of the rows built at q_c
    #: (``standardized`` false) is a_i times the model column: T^d_i for the
    #: surface families, T = m(m+1)/2 and d_i the degree of column i in the
    #: positions; lcm(1..m-1) for the tapered columns of tpwo:invh; 1
    #: otherwise.  A Gram of those rows, over these, is the Gram of the
    #: model rows.
    divisor: np.ndarray


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
    k = min(m, 2 * _TERM_COMPONENTS.get(spec.family, 2))
    # Row i of order_array read as positions rather than components: the rows
    # (m-k)! apart are the first completion of each prefix, whose last m - k
    # entries ascend, so components k+1..m take ascending positions.
    positions = order_array(m)[::factorial(m - k)].astype(float)
    return MomentOrders(positions, _canonical_pairs(spec, m, k), factorial(m - k),
                        _position_divisor(spec, m))


def _position_divisor(spec: ModelSpec, m: int) -> np.ndarray:
    """(p, p) integers a_i a_j of :class:`MomentOrders`."""
    if spec.family in _SURFACE_DEGREES:
        sizes = [len(group) for group in _surface_groups(spec.family, np.ones((m, 1)))]
        scale = np.repeat((m * (m + 1) // 2) ** np.array(_SURFACE_DEGREES[spec.family]), sizes)
    else:
        scale = np.ones(spec.param_count(m), dtype=np.int64)
        if spec.family is Family.TPWO and spec.taper.kind is TaperKind.INV_H:
            scale[1:] = lcm(*range(1, m))
    return np.outer(scale, scale).astype(float)


#: The most components one column of a family depends on, where not 2.
_TERM_COMPONENTS = {Family.CP: 1, Family.RS3: 3, Family.RS3_SPECIAL: 3}

#: A component index in a column label: the digits after an underscore.
_COMPONENT = re.compile(r"(?<=_)\d+")


def _term_parts(spec: ModelSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(templates, components) of the columns, parsed from :func:`term_labels`.

    ``templates[i]`` numbers the label of column i with its components taken
    out (``x_3_5`` and ``x_1_2`` share one, ``tau_3_1`` and ``tau_3_2`` do
    not: j is a position); row i of ``components`` holds its components,
    padded with 0.
    """
    parts = []
    for label in term_labels(spec, m):
        if label.startswith("tau_"):
            c, j = label[4:].split("_")
            parts.append((f"tau__{j}", (int(c),)))
        else:
            parts.append((_COMPONENT.sub("", label), tuple(map(int, _COMPONENT.findall(label)))))
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
def _factorial_positions(m: int) -> np.ndarray:
    """Positions of all m! orders (rows of :func:`~oofa.perms.order_array`), cached."""
    q = _positions(order_array(m))
    q.setflags(write=False)
    return q


@lru_cache(maxsize=None)
def full_factorial_matrix(spec: ModelSpec, m: int) -> DesignMatrix:
    """Model matrix over all m! orders, rows in lexicographic order.

    Cached per (spec, m): safe because the result is immutable.
    """
    return _matrix_from_positions(spec, _factorial_positions(m))


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
