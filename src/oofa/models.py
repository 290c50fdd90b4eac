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
from dataclasses import dataclass
from functools import lru_cache
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


def _model_rows(spec: ModelSpec, q: np.ndarray) -> np.ndarray:
    """(n, p) model rows of the runs whose positions q_c are the rows of ``q``."""
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
            sign *= _taper_table(spec.taper, m)[np.abs(diff).astype(np.intp) - 1]
        groups.append(sign)
    elif f is Family.CP:
        groups.append((q[:m - 1, None] == np.arange(1, m)[:, None]).reshape(-1, n))
    elif f is Family.NN:
        c, d = np.nonzero(~np.eye(m, dtype=bool))
        groups.append(q[d] - q[c] == 1)
    else:
        groups += _surface_groups(f, q * (2.0 / (m * (m + 1))))
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


def factorial_blocks(spec: ModelSpec, m: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The model rows of all m! orders, at most :data:`BLOCK_ROWS` at a time,
    as (rows, block) pairs: ``block`` is C-contiguous and holds the rows
    ``rows`` of the full factorial (:func:`full_factorial_matrix`).

    With k blocks, block b holds the orders b, b + k, b + 2k, ..., so every
    block is a sample spread over all orders, and a single block is the
    whole matrix.  Consumers that reduce over the orders (moments,
    predictions) hold O(BLOCK_ROWS * p) model rows instead of m! x p.
    """
    q = _factorial_positions(m)
    count = -(-len(q) // BLOCK_ROWS)
    for b in range(count):
        rows = slice(b, None, count)
        yield rows, _model_rows(spec, q[rows])


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
