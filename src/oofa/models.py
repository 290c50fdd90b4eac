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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import EstimabilityError, UnsupportedModelError, ValidationError
from .perms import Permutation, as_permutations, order_array


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


def _pair_indices(m: int, c_max: int, d_max: int) -> list[tuple[int, int]]:
    return [(c, d) for c in range(1, c_max + 1) for d in range(c + 1, d_max + 1)]


def _pwo_columns(q: np.ndarray, m: int, z: np.ndarray | None):
    cols, labels = [], []
    for c, d in _pair_indices(m, m - 1, m):
        diff = q[:, d - 1] - q[:, c - 1]
        sign = np.where(diff > 0, 1.0, -1.0)
        if z is None:
            cols.append(sign)
        else:
            cols.append(sign * z[np.abs(diff).astype(np.intp) - 1])
        labels.append(f"x_{c}_{d}")
    return cols, labels


def _cp_columns(q: np.ndarray, m: int):
    cols, labels = [], []
    for c in range(1, m):
        for j in range(1, m):
            cols.append((q[:, c - 1] == j).astype(float))
            labels.append(f"tau_{c}_{j}")
    return cols, labels


def _rs2_columns(p: np.ndarray, m: int):
    cols = [p[:, c - 1] for c in range(1, m)]
    labels = [f"p_{c}" for c in range(1, m)]
    cols += [p[:, c - 1] ** 2 for c in range(1, m)]
    labels += [f"p_{c}^2" for c in range(1, m)]
    for c, d in _pair_indices(m, m - 2, m - 1):
        cols.append(p[:, c - 1] * p[:, d - 1])
        labels.append(f"p_{c}*p_{d}")
    return cols, labels


def _rs3_columns(p: np.ndarray, m: int, special: bool):
    cols = [p[:, c - 1] for c in range(1, m + 1)]
    labels = [f"p_{c}" for c in range(1, m + 1)]
    for c, d in _pair_indices(m, m - 2, m):
        cols.append(p[:, c - 1] * p[:, d - 1])
        labels.append(f"p_{c}*p_{d}")
    if not special:
        for c, d in _pair_indices(m, m - 2, m - 1):
            cols.append(p[:, c - 1] * p[:, d - 1] * (p[:, c - 1] - p[:, d - 1]))
            labels.append(f"a_{c}_{d}")
    for c in range(1, m - 2):
        for d in range(c + 1, m):
            for e in range(d + 1, m + 1):
                cols.append(p[:, c - 1] * p[:, d - 1] * p[:, e - 1])
                labels.append(f"p_{c}*p_{d}*p_{e}")
    return cols, labels


def _nn_columns(q: np.ndarray, m: int):
    cols, labels = [], []
    for c in range(1, m + 1):
        for d in range(1, m + 1):
            if c == d:
                continue
            cols.append((q[:, d - 1] - q[:, c - 1] == 1).astype(float))
            labels.append(f"w_{c}_{d}")
    return cols, labels


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
    n, m = q.shape
    if m < 2:
        raise ValidationError(f"model matrices need m >= 2, got m = {m}")
    if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
        raise UnsupportedModelError(
            f"{spec.label} is undefined for m = {m}: no third-order terms exist"
        )
    if spec.family in (Family.PWO, Family.TPWO):
        z = None if spec.family is Family.PWO else _taper_table(spec.taper, m)
        cols, labels = _pwo_columns(q, m, z)
    elif spec.family is Family.CP:
        cols, labels = _cp_columns(q, m)
    elif spec.family is Family.RS2:
        cols, labels = _rs2_columns(q * (2.0 / (m * (m + 1))), m)
    elif spec.family in (Family.RS3, Family.RS3_SPECIAL):
        cols, labels = _rs3_columns(
            q * (2.0 / (m * (m + 1))), m, spec.family is Family.RS3_SPECIAL
        )
    else:
        cols, labels = _nn_columns(q, m)
    if spec.include_intercept:
        cols.insert(0, np.ones(n))
        labels.insert(0, "b0")
    values = np.column_stack(cols)
    return DesignMatrix(values, tuple(labels), m, spec)


def term_labels(spec: ModelSpec, m: int) -> tuple[str, ...]:
    """Column labels, from the one-row matrix of the identity order."""
    return _matrix_from_positions(spec, _positions(order_array(m)[:1])).term_labels


@lru_cache(maxsize=None)
def full_factorial_matrix(spec: ModelSpec, m: int) -> DesignMatrix:
    """Model matrix over all m! orders, rows in lexicographic order.

    Cached per (spec, m): safe because the result is immutable.
    """
    return _matrix_from_positions(spec, _positions(order_array(m)))


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
