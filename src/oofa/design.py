"""Designs and datasets: runs (permutations) with optional block labels and
responses, plus the rank and weight tolerances every layer shares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .perms import Permutation, as_permutations

#: Relative singular-value threshold below which a column is rank-deficient.
RANK_RTOL = 1e-10
#: How far from one the weights of a model average or a compound may sum.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Design:
    """N runs over the same m components, with optional per-run block labels.

    ``labels`` maps internal component ids back to external names
    (``labels[c-1]`` is the name of component c); it defaults to "1".."m".
    Blocks are nuisance batch markers: they are fitted (sum-to-zero coded)
    but never enter design criteria.
    """

    runs: tuple[Permutation, ...]
    block: tuple[str, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValidationError("a design needs at least one run")
        m = self.runs[0].m
        for i, run in enumerate(self.runs):
            if run.m != m:
                raise ValidationError(
                    f"run {i + 1} has {run.m} components, expected {m}"
                )
        if self.block is not None and len(self.block) != len(self.runs):
            raise ValidationError(
                f"{len(self.block)} block labels for {len(self.runs)} runs"
            )
        if self.labels is not None:
            check_labels(self.labels, m, "component labels")

    @classmethod
    def from_orders(
        cls,
        orders: Iterable[Sequence[int]],
        block: Sequence[str] | None = None,
        labels: Sequence[str] | None = None,
    ) -> "Design":
        return cls(
            as_permutations(orders),
            None if block is None else tuple(str(b) for b in block),
            None if labels is None else tuple(str(x) for x in labels),
        )

    @property
    def m(self) -> int:
        return self.runs[0].m

    @property
    def n(self) -> int:
        return len(self.runs)

    @property
    def component_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(c) for c in range(1, self.m + 1))

    @property
    def block_levels(self) -> tuple[str, ...]:
        """Distinct block labels in first-appearance order."""
        if self.block is None:
            return ()
        seen: list[str] = []
        for lab in self.block:
            if lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def block_matrix(self) -> np.ndarray:
        """Sum-to-zero block coding, one column per non-reference level.

        Level j (of L, in first-appearance order) codes as +1 in column j,
        the last level as -1 in every column.  The mean of the L coded rows
        is the zero vector, so evaluating a fit at block = 0 averages over
        blocks.
        """
        levels = self.block_levels
        n = self.n
        if len(levels) < 2:
            return np.zeros((n, 0))
        index = {lab: k for k, lab in enumerate(levels)}
        out = np.zeros((n, len(levels) - 1))
        for i, lab in enumerate(self.block):  # type: ignore[arg-type]
            k = index[lab]
            if k < len(levels) - 1:
                out[i, k] = 1.0
            else:
                out[i, :] = -1.0
        return out

    def without_block(self) -> "Design":
        if self.block is None:
            return self
        return Design(self.runs, None, self.labels)


@dataclass(frozen=True)
class Dataset:
    """A design together with its observed responses."""

    design: Design
    response: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.response, dtype=float)
        if y.ndim != 1:
            raise ValidationError("response must be a one-dimensional vector")
        if len(y) != self.design.n:
            raise ValidationError(
                f"{len(y)} responses for {self.design.n} runs"
            )
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses must all be finite")
        y.setflags(write=False)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def m(self) -> int:
        return self.design.m


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
