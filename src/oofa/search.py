"""Greedy point-exchange search for good N-run order-of-addition designs.

The candidate pool is the explicit full factorial of all w = m! orders
(tractable because component counts are capped at 8), coded for each
member once per search.  One pass proposes, for each run slot in turn,
every candidate replacement, keeps the strictly best one, and repeats until
a full pass makes no change.  Multiple random restarts run independently
(child seeds spawned from one root seed) and the best final design wins;
ties go to the earlier restart.

Swaps are scored as rank-2 updates (Fedorov's exchange).  While the design
is unchanged, each compound member caches one w-row array, the whitened
candidate rows Z = X_f V S^-1 from the SVD X = U S V^T (so that
M^-1 = (X^T X)^-1 = V S^-2 V^T), beside the p x p G = S^-1 V^T C V S^-1,
C being the member's moment matrix (I for the A-criterion, where
G = S^-2).  Replacing the run x_o by a candidate x_c then changes |X^T X|
by the ratio delta from the matrix determinant lemma and tr[M^-1 C] by a
Woodbury correction with a 2 x 2 capacitance matrix, so one slot costs
the products Z z_o and Z (G z_o), O(w p), rather than an SVD and a solve
per candidate.  A swap with delta at or below a fixed tolerance is
inestimable and scores +inf.

Only the best rank-2 scores are trusted as a ranking: they are re-scored
exactly, by the thin-SVD criterion kernel of :mod:`oofa.criteria` that also
scores single designs, and a swap is accepted only when its exact value is
strictly below the current one.  The cache is dropped after every accepted
swap and rebuilt in full for the next slot, so rounding error cannot build
up and one design's cache is held at a time.  The exact scorer also
screens the random starting designs, a few at a time until one is
estimable, in chunks capped by bytes so memory stays bounded whatever N is.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .criteria import CompoundSpec, CriterionKind, MemberRows, criterion_values, member_rows
from .design import Design
from .errors import SearchFailureError, ValidationError
from .models import full_factorial_matrix
from .perms import MAX_COMPONENTS, check_capacity, order_array
from .records import Record, ValueRecord

#: Bytes for one chunk of exact scoring, counted as its gathered (rows, N, p)
#: matrices plus one (rows, p, p) factor, in float64; the thin SVD's own
#: factors are a small multiple of that.
_CHUNK_BYTES = 8 << 20
#: Largest run count a search accepts: a design as large as the biggest full
#: factorial (8! = 40320 runs).  The random starts alone take
#: _START_ATTEMPTS x N indices, so N must be bounded before they are drawn.
MAX_RUNS = factorial(MAX_COMPONENTS)
_START_ATTEMPTS = 200
#: Starting designs scored per call while looking for the first estimable one.
_START_BLOCK = 8
#: A swap is inestimable when the determinant ratio |X'^T X'| / |X^T X| is at
#: or below this.  Such a design has lost nearly all information along one
#: direction; the rank-2 formulas are not trustworthy there, and the exact
#: re-score of an accepted swap still applies the SVD rank test of RANK_RTOL.
_DELTA_TOL = 1e-9
#: Rank-2 scores within this relative distance of the best one are re-scored
#: exactly together, so near-ties are broken by exact values, as a full exact
#: sweep would break them.
_TIE_RTOL = 1e-8


def oriented_value(kind: CriterionKind, value: float | np.ndarray) -> float | np.ndarray:
    """Map criterion values so that smaller is always better; 1/D is finite
    because the kernel rejects an estimable D below the smallest normal float."""
    return 1.0 / value if kind is CriterionKind.D_OPT else value


class SearchConfig(ValueRecord):
    """Inputs of one search: problem size, objective, and restart schedule."""

    __slots__ = ("m", "n_runs", "objective", "restarts", "seed", "max_passes")

    def __init__(self, m: int, n_runs: int, objective: CompoundSpec, restarts: int = 10,
                 seed: int = 0, max_passes: int = 50) -> None:
        check_capacity(m)
        if restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {restarts}")
        if max_passes < 1:
            raise ValidationError(f"max_passes must be >= 1, got {max_passes}")
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
        if n_runs > MAX_RUNS:
            raise ValidationError(f"n_runs must be <= {MAX_RUNS}, got {n_runs}")
        p_max = objective.max_param_count(m)
        if n_runs < p_max:
            raise ValidationError(
                f"{n_runs} runs cannot estimate a model with {p_max} parameters; increase n_runs"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_runs", n_runs)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_passes", max_passes)


class SearchResult(Record):
    __slots__ = ("design", "objective", "member_values", "objective_trace", "restart", "config")
    _unshown = ("config",)

    def __init__(self, design: Design, objective: float, member_values: tuple[float, ...],
                 objective_trace: tuple[float, ...], restart: int, config: SearchConfig) -> None:
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "member_values", member_values)
        object.__setattr__(self, "objective_trace", objective_trace)
        object.__setattr__(self, "restart", restart)
        object.__setattr__(self, "config", config)

    @property
    def seed(self) -> int:
        return self.config.seed


def _chunk_rows(n_runs: int, p: int) -> int:
    """Designs per exact-scoring chunk under the ``_CHUNK_BYTES`` budget."""
    return max(1, _CHUNK_BYTES // (8 * p * (n_runs + p)))


class _Evaluator:
    """Scores batches of designs (as index arrays into the m! pool) exactly;
    ``members`` holds (criterion, coded rows of all w candidates, weight)."""

    def __init__(self, objective: CompoundSpec, m: int):
        self.members = []
        for member in objective.members:
            rows = member_rows(member.model, member.criterion, m)
            pool = rows.code(full_factorial_matrix(member.model, m).values)
            pool.setflags(write=False)  # shared by every sweep of the search
            self.members.append((rows, pool, member.weight))
        self._p_max = objective.max_param_count(m)

    def evaluate(self, batch: np.ndarray) -> np.ndarray:
        """Compound objective for each row of ``batch`` (+inf if inestimable)."""
        batch = np.asarray(batch)
        out = np.zeros(batch.shape[0])
        rows = _chunk_rows(batch.shape[1], self._p_max)
        for start in range(0, batch.shape[0], rows):
            out[start : start + rows] = self._evaluate_chunk(batch[start : start + rows])
        return out

    def member_values(self, batch: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(values, column ranks) of each member for each row of ``batch``."""
        return [criterion_values(pool[batch], rows) for rows, pool, _ in self.members]

    def _evaluate_chunk(self, chunk: np.ndarray) -> np.ndarray:
        total = np.zeros(chunk.shape[0])
        estimable = np.ones(chunk.shape[0], dtype=bool)
        for (rows, pool, weight), (values, rank) in zip(self.members, self.member_values(chunk)):
            estimable &= rank == pool.shape[1]
            # inestimable values may be 0, tiny or inf; the mask below replaces them
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                total += weight * oriented_value(rows.criterion.kind, values)
        return np.where(estimable, total, np.inf)


class _MemberSweep:
    """One member's cached products for the swaps out of a fixed design."""

    def __init__(self, rows: MemberRows, pool: np.ndarray, idx: np.ndarray):
        p = pool.shape[1]
        _, s, vt = np.linalg.svd(pool[idx], full_matrices=False)
        # whitened rows: x_c^T M^-1 x_o = z_c . z_o, and a_cc = |z_c|^2 is a
        # sum of squares, more accurate than rowsum(X_f M^-1 * X_f)
        self.z = pool @ (vt.T / s)
        self.a = np.einsum("ij,ij->i", self.z, self.z)
        if rows.criterion.kind is CriterionKind.D_OPT:
            self.g, self.scale = None, rows.scale
            self.logdet = 2.0 * float(np.sum(np.log(s)))
        elif rows.moment is None:  # A: (sigma^2 / p) tr[M^-1], with G = S^-2 diagonal
            g, self.scale = s**-2.0, rows.scale / p
            self.g, self.trace = np.diag(g), float(np.sum(g))
            self.b = (self.z * self.z) @ g
        else:  # G = S^-1 V^T C V S^-1, so B = M^-1 C M^-1 acts as z^T G z
            self.g, self.scale = (vt / s[:, None]) @ rows.moment @ (vt.T / s), rows.scale
            self.trace = float(np.trace(self.g))  # tr[M^-1 C]
            self.b = np.einsum("ij,ij->i", self.z @ self.g, self.z)

    def values(self, out: int) -> tuple[np.ndarray, np.ndarray]:
        """(member value, determinant ratio delta) of every candidate swapped
        in for the run with pool index ``out``."""
        z_o = self.z[out]
        a_oo = self.a[out]
        a_co = self.z @ z_o
        delta = (1.0 + self.a) * (1.0 - a_oo) + a_co**2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.g is None:
                logdet = self.logdet + np.log(delta)
                return 1.0 / (self.scale * np.exp(logdet / z_o.shape[0])), delta
            # Woodbury with capacitance K = [[1 + a_cc, a_co], [a_co, a_oo - 1]],
            # det K = -delta
            b_co = self.z @ (self.g @ z_o)
            b_oo = self.b[out]
            correction = (1.0 - a_oo) * self.b + 2.0 * a_co * b_co - (1.0 + self.a) * b_oo
            return self.scale * (self.trace - correction / delta), delta


class _SwapScorer:
    """Rank-2 compound scores of every single-run swap out of one design."""

    def __init__(self, evaluator: _Evaluator, idx: np.ndarray):
        self._idx = idx.copy()
        self._members = evaluator.members
        self._sweeps = [_MemberSweep(rows, pool, self._idx) for rows, pool, _ in self._members]

    def scores(self, slot: int) -> np.ndarray:
        """Score of each of the w candidates put into ``slot`` (+inf if
        inestimable); the incumbent's own entry is left as computed."""
        out = self._idx[slot]
        total = 0.0
        estimable = True
        for (_, _, weight), sweep in zip(self._members, self._sweeps):
            values, delta = sweep.values(out)
            # inestimable swaps may score inf; the mask below replaces them
            with np.errstate(invalid="ignore"):
                total = total + weight * values
            estimable = estimable & (delta > _DELTA_TOL)
        return np.where(estimable & np.isfinite(total), total, np.inf)


def random_design(m: int, n_runs: int, seed: int | np.random.Generator) -> Design:
    """A design of ``n_runs`` orders drawn uniformly from all m! candidates."""
    check_capacity(m)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pool = order_array(m)
    idx = rng.integers(0, len(pool), size=n_runs)
    return Design(pool[idx])


def _random_start(
    evaluator: _Evaluator, n_runs: int, w: int, rng: np.random.Generator
) -> tuple[np.ndarray, float] | None:
    """First estimable random design among a fixed number of attempts.

    All attempts are drawn up front, so the random stream does not depend on
    how many get scored; they are scored in blocks until one is estimable.
    """
    candidates = rng.integers(0, w, size=(_START_ATTEMPTS, n_runs))
    for start in range(0, _START_ATTEMPTS, _START_BLOCK):
        values = evaluator.evaluate(candidates[start : start + _START_BLOCK])
        finite = np.flatnonzero(np.isfinite(values))
        if finite.size:
            first = int(finite[0])
            return candidates[start + first].copy(), float(values[first])
    return None


def _exchange_pass(idx: np.ndarray, current: float, evaluator: _Evaluator) -> tuple[float, bool]:
    """One sweep over all slots, mutating ``idx`` in place."""
    improved, scorer = False, None
    for slot in range(idx.shape[0]):
        if scorer is None:
            scorer = _SwapScorer(evaluator, idx)
        swap = _best_swap(evaluator, idx, slot, scorer.scores(slot), current)
        if swap is not None:
            idx[slot], current = swap
            # drop the old design's caches before the next slot builds new ones
            improved, scorer = True, None
    return current, improved


def _best_swap(
    evaluator: _Evaluator, idx: np.ndarray, slot: int, scores: np.ndarray, current: float
) -> tuple[int, float] | None:
    """(candidate, exact value) of the best swap into ``slot`` if it beats
    ``current`` strictly, else None.

    The incumbent cannot beat itself, so ties keep it.  Candidates are
    re-scored exactly in bands of near-equal rank-2 scores, best band first;
    the first band whose exact best beats ``current`` holds the exact argmin
    over all w candidates, lowest index first among equal values.  A band
    that fails is masked and the next one tried.
    """
    scores[idx[slot]] = np.inf
    while True:
        low = scores.min()
        if not low < current + _TIE_RTOL * abs(current):
            return None
        band = np.flatnonzero(scores <= low + _TIE_RTOL * abs(low))
        rows = np.tile(idx, (band.size, 1))
        rows[:, slot] = band
        exact = evaluator.evaluate(rows)
        best = int(np.argmin(exact))
        if exact[best] < current:
            return int(band[best]), float(exact[best])
        scores[band] = np.inf


def exchange_search(config: SearchConfig) -> SearchResult:
    """Best design over all restarts of the greedy point-exchange heuristic."""
    evaluator = _Evaluator(config.objective, config.m)
    pool = order_array(config.m)
    w = len(pool)
    root = np.random.SeedSequence(config.seed)

    best: tuple[float, int, np.ndarray, tuple[float, ...]] | None = None
    for restart in range(config.restarts):
        # one child at a time: spawning all restarts up front costs memory in
        # proportion to their number; the children are the same either way
        rng = np.random.default_rng(root.spawn(1)[0])
        start = _random_start(evaluator, config.n_runs, w, rng)
        if start is None:
            continue
        idx, current = start
        trace = [current]
        for _ in range(config.max_passes):
            current, improved = _exchange_pass(idx, current, evaluator)
            if improved:
                trace.append(current)
            else:
                break
        if best is None or current < best[0]:
            best = (current, restart, idx, tuple(trace))

    if best is None:
        raise SearchFailureError(
            f"no estimable {config.n_runs}-run starting design found in "
            f"{config.restarts} x {_START_ATTEMPTS} attempts; increase n_runs"
        )
    objective, restart, idx, trace = best
    design = Design(pool[idx])
    member_values = tuple(float(values[0]) for values, _ in evaluator.member_values(idx[None]))
    return SearchResult(design, objective, member_values, trace, restart, config)
