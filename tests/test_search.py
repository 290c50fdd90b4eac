"""Greedy point-exchange design search."""

import math
import tracemalloc

import numpy as np
import pytest

from oofa import (
    CapacityError,
    CompoundSpec,
    CriterionKind,
    CriterionSpec,
    Design,
    SearchConfig,
    SearchFailureError,
    ValidationError,
    apv,
    compound,
    enumerate_permutations,
    exchange_search,
    parse_model,
)
from oofa import search
from oofa.perms import order_array
from oofa.search import (
    _chunk_rows,
    _Evaluator,
    _exchange_pass,
    _random_start,
    _SwapScorer,
    random_design,
)

APV = CriterionSpec(CriterionKind.APV)


def _objective(*labels, criterion=APV):
    return CompoundSpec.equal_weights([parse_model(lab) for lab in labels], criterion)


def test_random_design_determinism():
    a = random_design(4, 10, seed=3)
    b = random_design(4, 10, seed=3)
    c = random_design(4, 10, seed=4)
    assert a.runs == b.runs
    assert a.runs != c.runs
    assert a.n == 10 and a.m == 4


def test_random_design_m1():
    design = random_design(1, 5, seed=0)
    assert design.runs == (enumerate_permutations(1)[0],) * 5


def test_random_design_is_roughly_uniform():
    rng = np.random.default_rng(123)
    counts = np.zeros(6)
    draws = 60000
    design = random_design(3, draws, seed=rng)
    index = {p.order: i for i, p in enumerate(enumerate_permutations(3))}
    for run in design.runs:
        counts[index[run.order]] += 1
    expected = draws / 6.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 30.0, f"chi-square too large: {chi2} (counts {counts})"


def test_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(m=4, n_runs=6, objective=_objective("pwo"))  # p=7 > 6
    with pytest.raises(ValidationError):
        SearchConfig(m=3, n_runs=6, objective=_objective("pwo"), restarts=0)
    with pytest.raises(ValidationError):
        SearchConfig(m=3, n_runs=6, objective=_objective("pwo"), max_passes=0)
    with pytest.raises(CapacityError):
        SearchConfig(m=9, n_runs=40, objective=_objective("pwo"))
    SearchConfig(m=4, n_runs=7, objective=_objective("pwo"))  # boundary is fine


def test_evaluator_agrees_with_direct_compound():
    """Dual route: the batched screen must reproduce per-design evaluation."""
    objective = _objective("pwo", "rs2")
    evaluator = _Evaluator(objective, 4)
    pool = order_array(4)
    rng = np.random.default_rng(8)
    batch = rng.integers(0, len(pool), size=(40, 11))
    values = evaluator.evaluate(batch)
    for row, value in zip(batch, values):
        design = Design(pool[row])
        try:
            expected = compound(objective, design)
        except Exception:
            expected = np.inf
        if math.isinf(expected):
            assert math.isinf(value)
        else:
            assert value == pytest.approx(expected, rel=1e-9)


def test_evaluator_handles_all_criteria():
    pool = order_array(3)
    rng = np.random.default_rng(5)
    batch = rng.integers(0, len(pool), size=(25, 8))
    for kind in CriterionKind:
        objective = _objective("pwo", criterion=CriterionSpec(kind, sigma2=1.3))
        evaluator = _Evaluator(objective, 3)
        values = evaluator.evaluate(batch)
        for row, value in zip(batch, values):
            design = Design(pool[row])
            try:
                expected = compound(objective, design)
            except Exception:
                expected = np.inf
            if math.isinf(expected):
                assert math.isinf(value)
            else:
                assert value == pytest.approx(expected, rel=1e-9)


def test_search_determinism():
    config = SearchConfig(m=3, n_runs=6, objective=_objective("pwo"),
                          restarts=4, seed=11)
    a = exchange_search(config)
    b = exchange_search(config)
    assert a.design.runs == b.design.runs
    assert a.objective == b.objective
    assert a.restart == b.restart
    assert a.objective_trace == b.objective_trace
    assert a.seed == 11


def test_restarts_draw_the_spawned_children(monkeypatch):
    """Restart k runs on child k of SeedSequence(seed).spawn(restarts)."""
    seen = []
    monkeypatch.setattr(search, "_random_start",
                        lambda evaluator, n_runs, w, rng: seen.append(rng.integers(2**62)))
    config = SearchConfig(m=3, n_runs=6, objective=_objective("pwo"), restarts=4, seed=11)
    with pytest.raises(SearchFailureError):
        exchange_search(config)
    children = np.random.SeedSequence(11).spawn(4)
    assert seen == [np.random.default_rng(child).integers(2**62) for child in children]


def test_restart_seeds_take_bounded_memory(monkeypatch):
    monkeypatch.setattr(search, "_random_start", lambda *args: None)
    objective = _objective("pwo")
    with pytest.raises(SearchFailureError):  # builds the caches a search fills once
        exchange_search(SearchConfig(m=3, n_runs=6, objective=objective, restarts=1))
    config = SearchConfig(m=3, n_runs=6, objective=objective, restarts=20_000)
    tracemalloc.start()
    try:
        with pytest.raises(SearchFailureError):
            exchange_search(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_result_consistency():
    config = SearchConfig(m=4, n_runs=10, objective=_objective("pwo", "rs2"),
                          restarts=3, seed=5)
    result = exchange_search(config)
    assert result.objective == pytest.approx(
        compound(config.objective, result.design), rel=1e-9
    )
    assert all(np.isfinite(v) for v in result.member_values)
    trace = np.array(result.objective_trace)
    assert np.all(np.diff(trace) < 0.0), "trace must strictly improve"
    assert result.objective == trace[-1]


def test_search_beats_random_baseline_small():
    objective = _objective("pwo")
    config = SearchConfig(m=3, n_runs=6, objective=objective, restarts=5, seed=2)
    result = exchange_search(config)
    best_random = np.inf
    for seed in range(1000):
        candidate = random_design(3, 6, seed=seed)
        try:
            best_random = min(best_random, compound(objective, candidate))
        except Exception:
            continue
    assert result.objective <= best_random + 1e-12
    # the full factorial is a feasible point, so the search can't do worse
    full = Design(order_array(3))
    assert result.objective <= apv(parse_model("pwo"), full) + 1e-12


def test_search_failure_when_no_estimable_start():
    # nn at m=3 with 6 runs is estimable only when all 6 orders are distinct;
    # seed 64 never draws such a sample in the whole start budget
    config = SearchConfig(m=3, n_runs=6, objective=_objective("nn"),
                          restarts=1, seed=64)
    with pytest.raises(SearchFailureError, match="increase n_runs"):
        exchange_search(config)


def test_search_more_runs_recovers():
    config = SearchConfig(m=3, n_runs=9, objective=_objective("nn"),
                          restarts=2, seed=64)
    result = exchange_search(config)
    assert np.isfinite(result.objective)


# -- byte-capped exact scoring ------------------------------------------------


@pytest.mark.parametrize("n_runs, p", [(6, 4), (24, 20), (40, 29), (5000, 111), (10**7, 111)])
def test_chunk_rows_fit_the_byte_budget(n_runs, p):
    rows = _chunk_rows(n_runs, p)
    row_bytes = 8 * p * (n_runs + p)
    assert rows >= 1
    assert rows == 1 or rows * row_bytes <= search._CHUNK_BYTES
    assert (rows + 1) * row_bytes > search._CHUNK_BYTES


def test_chunked_evaluation_does_not_change_values(monkeypatch):
    evaluator = _Evaluator(_objective("pwo", "rs2"), 4)
    batch = np.random.default_rng(3).integers(0, 24, size=(30, 12))
    whole = evaluator.evaluate(batch)
    monkeypatch.setattr(search, "_CHUNK_BYTES", 1)  # one design per chunk
    np.testing.assert_array_equal(evaluator.evaluate(batch), whole)


@pytest.mark.parametrize("labels, m, n_runs", [
    (("pwo", "rs2"), 5, 20),
    (("nn",), 3, 6),  # most starts inestimable: the first block rarely holds one
    (("nn",), 3, 7),
])
def test_random_start_matches_scoring_every_attempt(labels, m, n_runs):
    evaluator = _Evaluator(_objective(*labels), m)
    w = math.factorial(m)
    found = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        candidates = rng.integers(0, w, size=(search._START_ATTEMPTS, n_runs))
        values = evaluator.evaluate(candidates)
        finite = np.flatnonzero(np.isfinite(values))
        start = _random_start(evaluator, n_runs, w, np.random.default_rng(seed))
        if finite.size == 0:
            assert start is None
            continue
        found += 1
        idx, value = start
        assert np.array_equal(idx, candidates[finite[0]])
        assert value == values[finite[0]]
    assert found > 0


# -- rank-2 exchange against the exhaustive exact sweep -----------------------


def _tiled_exchange_pass(idx, current, evaluator, w):
    """The exhaustive pass the rank-2 sweep replaced: every swap scored exactly."""
    improved = False
    for slot in range(idx.shape[0]):
        batch = np.tile(idx, (w, 1))
        batch[:, slot] = np.arange(w)
        values = evaluator.evaluate(batch)
        best = int(np.argmin(values))
        if values[best] < current:
            idx[slot], current, improved = best, float(values[best]), True
    return current, improved


RANK2_OBJECTIVES = [
    pytest.param(("pwo",), kind, orth, id=f"{kind.value}{'-orth' if orth else ''}")
    for kind in CriterionKind
    for orth in (False, True)
] + [pytest.param(("pwo", "rs2"), CriterionKind.APV, False, id="apv-pwo+rs2")]


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("labels, kind, orth", RANK2_OBJECTIVES)
def test_rank2_slot_scores_match_exact_batch(m, labels, kind, orth):
    objective = _objective(*labels, criterion=CriterionSpec(kind, 1.3, orth))
    evaluator = _Evaluator(objective, m)
    w = math.factorial(m)
    # twice as many runs as parameters keeps X well conditioned, so both
    # routes are accurate well beyond the tolerance
    n_runs = 2 * objective.max_param_count(m)
    idx = np.random.default_rng(m).integers(0, w, size=n_runs)
    assert np.isfinite(evaluator.evaluate(idx[None, :])[0])
    scorer = _SwapScorer(evaluator, idx)
    for slot in range(n_runs):
        batch = np.tile(idx, (w, 1))
        batch[:, slot] = np.arange(w)
        exact = evaluator.evaluate(batch)
        fast = scorer.scores(slot)
        np.testing.assert_array_equal(np.isinf(fast), np.isinf(exact))
        finite = np.isfinite(exact)
        np.testing.assert_allclose(fast[finite], exact[finite], rtol=1e-9)


def test_rank2_flags_the_same_inestimable_swaps():
    # nn at m = 3 is estimable only when all six orders appear, so most swaps
    # out of a 7-run design are singular
    objective = _objective("nn")
    evaluator = _Evaluator(objective, 3)
    idx, _ = _random_start(evaluator, 7, 6, np.random.default_rng(0))
    scorer = _SwapScorer(evaluator, idx)
    singular = 0
    for slot in range(7):
        batch = np.tile(idx, (6, 1))
        batch[:, slot] = np.arange(6)
        exact = evaluator.evaluate(batch)
        np.testing.assert_array_equal(np.isinf(scorer.scores(slot)), np.isinf(exact))
        singular += int(np.isinf(exact).sum())
    assert singular > 0


@pytest.mark.parametrize("labels, kind, orth, m, n_runs", [
    (("pwo",), CriterionKind.APV, False, 4, 9),
    (("pwo", "rs2"), CriterionKind.APV, False, 4, 12),
    (("rs2",), CriterionKind.AV, False, 5, 16),
    (("pwo",), CriterionKind.A_OPT, True, 5, 14),
    (("rs2",), CriterionKind.D_OPT, False, 5, 16),
    (("nn",), CriterionKind.APV, False, 3, 8),
])
def test_exchange_pass_matches_tiled_reference(labels, kind, orth, m, n_runs):
    evaluator = _Evaluator(_objective(*labels, criterion=CriterionSpec(kind, 1.0, orth)), m)
    w = math.factorial(m)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        idx_ref, current_ref = _random_start(evaluator, n_runs, w, rng)
        idx, current = idx_ref.copy(), current_ref
        for _ in range(10):
            current_ref, improved_ref = _tiled_exchange_pass(idx_ref, current_ref, evaluator, w)
            current, improved = _exchange_pass(idx, current, evaluator)
            assert np.array_equal(idx, idx_ref)
            assert current == current_ref
            assert improved == improved_ref
            if not improved:
                break


def test_accepted_swaps_stay_estimable(monkeypatch):
    """nn at m = 3 with 7 runs: no accepted swap may leave a design that
    ``compound`` rejects.  A scorer is built for the slot after every
    accepted swap, or for the next pass when the swap was in the last slot,
    so recording its designs sees each one."""
    designs = []

    class Recording(_SwapScorer):
        def __init__(self, evaluator, idx):
            super().__init__(evaluator, idx)
            designs.append(idx.copy())

    monkeypatch.setattr(search, "_SwapScorer", Recording)
    objective = _objective("nn")
    evaluator = _Evaluator(objective, 3)
    pool = order_array(3)
    passes = 0
    for seed in range(5):
        idx, current = _random_start(evaluator, 7, 6, np.random.default_rng(seed))
        improved = True
        while improved:
            passes += 1
            current, improved = _exchange_pass(idx, current, evaluator)
    assert len(designs) > passes  # one scorer per pass, one more per swap before the last slot
    for idx in designs:
        assert np.isfinite(compound(objective, Design(pool[idx])))


# -- memory of one pass -------------------------------------------------------


@pytest.mark.parametrize("kind", list(CriterionKind))
def test_exchange_pass_holds_one_cache_of_w_rows_per_member(kind):
    """Apart from the pools, a pass holds one w x p array per member, Z, and
    the caches of one design at a time.  Its traced peak, above what is held
    when it starts, stays under twice w * sum(p) doubles: a second w x p array
    per member, or a second design's caches, would each take that much."""
    m = 6
    objective = _objective("pwo", "rs2", "nn", "cp", criterion=CriterionSpec(kind))
    evaluator = _Evaluator(objective, m)  # builds the pools
    w = math.factorial(m)
    n_runs = 2 * objective.max_param_count(m)
    idx, current = _random_start(evaluator, n_runs, w, np.random.default_rng(0))
    cache_bytes = 8 * w * sum(pool.shape[1] for _, pool, _ in evaluator.members)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        _, improved = _exchange_pass(idx, current, evaluator)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert improved  # the caches were rebuilt after an accepted swap
    assert peak <= 2 * cache_bytes, f"peak {peak / cache_bytes:.2f} x w * sum(p) doubles"
