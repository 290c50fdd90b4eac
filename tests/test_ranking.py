"""Ranked best-order prediction tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oofa import (
    Dataset,
    Design,
    EstimabilityError,
    FitResult,
    ValidationError,
    full_factorial_matrix,
    ols_fit,
    parse_model,
    predict_all,
    predict_rows,
    rank_descending,
    top_k,
)
from oofa.search import random_design

FIVE = ["pwo", "tpwo:invh", "cp", "rs2", "nn"]


def test_rank_descending_basics():
    np.testing.assert_array_equal(rank_descending([3.0, 1.0, 2.0]), [1, 3, 2])
    # ties resolve in favor of the earlier (lexicographically smaller) row
    np.testing.assert_array_equal(rank_descending([5.0, 5.0, 1.0]), [1, 2, 3])
    np.testing.assert_array_equal(rank_descending([1.0, 1.0, 1.0]), [1, 2, 3])


@pytest.mark.parametrize("seed", range(20))
def test_rank_descending_matches_the_lexsort_form(seed):
    """Ranks equal those of a lexsort on (-estimate, row), ties and signed zeros
    included: 0.0 and -0.0 tie, and the earlier row ranks first."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    est = rng.choice(np.array([0.0, -0.0, 1.5, -2.25, 1e-300, -1e-300, 7.0]), size=n)
    fresh = rng.random(n) < 0.3
    est[fresh] = rng.normal(size=int(fresh.sum()))
    order = np.lexsort((np.arange(n), -est))
    expected = np.empty(n, dtype=int)
    expected[order] = np.arange(1, n + 1)
    np.testing.assert_array_equal(rank_descending(est), expected)


def _lexsort_ranks(est):
    """The stable form: rank by (-estimate, row), NaN last in row order."""
    order = np.lexsort((np.arange(len(est)), -est))
    ranks = np.empty(len(est), dtype=int)
    ranks[order] = np.arange(1, len(est) + 1)
    return ranks


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 1e-300]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40320),
       pool=st.lists(st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
                     min_size=1, max_size=5),
       fresh=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1), buffers=st.booleans())
def test_rank_descending_matches_the_stable_lexsort_form(n, pool, fresh, seed, buffers):
    """Up to 8! values drawn from a few (many ties, signed zeros, infinities
    and NaN), some replaced by distinct ones; with and without the caller's
    result and scratch arrays."""
    rng = np.random.default_rng(seed)
    est = rng.choice(np.array(pool), size=n)
    replaced = rng.random(n) < fresh
    est[replaced] = rng.normal(size=int(replaced.sum()))
    expected = _lexsort_ranks(est)
    if buffers:
        out, key = np.full(n, -1), np.full(n, 7.0)
        assert rank_descending(est, out, key) is out
    else:
        out = rank_descending(est)
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("label", FIVE)
def test_predictions_match_oracle(label, m3_dataset, oracle_fixtures):
    table = predict_all(ols_fit(parse_model(label), m3_dataset))
    expected = oracle_fixtures["m3"]["predictions"][label]
    assert len(table) == 6
    np.testing.assert_allclose(table.estimates, expected["estimates"], rtol=1e-10)
    np.testing.assert_array_equal(table.ranks, expected["ranks"])
    if expected["std_errors"] is None:
        assert np.all(np.isnan(table.std_errors))
    else:
        np.testing.assert_allclose(table.std_errors, expected["std_errors"],
                                   rtol=1e-9)


def test_best_order_matches_oracle(m3_dataset, oracle_fixtures):
    table = predict_all(ols_fit(parse_model("rs2"), m3_dataset))
    best = table.perms[int(np.argmin(table.ranks))]
    assert best.label(("A", "B", "C")) == oracle_fixtures["m3"]["rs2_best_order"]


def test_saturated_fit_still_ranks(m3_dataset):
    table = predict_all(ols_fit(parse_model("nn"), m3_dataset))
    assert np.all(np.isnan(table.std_errors))
    # NN at n = m! interpolates: predictions reproduce the data
    order_to_y = {run.order: y for run, y in
                  zip(m3_dataset.design.runs, m3_dataset.response)}
    for perm, est in zip(table.perms, table.estimates):
        assert est == pytest.approx(order_to_y[perm.order], abs=1e-8)


def test_ranks_invariant_under_reparameterization(m3_dataset):
    """CP and RS2 span the same space at m=3, so the tables must agree."""
    a = predict_all(ols_fit(parse_model("cp"), m3_dataset))
    b = predict_all(ols_fit(parse_model("rs2"), m3_dataset))
    np.testing.assert_allclose(a.estimates, b.estimates, rtol=1e-9)
    np.testing.assert_array_equal(a.ranks, b.ranks)


def test_pwo_mirror_property(m3_dataset):
    """Reversing the runs mirrors the whole prediction table."""
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    mirrored_design = Design(m3_dataset.design.orders[:, ::-1], m3_dataset.design.block,
                             m3_dataset.design.labels)
    mirrored_fit = ols_fit(parse_model("pwo"),
                           Dataset(mirrored_design, m3_dataset.response))
    table = predict_all(fit)
    mirrored = predict_all(mirrored_fit)
    index = {order.tobytes(): i for i, order in enumerate(table.orders)}
    for i, order in enumerate(mirrored.orders):
        j = index[order[::-1].tobytes()]
        assert mirrored.estimates[i] == pytest.approx(table.estimates[j], rel=1e-9)


def test_predict_rows_validates_width(m3_dataset):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    with pytest.raises(ValidationError):
        predict_rows(fit, np.ones((2, 3)))


def test_predict_rows_overflow_is_an_estimability_error(m3_dataset):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    huge = FitResult(fit.spec, fit.data, fit.term_labels, np.full(len(fit.coefficients), 1e308),
                     fit.rss, fit.df_error, fit.p_effective, fit.n, fit.sigma2_hat, fit.rmse,
                     fit.log_lik, fit.aic, fit.bic, fit.xtx_inv, fit.n_block_cols)
    message = ("predictions of model pwo overflow; rescale y, for example divide it "
               "by a power of ten")
    with pytest.raises(EstimabilityError) as caught:
        predict_rows(huge, full_factorial_matrix(fit.spec, 3).values)
    assert str(caught.value) == message


@pytest.mark.parametrize("label", FIVE)
@pytest.mark.parametrize("m", [4, 5, 8])
def test_predict_rows_variance_matches_einsum(label, m, m4_dataset, m5_dataset):
    """The row-wise quadratic form against the 3-operand einsum it replaced."""
    if m == 8:
        design = random_design(8, 80, seed=1)
        y = np.random.default_rng(1).normal(size=80)
        data = Dataset(design, y)
    else:
        data = m4_dataset if m == 4 else m5_dataset
    fit = ols_fit(parse_model(label), data)
    rows = full_factorial_matrix(fit.spec, m).values
    _, var = predict_rows(fit, rows)
    k = fit.n_model_cols
    expected = fit.sigma2_hat * np.einsum("ij,jk,ik->i", rows, fit.xtx_inv[:k, :k], rows)
    np.testing.assert_allclose(var, expected, rtol=1e-12, atol=0)


def test_prediction_at_block_zero_averages_blocks(m4_dataset):
    """With sum-to-zero coding, block 0 is the across-block mean."""
    fit = ols_fit(parse_model("pwo"), m4_dataset)
    rows = np.array([[1.0] + [0.0] * (fit.n_model_cols - 1)])
    est, _ = predict_rows(fit, rows)
    beta = fit.coefficients
    plus = rows[0] @ beta[:-1] + beta[-1]
    minus = rows[0] @ beta[:-1] - beta[-1]
    assert est[0] == pytest.approx((plus + minus) / 2.0, rel=1e-12)


def test_top_k(m3_dataset):
    table = predict_all(ols_fit(parse_model("pwo"), m3_dataset))
    best = top_k(table, 1)
    assert len(best) == 1
    assert best.ranks[0] == 1
    assert best.estimates[0] == table.estimates.max()
    whole = top_k(table, 6)
    np.testing.assert_array_equal(whole.ranks, [1, 2, 3, 4, 5, 6])
    assert set(p.order for p in whole.perms) == set(p.order for p in table.perms)
    for bad in (0, 7, -1):
        with pytest.raises(ValidationError):
            top_k(table, bad)


def test_table_is_readonly(m3_dataset):
    table = predict_all(ols_fit(parse_model("pwo"), m3_dataset))
    with pytest.raises(ValueError):
        table.estimates[0] = 0.0
