"""Model averaging: weighted estimates and the spread-inflated variance."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oofa import (
    CandidateSet,
    Dataset,
    SaturatedModelError,
    ValidationError,
    average_predictions,
    combine_predictions,
    ols_fit,
    parse_model,
    predict_all,
)

WEIGHTED = ["pwo", "tpwo:invh", "cp", "rs2"]


def _fits(data, labels=WEIGHTED):
    return [ols_fit(parse_model(lab), data) for lab in labels]


def test_single_model_is_identity(m3_dataset):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    averaged = average_predictions(CandidateSet((fit,), (1.0,)))
    table = predict_all(fit)
    np.testing.assert_allclose(averaged.estimates, table.estimates, rtol=1e-12)
    np.testing.assert_allclose(averaged.std_errors, table.std_errors, rtol=1e-12)
    np.testing.assert_array_equal(averaged.ranks, table.ranks)


def test_zero_spread_keeps_variance():
    est = np.array([[5.0, 1.0], [5.0, 1.0]])
    var = np.full((2, 2), 4.0)
    avg, v = combine_predictions(est, var, np.array([0.5, 0.5]))
    np.testing.assert_allclose(avg, [5.0, 1.0])
    np.testing.assert_allclose(v, [4.0, 4.0])


def test_spread_only_variance():
    est = np.array([[0.0], [2.0]])
    var = np.zeros((2, 1))
    avg, v = combine_predictions(est, var, np.array([0.5, 0.5]))
    assert avg[0] == pytest.approx(1.0)
    assert v[0] == pytest.approx(1.0)  # (0.5*1 + 0.5*1)^2


def test_combined_variance_lower_bound():
    rng = np.random.default_rng(3)
    est = rng.normal(size=(4, 10))
    var = rng.uniform(0.1, 2.0, size=(4, 10))
    w = rng.dirichlet(np.ones(4))
    _, v = combine_predictions(est, var, w)
    floor = (w @ np.sqrt(var)) ** 2
    assert np.all(v >= floor - 1e-12)
    # equality exactly when every model predicts the same value
    same = np.tile(est[:1], (4, 1))
    _, v_same = combine_predictions(same, var, w)
    np.testing.assert_allclose(v_same, (w @ np.sqrt(var)) ** 2, rtol=1e-12)


@given(st.integers(0, 2**31 - 1))
def test_convexity_of_averaged_estimate(seed):
    rng = np.random.default_rng(seed)
    k, w = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    est = rng.normal(scale=10.0, size=(k, w))
    var = rng.uniform(0.0, 5.0, size=(k, w))
    weights = rng.dirichlet(np.ones(k))
    avg, v = combine_predictions(est, var, weights)
    assert np.all(avg <= est.max(axis=0) + 1e-9)
    assert np.all(avg >= est.min(axis=0) - 1e-9)
    assert np.all(v >= -1e-12)


def test_candidate_order_does_not_matter(m3_dataset):
    fits = _fits(m3_dataset)
    forward = average_predictions(CandidateSet.from_akaike(fits))
    backward = average_predictions(CandidateSet.from_akaike(fits[::-1]))
    np.testing.assert_allclose(forward.estimates, backward.estimates, rtol=1e-12)
    np.testing.assert_allclose(forward.variances, backward.variances, rtol=1e-12)
    np.testing.assert_array_equal(forward.ranks, backward.ranks)


def test_candidate_set_validation(m3_dataset, m4_dataset):
    fits = _fits(m3_dataset)
    with pytest.raises(ValidationError):
        CandidateSet((), ())
    with pytest.raises(ValidationError):
        CandidateSet(tuple(fits), (1.0,))
    with pytest.raises(ValidationError):
        CandidateSet(tuple(fits), (0.5, 0.5, 0.5, -0.5))
    with pytest.raises(ValidationError):
        CandidateSet(tuple(fits), (0.3, 0.3, 0.3, 0.3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            CandidateSet(tuple(fits), (0.5, 0.5, 0.0, bad))
    other = ols_fit(parse_model("pwo"), m4_dataset)
    with pytest.raises(ValidationError, match="share one dataset"):
        CandidateSet((fits[0], other), (0.5, 0.5))


def test_same_data_by_value_is_accepted(m3_dataset):
    clone = Dataset(m3_dataset.design, m3_dataset.response.copy())
    a = ols_fit(parse_model("pwo"), m3_dataset)
    b = ols_fit(parse_model("rs2"), clone)
    averaged = average_predictions(CandidateSet((a, b), (0.5, 0.5)))
    assert len(averaged) == 6


def test_saturated_member_is_rejected(m3_dataset):
    fits = _fits(m3_dataset, WEIGHTED + ["nn"])
    weights = (0.2,) * 5
    with pytest.raises(SaturatedModelError, match="nn"):
        CandidateSet(tuple(fits), weights)


def test_from_akaike_matches_manual(m3_dataset, oracle_fixtures):
    candidates = CandidateSet.from_akaike(_fits(m3_dataset))
    np.testing.assert_allclose(
        candidates.weights, oracle_fixtures["m3"]["akaike"]["weights"], rtol=1e-9
    )


def test_averaged_table_matches_oracle(m3_dataset, oracle_fixtures):
    averaged = average_predictions(CandidateSet.from_akaike(_fits(m3_dataset)))
    expected = oracle_fixtures["m3"]["model_average"]
    np.testing.assert_allclose(averaged.estimates, expected["estimates"], rtol=1e-10)
    np.testing.assert_allclose(averaged.variances, expected["variances"], rtol=1e-10)
    np.testing.assert_allclose(averaged.std_errors, expected["std_errors"], rtol=1e-10)
    np.testing.assert_array_equal(averaged.ranks, expected["ranks"])


def test_estimates_are_convex_in_models(m3_dataset):
    fits = _fits(m3_dataset)
    averaged = average_predictions(CandidateSet.from_akaike(fits))
    tables = [predict_all(f) for f in fits]
    per_model = np.array([t.estimates for t in tables])
    assert np.all(averaged.estimates <= per_model.max(axis=0) + 1e-12)
    assert np.all(averaged.estimates >= per_model.min(axis=0) - 1e-12)
    # the per-model columns handed back are the single-model tables
    np.testing.assert_array_equal(averaged.model_estimates, per_model)
    np.testing.assert_array_equal(averaged.model_ranks, [t.ranks for t in tables])


def test_combine_validation():
    est = np.zeros((2, 3))
    var = np.zeros((2, 3))
    with pytest.raises(ValidationError) as caught:
        combine_predictions(est, var, np.array([0.5, 0.6]))
    assert str(caught.value) == "model weights must sum to 1, got 1.1"
    with pytest.raises(ValidationError):
        combine_predictions(est, var, np.array([1.5, -0.5]))
    with pytest.raises(ValidationError, match="finite"):
        combine_predictions(est, var, np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        combine_predictions(est, np.full((2, 3), -1.0), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        combine_predictions(est, var[:1], np.array([0.5, 0.5]))
