"""Least-squares fitting, information criteria, and Akaike weights."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracle as oracle
from oofa import (
    Dataset,
    Design,
    EstimabilityError,
    SaturatedModelError,
    ValidationError,
    akaike_weights,
    build_matrix,
    full_factorial_matrix,
    information_criteria,
    ols_fit,
    parse_model,
)
from oofa.design import RANK_RTOL
from oofa.fitting import assemble_matrix
from oofa.perms import order_array
from oofa.search import random_design

FIVE = ["pwo", "tpwo:invh", "cp", "rs2", "nn"]


@pytest.mark.parametrize("label", FIVE)
def test_fit_matches_oracle_fixture(label, m3_dataset, oracle_fixtures):
    fit = ols_fit(parse_model(label), m3_dataset)
    expected = oracle_fixtures["m3"]["fits"][label]
    np.testing.assert_allclose(fit.coefficients, expected["coefficients"],
                               rtol=1e-10, atol=1e-10)
    assert fit.rss == pytest.approx(expected["rss"], abs=1e-9)
    assert fit.df_error == expected["df_error"]
    assert fit.p_effective == expected["p"]
    assert fit.n == expected["n"]
    for name, key in (("sigma2_hat", "sigma2"), ("rmse", "rmse"),
                      ("aic", "aic"), ("bic", "bic")):
        got, want = getattr(fit, name), expected[key]
        if want is None:
            assert got is None, name
        else:
            assert got == pytest.approx(want, rel=1e-10), name


def test_fit_against_oracle_with_block(m4_dataset):
    """Dual route: full fit (coefficients and covariance) vs normal equations."""
    spec = parse_model("rs2")
    fit = ols_fit(spec, m4_dataset)
    x = np.hstack([
        build_matrix(spec, m4_dataset.design.runs).values,
        m4_dataset.design.block_matrix(),
    ])
    ref = oracle.fit(x, m4_dataset.response)
    np.testing.assert_allclose(fit.coefficients, ref["beta"], rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(fit.xtx_inv, ref["xtx_inv"], rtol=1e-7, atol=1e-10)
    assert fit.rss == pytest.approx(ref["rss"], rel=1e-10)
    assert fit.df_error == ref["df_error"]


def test_error_df_with_block_m4(m4_dataset):
    expected = {"pwo": 16, "tpwo:invh": 16, "cp": 13, "rs2": 14, "nn": 11}
    for label, df in expected.items():
        assert ols_fit(parse_model(label), m4_dataset).df_error == df, label


def test_error_df_with_block_m5(m5_dataset):
    expected = {"pwo": 28, "tpwo:invh": 28, "cp": 22, "rs2": 25, "nn": 19}
    for label, df in expected.items():
        assert ols_fit(parse_model(label), m5_dataset).df_error == df, label


def test_saturated_fit_flags_unavailable(m3_dataset):
    fit = ols_fit(parse_model("nn"), m3_dataset)
    assert fit.df_error == 0
    assert fit.p_effective == fit.n == 6
    for field in ("sigma2_hat", "rmse", "log_lik", "aic", "bic"):
        assert getattr(fit, field) is None
    with pytest.raises(SaturatedModelError, match="saturated"):
        information_criteria(fit)


def test_exact_fit_flags_unavailable(m3_dataset):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    exact = dataclasses.replace(fit, rss=0.0, aic=None, bic=None)
    with pytest.raises(SaturatedModelError, match="exactly"):
        information_criteria(exact)
    assert information_criteria(fit) == (fit.aic, fit.bic)


def test_rank_deficient_names_dependent_columns():
    # three distinct runs repeated twice: n = 6 >= p = 5 but rank is 3
    design = random_design(3, 3, seed=5)
    doubled = Dataset(
        dataclasses.replace(design, orders=np.vstack([design.orders, design.orders])),
        np.arange(6.0),
    )
    with pytest.raises(EstimabilityError) as err:
        ols_fit(parse_model("cp"), doubled)
    assert err.value.dependent_columns
    assert all(lab.startswith("tau_") or lab == "b0"
               for lab in err.value.dependent_columns)


def test_dependent_columns_keep_the_intercept():
    """A,B,C and B,A,C twice each: b0, x_1_3 and x_2_3 are one column of ones,
    and the later two are named, not the intercept."""
    orders = np.array([[1, 2, 3], [2, 1, 3]] * 2, dtype=np.int8)
    data = Dataset(Design(orders, None), np.array([1.0, 2.0, 3.0, 5.0]))
    with pytest.raises(EstimabilityError) as err:
        ols_fit(parse_model("pwo"), data)
    assert err.value.dependent_columns == ("x_1_3", "x_2_3")
    assert str(err.value).endswith("(rank 2 < 4 columns); dependent columns: x_1_3, x_2_3")


def _rank_deficient_dataset(label, m, shape, rng):
    """Random data on fewer distinct orders than ``label`` has columns at
    ``m``: each once (n < p), repeated, or repeated and split into blocks."""
    pool = order_array(m)
    p = full_factorial_matrix(parse_model(label), m).p
    distinct = pool[rng.choice(len(pool), size=int(rng.integers(2, min(p, len(pool)))),
                               replace=False)]
    orders, block = distinct, None
    if shape != "n<p":
        orders = np.vstack([distinct, distinct[rng.integers(0, len(distinct), size=p)]])
    if shape == "blocks":
        block = [f"b{i % 3}" for i in rng.permutation(len(orders))]
    return Dataset(Design(orders, block), rng.normal(size=len(orders)))


def _rank(x):
    s = np.linalg.svd(x, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


@pytest.mark.parametrize("label", ["pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear", "cp",
                                   "rs2", "rs3", "rs3s", "nn"])
def test_dependent_columns_leave_a_full_rank_matrix(label):
    """On 24 rank-deficient fits per family (m = 3..6, two of each shape),
    the named columns are p - rank distinct terms and the others have full rank."""
    rng = np.random.default_rng(sum(map(ord, label)))
    spec = parse_model(label)
    for m in (3, 4, 5, 6):
        for shape in ("n<p", "repeats", "blocks") * 2:
            data = _rank_deficient_dataset(label, m, shape, rng)
            x, labels, _ = assemble_matrix(spec, data)
            rank = _rank(x)
            with pytest.raises(EstimabilityError) as err:
                ols_fit(spec, data)
            named = err.value.dependent_columns
            assert len(set(named)) == len(named) == x.shape[1] - rank, (m, shape)
            assert set(named) <= set(labels)
            assert str(err.value).endswith("dependent columns: " + ", ".join(named))
            kept = [j for j, term in enumerate(labels) if term not in named]
            assert _rank(x[:, kept]) == rank, (m, shape)


def test_underdetermined_raises(m3_dataset):
    small = Dataset(
        dataclasses.replace(m3_dataset.design, orders=m3_dataset.design.orders[:3]),
        m3_dataset.response[:3],
    )
    with pytest.raises(EstimabilityError):
        ols_fit(parse_model("pwo"), small)


def test_aic_convention(m3_dataset):
    fit = ols_fit(parse_model("pwo"), m3_dataset)
    n, p, rss = fit.n, fit.p_effective, fit.rss
    log_lik = -(n / 2) * (math.log(2 * math.pi * rss / n) + 1)
    assert fit.log_lik == pytest.approx(log_lik, rel=1e-12)
    assert fit.aic == pytest.approx(-2 * log_lik + 2 * (p + 1), rel=1e-12)
    assert fit.bic == pytest.approx(-2 * log_lik + math.log(n) * (p + 1), rel=1e-12)
    # the convention's spot value: n=10, RSS=10, p=2
    spot = 10 * (math.log(2 * math.pi) + 1) + 2 * 3
    assert spot == pytest.approx(34.379, abs=5e-4)


def test_equal_rss_equal_p_gives_equal_aic(m3_dataset):
    """PWO and the linearly tapered variant span the same space."""
    a = ols_fit(parse_model("pwo"), m3_dataset)
    b = ols_fit(parse_model("tpwo:linear"), m3_dataset)
    assert a.rss == pytest.approx(b.rss, rel=1e-12)
    assert a.p_effective == b.p_effective
    assert a.aic == pytest.approx(b.aic, rel=1e-12)


def test_residuals_orthogonal_to_columns():
    rng = np.random.default_rng(11)
    for m, n in ((3, 10), (4, 18)):
        design = random_design(m, n, seed=int(rng.integers(1 << 30)))
        data = Dataset(design, rng.normal(size=n))
        try:
            fit = ols_fit(parse_model("pwo"), data)
        except EstimabilityError:
            continue
        x = build_matrix(parse_model("pwo"), design.runs).values
        resid = data.response - x @ fit.coefficients
        assert np.max(np.abs(x.T @ resid)) < 1e-8 * np.linalg.norm(data.response)


def test_block_changes_df_not_model_terms(m4_dataset):
    with_block = ols_fit(parse_model("pwo"), m4_dataset)
    without = ols_fit(parse_model("pwo"),
                      Dataset(m4_dataset.design.without_block(), m4_dataset.response))
    assert with_block.n_block_cols == 1
    assert without.n_block_cols == 0
    assert with_block.df_error == without.df_error - 1
    assert with_block.term_labels[:-1] == without.term_labels
    assert with_block.term_labels[-1] == "block_1"


def test_dataset_validation(m3_dataset):
    with pytest.raises(ValidationError):
        Dataset(m3_dataset.design, np.arange(5.0))
    with pytest.raises(ValidationError):
        Dataset(m3_dataset.design, np.array([1.0, 2, 3, 4, 5, np.nan]))
    with pytest.raises(ValidationError):
        Dataset(m3_dataset.design, np.zeros((6, 1)))


def test_akaike_weight_examples():
    w = akaike_weights([0.0, 2.0])
    np.testing.assert_allclose(w, [0.7310585786, 0.2689414214], atol=1e-9)
    np.testing.assert_allclose(akaike_weights([7.0, 7.0, 7.0]), [1 / 3] * 3)
    w = akaike_weights([0.0, 200.0])
    assert np.all(np.isfinite(w))
    assert w[0] == pytest.approx(1.0, abs=1e-40)
    assert w[1] == pytest.approx(math.exp(-100.0), rel=1e-9)


def test_akaike_weight_validation():
    with pytest.raises(ValidationError):
        akaike_weights([])
    with pytest.raises(ValidationError):
        akaike_weights([1.0, np.inf])


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-1e6, 1e6))
def test_akaike_weights_shift_invariant(values, shift):
    base = akaike_weights(values)
    shifted = akaike_weights([v + shift for v in values])
    assert abs(base.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(base, shifted, atol=1e-12)
