"""The streamed full factorial against the whole m! x p matrix it replaces.

Moments, predictions and model averages walk the m! orders in blocks of
``models.BLOCK_ROWS`` rows; the search and these tests still build the whole
matrix with ``full_factorial_matrix``.  The blocked results must match the
whole-matrix ones bit for bit at the default block size and as one block,
and up to rounding at any block size.
"""

import math

import numpy as np
import pytest

from oofa import (
    CandidateSet,
    Dataset,
    Design,
    Family,
    average_predictions,
    build_matrix,
    criteria,
    enumerate_permutations,
    full_factorial_matrix,
    models,
    ols_fit,
    parse_model,
    predict_all,
    predict_rows,
    rank_descending,
    standardize,
)
from oofa.cli import main
from oofa.perms import order_array

ALL_LABELS = ["pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear",
              "cp", "rs2", "rs3", "rs3s", "nn"]
INTEGER_LABELS = ["pwo", "cp", "nn"]


def _specs(m):
    """Every family defined at m."""
    specs = [parse_model(label) for label in ALL_LABELS]
    return [s for s in specs if m >= 3 or s.family not in (Family.RS3, Family.RS3_SPECIAL)]


def _whole(spec, m):
    """The whole matrix, built without filling the cache (m = 8 matrices are large)."""
    return full_factorial_matrix.__wrapped__(spec, m).values


def _block_sizes(m):
    """Block sizes to try: one row (while that stays quick), 7 rows, and m! rows."""
    w = math.factorial(m)
    return [size for size in (1, 7, w) if size >= 7 or w <= 120]


def _frobenius_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


# -- the column builder --------------------------------------------------------


def _old_columns(spec, q):
    """The column-by-column builder the block builder replaced, as reference."""
    n, m = q.shape
    pairs = lambda c_max, d_max: [(c, d) for c in range(1, c_max + 1)  # noqa: E731
                                  for d in range(c + 1, d_max + 1)]
    f = spec.family
    cols = [np.ones(n)] if spec.include_intercept else []
    if f in (Family.PWO, Family.TPWO):
        z = models._taper_table(spec.taper, m) if f is Family.TPWO else None
        for c, d in pairs(m - 1, m):
            diff = q[:, d - 1] - q[:, c - 1]
            sign = np.where(diff > 0, 1.0, -1.0)
            cols.append(sign if z is None else sign * z[np.abs(diff).astype(np.intp) - 1])
    elif f is Family.CP:
        cols += [(q[:, c - 1] == j).astype(float) for c in range(1, m) for j in range(1, m)]
    elif f is Family.NN:
        cols += [(q[:, d - 1] - q[:, c - 1] == 1).astype(float)
                 for c in range(1, m + 1) for d in range(1, m + 1) if c != d]
    elif f is Family.RS2:
        p = q * (2.0 / (m * (m + 1)))
        cols += [p[:, c - 1] for c in range(1, m)] + [p[:, c - 1] ** 2 for c in range(1, m)]
        cols += [p[:, c - 1] * p[:, d - 1] for c, d in pairs(m - 2, m - 1)]
    else:
        p = q * (2.0 / (m * (m + 1)))
        cols += [p[:, c - 1] for c in range(1, m + 1)]
        cols += [p[:, c - 1] * p[:, d - 1] for c, d in pairs(m - 2, m)]
        if f is Family.RS3:
            cols += [p[:, c - 1] * p[:, d - 1] * (p[:, c - 1] - p[:, d - 1])
                     for c, d in pairs(m - 2, m - 1)]
        cols += [p[:, c - 1] * p[:, d - 1] * p[:, e - 1] for c in range(1, m - 2)
                 for d in range(c + 1, m) for e in range(d + 1, m + 1)]
    return np.column_stack(cols)


@pytest.mark.parametrize("m", range(2, 9))
def test_block_builder_equals_the_column_by_column_builder(m):
    """Bit for bit, C-contiguous, on every order: predictions depend on both."""
    q = models._positions(order_array(m))
    for spec in _specs(m):
        built = _whole(spec, m)
        assert built.flags.c_contiguous
        assert np.array_equal(built, _old_columns(spec, q)), spec.label


def test_rs2_rows_at_order_positions_equal_the_model_matrix():
    runs = enumerate_permutations(4)
    p = np.array([standardize(run).p for run in runs])
    assert np.array_equal(models.rs2_rows(p), build_matrix(parse_model("rs2"), runs).values)


@pytest.mark.parametrize("m", range(2, 8))
def test_blocks_tile_the_full_factorial(m, monkeypatch):
    for size in _block_sizes(m):
        monkeypatch.setattr(models, "BLOCK_ROWS", size)
        for spec in _specs(m):
            whole = _whole(spec, m)
            seen = np.zeros(len(whole), dtype=int)
            for rows, block in models.factorial_blocks(spec, m):
                assert len(block) <= size and block.flags.c_contiguous
                assert np.array_equal(block, whole[rows])
                seen[rows] += 1
            assert np.all(seen == 1)


# -- moments -------------------------------------------------------------------


def _fresh_moments(spec, m):
    return criteria.factorial_moments.__wrapped__(spec, m)


@pytest.mark.parametrize("m", range(2, 9))
def test_factorial_moments_match_the_whole_matrix(m):
    for spec in _specs(m):
        xf = _whole(spec, m)
        plain, centered, w = _fresh_moments(spec, m)
        rows = xf - xf.mean(axis=0)
        assert w == len(xf)
        assert _frobenius_rel(plain, xf.T @ xf) <= 1e-13, spec.label
        assert _frobenius_rel(centered, rows.T @ rows) <= 1e-13, spec.label
        if w <= models.BLOCK_ROWS:  # one block: the same arithmetic as the whole matrix
            assert np.array_equal(plain, xf.T @ xf), spec.label
            assert np.array_equal(centered, rows.T @ rows), spec.label


@pytest.mark.parametrize("label", INTEGER_LABELS)
@pytest.mark.parametrize("m", range(2, 9))
def test_integer_gram_is_exact(label, m):
    """Integer entries: X_f^T X_f exactly.  The centered moment is checked
    against the exact (w G - s s^T) / w; the centered-copy arithmetic that a
    single block keeps is itself off by 1.6e-14 of the largest entry (cp, m = 6)."""
    spec = parse_model(label)
    xf = _whole(spec, m).astype(np.int64)
    plain, centered, w = _fresh_moments(spec, m)
    gram = xf.T @ xf
    assert np.array_equal(plain, gram)
    scaled = w * gram - np.outer(xf.sum(axis=0), xf.sum(axis=0))  # exact in int64
    assert np.abs(centered * w - scaled).max() <= 1e-13 * np.abs(scaled).max()


@pytest.mark.parametrize("m", range(2, 8))
def test_factorial_moments_do_not_depend_on_the_block_size(m, monkeypatch):
    for spec in _specs(m):
        plain, centered, _ = _fresh_moments(spec, m)
        for size in _block_sizes(m):
            monkeypatch.setattr(models, "BLOCK_ROWS", size)
            other_plain, other_centered, _ = _fresh_moments(spec, m)
            assert _frobenius_rel(other_plain, plain) <= 1e-13, (spec.label, size)
            assert _frobenius_rel(other_centered, centered) <= 1e-13, (spec.label, size)


# -- predictions and averages --------------------------------------------------


def _dataset(m):
    """Responses on a design with spare degrees of freedom for every family."""
    rng = np.random.default_rng(m)
    w = math.factorial(m)
    if w <= 24:
        orders = order_array(m).tolist() * 3
    else:
        n = 2 * max(spec.param_count(m) for spec in _specs(m)) + 10
        orders = order_array(m)[rng.integers(0, w, size=n)].tolist()
    return Dataset(Design.from_orders(orders), rng.normal(size=len(orders)))


def _check_against_whole(fits, m):
    """Bit-for-bit estimates and ranks of every fit and their average."""
    whole = [predict_rows(fit, _whole(fit.spec, m)) for fit in fits]
    for fit, (est, var) in zip(fits, whole):
        table = predict_all(fit)
        assert np.array_equal(table.estimates, est), fit.spec.label
        assert np.array_equal(table.ranks, rank_descending(est)), fit.spec.label
        np.testing.assert_allclose(table.std_errors ** 2, var, rtol=1e-12, atol=0)
    averaged = average_predictions(CandidateSet.from_akaike(fits))
    assert np.array_equal(averaged.orders, order_array(m))
    assert np.array_equal(averaged.model_estimates, [est for est, _ in whole])
    assert np.array_equal(averaged.model_ranks, [rank_descending(est) for est, _ in whole])
    return averaged


@pytest.mark.parametrize("m", range(2, 9))
def test_predictions_and_averages_match_the_whole_matrix(m, monkeypatch):
    """At the default block size and as one block of all m! rows."""
    fits = [ols_fit(spec, _dataset(m)) for spec in _specs(m)]
    reference = _check_against_whole(fits, m)
    monkeypatch.setattr(models, "BLOCK_ROWS", math.factorial(m))
    averaged = _check_against_whole(fits, m)
    assert np.array_equal(averaged.estimates, reference.estimates)
    assert np.array_equal(averaged.ranks, reference.ranks)
    np.testing.assert_allclose(averaged.variances, reference.variances, rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", range(2, 8))
def test_predictions_and_averages_do_not_depend_on_the_block_size(m, monkeypatch):
    """Short blocks can take another BLAS kernel, so estimates and standard
    errors may move in their last bits (measured: estimates by at most 2.4e-14
    of the largest one); tolerances are relative to the largest entry."""
    fits = [ols_fit(spec, _dataset(m)) for spec in _specs(m)]
    tables = [predict_all(fit) for fit in fits]
    reference = average_predictions(CandidateSet.from_akaike(fits))
    for size in _block_sizes(m):
        monkeypatch.setattr(models, "BLOCK_ROWS", size)
        for fit, table in zip(fits, tables):
            other = predict_all(fit)
            scale = np.abs(table.estimates).max()
            np.testing.assert_allclose(other.estimates, table.estimates, rtol=0, atol=1e-13 * scale)
            assert np.array_equal(other.ranks, rank_descending(other.estimates))
            np.testing.assert_allclose(other.std_errors, table.std_errors,
                                       rtol=1e-12, atol=1e-12 * table.std_errors.max())
        averaged = average_predictions(CandidateSet.from_akaike(fits))
        scale = np.abs(reference.estimates).max()
        np.testing.assert_allclose(averaged.estimates, reference.estimates, rtol=0, atol=1e-13 * scale)
        assert np.array_equal(averaged.ranks, rank_descending(averaged.estimates))
        np.testing.assert_allclose(averaged.variances, reference.variances,
                                   rtol=1e-12, atol=1e-12 * reference.variances.max())


def test_requests_at_m7_never_build_the_full_factorial(capsys, tmp_path):
    data = _dataset(7)
    path = tmp_path / "m7.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"pos_{k}" for k in range(1, 8)] + ["y"]) + "\n")
        for run, y in zip(data.design.runs, data.response):
            fh.write(",".join([str(c) for c in run.order] + [repr(float(y))]) + "\n")
    fit_json = tmp_path / "fit.json"
    criteria.member_rows.cache_clear()
    criteria.factorial_moments.cache_clear()
    before = full_factorial_matrix.cache_info()
    for argv in (
        ["criteria", "--design", str(path), "--models", "pwo,rs2,nn", "--criterion", "apv"],
        ["criteria", "--design", str(path), "--models", "cp,rs3", "--criterion", "av", "--orth"],
        ["criteria", "--design", str(path), "--models", "tpwo:invh", "--criterion", "d", "--orth"],
        ["fit", "--model", "rs2", "--data", str(path), "--out", str(fit_json)],
        ["predict", "--fit", str(fit_json), "--top", "5"],
        ["average", "--data", str(path), "--models", "pwo,cp,rs2,nn", "--top", "5"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert full_factorial_matrix.cache_info() == before
