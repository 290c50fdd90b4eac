"""The streamed full factorial against the whole m! x p matrix it replaces.

Predictions and model averages walk the m! orders in blocks of
``models.BLOCK_ROWS`` rows; the search and these tests still build the whole
matrix with ``full_factorial_matrix``.  The blocked results must match the
whole-matrix ones bit for bit at any block size.  The moments are summed
over a symmetry-reduced set of orders instead (``models.moment_orders``),
in blocks of ``models.BLOCK_ROWS`` orders (``criteria.MOMENT_BLOCK_ROWS``
for tpwo with the geom taper); they must match the whole matrix up to
rounding, and equal the correctly rounded exact value wherever the rows
scale to integers (every family but tpwo with the geom taper).
"""

import itertools
import math
from fractions import Fraction

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
    ranking,
    standardize,
)
from oofa.cli import main
from oofa.models import TaperKind
from oofa.perms import order_array

ALL_LABELS = ["pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear",
              "cp", "rs2", "rs3", "rs3s", "nn"]
INTEGER_LABELS = ["pwo", "tpwo:linear", "cp", "nn"]


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
    """position_blocks walks order_array(m) once, in contiguous ascending
    blocks of BLOCK_ROWS orders, each with the positions of its orders."""
    w = math.factorial(m)
    q = models._positions(order_array(m))
    for size in (1, 7, 4096, w):
        monkeypatch.setattr(models, "BLOCK_ROWS", size)
        start = 0
        for rows, block in ranking.position_blocks(m):
            assert (rows.start, rows.step) == (start, None)
            assert np.array_equal(block, q[rows]) and 0 < len(block) <= size
            start += len(block)
        assert start == w


# -- moments -------------------------------------------------------------------


def _fresh_moments(spec, m):
    return criteria.factorial_moments.__wrapped__(spec, m)


def _integer_scales(spec, m):
    """Per column, the integer a that makes a times the model column an
    integer column: T^degree for the surface columns (p_c = q_c / T,
    T = m(m+1)/2), lcm(1..m-1) for the invh-tapered columns, else 1."""
    t = m * (m + 1) // 2

    def scale(label):
        if label.startswith("a_"):  # p_c p_d (p_c - p_d)
            return t ** 3
        if label.startswith("p_"):
            return t ** (label.count("p_") + label.count("^2"))
        if label.startswith("x_") and spec.label == "tpwo:invh":
            return math.lcm(*range(1, m))
        return 1

    return np.array([scale(label) for label in models.term_labels(spec, m)], dtype=np.int64)


def _exact_moments(spec, m, xf):
    """X_f^T X_f and X_f^T (I - J/w) X_f correctly rounded, from the int64
    Gram G and column sums s of the integer-scaled whole matrix: entry (i, j)
    is G_ij / (a_i a_j) and (w G_ij - s_i s_j) / (w a_i a_j)."""
    a = _integer_scales(spec, m)
    scaled = xf * a
    ints = np.rint(scaled)
    assert np.abs(scaled - ints).max() <= 1e-9, spec.label
    # every partial sum of this Gram is an integer below 2**53, so it is exact in float
    assert len(ints) * np.abs(ints).max() ** 2 < 2**53, spec.label
    gram = (ints.T @ ints).astype(np.int64).tolist()
    sums, w = ints.astype(np.int64).sum(axis=0).tolist(), len(ints)
    a = a.tolist()
    p = len(a)
    plain = [[float(Fraction(gram[i][j], a[i] * a[j])) for j in range(p)] for i in range(p)]
    centered = [[float(Fraction(w * gram[i][j] - sums[i] * sums[j], w * a[i] * a[j]))
                 for j in range(p)] for i in range(p)]
    return np.array(plain), np.array(centered)


@pytest.mark.parametrize("m", range(2, 9))
def test_factorial_moments_match_the_whole_matrix(m):
    """Within 1e-13 of the whole-matrix Gram for every family, and every
    entry the correctly rounded exact value for all but tpwo:geom."""
    for spec in _specs(m):
        xf = _whole(spec, m)
        plain, centered, w = _fresh_moments(spec, m)
        rows = xf - xf.mean(axis=0)
        assert w == len(xf)
        assert _frobenius_rel(plain, xf.T @ xf) <= 1e-13, spec.label
        assert _frobenius_rel(centered, rows.T @ rows) <= 1e-13, spec.label
        if not spec.label.startswith("tpwo:geom"):
            exact_plain, exact_centered = _exact_moments(spec, m, xf)
            assert np.array_equal(plain, exact_plain), spec.label
            assert np.array_equal(centered, exact_centered), spec.label


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


@pytest.mark.parametrize("m", range(2, 9))
def test_factorial_moments_do_not_depend_on_the_block_size(m, monkeypatch):
    """Bit for bit: every row sum is exact (integer rows, or the dyadic taper
    of geom=0.5), so no split of the order set can move a bit, and the
    integer-row families' moments are the same in the walk's 1,024-order
    blocks as in 4,096-order ones.  At the default sizes every m = 8 sum but
    cp's and tpwo:geom's spans several blocks."""
    for spec in _specs(m):
        plain, centered, _ = _fresh_moments(spec, m)
        for size in [*_block_sizes(m), 1024, 4096]:
            monkeypatch.setattr(models, "BLOCK_ROWS", size)
            monkeypatch.setattr(criteria, "MOMENT_BLOCK_ROWS", size)
            other_plain, other_centered, _ = _fresh_moments(spec, m)
            assert np.array_equal(other_plain, plain), (spec.label, size)
            assert np.array_equal(other_centered, centered), (spec.label, size)
        monkeypatch.undo()


@pytest.mark.parametrize("label", ["tpwo:geom=0.3", "tpwo:geom=0.7"])
def test_geom_moments_are_summed_over_4096_orders(label, monkeypatch):
    """The geom rows are not integers, so their sums round, and the blocks of
    the sum show in the last bits: at m = 8 these moments are what 4,096-order
    sums give, whatever the block size of the m! walk."""
    spec = parse_model(label)
    monkeypatch.setattr(models, "BLOCK_ROWS", 7)
    plain, centered, _ = _fresh_moments(spec, 8)
    monkeypatch.setattr(criteria, "MOMENT_BLOCK_ROWS", 4096)
    monkeypatch.setattr(models, "BLOCK_ROWS", 4096)
    ref_plain, ref_centered, _ = _fresh_moments(spec, 8)
    assert np.array_equal(plain, ref_plain) and np.array_equal(centered, ref_centered)


#: k of each family: a moment entry depends on the positions of at most k components.
SYMMETRY_K = {"cp": 2, "rs3": 6, "rs3s": 6}


def _symmetry_k(spec, m):
    return min(m, SYMMETRY_K.get(spec.family.value, 4))


def _count_rows(monkeypatch):
    """Wrap the model-row builder; the returned list collects the rows it builds."""
    built, build = [], models.model_rows

    def counting(spec, q, *args, **kwargs):
        built.append(len(q))
        return build(spec, q, *args, **kwargs)

    monkeypatch.setattr(models, "model_rows", counting)
    return built


@pytest.mark.parametrize("m", range(2, 9))
def test_factorial_moments_build_a_symmetry_reduced_order_set(m, monkeypatch):
    """At most m!/(m - k)! model rows, k = min(m, k of the family)."""
    w = math.factorial(m)
    for spec in _specs(m):
        built = _count_rows(monkeypatch)
        _, _, count = _fresh_moments(spec, m)
        assert count == w
        assert sum(built) <= w // math.factorial(m - _symmetry_k(spec, m)), spec.label


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_factorial_moments_build_rows_block_rows_at_a_time(size, monkeypatch):
    """A patched models.BLOCK_ROWS reaches factorial_moments for the
    integer-row families, and a patched criteria.MOMENT_BLOCK_ROWS for
    tpwo:geom: each model-row call builds at most that many rows, and the
    calls cover the order set."""
    geom_size = 2 * size + 1
    monkeypatch.setattr(models, "BLOCK_ROWS", size)
    monkeypatch.setattr(criteria, "MOMENT_BLOCK_ROWS", geom_size)
    built = _count_rows(monkeypatch)
    for m in (5, 8) if size > 1 else (5,):
        for spec in _specs(m):
            built.clear()
            _fresh_moments(spec, m)
            n = len(models.moment_orders(spec, m).positions)
            rows = geom_size if spec.taper and spec.taper.kind is TaperKind.GEOMETRIC else size
            assert sum(built) == n, spec.label
            assert built == [rows] * (n // rows) + ([n % rows] if n % rows else []), spec.label


@pytest.mark.parametrize("m", range(2, 9))
def test_moment_orders_place_the_first_k_components_every_way_once(m):
    for spec in _specs(m):
        k, p = _symmetry_k(spec, m), spec.param_count(m)
        orders = models.moment_orders(spec, m)
        positions = orders.positions
        assert orders.canonical.shape == orders.divisor.shape == (p, p)
        assert orders.repeats == math.factorial(m - k)
        assert len(positions) == math.factorial(m) // orders.repeats
        assert np.array_equal(np.sort(positions, axis=1), np.tile(np.arange(1, m + 1), (len(positions), 1)))
        assert len({tuple(row) for row in positions[:, :k]}) == len(positions)
        assert np.all(np.diff(positions[:, k:], axis=1) > 0)
        assert np.array_equal(positions, order_array(m)[::orders.repeats])


@pytest.mark.parametrize("label", ALL_LABELS)
def test_moment_rows_are_integers_where_a_divisor_is_given(label):
    """Rows at q_c give the Gram of the model rows over the divisor.  They
    are integers for every family but tpwo:geom, whose divisor is all ones."""
    spec, m = parse_model(label), 7
    orders = models.moment_orders(spec, m)
    q = models._positions(order_array(m))
    rows = models.model_rows(spec, q, standardized=False)
    assert np.array_equal(rows, np.rint(rows)) == (label != "tpwo:geom=0.5")
    if label == "tpwo:geom=0.5":
        assert np.all(orders.divisor == 1)
    xf = _whole(spec, m)
    assert _frobenius_rel((rows.T @ rows) / orders.divisor, xf.T @ xf) <= 1e-14


def test_moment_orders_cannot_be_written_into():
    """``canonical`` is the cached ``_canonical_pairs`` table: a write into
    it would change every later moment computed from it."""
    spec = parse_model("pwo")
    orders = models.moment_orders(spec, 4)
    try:
        with pytest.raises(ValueError, match="read-only"):
            orders.canonical[0, 0] = orders.canonical[0, 1]
        criteria.factorial_moments.cache_clear()
        plain, _, w = criteria.factorial_moments(spec, 4)
        assert plain[0, 0] == w == 24.0
    finally:
        models._canonical_pairs.cache_clear()
        criteria.factorial_moments.cache_clear()


def test_canonical_pairs_refuse_a_too_small_k():
    with pytest.raises(RuntimeError, match="canonical"):
        models._canonical_pairs(parse_model("pwo"), 8, 2)


@pytest.mark.parametrize("m", range(6, 9))
def test_rs2_moments_match_an_exact_integer_gram(m):
    """The rs2 columns are s q_c, s^2 q_c^2 and s^2 q_c q_d with s = 2/(m(m+1)),
    so X_f^T X_f is an int64 Gram of (q_c, q_c^2, q_c q_d) times powers of s."""
    q = models._positions(order_array(m)).astype(np.int64).T
    c, d = np.triu_indices(m - 1, 1)
    monomials = np.concatenate([q[:m - 1], q[:m - 1] ** 2, q[c] * q[d]]).T
    degree = np.repeat([1, 2, 2], [m - 1, m - 1, len(c)])
    gram = monomials.T @ monomials
    sums = monomials.sum(axis=0)
    scale = (2.0 / (m * (m + 1))) ** np.add.outer(degree, degree)
    exact_plain = gram * scale
    w = math.factorial(m)
    exact_centered = (w * gram - np.outer(sums, sums)) * scale / w  # the bracket is exact in int64
    plain, centered, _ = _fresh_moments(parse_model("rs2"), m)
    assert np.abs(plain - exact_plain).max() <= 1e-14 * np.abs(exact_plain).max()
    assert np.abs(centered - exact_centered).max() <= 1e-14 * np.abs(exact_centered).max()
    if m >= 7:  # exact sums of integer rows: each entry is the correctly rounded value
        t = m * (m + 1) // 2
        p = len(degree)
        for i, j in itertools.product(range(p), repeat=2):
            power = t ** int(degree[i] + degree[j])
            assert plain[i, j] == float(Fraction(int(gram[i, j]), power))
            numerator = int(w * gram[i, j] - sums[i] * sums[j])
            assert centered[i, j] == float(Fraction(numerator, w * power))


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
    """Bit-for-bit estimates, standard errors and ranks of every fit and
    their average."""
    whole = [predict_rows(fit, _whole(fit.spec, m)) for fit in fits]
    for fit, (est, var) in zip(fits, whole):
        table = predict_all(fit)
        assert np.array_equal(table.estimates, est), fit.spec.label
        assert np.array_equal(table.std_errors, np.sqrt(var), equal_nan=True), fit.spec.label
        assert np.array_equal(table.ranks, rank_descending(est)), fit.spec.label
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
    for name in ("estimates", "variances", "std_errors", "ranks"):
        assert np.array_equal(getattr(averaged, name), getattr(reference, name)), name


@pytest.mark.parametrize("m", range(2, 8))
def test_predictions_and_averages_do_not_depend_on_the_block_size(m, monkeypatch):
    """Every family and tpwo:geom=0.3, walked in blocks of 1 (up to m = 5),
    7, 1,024, 4,096 and m! orders: estimates, standard errors and ranks are
    the same bit for bit, since predict_rows takes every product with the
    same number of rows wherever the blocks are cut."""
    specs = _specs(m) + [parse_model("tpwo:geom=0.3")]
    fits = [ols_fit(spec, _dataset(m)) for spec in specs]
    tables = [predict_all(fit) for fit in fits]
    reference = average_predictions(CandidateSet.from_akaike(fits))
    for size in _block_sizes(m) + [1024, 4096]:
        monkeypatch.setattr(models, "BLOCK_ROWS", size)
        for fit, table in zip(fits, tables):
            other = predict_all(fit)
            for name in ("estimates", "std_errors", "ranks"):
                assert np.array_equal(getattr(other, name), getattr(table, name),
                                      equal_nan=True), (fit.spec.label, size, name)
        averaged = average_predictions(CandidateSet.from_akaike(fits))
        for name in ("estimates", "variances", "ranks", "model_estimates", "model_ranks"):
            assert np.array_equal(getattr(averaged, name), getattr(reference, name)), (size, name)


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
