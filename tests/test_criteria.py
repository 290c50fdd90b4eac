"""Design criteria: apv, av, A, D, orthogonal coding, compound objectives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracle as oracle
from oofa import (
    CompoundMember,
    CompoundSpec,
    CriterionKind,
    CriterionSpec,
    Design,
    EstimabilityError,
    ValidationError,
    a_criterion,
    apv,
    av,
    build_matrix,
    compound,
    criterion_value,
    d_criterion,
    full_factorial_matrix,
    models,
    orthogonal_coding,
    parse_model,
    write_design,
)
from oofa.criteria import (
    a_from_matrix,
    apv_from_matrices,
    av_from_matrices,
    d_from_matrix,
    factorial_moments,
)
from oofa.cli import main
from oofa.perms import order_array
from oofa.search import random_design

FIVE = ["pwo", "tpwo:invh", "cp", "rs2", "nn"]
TABLE_APV_M4 = {"pwo": 0.52174, "tpwo:invh": 0.52174, "cp": 0.78261,
                "rs2": 0.69565, "nn": 0.95652}


def _full_factorial(m):
    return Design(order_array(m))


def _estimable_design(label, m, n, seed):
    spec = parse_model(label)
    while True:
        design = random_design(m, n, seed)
        x = build_matrix(spec, design.runs).values
        if np.linalg.matrix_rank(x) == x.shape[1]:
            return design
        seed += 1


@pytest.mark.parametrize("label, expected", sorted(TABLE_APV_M4.items()))
def test_apv_full_factorial_m4(label, expected):
    value = apv(parse_model(label), _full_factorial(4))
    assert value == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("label", FIVE)
@pytest.mark.parametrize("m", [3, 4])
def test_full_factorial_closed_form(label, m):
    """Whenever the span contains the constant, apv = 2(p-1)/(w-1)."""
    spec = parse_model(label)
    design = _full_factorial(m)
    p, w = spec.param_count(m), math.factorial(m)
    assert apv(spec, design) == pytest.approx(2.0 * (p - 1) / (w - 1), rel=1e-12)
    assert av(spec, design) == pytest.approx(p / w, rel=1e-12)


def test_av_full_factorial_pwo_m3():
    assert av(parse_model("pwo"), _full_factorial(3)) == pytest.approx(4 / 6, rel=1e-12)


def test_intercept_only_matrix_level():
    n, w = 8, 24
    x = np.ones((n, 1))
    xf = np.ones((w, 1))
    assert apv_from_matrices(x, xf) == pytest.approx(0.0, abs=1e-15)
    assert av_from_matrices(x, xf) == pytest.approx(1.0 / n, rel=1e-12)
    assert a_from_matrix(x) == pytest.approx(1.0 / n, rel=1e-12)
    assert d_from_matrix(x) == pytest.approx(float(n), rel=1e-12)


@pytest.mark.parametrize("label, orth", [
    pytest.param(label, orth, id=label + ("-orth" if orth else ""))
    for orth in (False, True)
    for label in FIVE
])
def test_apv_av_match_oracle_on_fractions(label, orth):
    spec = parse_model(label)
    code = orthogonal_coding(spec, 4).apply if orth else np.asarray
    xf = code(full_factorial_matrix(spec, 4).values)

    def value(kind, design, sigma2=1.0):
        return criterion_value(spec, CriterionSpec(kind, sigma2, orth), design)

    for seed in (1, 2, 3):
        design = _estimable_design(label, 4, 14, seed * 100)
        x = code(build_matrix(spec, design.runs).values)
        assert value(CriterionKind.APV, design, 1.7) == pytest.approx(
            oracle.apv_direct(x, xf, 1.7), rel=1e-10
        )
        assert value(CriterionKind.AV, design, 0.3) == pytest.approx(
            oracle.av_direct(x, xf, 0.3), rel=1e-10
        )
        assert value(CriterionKind.A_OPT, design) == pytest.approx(
            oracle.a_direct(x), rel=1e-10
        )
        assert value(CriterionKind.D_OPT, design) == pytest.approx(
            oracle.d_direct(x), rel=1e-10
        )
        if not orth:
            assert apv(spec, design, 1.7) == value(CriterionKind.APV, design, 1.7)
            assert av(spec, design, 0.3) == value(CriterionKind.AV, design, 0.3)
            assert a_criterion(spec, design) == value(CriterionKind.A_OPT, design)
            assert d_criterion(spec, design) == value(CriterionKind.D_OPT, design)


def _exact_det_and_inverse_trace(a, b=None):
    """(det A, tr A^-1 B) of square matrices of Fractions, B = I unless given,
    by Gauss-Jordan."""
    p = len(a)
    if b is None:
        b = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    rows = [row[:] + extra[:] for row, extra in zip(a, b)]
    det = Fraction(1)
    for c in range(p):
        pivot_row = next(r for r in range(c, p) if rows[r][c] != 0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(p):
            if r != c and rows[r][c] != 0:
                factor = rows[r][c]
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[c])]
    return det, sum(rows[i][p + i] for i in range(p))


def test_a_and_d_match_exact_arithmetic_on_an_ill_conditioned_design():
    """cond(X) = 2.6e5, so any route through X^T X in floating point loses
    about cond(X)^2 eps; the reference takes the float entries of X exactly."""
    spec = parse_model("rs2")
    design = random_design(5, 16, 1704)
    x = build_matrix(spec, design.runs).values
    assert np.linalg.cond(x) > 1e5
    n, p = x.shape
    exact = [[Fraction(v) for v in row] for row in x.tolist()]
    gram = [[sum(exact[k][i] * exact[k][j] for k in range(n)) for j in range(p)]
            for i in range(p)]
    det, trace = _exact_det_and_inverse_trace(gram)
    d_exact = math.exp((math.log(det.numerator) - math.log(det.denominator)) / p)
    assert d_criterion(spec, design) == pytest.approx(d_exact, rel=1e-10)
    assert a_criterion(spec, design) == pytest.approx(float(trace / p), rel=1e-10)


def _integer_gram(spec, orders):
    """The exact Gram, as Fractions, of the model rows built at the integer
    positions q_c: a column scaling of the model rows."""
    rows = models.model_rows(spec, models._positions(orders), standardized=False)
    assert np.array_equal(rows, np.rint(rows))
    rows = rows.astype(np.int64)
    return [[Fraction(int(v)) for v in row] for row in (rows.T @ rows).tolist()]


@pytest.mark.parametrize("label", ["rs3", "rs3s"])
def test_criteria_prints_every_digit_of_av_correctly(label, capsys, tmp_path):
    """av = tr[M^-1 G] / w does not change under a column scaling, so its exact
    value comes from the integer rows at q_c: M their Gram over a 56-run m = 6
    design, G over all m! orders.  The design is fixed, and the exact value
    lies far from a rounding boundary of the 12 printed digits."""
    m, orders = 6, order_array(6)[3::13]
    path = tmp_path / "d6.csv"
    write_design(path, Design.from_orders(orders.tolist()))
    assert main(["criteria", "--design", str(path), "--models", label, "--criterion", "av"]) == 0
    printed = capsys.readouterr().out.splitlines()[1].split(",")[2]
    spec = parse_model(label)
    _, trace = _exact_det_and_inverse_trace(_integer_gram(spec, orders),
                                            _integer_gram(spec, order_array(m)))
    exact = trace / math.factorial(m)
    unit = Fraction(10) ** (math.floor(math.log10(exact)) - 11)
    assert abs(exact / unit % 1 - Fraction(1, 2)) * unit > 1e-13 * exact
    assert printed == "%.12g" % float(exact)


def test_sigma2_scales_linearly():
    design = _estimable_design("pwo", 3, 8, 7)
    spec = parse_model("pwo")
    assert apv(spec, design, 2.0) == pytest.approx(2 * apv(spec, design), rel=1e-12)
    assert av(spec, design, 2.0) == pytest.approx(2 * av(spec, design), rel=1e-12)
    with pytest.raises(ValidationError):
        CriterionSpec(CriterionKind.APV, sigma2=0.0)


def test_block_columns_never_enter_criteria(m4_dataset):
    spec = parse_model("pwo")
    with_block = m4_dataset.design
    without = with_block.without_block()
    assert apv(spec, with_block) == apv(spec, without)
    assert av(spec, with_block) == av(spec, without)


def test_rank_deficient_design_raises():
    design = Design(np.tile(order_array(3)[:2], (3, 1)))
    with pytest.raises(EstimabilityError, match="pwo"):
        apv(parse_model("pwo"), design)
    with pytest.raises(EstimabilityError):
        av(parse_model("pwo"), design)


def test_duplicating_runs_halves_a_doubles_d():
    design = _estimable_design("pwo", 3, 8, 21)
    doubled = Design(np.vstack([design.orders, design.orders]), design.block, design.labels)
    spec = parse_model("pwo")
    assert a_criterion(spec, doubled) == pytest.approx(
        a_criterion(spec, design) / 2.0, rel=1e-12
    )
    assert d_criterion(spec, doubled) == pytest.approx(
        d_criterion(spec, design) * 2.0, rel=1e-12
    )


def _a3_matrices(design_runs, m):
    x = np.array([oracle.rs2_a3_row(r.order) for r in design_runs])
    xf = np.array([oracle.rs2_a3_row(p) for p in oracle.perms_lex(m)])
    return x, xf


@pytest.mark.parametrize("m", [3, 4])
def test_apv_av_invariant_under_reparameterization(m):
    """The quadratic surface model in its two equivalent parameterizations."""
    spec = parse_model("rs2")
    xf10 = full_factorial_matrix(spec, m).values
    for seed in (5, 6):
        design = _estimable_design("rs2", m, 12, seed * 50)
        x10 = build_matrix(spec, design.runs).values
        xa3, xfa3 = _a3_matrices(design.runs, m)
        assert apv_from_matrices(x10, xf10) == pytest.approx(
            apv_from_matrices(xa3, xfa3), abs=1e-10, rel=1e-10
        )
        assert av_from_matrices(x10, xf10) == pytest.approx(
            av_from_matrices(xa3, xfa3), abs=1e-10, rel=1e-10
        )


def test_a_not_invariant_but_d_ranking_is():
    designs = [_estimable_design("rs2", 3, 10, s) for s in (301, 502)]
    a10, aa3, d10, da3 = [], [], [], []
    for design in designs:
        x10 = build_matrix(parse_model("rs2"), design.runs).values
        xa3, _ = _a3_matrices(design.runs, 3)
        a10.append(a_from_matrix(x10))
        aa3.append(a_from_matrix(xa3))
        d10.append(d_from_matrix(x10))
        da3.append(d_from_matrix(xa3))
    assert not np.allclose(a10, aa3, rtol=1e-3), "A should move under recoding"
    assert (d10[0] - d10[1]) * (da3[0] - da3[1]) > 0, "D ordering must agree"


@pytest.mark.parametrize("label", FIVE)
@pytest.mark.parametrize("m", [3, 4])
def test_orthogonal_coding_gram(label, m):
    spec = parse_model(label)
    coding = orthogonal_coding(spec, m)
    w = math.factorial(m)
    coded = coding.apply(full_factorial_matrix(spec, m).values)
    np.testing.assert_allclose(coded.T @ coded, w * np.eye(coded.shape[1]),
                               atol=1e-8)
    assert np.allclose(coding.r, np.triu(coding.r)), "R must be triangular"
    gram = full_factorial_matrix(spec, m).values
    np.testing.assert_allclose(coding.r.T @ coding.r, gram.T @ gram,
                               rtol=1e-9, atol=1e-12)


def _exact_upper_inverse(r):
    """The inverse of the float upper-triangular ``r``, by back-substitution
    in exact fractions, rounded once to floats."""
    p = r.shape[0]
    exact = [[Fraction(float(v)) for v in row] for row in r]
    inv = [[Fraction(0)] * p for _ in range(p)]
    for j in range(p):
        for i in range(j, -1, -1):
            rest = sum(exact[i][k] * inv[k][j] for k in range(i + 1, j + 1))
            inv[i][j] = (Fraction(i == j) - rest) / exact[i][i]
    return np.array([[float(v) for v in row] for row in inv])


@pytest.mark.parametrize("label", ["pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear",
                                   "cp", "rs2", "rs3", "rs3s", "nn"])
@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_orthogonal_coding_inverse_matches_triangular_solve(label, m):
    coding = orthogonal_coding(parse_model(label), m)
    expected = _exact_upper_inverse(coding.r)
    np.testing.assert_allclose(coding.apply(np.eye(coding.r.shape[0])) / math.sqrt(coding.w),
                               expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_coded_av_is_a_optimality():
    spec = parse_model("pwo")
    design = _estimable_design("pwo", 4, 12, 901)
    coding = orthogonal_coding(spec, 4)
    coded_x = coding.apply(build_matrix(spec, design.runs).values)
    direct = float(np.trace(np.linalg.inv(coded_x.T @ coded_x)))
    crit = CriterionSpec(CriterionKind.AV, orthogonal_coding=True)
    assert criterion_value(spec, crit, design) == pytest.approx(direct, rel=1e-8)


def test_coded_apv_equals_plain_apv():
    """apv depends only on the span, so the coding cannot move it."""
    spec = parse_model("rs2")
    design = _estimable_design("rs2", 3, 9, 77)
    plain = criterion_value(spec, CriterionSpec(CriterionKind.APV), design)
    coded = criterion_value(
        spec, CriterionSpec(CriterionKind.APV, orthogonal_coding=True), design
    )
    assert coded == pytest.approx(plain, rel=1e-9)


def test_information_monotonicity():
    spec = parse_model("pwo")
    design = _estimable_design("pwo", 3, 8, 41)
    extra = order_array(3)[2]
    grown = Design(np.vstack([design.orders, extra]), design.block, design.labels)
    assert apv(spec, grown) <= apv(spec, design) + 1e-12
    assert av(spec, grown) <= av(spec, design) + 1e-12
    assert a_criterion(spec, grown) <= a_criterion(spec, design) + 1e-12
    assert d_criterion(spec, grown) >= d_criterion(spec, design) - 1e-12


def test_cache_equals_direct_evaluation():
    spec = parse_model("cp")
    design = _estimable_design("cp", 4, 16, 19)
    x = build_matrix(spec, design.runs).values
    xf = full_factorial_matrix(spec, 4).values
    assert apv(spec, design) == pytest.approx(apv_from_matrices(x, xf), abs=1e-12)
    assert av(spec, design) == pytest.approx(av_from_matrices(x, xf), abs=1e-12)
    assert factorial_moments(spec, 4) is factorial_moments(spec, 4)


def test_compound_examples():
    design = _full_factorial(4)
    crit = CriterionSpec(CriterionKind.APV)
    single = CompoundSpec.single(parse_model("pwo"), crit)
    assert compound(single, design) == pytest.approx(apv(parse_model("pwo"), design))

    twins = CompoundSpec.equal_weights([parse_model("pwo")] * 1, crit)
    assert compound(twins, design) == pytest.approx(compound(single, design))

    pair = CompoundSpec.equal_weights([parse_model("pwo"), parse_model("rs2")], crit)
    assert compound(pair, design) == pytest.approx(0.60870, abs=1e-4)


def test_compound_d_uses_reciprocal():
    design = _full_factorial(3)
    spec = parse_model("pwo")
    crit = CriterionSpec(CriterionKind.D_OPT)
    value = compound(CompoundSpec.single(spec, crit), design)
    assert value == pytest.approx(1.0 / d_criterion(spec, design), rel=1e-12)


def test_compound_names_inestimable_member():
    # five distinct runs plus one duplicate: fine for pwo (p=4), singular for nn
    orders = order_array(3)
    design = Design(orders[[0, 1, 2, 3, 4, 0]])
    assert np.linalg.matrix_rank(build_matrix(parse_model("pwo"), design.runs).values) == 4
    members = CompoundSpec.equal_weights(
        [parse_model("pwo"), parse_model("nn")], CriterionSpec(CriterionKind.APV)
    )
    with pytest.raises(EstimabilityError, match="nn"):
        compound(members, design)


def test_compound_validation():
    crit = CriterionSpec(CriterionKind.APV)
    pwo = parse_model("pwo")
    with pytest.raises(ValidationError):
        CompoundSpec(())
    with pytest.raises(ValidationError):
        CompoundSpec((CompoundMember(pwo, crit, 0.7),))
    with pytest.raises(ValidationError):
        CompoundSpec((CompoundMember(pwo, crit, 1.5),
                      CompoundMember(parse_model("rs2"), crit, -0.5)))
    with pytest.raises(ValidationError):
        CompoundSpec.equal_weights([], crit)
    with pytest.raises(ValidationError, match="finite"):
        CompoundSpec((CompoundMember(pwo, crit, 0.5),
                      CompoundMember(parse_model("rs2"), crit, math.nan)))


# -- invariance properties ----------------------------------------------------

NINE = ("pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear", "cp", "rs2", "rs3", "rs3s", "nn")


@st.composite
def _estimable_designs(draw):
    """(model, orders): 2p runs drawn from all m! orders, m = 4..6, on which
    the model is estimable."""
    m = draw(st.integers(4, 6))
    spec = parse_model(draw(st.sampled_from(NINE)))
    pool, n_runs = order_array(m), 2 * spec.param_count(m)
    orders = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_runs, max_size=n_runs))]
    x = build_matrix(spec, orders).values
    assume(np.linalg.matrix_rank(x) == x.shape[1])
    return spec, orders


def _all_values(spec, orders):
    """Every criterion in both codings: {(kind, orth): value}."""
    design = Design(orders)
    return {(kind, orth): criterion_value(spec, CriterionSpec(kind, 1.0, orth), design)
            for kind in CriterionKind for orth in (False, True)}


@settings(max_examples=60, deadline=None)
@given(_estimable_designs(), st.data())
def test_relabeling_components_leaves_the_criteria_unchanged(case, data):
    """Relabeling maps the m! orders onto themselves and the model's column
    span onto itself, so apv, av and D do not move in either coding.  A
    depends on the parameterization and moves without --orth."""
    spec, orders = case
    m = orders.shape[1]
    relabel = np.array(data.draw(st.permutations(range(1, m + 1))))
    before, after = _all_values(spec, orders), _all_values(spec, relabel[orders - 1])
    for (kind, orth), value in before.items():
        if kind is not CriterionKind.A_OPT or orth:
            assert after[kind, orth] == pytest.approx(value, rel=1e-9), (kind, orth)


@settings(max_examples=60, deadline=None)
@given(_estimable_designs(), st.data())
def test_reordering_the_runs_leaves_the_criteria_unchanged(case, data):
    spec, orders = case
    order = data.draw(st.permutations(range(len(orders))))
    before, after = _all_values(spec, orders), _all_values(spec, orders[order])
    for key, value in before.items():
        assert after[key] == pytest.approx(value, rel=1e-9), key
