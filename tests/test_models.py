"""Model matrices for all six families, checked against the independent oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle as oracle
from oofa import (
    Family,
    ModelSpec,
    Taper,
    TaperKind,
    UnsupportedModelError,
    ValidationError,
    build_matrix,
    enumerate_permutations,
    full_factorial_matrix,
    parse_model,
    term_labels,
)
from oofa import models
from oofa.models import pwo_to_ltpwo_maps, taper_value
from oofa.perms import order_array

ALL_LABELS = ["pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear",
              "cp", "rs2", "rs3", "rs3s", "nn"]


def _runs(m, count=None, seed=0):
    perms = enumerate_permutations(m)
    if count is None:
        return perms
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(perms), size=count)
    return tuple(perms[i] for i in idx)


def _oracle_matrix(label, runs):
    ratio = 0.5 if label == "tpwo:geom=0.5" else None
    key = "tpwo:geom" if ratio is not None else label
    return oracle.matrix(key, [r.order for r in runs], taper_ratio=ratio)


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_matrix_matches_oracle(label, m):
    spec = parse_model(label)
    if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
        with pytest.raises(UnsupportedModelError):
            build_matrix(spec, _runs(m))
        return
    for runs in (_runs(m), _runs(m, count=7, seed=m)):
        built = build_matrix(spec, runs)
        expected = _oracle_matrix(label, runs)
        np.testing.assert_allclose(built.values, expected, atol=1e-12)
        assert built.values.shape == (len(runs), spec.param_count(m))
        assert len(built.term_labels) == built.p


@pytest.mark.parametrize(
    "label, counts",
    [
        ("pwo", (4, 7, 11, 16)),
        ("tpwo:invh", (4, 7, 11, 16)),
        ("rs2", (5, 9, 14, 20)),
        ("cp", (5, 10, 17, 26)),
        ("nn", (6, 12, 20, 30)),
        ("rs3", (6, 15, 29, 49)),
        ("rs3s", (5, 12, 23, 39)),
    ],
)
def test_parameter_counts(label, counts):
    spec = parse_model(label)
    for m, expected in zip((3, 4, 5, 6), counts):
        assert spec.param_count(m) == expected
        assert len(term_labels(spec, m)) == expected


def _closed_form_count(family, m):
    """Column count of the family at m, from the index bounds in the module
    docstring."""
    if family in (Family.PWO, Family.TPWO):
        return 1 + m * (m - 1) // 2
    if family is Family.CP:
        return 1 + (m - 1) ** 2
    if family is Family.RS2:
        return (m - 1) * (m + 2) // 2
    if family is Family.NN:
        return m * (m - 1)
    count = m + (m * (m - 1) // 2 - 1) + (m * (m - 1) * (m - 2) // 6 - 1)
    return count + (m - 1) * (m - 2) // 2 if family is Family.RS3 else count


@pytest.mark.parametrize("m", range(2, 9))
def test_parameter_counts_match_the_closed_forms(m):
    for label in ALL_LABELS:
        spec = parse_model(label)
        if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
            with pytest.raises(UnsupportedModelError):
                spec.param_count(m)
            continue
        assert spec.param_count(m) == _closed_form_count(spec.family, m), label
        assert len(term_labels(spec, m)) == spec.param_count(m), label


#: A component index in a column label: the digits after an underscore.
_COMPONENT = re.compile(r"(?<=_)\d+")


def _parsed_term_parts(labels):
    """(templates, components) parsed from the column labels: the label
    parser the column table replaced, as reference."""
    parts = []
    for label in labels:
        if label.startswith("tau_"):
            c, j = label[4:].split("_")
            parts.append((f"tau__{j}", (int(c),)))
        else:
            parts.append((_COMPONENT.sub("", label), tuple(map(int, _COMPONENT.findall(label)))))
    names = {name: t for t, name in enumerate(dict.fromkeys(name for name, _ in parts))}
    components = np.zeros((len(parts), max(len(comps) for _, comps in parts)), dtype=np.intp)
    for i, (_, comps) in enumerate(parts):
        components[i, :len(comps)] = comps
    return np.array([names[name] for name, _ in parts], dtype=np.intp), components


@pytest.mark.parametrize("m", range(2, 9))
def test_term_parts_equal_the_parsed_labels(m):
    for label in ALL_LABELS:
        spec = parse_model(label)
        if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
            continue
        templates, components = models._term_parts(spec, m)
        ref_templates, ref_components = _parsed_term_parts(term_labels(spec, m))
        assert np.array_equal(components, ref_components), label
        # the same classes: each template meets exactly one reference template
        classes = set(zip(templates.tolist(), ref_templates.tolist()))
        assert len(classes) == len(set(templates.tolist())) == len(set(ref_templates.tolist()))


@pytest.mark.parametrize("label", ALL_LABELS)
@pytest.mark.parametrize("m", [3, 4, 5])
def test_full_factorial_full_rank(label, m):
    built = full_factorial_matrix(parse_model(label), m)
    assert np.linalg.matrix_rank(built.values) == built.p


@pytest.mark.parametrize("label, m", [
    *((label, m) for label in ALL_LABELS for m in range(2, 8)),
    ("pwo", 8),
    ("nn", 8),
])
def test_full_factorial_equals_build_matrix_of_all_orders(label, m):
    spec = parse_model(label)
    if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
        with pytest.raises(UnsupportedModelError):
            full_factorial_matrix(spec, m)
        return
    fast = full_factorial_matrix(spec, m)
    slow = build_matrix(spec, enumerate_permutations(m))
    assert np.array_equal(fast.values, slow.values)
    assert fast.term_labels == slow.term_labels


@pytest.mark.parametrize("m", range(2, 9))
def test_term_labels_skip_the_full_factorial(m):
    for label in ALL_LABELS:
        spec = parse_model(label)
        if spec.family in (Family.RS3, Family.RS3_SPECIAL) and m < 3:
            with pytest.raises(UnsupportedModelError):
                term_labels(spec, m)
            continue
        cached = full_factorial_matrix.cache_info()
        labels = term_labels(spec, m)
        assert full_factorial_matrix.cache_info().currsize == cached.currsize
        assert full_factorial_matrix.cache_info() == cached
        # built uncached so the m = 8 matrices do not stay in memory
        assert labels == full_factorial_matrix.__wrapped__(spec, m).term_labels


def test_full_factorial_is_cached():
    spec = parse_model("pwo")
    assert full_factorial_matrix(spec, 4) is full_factorial_matrix(spec, 4)


def test_matrix_values_are_readonly():
    built = build_matrix(parse_model("pwo"), _runs(3))
    with pytest.raises(ValueError):
        built.values[0, 0] = 99.0


def test_taper_values():
    m = 5
    assert taper_value(Taper(TaperKind.INV_H), 1, m) == 1.0
    assert taper_value(Taper(TaperKind.INV_H), 4, m) == 0.25
    assert taper_value(Taper(TaperKind.GEOMETRIC, 0.5), 3, m) == 0.25
    assert taper_value(Taper(TaperKind.LINEAR), 2, m) == 3.0
    with pytest.raises(ValidationError):
        taper_value(Taper(TaperKind.INV_H), 0, m)
    with pytest.raises(ValidationError):
        taper_value(Taper(TaperKind.INV_H), m, m)
    with pytest.raises(ValidationError):
        Taper(TaperKind.GEOMETRIC, 1.0)
    with pytest.raises(ValidationError):
        Taper(TaperKind.GEOMETRIC, 0.0)


def test_parse_model_grammar():
    assert parse_model("pwo").family is Family.PWO
    assert parse_model("RS2").family is Family.RS2
    assert parse_model("rs3_special") == parse_model("rs3s")
    assert parse_model("rs3special") == parse_model("rs3s")
    spec = parse_model("tpwo:geom=0.25")
    assert spec.taper.kind is TaperKind.GEOMETRIC
    assert spec.taper.ratio == 0.25
    assert spec.label == "tpwo:geom=0.25"
    for bad in ("qq", "pwo:invh", "tpwo", "tpwo:geom", "tpwo:geom=x", "tpwo:zzz"):
        with pytest.raises(ValidationError):
            parse_model(bad)


def test_intercept_flags():
    with_intercept = {"pwo": True, "tpwo:invh": True, "cp": True,
                      "rs2": False, "rs3": False, "rs3s": False, "nn": False}
    for label, expected in with_intercept.items():
        assert parse_model(label).include_intercept is expected, label


def test_nn_rows_sum_to_m_minus_one():
    for m in (2, 3, 4, 5):
        built = full_factorial_matrix(parse_model("nn"), m)
        np.testing.assert_allclose(built.values.sum(axis=1), m - 1)
        assert set(np.unique(built.values)) <= {0.0, 1.0}


@settings(max_examples=40)
@given(st.integers(2, 6).flatmap(lambda m: st.permutations(list(range(1, m + 1)))))
def test_pwo_mirror_antisymmetry(order):
    """Reversing a run flips the sign of every pairwise-order covariate."""
    orders = np.array([order])
    spec = parse_model("pwo")
    row = build_matrix(spec, orders).values[0]
    mirrored = build_matrix(spec, orders[:, ::-1]).values[0]
    assert row[0] == mirrored[0] == 1.0
    np.testing.assert_allclose(mirrored[1:], -row[1:])


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pwo_linear_tpwo_linear_maps(m):
    """PWO and linearly tapered PWO columns span the same space."""
    fwd, back = pwo_to_ltpwo_maps(m)
    x_pwo = full_factorial_matrix(parse_model("pwo"), m).values
    x_lt = full_factorial_matrix(parse_model("tpwo:linear"), m).values
    assert np.max(np.abs(x_lt - x_pwo @ fwd)) < 1e-10
    assert np.max(np.abs(x_pwo - x_lt @ back)) < 1e-10
    np.testing.assert_allclose(fwd @ back, np.eye(fwd.shape[0]), atol=1e-10)


def test_term_labels_are_descriptive():
    assert term_labels(parse_model("pwo"), 3) == ("b0", "x_1_2", "x_1_3", "x_2_3")
    assert term_labels(parse_model("rs2"), 3) == (
        "p_1", "p_2", "p_1^2", "p_2^2", "p_1*p_2"
    )
    nn = term_labels(parse_model("nn"), 3)
    assert len(nn) == 6 and "w_1_2" in nn and "w_2_1" in nn


def test_cp_columns_are_position_indicators():
    orders = order_array(3)
    built = build_matrix(parse_model("cp"), orders)
    # tau_c_j = 1 exactly when component c sits at position j
    for i, order in enumerate(orders):
        for j, label in enumerate(built.term_labels):
            if label == "b0":
                continue
            _, c, pos = label.split("_")
            expected = 1.0 if order[int(pos) - 1] == int(c) else 0.0
            assert built.values[i, j] == expected


def test_modelspec_equality_includes_taper():
    assert parse_model("tpwo:geom=0.5") != parse_model("tpwo:geom=0.25")
    assert parse_model("tpwo:invh") == ModelSpec(Family.TPWO, Taper(TaperKind.INV_H))
