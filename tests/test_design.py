"""Designs hold one read-only int8 order array: its checks, and the rows,
fits and criteria built from it against the Permutation adaptor path."""

import dataclasses
import io

import numpy as np
import pytest

from oofa import (
    CriterionKind,
    CriterionSpec,
    Dataset,
    Design,
    EstimabilityError,
    ValidationError,
    build_matrix,
    criterion_value,
    ols_fit,
    parse_model,
    read_design,
)
from oofa import criteria, fitting, models
from oofa.perms import order_array

NINE = ("pwo", "tpwo:invh", "tpwo:geom=0.5", "tpwo:linear", "cp", "rs2", "rs3", "rs3s", "nn")

#: Runs of an m = 3 design whose second run is bad, and the error it gives.
BAD_SECOND_RUN = {
    "zero": ((1, 0, 2), "order (1, 0, 2) is not a permutation of 1..3"),
    "m-plus-one": ((1, 4, 2), "order (1, 4, 2) is not a permutation of 1..3"),
    "minus-one": ((3, -1, 2), "order (3, -1, 2) is not a permutation of 1..3"),
    "129": ((129, 1, 2), "order (129, 1, 2) is not a permutation of 1..3"),
    # 259 is 3 in int8 and -253 is 3 too: neither may wrap into a component
    "259": ((1, 2, 259), "order (1, 2, 259) is not a permutation of 1..3"),
    "minus-253": ((1, 2, -253), "order (1, 2, -253) is not a permutation of 1..3"),
    "true": ((True, 2, 3), "order (True, 2, 3) is not a permutation of 1..3"),
    "float": ((1.0, 2, 3), "order (1.0, 2, 3) is not a permutation of 1..3"),
    "huge": ((2**70, 2, 3), f"order ({2**70}, 2, 3) is not a permutation of 1..3"),
    "repeat": ((1, 1, 2), "order (1, 1, 2) is not a permutation of 1..3"),
    "short": ((1, 2), "run 2 has 2 components, expected 3"),
    "long": ((1, 2, 3, 4), "run 2 has 4 components, expected 3"),
}


@pytest.mark.parametrize("case", BAD_SECOND_RUN)
def test_from_orders_names_the_first_bad_run(case):
    bad, message = BAD_SECOND_RUN[case]
    orders = [(1, 2, 3), bad, (3, 2, 1), (1, 1, 1)]
    with pytest.raises(ValidationError) as err:
        Design.from_orders(orders)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [0, 4, -1, 129, 259, -253])
@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_array_values_are_checked_before_they_are_narrowed(value, dtype):
    orders = np.array([[1, 2, 3], [2, 1, value]], dtype=dtype)
    with pytest.raises(ValidationError, match=rf"^order \(2, 1, {value}\) is not a permutation"):
        Design(orders)


@pytest.mark.parametrize("orders", [np.array([[1, 2], [2, 1]], dtype=bool),
                                    np.array([[1.0, 2.0], [2.0, 1.0]])])
def test_arrays_of_bools_or_floats_are_refused(orders):
    with pytest.raises(ValidationError, match="is not a permutation of 1..2"):
        Design(orders)


@pytest.mark.parametrize("orders, message", [
    ([], "at least one run is required"),
    (np.empty((0, 3), dtype=np.int8), "at least one run is required"),
    ([()], "a run needs 1 to 127 components, got 0"),
    ([tuple(range(1, 129))], "a run needs 1 to 127 components, got 128"),
])
def test_empty_and_oversized_designs_are_refused(orders, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Design.from_orders(orders)


def test_designs_beyond_the_factorial_cap_hold_up_to_127_components():
    """Only the m! walks are capped at m = 8: a design's own rows are not."""
    order = tuple(range(127, 0, -1))
    design = Design.from_orders([order, order[::-1]])
    assert design.m == 127 and design.runs[0].order == order
    assert models.order_matrix(parse_model("pwo"), design.orders).p == 1 + 127 * 126 // 2


def test_block_list_of_the_wrong_length_is_refused():
    with pytest.raises(ValidationError, match="^2 block labels for 3 runs$"):
        Design.from_orders([(1, 2), (2, 1), (1, 2)], block=["a", "b"])


#: Design files whose body is bad in one way, and the error each gives.
BAD_FILES = {
    "zero": ("pos_1,pos_2,pos_3\n1,2,3\n1,0,2\n",
             "row 2: component '0' would be the 4-th distinct label"),
    "true": ("pos_1,pos_2,pos_3\n1,2,3\nTrue,2,3\n",
             "row 2: component 'True' would be the 4-th distinct label"),
    "repeat": ("pos_1,pos_2,pos_3\nA,B,C\nB,C,B\n", "row 2: component 'B' repeated"),
    "repeat-before-extra": ("pos_1,pos_2,pos_3\nA,B,C\nB,B,D\n", "row 2: component 'B' repeated"),
    "extra-before-repeat": ("pos_1,pos_2,pos_3\nA,B,C\nD,B,B\n",
                            "row 2: component 'D' would be the 4-th distinct label"),
    "ragged": ("pos_1,pos_2,pos_3\n1,2,3\n1,2\n", "row 2: expected 3 cells, got 2"),
    "empty": ("pos_1,pos_2,pos_3\n", "at least one run is required"),
}


@pytest.mark.parametrize("case", BAD_FILES)
def test_read_design_names_the_first_bad_row(case):
    text, message = BAD_FILES[case]
    with pytest.raises(ValidationError) as err:
        read_design(io.StringIO(text))
    assert str(err.value).startswith(message)


def test_orders_are_one_read_only_int8_array():
    design = Design.from_orders([[2, 1, 3], [3, 1, 2]], ["a", "b"], "xyz")
    assert [f.name for f in dataclasses.fields(Design)] == ["orders", "block", "labels"]
    assert design.orders.dtype == np.int8 and design.orders.shape == (2, 3)
    assert not design.orders.flags.writeable
    assert design.labels == ("x", "y", "z") and design.block == ("a", "b")
    with pytest.raises(ValueError):
        design.orders[0, 0] = 1
    assert [run.order for run in design.runs] == [(2, 1, 3), (3, 1, 2)]
    same = Design(design.orders.copy())
    assert same != design and np.array_equal(same.orders, design.orders)


def _random_dataset(spec, m, blocked, seed):
    """A random design with more runs than the model has columns, with or
    without three block levels, and a response."""
    rng = np.random.default_rng(seed)
    pool = order_array(m)
    n = min(len(pool), spec.param_count(m) + 8)
    idx = rng.choice(len(pool), size=n, replace=len(pool) < n)
    block = [f"b{k % 3}" for k in range(n)] if blocked else None
    return Dataset(Design(pool[idx], block), rng.normal(size=n))


def _outcome(fn):
    """What ``fn()`` returns, or the error it raises."""
    try:
        return fn()
    except EstimabilityError as exc:
        return str(exc)


def _via_runs(spec, orders):
    return build_matrix(spec, Design(orders).runs)


@pytest.mark.parametrize("label", NINE)
def test_order_array_path_matches_the_permutation_adaptor(label, monkeypatch):
    spec = parse_model(label)
    apv = CriterionSpec(CriterionKind.APV)
    for m in range(3 if label.startswith("rs3") else 2, 9):
        for blocked in (False, True):
            data = _random_dataset(spec, m, blocked, seed=10 * m + blocked)
            design = data.design
            rows = models.order_matrix(spec, design.orders).values
            assert np.array_equal(rows, build_matrix(spec, design.runs).values)
            fit = _outcome(lambda: ols_fit(spec, data).coefficients)
            value = _outcome(lambda: criterion_value(spec, apv, design))
            with monkeypatch.context() as patch:
                patch.setattr(fitting, "order_matrix", _via_runs)
                patch.setattr(criteria, "order_matrix", _via_runs)
                fit_runs = _outcome(lambda: ols_fit(spec, data).coefficients)
                value_runs = _outcome(lambda: criterion_value(spec, apv, design))
            if isinstance(fit, str):
                assert fit == fit_runs
            else:
                assert np.array_equal(fit, fit_runs)
            assert value == value_runs


def test_records_holding_arrays_compare_by_identity(m4_dataset):
    """A value-equal copy of each record is a different record: ``==`` and
    ``hash`` work by identity rather than comparing the arrays inside."""
    from oofa import (CandidateSet, CompoundSpec, Permutation, SearchConfig,
                      average_predictions, exchange_search, orthogonal_coding,
                      predict_all, standardize)

    fit = ols_fit(parse_model("pwo"), m4_dataset)
    candidates = CandidateSet.from_akaike([fit])
    objective = CompoundSpec.equal_weights([parse_model("pwo")],
                                           CriterionSpec(CriterionKind.APV))
    records = [
        m4_dataset,
        build_matrix(parse_model("cp"), m4_dataset.design.orders),
        orthogonal_coding(parse_model("pwo"), 4),
        fit,
        predict_all(fit),
        average_predictions(candidates),
        candidates,
        standardize(Permutation((2, 1, 3))),
        exchange_search(SearchConfig(4, 12, objective, restarts=1, max_passes=1)),
    ]
    for record in records:
        twin = dataclasses.replace(record)
        assert record == record and record != twin, type(record).__name__
        assert len({record, twin, record}) == 2, type(record).__name__
