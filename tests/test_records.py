"""The records' contract (:mod:`oofa.records`): each of the 21 record classes
keeps its home module, field order, keyword names and defaults; it is
frozen and has no instance ``__dict__``; the seven specs compare by value
and the 14 records holding arrays by identity."""

import ast
import copy
import importlib
import inspect
import pickle

import numpy as np
import pytest

from oofa import (
    CandidateSet,
    CompoundSpec,
    CriterionKind,
    CriterionSpec,
    Family,
    ModelSpec,
    Permutation,
    SearchConfig,
    Taper,
    TaperKind,
    average_predictions,
    build_matrix,
    exchange_search,
    ols_fit,
    orthogonal_coding,
    predict_all,
    standardize,
)
from oofa.criteria import member_rows
from oofa.dataio import OrderColumn, position_columns
from oofa.models import moment_orders
from oofa.records import Record

#: "module.Class" -> its fields in order; "=" marks a default, read as a Python literal.
FIELDS = {
    "adaptors.Permutation": ("order",),
    "adaptors.StdPositions": ("p",),
    "design.Design": ("orders", "block=None", "labels=None"),
    "design.Dataset": ("design", "response"),
    "models.Taper": ("kind", "ratio=None"),
    "models.ModelSpec": ("family", "taper=None"),
    "models.DesignMatrix": ("values", "term_labels", "m", "spec"),
    "models.MomentOrders": ("positions", "canonical", "repeats", "divisor"),
    "criteria.CriterionSpec": ("kind", "sigma2=1.0", "orthogonal_coding=False"),
    "criteria.CompoundMember": ("model", "criterion", "weight"),
    "criteria.CompoundSpec": ("members",),
    "criteria.MemberRows": ("criterion", "moment", "scale", "coding=None"),
    "criteria.OrthogonalCoding": ("spec", "m", "w", "r", "_r_inv_scaled"),
    "search.SearchConfig": ("m", "n_runs", "objective", "restarts=10", "seed=0",
                            "max_passes=50"),
    "search.SearchResult": ("design", "objective", "member_values", "objective_trace",
                            "restart", "config"),
    "fitting.FitResult": ("spec", "data", "term_labels", "coefficients", "rss", "df_error",
                          "p_effective", "n", "sigma2_hat", "rmse", "log_lik", "aic", "bic",
                          "xtx_inv", "n_block_cols"),
    "ranking.PredictionTable": ("orders", "estimates", "std_errors", "ranks"),
    "averaging.CandidateSet": ("fits", "weights"),
    "averaging.AveragedPrediction": ("orders", "estimates", "variances", "std_errors", "ranks",
                                     "model_estimates", "model_ranks"),
    "dataio.LabelColumn": ("labels", "codes"),
    "dataio.OrderColumn": ("labels", "orders"),
}
#: The records that compare and hash by value: specs, and keys of cached results.
VALUE = {"Permutation", "Taper", "ModelSpec", "CriterionSpec", "CompoundMember",
         "CompoundSpec", "SearchConfig"}
#: Fields the repr leaves out.
UNSHOWN = {"SearchResult": ("config",), "FitResult": ("data", "xtx_inv")}
#: Required fields that make a valid record with the defaults, where the
#: sample's do not: a geometric taper needs a ratio, and tpwo a taper.
REQUIRED = {"Taper": (TaperKind.LINEAR,), "ModelSpec": (Family.CP,)}


def _samples(m4_dataset):
    """One instance of each record, by class name, built the way the package builds it."""
    pwo = ModelSpec(Family.PWO)
    apv_orth = CriterionSpec(CriterionKind.APV, 1.0, True)
    objective = CompoundSpec.equal_weights([pwo, ModelSpec(Family.CP)], apv_orth)
    config = SearchConfig(4, 12, objective, restarts=1, seed=3, max_passes=1)
    fit = ols_fit(pwo, m4_dataset)
    candidates = CandidateSet.from_akaike([fit, ols_fit(ModelSpec(Family.RS2), m4_dataset)])
    design = m4_dataset.design
    records = [
        Permutation((2, 1, 3)), standardize(Permutation((2, 1, 3))), design, m4_dataset,
        Taper(TaperKind.GEOMETRIC, 0.5), ModelSpec(Family.TPWO, Taper(TaperKind.INV_H)),
        build_matrix(pwo, design.orders), moment_orders(pwo, 4), apv_orth,
        objective.members[0], objective, member_rows(pwo, apv_orth, 4),
        orthogonal_coding(pwo, 4), config, exchange_search(config), fit, predict_all(fit),
        candidates, average_predictions(candidates),
        position_columns(design.orders, design.component_labels)[1][0],
        OrderColumn(design.component_labels, design.orders),
    ]
    return {type(record).__name__: record for record in records}


@pytest.fixture(scope="module")
def samples(m4_dataset):
    return _samples(m4_dataset)


def _same(a, b) -> bool:
    """Equal values: arrays equal with their dtype, records field by field."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, Record):
        return type(b) is type(a) and all(
            _same(getattr(a, name), getattr(b, name)) for name in a.__slots__)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _assert_fields(record, fields, values):
    for name, value in zip(fields, values):
        assert _same(getattr(record, name), value), name


@pytest.mark.parametrize("home", FIELDS)
def test_record_contract(home, samples):
    module, name = home.split(".")
    cls = getattr(importlib.import_module(f"oofa.{module}"), name)
    assert (cls.__module__, cls.__qualname__) == (f"oofa.{module}", name)
    fields = tuple(spec.partition("=")[0] for spec in FIELDS[home])
    defaults = {key: ast.literal_eval(value) for key, _, value in
                (spec.partition("=") for spec in FIELDS[home]) if value}
    assert cls.__slots__ == fields
    signature = inspect.signature(cls)
    assert tuple(signature.parameters) == fields
    assert {key: p.default for key, p in signature.parameters.items()
            if p.default is not p.empty} == defaults

    record = samples[name]
    values = tuple(getattr(record, field) for field in fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    _assert_fields(by_position, fields, values)
    _assert_fields(by_keyword, fields, values)
    required = REQUIRED.get(name) or [value for field, value in zip(fields, values)
                                      if field not in defaults]
    _assert_fields(cls(*required), defaults, defaults.values())
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        _assert_fields(twin, fields, values)

    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    _assert_fields(record, fields, values)
    assert not hasattr(record, "__dict__")

    if name in VALUE:
        assert by_position == by_keyword == record
        assert hash(by_position) == hash(by_keyword) == hash(record)
        assert len({record, by_position, by_keyword}) == 1
    else:
        assert by_position != by_keyword and by_position == by_position
        assert len({record, by_position, by_keyword, record}) == 3
    assert record != values

    shown = [field for field in fields if field not in UNSHOWN.get(name, ())]
    assert repr(record) == f"{name}({', '.join(f'{f}={getattr(record, f)!r}' for f in shown)})"


def test_every_record_is_covered(samples):
    assert set(samples) == {home.split(".")[1] for home in FIELDS}
    assert len(FIELDS) == 21 and VALUE <= set(samples) and len(VALUE) == 7
