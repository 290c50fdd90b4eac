"""Permutation core: enumeration, positions, capacity, standardization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oofa import (
    MAX_COMPONENTS,
    CapacityError,
    Permutation,
    ValidationError,
    check_capacity,
    enumerate_permutations,
    standardize,
)
from oofa.perms import order_array

orders = st.integers(2, 7).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
)


def test_enumeration_count_and_order():
    for m in range(1, 7):
        perms = enumerate_permutations(m)
        assert len(perms) == math.factorial(m)
        as_tuples = [p.order for p in perms]
        assert as_tuples == sorted(as_tuples), "must be lexicographic"
        assert perms[0].order == tuple(range(1, m + 1))
        assert perms[-1].order == tuple(range(m, 0, -1))


def test_enumeration_is_cached():
    assert enumerate_permutations(5) is enumerate_permutations(5)


@pytest.mark.parametrize("m", range(1, 9))
def test_order_array_rows_are_the_enumerated_orders(m):
    orders = order_array(m)
    assert orders.shape == (math.factorial(m), m) and orders.dtype == np.int8
    assert np.array_equal(orders, list(itertools.permutations(range(1, m + 1))))
    assert orders.tolist() == [list(p.order) for p in enumerate_permutations(m)]
    assert order_array(m) is orders
    with pytest.raises(ValueError):
        orders[0, 0] = 0


def test_bijection_validation():
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))
    with pytest.raises(ValidationError):
        Permutation((0, 1))
    with pytest.raises(ValidationError):
        Permutation((2, 3))
    with pytest.raises(ValidationError):
        Permutation(())


def test_capacity_cap():
    assert check_capacity(MAX_COMPONENTS) == MAX_COMPONENTS
    with pytest.raises(CapacityError):
        check_capacity(MAX_COMPONENTS + 1)
    with pytest.raises(ValidationError):
        check_capacity(0)
    with pytest.raises(ValidationError):
        check_capacity("3")
    with pytest.raises(ValidationError):
        check_capacity(True)
    with pytest.raises(CapacityError):
        enumerate_permutations(9)
    with pytest.raises(CapacityError):
        order_array(9)


def test_positions():
    perm = Permutation((2, 3, 1))
    assert perm.positions() == (3, 1, 2)


def test_label():
    perm = Permutation((2, 3, 1))
    assert perm.label() == "2 3 1"
    assert perm.label(("A", "B", "C")) == "B C A"


def test_standardize_identity_permutation():
    p = standardize(Permutation((1, 2, 3))).p
    assert p == pytest.approx((1 / 6, 1 / 3, 1 / 2), abs=1e-15)


@given(orders)
def test_positions_roundtrip(order):
    perm = Permutation(tuple(order))
    for c, q in enumerate(perm.positions(), start=1):
        assert perm.order[q - 1] == c


@given(orders)
def test_standardized_position_identities(order):
    perm = Permutation(tuple(order))
    m = perm.m
    p = np.array(standardize(perm).p)
    assert abs(p.sum() - 1.0) < 1e-12
    assert abs((p**2).sum() - 2.0 * (2 * m + 1) / (3.0 * m * (m + 1))) < 1e-12
    pair_sum = (p.sum() ** 2 - (p**2).sum()) / 2.0
    assert abs(pair_sum - (3.0 * m**2 - m - 2) / (6.0 * m * (m + 1))) < 1e-12


@given(orders)
def test_standardized_position_range(order):
    perm = Permutation(tuple(order))
    m = perm.m
    p = standardize(perm).p
    assert min(p) == pytest.approx(2.0 / (m * (m + 1)))
    assert max(p) == pytest.approx(2.0 * m / (m * (m + 1)))
