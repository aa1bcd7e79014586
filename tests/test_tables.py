from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from uniline.tables import space


@st.composite
def table_cases(draw):
    m = draw(st.integers(1, 5))
    var_count = draw(st.integers(1, 3))
    spc = space(m, var_count)
    table = draw(st.integers(0, spc.full))
    axis = draw(st.integers(0, var_count - 1))
    return spc, table, axis


def brute_fold(spc, table: int, axis: int, fold) -> int:
    """The quantifier along ``axis``, cell by cell through ``test``."""
    result = 0
    for values in itertools.product(range(spc.m), repeat=spc.var_count):
        column = [
            spc.test(table, values[:axis] + (v,) + values[axis + 1:]) for v in range(spc.m)
        ]
        if fold(column):
            result |= 1 << spc.cell_index(values)
    return result


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_constant_along_matches_exists(case):
    spc, table, axis = case
    assert spc.constant_along(table, axis) == (spc.exists(table, axis) == table)


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_quantifiers_match_brute_force(case):
    spc, table, axis = case
    assert spc.exists(table, axis) == brute_fold(spc, table, axis, any)
    assert spc.forall(table, axis) == brute_fold(spc, table, axis, all)


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_quantified_tables_are_constant_along_their_axis(case):
    spc, table, axis = case
    assert spc.constant_along(spc.exists(table, axis), axis)
    assert spc.constant_along(spc.forall(table, axis), axis)


def test_single_element_universe_is_constant_along_every_axis():
    spc = space(1, 3)
    for table in (0, spc.full):
        assert all(spc.constant_along(table, axis) for axis in range(3))
