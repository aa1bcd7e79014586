from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from uniline.formulas import semantic_items
from uniline.structures import FiniteStructure, Signature, _positions
from uniline.tables import element_masks, space

from oracles import constant_along


@st.composite
def table_cases(draw):
    m = draw(st.integers(1, 5))
    var_count = draw(st.integers(1, 3))
    spc = space(m, var_count)
    table = draw(st.integers(0, spc.full))
    axis = draw(st.integers(0, var_count - 1))
    return spc, table, axis


def brute_fold(spc, table: int, axis: int, fold) -> int:
    """The quantifier along ``axis``, cell by cell."""
    result = 0
    for values in itertools.product(range(spc.m), repeat=spc.var_count):
        column = [
            table >> spc.cell_index(values[:axis] + (v,) + values[axis + 1:]) & 1 for v in range(spc.m)
        ]
        if fold(column):
            result |= 1 << spc.cell_index(values)
    return result


@settings(max_examples=300, deadline=None)
@given(table_cases())
def test_constant_along_matches_exists(case):
    spc, table, axis = case
    assert constant_along(spc, table, axis) == (spc.exists(table, axis) == table)


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
    assert constant_along(spc, spc.exists(table, axis), axis)
    assert constant_along(spc, spc.forall(table, axis), axis)


def test_single_element_universe_is_constant_along_every_axis():
    spc = space(1, 3)
    for table in (0, spc.full):
        assert all(constant_along(spc, table, axis) for axis in range(3))


@st.composite
def relation_cases(draw):
    """A space, a universe whose names are not in position order, a relation
    of arity 1-3 over it and the axes of its arguments, which may repeat."""
    m = draw(st.integers(1, 4))
    var_count = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 3))
    axes = tuple(draw(st.lists(st.integers(0, var_count - 1), min_size=arity, max_size=arity)))
    universe = tuple(draw(st.permutations([f"e{k}" for k in range(m)])))
    values = st.tuples(*[st.sampled_from(universe)] * arity)
    tuples = frozenset(draw(st.lists(values, max_size=m**arity)))
    return space(m, var_count), universe, tuples, axes


@settings(max_examples=300, deadline=None)
@given(relation_cases())
# e(x1,x1) on a 2-cycle with a loop: the rows of a repeated axis meet only on the diagonal
@example((space(3, 2), ("a", "b", "c"), frozenset({("a", "b"), ("b", "a"), ("c", "c")}), (0, 0)))
# r(y2,x1,y2) on one element: one cell, full or empty
@example((space(1, 3), ("a",), frozenset({("a", "a", "a")}), (2, 0, 2)))
@example((space(1, 2), ("a",), frozenset(), (1,)))
def test_relation_table_matches_cell_by_cell(case):
    spc, universe, tuples, axes = case
    expected = 0
    for values in itertools.product(range(spc.m), repeat=spc.var_count):
        if tuple(universe[values[axis]] for axis in axes) in tuples:
            expected |= 1 << spc.cell_index(values)
    assert spc.relation_table(tuples, axes, element_masks(spc, universe)) == expected


def test_semantic_items_never_reads_relation_positions():
    """The scan builds its relation tables from element names: it never asks
    for the element-to-position map, under whatever name it imports it."""
    structure = FiniteStructure.build(
        Signature.of(p=1, e=2, r=3),
        ["b", "a"],
        {"p": [("b",)], "e": [("a", "b")], "r": [("a", "a", "b"), ("b", "a", "b")]},
    )
    before = _positions.cache_info()
    assert len(list(semantic_items(structure, 1, 2))) > 0
    after = _positions.cache_info()
    assert after.hits + after.misses == before.hits + before.misses
