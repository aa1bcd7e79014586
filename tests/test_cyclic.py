from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniline.cyclic import (
    INFINITY,
    MobiusMap,
    PRESERVES,
    REVERSES,
    cyclic_orient,
    format_proj_point,
    is_infinite,
    linearize_at,
    mobius_orientation,
    parse_proj_point,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)

SAMPLE_POINTS = [
    Fraction(-5),
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(7),
    Fraction(10),
    INFINITY,
]


def distinct_triples(points):
    return itertools.permutations(points, 3)


class TestCyclicOrient:
    def test_sorted_triple(self):
        assert cyclic_orient(Fraction(1), Fraction(2), Fraction(3)) is True

    def test_rotation_invariance_example(self):
        assert cyclic_orient(Fraction(2), Fraction(3), Fraction(1)) is True

    def test_infinity_rule(self):
        assert cyclic_orient(Fraction(1), Fraction(3), INFINITY) is True
        assert cyclic_orient(Fraction(3), Fraction(1), INFINITY) is False

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            cyclic_orient(Fraction(1), Fraction(1), Fraction(2))
        with pytest.raises(ValueError):
            cyclic_orient(INFINITY, Fraction(1), INFINITY)

    def test_rotation_invariance_exhaustive(self):
        for p, q, r in distinct_triples(SAMPLE_POINTS[:6] + [INFINITY]):
            assert cyclic_orient(p, q, r) == cyclic_orient(q, r, p) == cyclic_orient(r, p, q)

    def test_asymmetry(self):
        for p, q, r in distinct_triples(SAMPLE_POINTS[:6] + [INFINITY]):
            assert cyclic_orient(p, q, r) != cyclic_orient(p, r, q)

    @given(rationals, rationals, rationals)
    def test_finite_triples_match_sorting(self, p, q, r):
        if len({p, q, r}) != 3:
            return
        expected = (p < q < r) or (q < r < p) or (r < p < q)
        assert cyclic_orient(p, q, r) == expected


class TestLinearize:
    def test_at_infinity_is_linear_order(self):
        order = linearize_at(INFINITY)
        finite = [p for p in SAMPLE_POINTS if not is_infinite(p)]
        for x, y in itertools.permutations(finite, 2):
            assert order.precedes(x, y) == (x < y)

    def test_at_zero(self):
        order = linearize_at(Fraction(0))
        assert order.precedes(Fraction(1), Fraction(2))
        assert order.precedes(Fraction(2), Fraction(-1))

    def test_total_and_transitive_everywhere(self):
        def same(a, b):
            if is_infinite(a) or is_infinite(b):
                return is_infinite(a) and is_infinite(b)
            return a == b

        for cut in SAMPLE_POINTS:
            order = linearize_at(cut)
            rest = [p for p in SAMPLE_POINTS if not same(p, cut)]
            for x, y in itertools.permutations(rest, 2):
                assert order.precedes(x, y) != order.precedes(y, x)
            for x, y, z in itertools.permutations(rest, 3):
                if order.precedes(x, y) and order.precedes(y, z):
                    assert order.precedes(x, z)

    def test_sort(self):
        order = linearize_at(Fraction(0))
        out = order.sort([Fraction(2), Fraction(-1), Fraction(1)])
        assert out == [Fraction(1), Fraction(2), Fraction(-1)]

    @given(
        st.sampled_from(SAMPLE_POINTS),
        st.lists(st.sampled_from(SAMPLE_POINTS) | rationals, max_size=30),
    )
    def test_sort_is_stable_and_ordered(self, cut, drawn):
        # fresh objects, so that equal points can be told apart by identity
        points = [p if is_infinite(p) else Fraction(p.numerator, p.denominator) for p in drawn]
        points = [p for p in points if p != cut]
        order = linearize_at(cut)
        remaining = list(range(len(points)))
        indices = []
        for q in order.sort(points):
            i = next(i for i in remaining if points[i] is q)
            remaining.remove(i)
            indices.append(i)
        assert not remaining
        for i, j in zip(indices, indices[1:]):
            assert not order.precedes(points[j], points[i])
            if points[i] == points[j]:
                assert i < j
        with pytest.raises(ValueError):
            order.sort(points + [cut])

    def test_cut_point_rejected(self):
        order = linearize_at(Fraction(0))
        with pytest.raises(ValueError):
            order.precedes(Fraction(0), Fraction(1))


class TestMobius:
    def test_translation_preserves(self):
        m = MobiusMap(Fraction(1), Fraction(1), Fraction(0), Fraction(1))
        triples = list(distinct_triples(SAMPLE_POINTS[:5]))
        assert mobius_orientation(m, triples) == PRESERVES

    def test_inversion_reverses(self):
        m = MobiusMap(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
        triples = [t for t in distinct_triples(SAMPLE_POINTS) if all(not is_infinite(p) for p in t)]
        assert mobius_orientation(m, triples[:40]) == REVERSES

    def test_negation_reverses(self):
        m = MobiusMap(Fraction(-1), Fraction(0), Fraction(0), Fraction(1))
        triples = list(distinct_triples([Fraction(0), Fraction(1), Fraction(2), Fraction(5)]))
        assert mobius_orientation(m, triples) == REVERSES

    def test_pole_handling(self):
        m = MobiusMap(Fraction(0), Fraction(1), Fraction(1), Fraction(0))  # 1/x
        assert is_infinite(m(Fraction(0)))
        assert m(INFINITY) == Fraction(0)
        affine = MobiusMap(Fraction(2), Fraction(1), Fraction(0), Fraction(1))
        assert is_infinite(affine(INFINITY))

    def test_degenerate_map_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            MobiusMap(Fraction(1), Fraction(2), Fraction(2), Fraction(4))

    def test_orientation_matches_determinant_sign(self):
        points = [Fraction(-2), Fraction(0), Fraction(1), Fraction(3), INFINITY]
        triples = list(distinct_triples(points))
        for a, b, c, d in [(1, 2, 0, 1), (2, 1, 1, 1), (0, 1, -1, 0), (1, 0, 3, -1), (-2, 1, 1, 2)]:
            m = MobiusMap(Fraction(a), Fraction(b), Fraction(c), Fraction(d))
            verdict = mobius_orientation(m, triples)
            assert verdict == (PRESERVES if m.determinant() > 0 else REVERSES)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            mobius_orientation(MobiusMap(Fraction(1), Fraction(0), Fraction(0), Fraction(1)), [])


class TestParsing:
    def test_round_trip(self):
        assert parse_proj_point("inf") is INFINITY
        assert parse_proj_point("3/7") == Fraction(3, 7)
        assert format_proj_point(INFINITY) == "inf"
        assert format_proj_point(Fraction(3, 7)) == "3/7"
