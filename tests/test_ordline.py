from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniline.ordline import (
    IDENTITY,
    MAX_WINDOW,
    LOWERING,
    MIXED,
    RAISING,
    AffineMap,
    Interval,
    Shift,
    classify_displacement,
    commutes,
    factor_through_shift,
    format_affine,
    format_rational,
    parse_affine,
    parse_rational,
    point_shift_correspondence,
    preserves_construct,
    shift_leq,
    shift_measure,
    tile_line,
    tiling_span,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
nonzero_rationals = rationals.filter(lambda q: q != 0)
affine_maps = st.builds(AffineMap, nonzero_rationals, rationals)
shifts = st.builds(Shift, rationals)


class TestRationals:
    def test_parse_and_format(self):
        assert parse_rational("3/7") == Fraction(3, 7)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational(" +6/08 ") == Fraction(3, 4)
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(5)) == "5"

    def test_parse_rejects_garbage(self):
        """Only a sign, ASCII digits and "/" with a nonzero denominator: no
        decimal point, exponent, underscore, other script's digit or base
        prefix, and no integer past Python's 4,300-digit limit."""
        for bad in ("3/0", "x", "1.5", "1e3", "1_0", "\u0663", "0x1", "", "- 3", "3/ 7", "1/2/3", "1" * 4301):
            with pytest.raises(ValueError) as raised:
                parse_rational(bad)
            assert str(raised.value) == f"invalid rational {bad!r}"


class TestAffineAlgebra:
    def test_compose_and_inverse(self):
        f = parse_affine("x + 1")
        g = parse_affine("x + 1/2")
        assert f.compose(g) == parse_affine("x + 3/2")
        assert f.inverse() == parse_affine("x - 1")

    def test_general_inverse(self):
        f = parse_affine("2*x + 1")
        assert f.inverse() == AffineMap(Fraction(1, 2), Fraction(-1, 2))
        assert f.compose(f.inverse()).is_identity()

    def test_double_application(self):
        f = parse_affine("x + 1")
        assert f.compose(f)(Fraction(0)) == 2

    @given(affine_maps, affine_maps, rationals)
    def test_composition_is_application(self, f, g, x):
        assert f.compose(g)(x) == f(g(x))

    @given(affine_maps)
    def test_inverse_round_trip(self, f):
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse().compose(f).is_identity()

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(Fraction(0), Fraction(1))

    def test_parse_format_round_trip(self):
        for text in ("x", "-x", "2*x", "x + 1", "x - 2", "-3/4*x + 1/2", "5*x - 7"):
            assert format_affine(parse_affine(format_affine(parse_affine(text)))) == format_affine(
                parse_affine(text)
            )

    def test_parse_rejects_garbage(self):
        for bad in ("", "y + 1", "x + x", "2*", "1", "1/0*x", "x+1/0", "-3/00*x - 1"):
            with pytest.raises(ValueError) as raised:
                parse_affine(bad)
            assert str(raised.value) == f"invalid affine map {bad!r}"


class TestClassification:
    def test_examples(self):
        assert classify_displacement(parse_affine("x + 1")) == RAISING
        assert classify_displacement(parse_affine("x - 2")) == LOWERING
        assert classify_displacement(parse_affine("x")) == IDENTITY
        # 2x fixes 0 and raises 1, hence mixed
        assert classify_displacement(parse_affine("2*x")) == MIXED

    @given(affine_maps)
    def test_trichotomy_for_shifts_only(self, f):
        kind = classify_displacement(f)
        if f.slope == 1:
            assert kind in (RAISING, IDENTITY, LOWERING)
        else:
            assert kind == MIXED

    @given(affine_maps)
    def test_mixed_maps_have_a_fixed_point_or_cross(self, f):
        if classify_displacement(f) == MIXED:
            crossing = f.offset / (1 - f.slope)
            assert f(crossing) == crossing

    @given(st.builds(Shift, rationals))
    def test_shift_with_fixed_point_is_identity(self, s):
        if s(Fraction(0)) == Fraction(0):
            assert s.is_identity()


class TestCommutation:
    def test_examples(self):
        assert commutes(parse_affine("x + 1"), parse_affine("x + 1/2"))
        assert not commutes(parse_affine("x + 1"), parse_affine("2*x"))
        assert commutes(parse_affine("2*x"), parse_affine("3*x"))

    @given(shifts, shifts)
    def test_shifts_always_commute(self, f, g):
        assert commutes(f.as_affine(), g.as_affine())

    @given(affine_maps, affine_maps)
    def test_commutation_matches_construct_preservation(self, f, g):
        assert preserves_construct(g, f).preserves == commutes(f, g)
        assert preserves_construct(f, g).preserves == commutes(f, g)

    def test_witness_example(self):
        report = preserves_construct(parse_affine("2*x"), parse_affine("x + 1"))
        assert not report.preserves
        assert report.witness.x == 0
        assert report.witness.moved_pair == (Fraction(0), Fraction(2))
        assert report.witness.expected == Fraction(1)

    @given(affine_maps, affine_maps)
    def test_witness_at_zero_always_rechecks(self, f, g):
        report = preserves_construct(g, f)
        if not report.preserves:
            w = report.witness
            assert w.x == 0
            assert w.moved_pair == (g(w.x), g(f(w.x)))
            assert w.expected == f(g(w.x)) != w.moved_pair[1]

    def test_self_preservation(self):
        f = parse_affine("5*x - 3")
        assert preserves_construct(f, f).preserves

    def test_witness_recheck(self):
        f = parse_affine("x + 1")
        g = parse_affine("2*x")
        report = preserves_construct(g, f)
        w = report.witness
        assert g(f(w.x)) == w.moved_pair[1]
        assert f(g(w.x)) == w.expected
        assert w.moved_pair[1] != w.expected


class TestTiling:
    def test_unit_shift(self):
        tiles = tile_line(Shift(Fraction(1)), Fraction(0), 2)
        assert [(t.lo, t.hi) for t in tiles] == [(-2, -1), (-1, 0), (0, 1), (1, 2)]
        assert tiling_span(tiles) == Interval(Fraction(-2), Fraction(2))

    def test_fractional_shift(self):
        tiles = tile_line(Shift(Fraction(2, 3)), Fraction(0), 3)
        assert len(tiles) == 6
        assert all(t.width() == Fraction(2, 3) for t in tiles)
        assert tiling_span(tiles) == Interval(Fraction(-2), Fraction(2))

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            tile_line(Shift(Fraction(0)), Fraction(0), 1)

    def test_window_validated(self):
        with pytest.raises(ValueError):
            tile_line(Shift(Fraction(1)), Fraction(0), 0)

    def test_window_limit(self):
        with pytest.raises(ValueError, match="window must be <= 10000"):
            tile_line(Shift(Fraction(1)), Fraction(0), MAX_WINDOW + 1)
        assert len(tile_line(Shift(Fraction(1)), Fraction(0), MAX_WINDOW)) == 2 * MAX_WINDOW

    @given(st.builds(Shift, nonzero_rationals), rationals, st.integers(1, 40))
    def test_tiles_disjoint_and_adjacent(self, shift, base, window):
        tiles = tile_line(shift, base, window)
        assert len(tiles) == 2 * window
        spatial = sorted(tiles, key=lambda t: t.lo)
        for left, right in zip(spatial, spatial[1:]):
            assert left.hi == right.lo  # exact cover, no gaps or overlap
        assert not any(
            a.intersects(b) for i, a in enumerate(tiles) for b in tiles[i + 1 :]
        )

    @given(st.builds(Shift, nonzero_rationals), rationals, st.integers(1, 20))
    def test_each_tile_maps_to_next(self, shift, base, window):
        tiles = tile_line(shift, base, window)
        for j in range(2 * window - 1):
            lo, hi = tiles[j].lo, tiles[j].hi
            assert {shift(lo), shift(hi)} == {tiles[j + 1].lo, tiles[j + 1].hi}

    @given(st.builds(Shift, nonzero_rationals.map(abs)), st.booleans(), rationals, st.integers(1, 40))
    def test_equals_two_iterates_per_tile(self, shift, lowering, base, window):
        if lowering:
            shift = shift.inverse()
        reference = []
        for j in range(-window, window):
            lo, hi = shift.iterate(j, base), shift.iterate(j + 1, base)
            reference.append(Interval(min(lo, hi), max(lo, hi)))
        assert tile_line(shift, base, window) == reference

    def test_pair_union_identity(self):
        # [c, f(c)) and [f(c), f2(c)) meet exactly at f(c) and join to [c, f2(c))
        f = Shift(Fraction(3, 2))
        c = Fraction(1, 3)
        first = Interval(c, f(c))
        second = Interval(f(c), f(f(c)))
        assert not first.intersects(second)
        assert Interval(first.lo, second.hi).width() == first.width() + second.width()

    def test_endpoints_are_fractions(self):
        half = Fraction(1, 2)
        kept = Interval(half, Fraction(3))
        assert kept.lo is half
        converted = Interval(1, "5/2")
        assert (type(converted.lo), type(converted.hi)) == (Fraction, Fraction)
        assert (converted.lo, converted.hi) == (1, Fraction(5, 2))
        with pytest.raises(ValueError, match="out of order"):
            Interval(2, half)


class TestFactorization:
    def test_examples(self):
        assert factor_through_shift(parse_affine("x + 5"), Shift(Fraction(2)), "left") == parse_affine("x + 3")
        assert factor_through_shift(parse_affine("2*x + 1"), Shift(Fraction(1)), "left") == parse_affine("2*x")

    def test_shift_factors_to_identity(self):
        s = Shift(Fraction(7, 3))
        for side in ("left", "right"):
            assert factor_through_shift(s.as_affine(), s, side).is_identity()

    @given(affine_maps, shifts)
    def test_unique_factorization(self, x, s):
        left = factor_through_shift(x, s, "left")
        right = factor_through_shift(x, s, "right")
        assert s.as_affine().compose(left) == x
        assert right.compose(s.as_affine()) == x

    def test_bad_side(self):
        with pytest.raises(ValueError):
            factor_through_shift(parse_affine("x"), Shift(Fraction(1)), "up")


class TestMeasure:
    def test_integer_division(self):
        result = shift_measure(Shift(Fraction(1)), Interval(Fraction(0), Fraction(7, 2)))
        assert result.count == 3
        assert result.remainder == Interval(Fraction(3), Fraction(7, 2))

    def test_exact_fit(self):
        result = shift_measure(Shift(Fraction(1, 2)), Interval(Fraction(0), Fraction(1)))
        assert result.count == 2
        assert result.remainder.is_empty()

    def test_translation_invariance_example(self):
        f = Shift(Fraction(1))
        a = shift_measure(f, Interval(Fraction(10), Fraction(27, 2)))
        b = shift_measure(f, Interval(Fraction(0), Fraction(7, 2)))
        assert a.count == b.count
        assert a.remainder.width() == b.remainder.width()

    @given(
        st.builds(Shift, rationals.filter(lambda q: q > 0)),
        rationals,
        rationals.filter(lambda q: q > 0),
        rationals,
    )
    def test_translation_invariance(self, f, lo, width, move):
        interval = Interval(lo, lo + width)
        moved = Interval(lo + move, lo + width + move)
        a = shift_measure(f, interval)
        b = shift_measure(f, moved)
        assert a.count == b.count
        assert a.remainder.width() == b.remainder.width()

    def test_rejects_lowering_and_identity(self):
        with pytest.raises(ValueError):
            shift_measure(Shift(Fraction(-1)), Interval(Fraction(0), Fraction(1)))
        with pytest.raises(ValueError):
            shift_measure(Shift(Fraction(0)), Interval(Fraction(0), Fraction(1)))


class TestPointShiftCorrespondence:
    def test_at_zero(self):
        c = point_shift_correspondence(Fraction(0))
        assert c.to_point(Shift(Fraction(3))) == 3
        assert c.to_shift(Fraction(3)) == Shift(Fraction(3))

    def test_at_five(self):
        c = point_shift_correspondence(Fraction(5))
        assert c.to_shift(Fraction(7)) == Shift(Fraction(2))
        assert c.to_point(Shift(Fraction(2))) == 7

    @given(rationals, shifts, rationals)
    def test_mutually_inverse(self, base, shift, point):
        c = point_shift_correspondence(base)
        assert c.to_shift(c.to_point(shift)) == shift
        assert c.to_point(c.to_shift(point)) == point

    @given(rationals, shifts, shifts)
    def test_monotone(self, base, f, g):
        c = point_shift_correspondence(base)
        assert shift_leq(f, g) == (c.to_point(f) <= c.to_point(g))

    def test_monotone_example(self):
        c = point_shift_correspondence(Fraction(0))
        assert shift_leq(Shift(Fraction(1, 2)), Shift(Fraction(1)))
        assert c.to_point(Shift(Fraction(1, 2))) <= c.to_point(Shift(Fraction(1)))


class TestShiftGroup:
    @given(shifts, shifts)
    def test_abelian_closure(self, f, g):
        assert f.compose(g) == g.compose(f)
        assert f.compose(g).as_affine().slope == 1

    @given(shifts)
    def test_inverse_in_group(self, f):
        assert f.compose(f.inverse()) == Shift(Fraction(0))

    @given(affine_maps, affine_maps)
    def test_order_preserving_closed_under_composition(self, f, g):
        if f.order_preserving() and g.order_preserving():
            assert f.compose(g).order_preserving()
            assert f.inverse().order_preserving()


class TestInterval:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))
        assert Interval(Fraction(1), Fraction(1)).is_empty()

    def test_membership(self):
        box = Interval(Fraction(0), Fraction(1))
        assert Fraction(0) in box
        assert Fraction(1) not in box
        assert Fraction(1, 2) in box
