from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniline import fieldgen
from uniline.fieldgen import (
    Localization,
    homomorphism_failure,
    loc_add,
    loc_div,
    loc_inv,
    loc_mul,
    loc_neg,
    loc_sub,
    localization_iso,
    order_compatibility,
    stretch_image,
    stretch_map,
    verify_field_axioms,
)
from uniline.ordline import AffineMap, Interval, point_shift_correspondence

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
localizations = st.builds(
    lambda z, d: Localization(z, z + d),
    rationals,
    rationals.filter(lambda q: q != 0),
)

L01 = Localization(Fraction(0), Fraction(1))
L13 = Localization(Fraction(1), Fraction(3))
L02 = Localization(Fraction(0), Fraction(2))


class TestLocalizedAddition:
    def test_standard(self):
        assert loc_add(L01, Fraction(2), Fraction(3)) == 5

    def test_shifted_zero(self):
        # oracle: compose the shifts taking z to x and z to y, read at z;
        # with z=1: s_x = (+1), s_y = (+2), s_x(y) = 3 + 1 = 4
        assert loc_add(L13, Fraction(2), Fraction(3)) == 4

    @given(localizations, rationals)
    def test_identity(self, loc, x):
        assert loc_add(loc, loc.zero, x) == x

    @given(localizations, rationals, rationals, rationals)
    def test_associative(self, loc, x, y, w):
        assert loc_add(loc, loc_add(loc, x, y), w) == loc_add(loc, x, loc_add(loc, y, w))

    @given(localizations, rationals, rationals)
    def test_commutative(self, loc, x, y):
        assert loc_add(loc, x, y) == loc_add(loc, y, x)

    @given(localizations, rationals)
    def test_inverse(self, loc, x):
        assert loc_add(loc, x, loc_neg(loc, x)) == loc.zero

    @given(localizations, rationals, rationals)
    def test_subtraction(self, loc, x, y):
        assert loc_add(loc, loc_sub(loc, x, y), y) == x

    @given(localizations, rationals, rationals)
    def test_addition_is_shift_composition(self, loc, x, y):
        as_shift = point_shift_correspondence(loc.zero).to_shift
        assert as_shift(x).compose(as_shift(y)) == as_shift(loc_add(loc, x, y))


class TestLocalizedMultiplication:
    def test_standard(self):
        assert loc_mul(L01, Fraction(2), Fraction(3)) == 6

    def test_scaled_unit(self):
        # oracle: scaling automorphism t -> t*(x-z)/(u-z) applied to the
        # shift (+3), read back at z=0 with u=2: 3 * (2/2) ... -> 3
        assert loc_mul(L02, Fraction(2), Fraction(3)) == 3

    def test_shifted_positive_product(self):
        # closed form: 1 + (1*1)/2 = 3/2
        assert loc_mul(L13, Fraction(2), Fraction(2)) == Fraction(3, 2)

    @given(localizations, rationals, rationals, rationals)
    def test_associative(self, loc, x, y, w):
        assert loc_mul(loc, loc_mul(loc, x, y), w) == loc_mul(loc, x, loc_mul(loc, y, w))

    @given(localizations, rationals, rationals)
    def test_commutative(self, loc, x, y):
        assert loc_mul(loc, x, y) == loc_mul(loc, y, x)

    @given(localizations, rationals)
    def test_unit_law(self, loc, x):
        assert loc_mul(loc, loc.one, x) == x

    @given(localizations, rationals)
    def test_inverse(self, loc, x):
        if x != loc.zero:
            assert loc_mul(loc, x, loc_inv(loc, x)) == loc.one
            assert loc_div(loc, loc.one, x) == loc_inv(loc, x)

    def test_inverse_at_zero_rejected(self):
        with pytest.raises(ZeroDivisionError, match="localized zero"):
            loc_inv(L13, Fraction(1))

    @given(localizations, rationals, rationals, rationals)
    def test_distributivity(self, loc, x, y, w):
        left = loc_mul(loc, x, loc_add(loc, y, w))
        right = loc_add(loc, loc_mul(loc, x, y), loc_mul(loc, x, w))
        assert left == right


class TestFieldReport:
    def test_standard_localization_passes(self):
        report = verify_field_axioms(L01)
        assert report.all_passed()
        assert report.sample_count == 41

    def test_awkward_localization_passes(self):
        report = verify_field_axioms(Localization(Fraction(-7, 3), Fraction(5, 2)))
        assert report.all_passed()
        assert not report.failed()

    def test_degenerate_localization_unconstructible(self):
        with pytest.raises(ValueError, match="distinct"):
            Localization(Fraction(1), Fraction(1))

    def test_axiom_names_stable(self):
        report = verify_field_axioms(L01)
        assert [c.name for c in report.checks] == [
            "add_associative",
            "add_commutative",
            "add_identity",
            "add_inverse",
            "mul_associative",
            "mul_commutative",
            "mul_identity",
            "mul_inverse",
            "distributive",
        ]


class TestExactDecision:
    # each law's degrees in (x, y, w), as the ``verify_field_axioms`` docstring states them
    DEGREES = {
        "add_associative": (1, 1, 1),
        "add_commutative": (1, 1, 0),
        "add_identity": (1, 0, 0),
        "add_inverse": (1, 0, 0),
        "mul_associative": (1, 1, 1),
        "mul_commutative": (1, 1, 0),
        "mul_identity": (1, 0, 0),
        "mul_inverse": (2, 0, 0),
        "distributive": (1, 1, 1),
    }

    def test_sample_count_is_the_law_evaluations_made(self, monkeypatch):
        assert verify_field_axioms(L13).sample_count == 41
        monkeypatch.setattr(fieldgen, "loc_mul", lambda loc, x, y: loc_mul(loc, x, y) + (x - y))
        report = verify_field_axioms(L13)
        grid = fieldgen._grid(L13)
        made = 0
        for check in report.checks:
            triples = list(itertools.product(*(grid[: d + 1] for d in self.DEGREES[check.name])))
            made += triples.index(check.counterexample) + 1 if check.counterexample else len(triples)
        assert report.failed() and report.sample_count == made < 41

    def test_broken_multiplication_caught_with_rechecked_counterexamples(self, monkeypatch):
        def skewed(loc, x, y):
            # degree 1 in each variable, like the real law, but not commutative
            return loc_mul(loc, x, y) + (x - y)

        monkeypatch.setattr(fieldgen, "loc_mul", skewed)
        loc = L13
        report = verify_field_axioms(loc)
        failed = {check.name: check.counterexample for check in report.failed()}

        def mul(x, y):
            return skewed(loc, x, y)

        laws = {
            "mul_associative": lambda x, y, w: mul(mul(x, y), w) == mul(x, mul(y, w)),
            "mul_commutative": lambda x, y, w: mul(x, y) == mul(y, x),
            "mul_identity": lambda x, y, w: mul(loc.one, x) == x,
            "mul_inverse": lambda x, y, w: mul(x, loc_inv(loc, x)) == loc.one,
            "distributive": lambda x, y, w: mul(x, loc_add(loc, y, w))
            == loc_add(loc, mul(x, y), mul(x, w)),
        }
        assert "mul_commutative" in failed
        assert set(failed) <= set(laws)
        for name, triple in failed.items():
            assert len(triple) == 3 and loc.zero not in triple
            assert not laws[name](*triple), name

    def test_broken_addition_caught_on_the_reduced_grid_with_rechecked_counterexamples(self, monkeypatch):
        def skewed(loc, x, y):
            # degree 1 in each variable, like the real law, but not commutative
            return loc_add(loc, x, y) + (x - y) / 2

        monkeypatch.setattr(fieldgen, "loc_add", skewed)
        loc = L13
        report = verify_field_axioms(loc)
        failed = {check.name: check.counterexample for check in report.failed()}

        def add(x, y):
            return skewed(loc, x, y)

        def mul(x, y):
            return loc_mul(loc, x, y)

        # the laws that read the addition, with their degrees in (x, y, w)
        laws = {
            "add_associative": ((1, 1, 1), lambda x, y, w: add(add(x, y), w) == add(x, add(y, w))),
            "add_commutative": ((1, 1, 0), lambda x, y, w: add(x, y) == add(y, x)),
            "add_identity": ((1, 0, 0), lambda x, y, w: add(loc.zero, x) == x),
            "add_inverse": ((1, 0, 0), lambda x, y, w: add(x, loc_neg(loc, x)) == loc.zero),
            "distributive": ((1, 1, 1), lambda x, y, w: mul(x, add(y, w)) == add(mul(x, y), mul(x, w))),
        }
        assert {"add_associative", "add_commutative", "add_identity"} <= set(failed) <= set(laws)
        grid = fieldgen._grid(loc)
        for name, triple in failed.items():
            degrees, law = laws[name]
            assert len(triple) == 3
            assert all(value in grid[: degree + 1] for value, degree in zip(triple, degrees)), name
            assert not law(*triple), name

    def test_correct_iso_has_no_failure(self):
        assert homomorphism_failure(L01, L13, localization_iso(L01, L13)) is None

    def test_wrong_iso_fails_on_the_grid(self):
        wrong = AffineMap(Fraction(3), Fraction(1))
        op, x, y = homomorphism_failure(L01, L13, wrong)
        assert op == "mul"
        assert wrong(loc_mul(L01, x, y)) != loc_mul(L13, wrong(x), wrong(y))

    def test_broken_multiplication_caught_past_the_first_grid_pair(self, monkeypatch):
        first, second = L01, L13
        z = first.zero

        def skewed(loc, x, y):
            # 0 at the first grid pair (z+1, z+1), 1 at the second (z+1, z+2)
            return loc_mul(loc, x, y) + ((x - z - 1) + (y - z - 1) if loc == first else 0)

        monkeypatch.setattr(fieldgen, "loc_mul", skewed)
        iso = localization_iso(first, second)
        assert homomorphism_failure(first, second, iso) == ("mul", z + 1, z + 2)
        assert iso(skewed(first, z + 1, z + 2)) != skewed(second, iso(z + 1), iso(z + 2))


class TestLocalizationIso:
    def test_example(self):
        iso = localization_iso(L01, L13)
        assert iso(Fraction(0)) == 1
        assert iso(Fraction(1)) == 3
        assert iso.slope == 2 and iso.offset == 1

    def test_identity_when_equal(self):
        assert localization_iso(L13, L13).is_identity()

    def test_homomorphism_spot_check(self):
        iso = localization_iso(L01, L13)
        assert iso(loc_add(L01, Fraction(2), Fraction(3))) == loc_add(L13, iso(Fraction(2)), iso(Fraction(3)))
        assert iso(Fraction(5)) == 11

    @given(localizations, localizations, rationals, rationals)
    def test_field_isomorphism(self, first, second, x, y):
        iso = localization_iso(first, second)
        assert iso(first.zero) == second.zero
        assert iso(first.one) == second.one
        assert iso(loc_add(first, x, y)) == loc_add(second, iso(x), iso(y))
        assert iso(loc_mul(first, x, y)) == loc_mul(second, iso(x), iso(y))

    @given(localizations, localizations)
    def test_bijective(self, first, second):
        iso = localization_iso(first, second)
        back = localization_iso(second, first)
        assert iso.compose(back).is_identity()
        assert back.compose(iso).is_identity()


class TestStretch:
    def test_unit_interval_scaling(self):
        assert stretch_image(L01, Fraction(3), Interval(Fraction(0), Fraction(1))) == Interval(
            Fraction(0), Fraction(3)
        )

    def test_identity_factor(self):
        box = Interval(Fraction(-1), Fraction(4))
        assert stretch_image(L01, Fraction(1), box) == box

    def test_compression(self):
        assert stretch_image(L01, Fraction(1, 2), Interval(Fraction(0), Fraction(1))) == Interval(
            Fraction(0), Fraction(1, 2)
        )

    def test_negative_factor_reverses(self):
        image = stretch_image(L01, Fraction(-2), Interval(Fraction(0), Fraction(1)))
        assert image == Interval(Fraction(-2), Fraction(0))

    def test_degenerate_factor_rejected(self):
        with pytest.raises(ValueError, match="degenerate stretch"):
            stretch_image(L01, Fraction(0), Interval(Fraction(0), Fraction(1)))

    @given(localizations, rationals, rationals, rationals)
    def test_stretch_is_order_isomorphism_or_reversal(self, loc, a, p, q):
        if a == loc.zero or p == q:
            return
        m = stretch_map(loc, a)
        lo, hi = min(p, q), max(p, q)
        if (a > loc.zero) == (loc.one > loc.zero):
            assert m(lo) < m(hi)
        else:
            assert m(lo) > m(hi)

    @given(localizations, rationals)
    def test_stretch_fixes_zero(self, loc, a):
        if a != loc.zero:
            assert stretch_map(loc, a)(loc.zero) == loc.zero


class TestOrderCompatibility:
    def test_standard(self):
        report = order_compatibility(L01)
        assert report.all_passed()

    def test_shifted(self):
        report = order_compatibility(L13)
        assert report.all_passed()

    def test_sign_reversal_example(self):
        neg_one = loc_neg(L01, Fraction(1))
        assert loc_mul(L01, neg_one, Fraction(2)) == -2
        assert loc_mul(L01, neg_one, Fraction(3)) == -3

    def test_positives_closed_example(self):
        assert loc_add(L01, Fraction(2), Fraction(3)) == 5
        assert loc_mul(L01, Fraction(2), Fraction(3)) == 6

    def test_requires_positive_orientation(self):
        with pytest.raises(ValueError, match="positively oriented"):
            order_compatibility(Localization(Fraction(1), Fraction(0)))

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda loc, x, y: loc_mul(loc, x, y) - 1,
            lambda loc, x, y: loc_mul(loc, x, y) - 5 * (x - loc.zero),
            lambda loc, x, y: loc_mul(loc, x, y) - 5 * (y - loc.zero),
            lambda loc, x, y: loc_neg(loc, loc_mul(loc, x, y)),
            lambda loc, x, y: loc.zero,
        ],
        ids=["constant", "s-term", "t-term", "st-term", "zero"],
    )
    def test_non_positive_multiplication_caught_with_rechecked_pair(self, monkeypatch, mutant):
        monkeypatch.setattr(fieldgen, "loc_mul", mutant)
        report = order_compatibility(L13)
        check = report.positives_closed_mul
        assert not check.passed
        p, q = check.counterexample
        assert p > L13.zero and q > L13.zero
        assert mutant(L13, p, q) <= L13.zero
        assert report.positives_closed_add.passed

    def test_order_preserving_negation_caught(self, monkeypatch):
        monkeypatch.setattr(fieldgen, "loc_neg", lambda loc, x: x)
        check = order_compatibility(L13).negation_reverses
        assert not check.passed
        lo, hi = check.counterexample
        assert lo < hi and not loc_mul(L13, L13.one, lo) > loc_mul(L13, L13.one, hi)

    @given(st.tuples(rationals, rationals, rationals, rationals))
    def test_bilinear_laws_decided_exactly(self, coefficients):
        a, b, c, d = coefficients
        z = L13.zero

        def law(loc, x, y):
            s, t = x - z, y - z
            return z + a + b * s + c * t + d * s * t

        pair = fieldgen._positive_failure(L13, law)
        assert (pair is None) == (min(coefficients) >= 0 and any(coefficients))
        if pair is not None:
            assert min(pair) > z
            assert law(L13, *pair) <= z

    @given(localizations, rationals, rationals)
    def test_negated_unit_reverses_order(self, loc, p, q):
        if p == q:
            return
        neg_one = loc_neg(loc, loc.one)
        lo, hi = min(p, q), max(p, q)
        assert loc_mul(loc, neg_one, lo) > loc_mul(loc, neg_one, hi)
