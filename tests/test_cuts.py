from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniline.cuts import (
    ALL,
    CONNECTED_EVIDENCE,
    DISCONNECTED,
    DOWNWARD,
    EMPTY,
    GAP,
    MAX_BOUND,
    PRINCIPAL,
    UPWARD,
    CutError,
    CutOracle,
    NonMonotoneOracleError,
    Ray,
    classify_cut,
    connectivity_probe,
    galois_closure_check,
    lower_set,
    oracle_le,
    oracle_lt,
    oracle_sq_lt,
    ray_lower,
    ray_upper,
    upper_set,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)
finite_sets = st.lists(rationals, min_size=1, max_size=8)

# each built-in oracle beside the plain Fraction predicate it decides
FRACTION_PREDICATES = {
    "lt": (oracle_lt, lambda t: lambda q: q < t),
    "le": (oracle_le, lambda t: lambda q: q <= t),
    "sq-lt": (oracle_sq_lt, lambda t: lambda q: q < 0 or q * q < t),
}
targets = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**5)
oracle_cases = st.one_of(
    st.tuples(st.sampled_from(["lt", "le"]), targets),
    st.tuples(st.just("sq-lt"), targets.map(abs).filter(lambda t: t > 0)),
)


# membership of each kind of ray, written out from its definition
DEFINITIONS = {
    (UPWARD, False): lambda x, e: x > e,
    (UPWARD, True): lambda x, e: x >= e,
    (DOWNWARD, False): lambda x, e: x < e,
    (DOWNWARD, True): lambda x, e: x <= e,
    (ALL, False): lambda x, e: True,
    (EMPTY, False): lambda x, e: False,
}
# few endpoints, so that two drawn rays often share one
rays_of_every_kind = st.one_of(
    st.builds(Ray, st.sampled_from([UPWARD, DOWNWARD]), st.fractions(-3, 3, max_denominator=2), st.booleans()),
    st.sampled_from([Ray(ALL), Ray(EMPTY)]),
)


def defined(ray: Ray, x: Fraction) -> bool:
    return DEFINITIONS[ray.kind, ray.closed](x, ray.endpoint)


def critical_points(*rays: Ray) -> list[Fraction]:
    """Each endpoint, a point between and beyond them, and 0.  A ray's
    membership changes only at its endpoint, so one of these rays contains
    another exactly when it does at these points."""
    ends = [ray.endpoint for ray in rays if ray.endpoint is not None]
    if not ends:
        return [Fraction(0)]
    return [*ends, (min(ends) + max(ends)) / 2, min(ends) - 1, max(ends) + 1, Fraction(0)]


def recorded(oracle: CutOracle) -> tuple[CutOracle, list[Fraction]]:
    """The oracle with a ``member`` that records every point it is asked."""
    asked: list[Fraction] = []
    member = oracle.member

    def query(q: Fraction) -> bool:
        asked.append(q)
        return member(q)

    return dataclasses.replace(oracle, member=query), asked


class TestRays:
    def test_upper_of_finite_set(self):
        ray = upper_set([Fraction(1), Fraction(2), Fraction(3)])
        assert ray == Ray(UPWARD, Fraction(3), closed=False)

    def test_empty_set_gives_all(self):
        assert upper_set([]) == Ray(ALL)
        assert lower_set([]) == Ray(ALL)

    def test_singleton(self):
        assert upper_set([Fraction(0)]) == Ray(UPWARD, Fraction(0))
        assert lower_set([Fraction(0)]) == Ray(DOWNWARD, Fraction(0))

    def test_ray_membership(self):
        ray = Ray(UPWARD, Fraction(1), closed=False)
        assert Fraction(2) in ray
        assert Fraction(1) not in ray
        assert Fraction(1) in Ray(UPWARD, Fraction(1), closed=True)

    def test_ray_validation(self):
        with pytest.raises(ValueError):
            Ray(UPWARD)
        with pytest.raises(ValueError):
            Ray(ALL, Fraction(1))
        with pytest.raises(ValueError):
            Ray("sideways", Fraction(1))

    def test_ray_subset(self):
        assert Ray(UPWARD, Fraction(2)).is_subset(Ray(UPWARD, Fraction(1)))
        assert not Ray(UPWARD, Fraction(1)).is_subset(Ray(UPWARD, Fraction(2)))
        assert Ray(EMPTY).is_subset(Ray(UPWARD, Fraction(5)))
        assert Ray(UPWARD, Fraction(1)).is_subset(Ray(ALL))
        assert Ray(UPWARD, Fraction(1), closed=True).is_subset(Ray(UPWARD, Fraction(0)))
        assert not Ray(UPWARD, Fraction(1), closed=True).is_subset(
            Ray(UPWARD, Fraction(1), closed=False)
        )

    @given(rays_of_every_kind, rays_of_every_kind)
    def test_membership_and_inclusion_by_definition(self, ray, other):
        """Against every ray of each kind and closedness with an endpoint at,
        just below or just above ``ray``'s, and against ``other``."""
        e = Fraction(0) if ray.endpoint is None else ray.endpoint
        partners = [Ray(kind, e + d, closed)
                    for kind in (UPWARD, DOWNWARD) for d in (-1, 0, 1) for closed in (False, True)]
        for partner in (other, Ray(ALL), Ray(EMPTY), *partners):
            points = critical_points(ray, partner)
            for r in (ray, partner):
                assert [x in r for x in points] == [defined(r, x) for x in points], (r, points)
            for a, b in ((ray, partner), (partner, ray)):
                assert a.is_subset(b) == all(defined(b, x) for x in points if defined(a, x)), (a, b)


class TestGalois:
    def test_worked_example(self):
        report = galois_closure_check([Fraction(1), Fraction(2), Fraction(3)])
        assert report.upper == Ray(UPWARD, Fraction(3))
        assert report.upper_lower == Ray(DOWNWARD, Fraction(3), closed=True)
        assert report.upper_lower_upper == report.upper
        assert report.passed()

    def test_singleton(self):
        assert galois_closure_check([Fraction(0)]).passed()

    def test_requires_nonempty(self):
        with pytest.raises(CutError):
            galois_closure_check([])

    @given(finite_sets)
    def test_idempotence_property(self, points):
        assert galois_closure_check(points).passed()

    @given(finite_sets)
    def test_rays_of_a_finite_set(self, points):
        assert upper_set(points) == Ray(UPWARD, max(points))
        assert lower_set(points) == Ray(DOWNWARD, min(points))

    @given(finite_sets, finite_sets)
    def test_antitone(self, smaller, extra):
        bigger = smaller + extra
        assert upper_set(bigger).is_subset(upper_set(smaller))
        assert lower_set(bigger).is_subset(lower_set(smaller))

    def test_ray_operator_table(self):
        assert ray_upper(Ray(EMPTY)) == Ray(ALL)
        assert ray_upper(Ray(ALL)) == Ray(EMPTY)
        assert ray_upper(Ray(UPWARD, Fraction(1))) == Ray(EMPTY)
        assert ray_upper(Ray(DOWNWARD, Fraction(1), closed=True)) == Ray(UPWARD, Fraction(1))
        assert ray_upper(Ray(DOWNWARD, Fraction(1), closed=False)) == Ray(
            UPWARD, Fraction(1), closed=True
        )
        assert ray_lower(Ray(UPWARD, Fraction(1), closed=False)) == Ray(
            DOWNWARD, Fraction(1), closed=True
        )
        assert ray_lower(Ray(EMPTY)) == Ray(ALL)
        assert ray_lower(Ray(ALL)) == Ray(EMPTY)
        assert ray_lower(Ray(DOWNWARD, Fraction(1))) == Ray(EMPTY)
        assert ray_lower(Ray(UPWARD, Fraction(-3, 2), closed=True)) == Ray(DOWNWARD, Fraction(-3, 2))


class TestClassify:
    def test_strict_rational_boundary(self):
        verdict = classify_cut(oracle_lt(Fraction(3, 7)), 10**6)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == Fraction(3, 7)

    def test_closed_rational_boundary(self):
        verdict = classify_cut(oracle_le(Fraction(1, 2)), 10**6)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == Fraction(1, 2)

    def test_sqrt_two_gap(self):
        verdict = classify_cut(oracle_sq_lt(Fraction(2)), 10**6)
        assert verdict.kind == GAP
        lo, hi = verdict.bracket
        assert lo * lo < 2 < hi * hi
        assert lo.denominator + hi.denominator > 10**6

    def test_negative_boundary(self):
        verdict = classify_cut(oracle_lt(Fraction(-22, 7)), 10**4)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == Fraction(-22, 7)

    def test_integer_boundary(self):
        verdict = classify_cut(oracle_le(Fraction(5)), 100)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == 5

    def test_zero_boundary(self):
        assert classify_cut(oracle_lt(Fraction(0)), 100).point == 0
        assert classify_cut(oracle_le(Fraction(0)), 100).point == 0

    def test_monotone_in_bound(self):
        for bound in (10, 1000, 10**6):
            verdict = classify_cut(oracle_lt(Fraction(3, 7)), bound)
            assert verdict.kind == PRINCIPAL and verdict.point == Fraction(3, 7)

    def test_boundary_denominator_beyond_bound_is_gap(self):
        verdict = classify_cut(oracle_lt(Fraction(355, 113)), 50)
        assert verdict.kind == GAP
        lo, hi = verdict.bracket
        assert lo < Fraction(355, 113) <= hi

    def test_rational_square_root_is_principal(self):
        verdict = classify_cut(oracle_sq_lt(Fraction(9, 4)), 10**4)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == Fraction(3, 2)

    def test_principal_point_flips_under_probes(self):
        for oracle in (oracle_lt(Fraction(3, 7)), oracle_le(Fraction(3, 7))):
            verdict = classify_cut(oracle, 10**4)
            p = verdict.point
            for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**7)):
                assert oracle.member(p - eps)
                assert not oracle.member(p + eps)

    def test_random_rational_boundaries(self):
        rng = random.Random(7)
        for _ in range(30):
            num = rng.randint(-9999, 9999)
            den = rng.randint(1, 9999)
            boundary = Fraction(num, den)
            oracle = oracle_lt(boundary) if rng.random() < 0.5 else oracle_le(boundary)
            verdict = classify_cut(oracle, 10**6)
            assert verdict.kind == PRINCIPAL
            assert verdict.point == boundary

    def test_non_monotone_oracle_detected(self):
        bad = CutOracle("broken", lambda q: q > 10, Fraction(0), Fraction(20))
        with pytest.raises(NonMonotoneOracleError) as raised:
            classify_cut(bad, 1000)
        assert str(raised.value) == "oracle 'broken' rejects its declared member 0"

    @pytest.mark.parametrize(
        "oracle, message",
        [
            # the unbounded run doubles past the declared non-member
            (CutOracle("hole", lambda q: q != 20, Fraction(0), Fraction(20)),
             "oracle 'hole' accepts 32 but rejects 20 below it"),
            # the first run along 1/k is accepted above the declared non-member
            (CutOracle("spike", lambda q: q < Fraction(1, 3) or q == Fraction(1, 2), Fraction(0), Fraction(2, 5)),
             "oracle 'spike' accepts 1/2 but rejects 2/5 below it"),
        ],
    )
    def test_consistency_guard_message(self, oracle, message):
        with pytest.raises(NonMonotoneOracleError) as raised:
            classify_cut(oracle, 1000)
        assert str(raised.value) == message

    @given(oracle_cases, st.sampled_from([1, 10, 10**4, 10**6]))
    def test_same_queries_as_fraction_predicate(self, case, bound):
        """A built-in oracle asks exactly the points, in the same order, and
        reaches the same verdict as the plain Fraction predicate it decides."""
        kind, target = case
        constructor, predicate = FRACTION_PREDICATES[kind]
        built, built_asked = recorded(constructor(target))
        reference, reference_asked = recorded(CutOracle(built.name, predicate(target), built.lo, built.hi))
        assert classify_cut(built, bound) == classify_cut(reference, bound)
        assert built_asked == reference_asked

    @given(oracle_cases, st.sampled_from([1, 10, 10**4, 10**6]), st.integers(0, 3), st.integers(0, 3))
    def test_no_point_asked_twice(self, case, bound, below, above):
        """No classification asks the oracle about one point twice: not with
        a built-in oracle's own bounds (``lo`` is 0 for ``sq-lt``), nor with
        integer bounds around them, on which the runs can land."""
        kind, target = case
        built = FRACTION_PREDICATES[kind][0](target)
        widened = dataclasses.replace(built, lo=math.floor(built.lo) - below, hi=math.ceil(built.hi) + above)
        for oracle in (built, widened):
            oracle, asked = recorded(oracle)
            classify_cut(oracle, bound)
            assert len(asked) == len(set(asked)), asked

    def test_queries_and_verdicts_pinned(self):
        """Every point each built-in oracle is asked, in order, and its verdict,
        over a grid of targets and bounds: one digest, so that a change to the
        descent that moves a single query shows."""
        grid = [Fraction(n, d) for n in range(-30, 31) for d in range(1, 6)]
        cases = [(oracle_lt, t) for t in grid] + [(oracle_le, t) for t in grid] + [(oracle_sq_lt, t + 31) for t in grid]
        digest = hashlib.sha256()
        for constructor, target in cases:
            for bound in (1, 10, 10**3, 10**6):
                oracle, asked = recorded(constructor(target))
                verdict = classify_cut(oracle, bound)
                digest.update(f"{oracle.name}|{bound}|{' '.join(map(str, asked))}|{verdict}\n".encode())
        assert digest.hexdigest() == "1d5b04aa630cdc77e350c2d7f69040de2bdecbfcc27b6f3caec7d29c05a9d03a"

    def test_bad_bounds_detected(self):
        with pytest.raises(CutError):
            CutOracle("inverted", lambda q: True, Fraction(1), Fraction(0))
        liar = CutOracle("liar", lambda q: False, Fraction(0), Fraction(1))
        with pytest.raises(NonMonotoneOracleError):
            classify_cut(liar, 100)

    def test_bound_validation(self):
        with pytest.raises(CutError):
            classify_cut(oracle_lt(Fraction(1)), 0)

    def test_bound_above_limit_rejected_before_any_query(self):
        assert classify_cut(oracle_sq_lt(Fraction(2)), MAX_BOUND).kind == GAP
        oracle, asked = recorded(oracle_sq_lt(Fraction(2)))
        with pytest.raises(CutError, match="between 1 and 10"):
            classify_cut(oracle, MAX_BOUND + 1)
        with pytest.raises(CutError, match="between 1 and 10"):
            connectivity_probe([oracle, oracle_lt(Fraction(1, 3))], MAX_BOUND + 1)
        assert asked == []

    @given(st.fractions(min_value=-50, max_value=50, max_denominator=100))
    def test_principal_for_all_small_rationals(self, boundary):
        verdict = classify_cut(oracle_lt(boundary), 10**4)
        assert verdict.kind == PRINCIPAL
        assert verdict.point == boundary


class TestConnectivityProbe:
    def test_gap_witnesses_disconnection(self):
        report = connectivity_probe([oracle_sq_lt(Fraction(2))], 10**6)
        assert report.verdict == DISCONNECTED
        assert report.witness == "sq-lt 2"

    def test_all_principal_is_evidence(self):
        report = connectivity_probe([oracle_lt(Fraction(1, 2)), oracle_lt(Fraction(3, 7))], 10**6)
        assert report.verdict == CONNECTED_EVIDENCE
        assert report.witness is None

    def test_single_trivial_family(self):
        report = connectivity_probe([oracle_lt(Fraction(0))], 10**6)
        assert report.verdict == CONNECTED_EVIDENCE

    def test_empty_family_rejected(self):
        with pytest.raises(CutError):
            connectivity_probe([], 100)

    def test_oracle_errors_propagate(self):
        bad = CutOracle("broken", lambda q: q > 10, Fraction(0), Fraction(20))
        with pytest.raises(NonMonotoneOracleError):
            connectivity_probe([bad], 1000)
