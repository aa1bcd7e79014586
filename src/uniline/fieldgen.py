"""Field structure on the rational line from an arbitrary choice of 0 and 1.

Once a zero point ``z`` is chosen, each point ``x`` is identified with the
shift taking ``z`` to ``x``; composing shifts induces an addition with
identity ``z``.  Choosing a unit ``u`` then identifies each nonzero point
with a scaling automorphism of the shift group, which induces a
multiplication with identity ``u``.  The closed forms below realize both
inductions exactly:

    add(x, y) = x + y - z
    mul(x, y) = z + (x - z)(y - z)/(u - z)

Different choices of (zero, one) give isomorphic fields; the isomorphism is
the affine map matching the two localizations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ordline import AffineMap, Interval


@dataclass(frozen=True)
class Localization:
    """A chosen (zero, one) pair; the two points must differ."""

    zero: Fraction
    one: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "zero", Fraction(self.zero))
        object.__setattr__(self, "one", Fraction(self.one))
        if self.zero == self.one:
            raise ValueError("localization requires distinct zero and one")


def loc_add(loc: Localization, x: Fraction, y: Fraction) -> Fraction:
    """Apply to y the shift taking the localized zero to x."""
    return x + y - loc.zero


def loc_neg(loc: Localization, x: Fraction) -> Fraction:
    return 2 * loc.zero - x


def loc_sub(loc: Localization, x: Fraction, y: Fraction) -> Fraction:
    return loc_add(loc, x, loc_neg(loc, y))


def loc_mul(loc: Localization, x: Fraction, y: Fraction) -> Fraction:
    """Apply to the shift reaching y the scaling that sends the unit shift
    to the shift reaching x, read back at the localized zero."""
    z = loc.zero
    return z + (x - z) * (y - z) / (loc.one - z)


def loc_inv(loc: Localization, x: Fraction) -> Fraction:
    if x == loc.zero:
        raise ZeroDivisionError("division by localized zero")
    z = loc.zero
    return z + (loc.one - z) ** 2 / (x - z)


def loc_div(loc: Localization, x: Fraction, y: Fraction) -> Fraction:
    return loc_mul(loc, x, loc_inv(loc, y))


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: tuple[Fraction, ...] | None


@dataclass(frozen=True)
class FieldReport:
    checks: tuple[AxiomCheck, ...]
    sample_count: int  # law evaluations made

    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed(self) -> tuple[AxiomCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)


def _grid(loc: Localization) -> tuple[Fraction, ...]:
    """Three distinct points, none of them the localized zero."""
    return tuple(loc.zero + k for k in (1, 2, 3))


def verify_field_axioms(loc: Localization) -> FieldReport:
    """Decide the field axioms exactly, each law on a grid sized by its degrees.

    Once the denominators (u - z)^k, and (x - z) for ``mul_inverse``, are
    cleared, the two sides of each law differ by a polynomial of the stated
    degree in each of x, y and w, 0 where the law does not read it, and one
    that vanishes on degree + 1 values per variable is zero (Alon,
    *Combinatorial Nullstellensatz*, 1999).  So each law runs on the first
    degree + 1 points of ``_grid`` per variable, 41 triples in all, and a
    failing triple, the first in product order, is an exact counterexample.
    The report's ``sample_count`` is the number of law evaluations made.
    """
    grid = _grid(loc)
    z, u = loc.zero, loc.one

    def add(x, y):
        return loc_add(loc, x, y)

    def mul(x, y):
        return loc_mul(loc, x, y)

    # each law's degrees in (x, y, w); after it, the denominator cleared first
    axioms = [
        ("add_associative", (1, 1, 1), lambda x, y, w: add(add(x, y), w) == add(x, add(y, w))),
        ("add_commutative", (1, 1, 0), lambda x, y, w: add(x, y) == add(y, x)),
        ("add_identity", (1, 0, 0), lambda x, y, w: add(z, x) == x),
        ("add_inverse", (1, 0, 0), lambda x, y, w: add(x, loc_neg(loc, x)) == z),
        ("mul_associative", (1, 1, 1), lambda x, y, w: mul(mul(x, y), w) == mul(x, mul(y, w))),  # (u-z)^2
        ("mul_commutative", (1, 1, 0), lambda x, y, w: mul(x, y) == mul(y, x)),  # (u-z)
        ("mul_identity", (1, 0, 0), lambda x, y, w: mul(u, x) == x),  # (u-z)
        ("mul_inverse", (2, 0, 0), lambda x, y, w: mul(x, loc_inv(loc, x)) == u),  # (x-z)(u-z); x != z on the grid
        ("distributive", (1, 1, 1), lambda x, y, w: mul(x, add(y, w)) == add(mul(x, y), mul(x, w))),  # (u-z)
    ]
    checks = []
    evaluations = 0
    for name, degrees, law in axioms:
        triples = list(itertools.product(*(grid[: degree + 1] for degree in degrees)))
        bad = next((triple for triple in triples if not law(*triple)), None)
        evaluations += len(triples) if bad is None else triples.index(bad) + 1
        checks.append(AxiomCheck(name, bad is None, bad))
    return FieldReport(tuple(checks), evaluations)


def localization_iso(first: Localization, second: Localization) -> AffineMap:
    """The unique affine field isomorphism sending one localization to the other.

    Maps zero to zero and one to one, and carries the localized addition and
    multiplication of ``first`` onto those of ``second`` exactly.
    """
    scale = (second.one - second.zero) / (first.one - first.zero)
    return AffineMap(scale, second.zero - scale * first.zero)


def homomorphism_failure(
    first: Localization, second: Localization, iso: AffineMap
) -> tuple[str, Fraction, Fraction] | None:
    """The first grid pair at which ``iso`` fails to carry the addition or the
    multiplication of ``first`` onto that of ``second``, as (op, x, y).

    Under an affine map both laws have degree at most 1 in each of x and y,
    so ``None`` from the 2x2 grid of the first two ``_grid`` points means a
    homomorphism on every rational pair.
    """
    for x, y in itertools.product(_grid(first)[:2], repeat=2):
        if iso(loc_add(first, x, y)) != loc_add(second, iso(x), iso(y)):
            return ("add", x, y)
        if iso(loc_mul(first, x, y)) != loc_mul(second, iso(x), iso(y)):
            return ("mul", x, y)
    return None


def stretch_map(loc: Localization, a: Fraction) -> AffineMap:
    """Multiplication by ``a`` as an affine operator fixing the localized zero."""
    if a == loc.zero:
        raise ValueError("degenerate stretch: factor equals localized zero")
    z = loc.zero
    slope = (a - z) / (loc.one - z)
    return AffineMap(slope, z - slope * z)


def stretch_image(loc: Localization, a: Fraction, interval: Interval) -> Interval:
    """Image of a half-open interval under multiplication by ``a``.

    Order-preserving factors map [lo, hi) to [m(lo), m(hi)); order-reversing
    factors swap the endpoints (the pointwise image is then open on the left
    and closed on the right; the result is reported in the canonical
    left-closed form).
    """
    m = stretch_map(loc, a)
    lo, hi = m(interval.lo), m(interval.hi)
    if m.slope > 0:
        return Interval(lo, hi)
    return Interval(hi, lo)


@dataclass(frozen=True)
class OrderReport:
    positives_closed_add: AxiomCheck
    positives_closed_mul: AxiomCheck
    negation_reverses: AxiomCheck

    def all_passed(self) -> bool:
        return (
            self.positives_closed_add.passed
            and self.positives_closed_mul.passed
            and self.negation_reverses.passed
        )


def _positive_failure(loc: Localization, law) -> tuple[Fraction, Fraction] | None:
    """A pair of positives that ``law`` does not send to a positive, or None.

    h(s, t) = law(z+s, z+t) - z has degree at most 1 in each of s and t, so
    h = a + b*s + c*t + d*s*t with the coefficients read off {0, 1}^2, and
    h > 0 for all s, t > 0 exactly when a, b, c and d are >= 0 and not all
    zero.  For a negative coefficient k, with e = |k| / (2 * the sum of the
    |coefficients|), h < 0 at (e, e), (1/e, e), (e, 1/e) or (1/e, 1/e) when
    k is a, b, c or d.
    """
    z = loc.zero

    def h(s, t):
        return law(loc, z + s, z + t) - z

    a = h(0, 0)
    b = h(1, 0) - a
    c = h(0, 1) - a
    d = h(1, 1) - a - b - c
    coefficients = (a, b, c, d)
    if min(coefficients) >= 0 and any(coefficients):
        return None
    total = sum(abs(k) for k in coefficients)
    for k, (s, t) in zip(coefficients, ((1, 1), (-1, 1), (1, -1), (-1, -1))):
        if k < 0:
            e = -k / (2 * total)
            return z + e**s, z + e**t
    return z + 1, z + 1  # h is identically zero


def order_compatibility(loc: Localization) -> OrderReport:
    """Positivity and sign-reversal laws for a positively oriented localization.

    The positives are the points above the localized zero; they must be
    closed under the localized addition and multiplication.  Multiplying by
    the additive inverse of the unit must reverse the order (an order
    anti-isomorphism).  All three are decided exactly, each failure with a
    pair that fails again when evaluated: the closure laws by
    ``_positive_failure``, and the reversal by the pair (z, z+1), z the
    localized zero, since multiplying by a fixed point is affine.
    """
    if loc.one <= loc.zero:
        raise ValueError("order checks require a positively oriented localization (one > zero)")
    neg_one = loc_neg(loc, loc.one)
    closed_add = _positive_failure(loc, loc_add)
    closed_mul = _positive_failure(loc, loc_mul)
    lo, hi = loc.zero, loc.zero + 1
    reverses = None if loc_mul(loc, neg_one, lo) > loc_mul(loc, neg_one, hi) else (lo, hi)
    return OrderReport(
        AxiomCheck("positives_closed_add", closed_add is None, closed_add),
        AxiomCheck("positives_closed_mul", closed_mul is None, closed_mul),
        AxiomCheck("negation_reverses", reverses is None, reverses),
    )
