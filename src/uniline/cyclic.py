"""Cyclic order on the rational projective line and Möbius orientation.

The projective line is the rationals plus a single point at infinity.  The
ternary orientation predicate extends the linear order: a finite triple is
positively oriented when it is a rotation of an increasing triple, and
``cyclic_orient(p, q, INFINITY)`` holds exactly when ``p < q`` (the unique
rotation-invariant extension for which cutting at infinity recovers the
linear order).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .ordline import format_rational, parse_rational


class _Infinity:
    _instance: "_Infinity | None" = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INFINITY = _Infinity()

ProjPoint = Union[Fraction, _Infinity]


def is_infinite(point: ProjPoint) -> bool:
    return point is INFINITY


def parse_proj_point(text: str) -> ProjPoint:
    if text.strip() == "inf":
        return INFINITY
    return parse_rational(text)


def format_proj_point(point: ProjPoint) -> str:
    if is_infinite(point):
        return "inf"
    return format_rational(point)


def cyclic_orient(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """Positive orientation of a triple of distinct projective points."""
    if same_point(p, q) or same_point(q, r) or same_point(p, r):
        raise ValueError("cyclic orientation requires pairwise-distinct points")
    if is_infinite(r):
        return p < q
    if is_infinite(q):
        return r < p  # rotate to (r, p, inf)
    if is_infinite(p):
        return q < r  # rotate to (q, r, inf)
    return (p < q < r) or (q < r < p) or (r < p < q)


@dataclass(frozen=True)
class LinearizedOrder:
    """The strict total order on the points other than the cut point:
    x precedes y exactly when (cut, x, y) is positively oriented."""

    cut: ProjPoint

    def precedes(self, x: ProjPoint, y: ProjPoint) -> bool:
        for point in (x, y):
            if same_point(point, self.cut):
                raise ValueError("cannot compare the cut point with itself")
        if same_point(x, y):
            return False
        return cyclic_orient(self.cut, x, y)

    def sort(self, points: list[ProjPoint]) -> list[ProjPoint]:
        # sorted() is stable and asks only whether x < y, that is precedes(x, y)
        return sorted(points, key=functools.cmp_to_key(lambda x, y: -1 if self.precedes(x, y) else 0))


def same_point(a: ProjPoint, b: ProjPoint) -> bool:
    if is_infinite(a) or is_infinite(b):
        return is_infinite(a) and is_infinite(b)
    return a == b


def linearize_at(cut: ProjPoint) -> LinearizedOrder:
    return LinearizedOrder(cut)


@dataclass(frozen=True)
class MobiusMap:
    """x -> (a*x + b)/(c*x + d) with nonzero determinant."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.determinant() == 0:
            raise ValueError("Möbius map requires nonzero determinant")

    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __call__(self, point: ProjPoint) -> ProjPoint:
        if is_infinite(point):
            if self.c == 0:
                return INFINITY
            return self.a / self.c
        denominator = self.c * point + self.d
        if denominator == 0:
            return INFINITY
        return (self.a * point + self.b) / denominator


PRESERVES = "preserves"
REVERSES = "reverses"


def mobius_orientation(m: MobiusMap, triples: list[tuple[ProjPoint, ProjPoint, ProjPoint]]) -> str:
    """Orientation verdict over sample triples.

    Every triple must vote the same way (a projective map either preserves
    or reverses all orientations); a split vote means the samples were bad
    and is reported as an error.
    """
    if not triples:
        raise ValueError("at least one sample triple is required")
    votes = set()
    for p, q, r in triples:
        before = cyclic_orient(p, q, r)
        after = cyclic_orient(m(p), m(q), m(r))
        votes.add(before == after)
        if len(votes) > 1:
            raise ValueError("inconsistent orientation votes across sample triples")
    return PRESERVES if votes.pop() else REVERSES
