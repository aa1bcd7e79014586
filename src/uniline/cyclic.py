"""Cyclic order on the rational projective line and Möbius orientation.

The projective line is the rationals plus a single point at infinity.  The
ternary orientation predicate extends the linear order: a finite triple is
positively oriented when it is a rotation of an increasing triple, and
``cyclic_orient(p, q, INFINITY)`` holds exactly when ``p < q`` (the unique
rotation-invariant extension for which cutting at infinity recovers the
linear order).
"""

from __future__ import annotations

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


def _position(cut: ProjPoint, x: ProjPoint) -> tuple:
    """The sort key of a point x other than ``cut`` in the order cut there:
    the points above a finite cut, then infinity, then the points below it;
    every finite point in increasing order when the cut is infinity."""
    if is_infinite(x):
        return (1, 0)
    if is_infinite(cut) or x > cut:
        return (0, x)
    return (2, x)


def cyclic_orient(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """Positive orientation of a triple of distinct projective points: q
    comes before r in the order cut at p."""
    if p == q or q == r or p == r:  # a Fraction never equals INFINITY
        raise ValueError("cyclic orientation requires pairwise-distinct points")
    return _position(p, q) < _position(p, r)


@dataclass(frozen=True)
class LinearizedOrder:
    """The strict total order on the points other than the cut point:
    x precedes y exactly when (cut, x, y) is positively oriented."""

    cut: ProjPoint

    def precedes(self, x: ProjPoint, y: ProjPoint) -> bool:
        if x == self.cut or y == self.cut:
            raise ValueError("cannot compare the cut point with itself")
        return _position(self.cut, x) < _position(self.cut, y)

    def sort(self, points: list[ProjPoint]) -> list[ProjPoint]:
        """The points in this order; equal points keep their input order."""
        if self.cut in points:
            raise ValueError("cannot compare the cut point with itself")
        return sorted(points, key=lambda x: _position(self.cut, x))


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
