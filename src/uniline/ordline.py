"""Exact affine order-algebra on the rational line.

Rationals are :class:`fractions.Fraction` values (already canonical: reduced,
positive denominator).  Candidate automorphisms of the ordered line are the
affine maps ``x -> a*x + b`` with nonzero slope; the slope-one subclass is the
shift (translation) group.  Every law in this module is decided exactly on
these representations, never numerically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


DIGITS = r"[0-9]+"  # ASCII only: int() alone also reads "1_0" and other scripts' digits, such as "٣"
RATIONAL = rf"{DIGITS}(?:/{DIGITS})?"  # a literal less its sign, which ``field eval`` reads as an operator
_RATIONAL_RE = re.compile(rf"[+-]?{RATIONAL}")


def parse_rational(text: str) -> Fraction:
    """An optional sign, ASCII digits and an optional "/" with a nonzero denominator, spaces
    around it allowed, each integer within Python's int-from-string digit limit (4,300)."""
    numerator, _, denominator = text.partition("/")  # int() ignores the spaces
    try:
        if _RATIONAL_RE.fullmatch(text.strip()):
            return Fraction(int(numerator), int(denominator or 1))
    except (ValueError, ZeroDivisionError):  # too many digits, or a zero denominator
        pass
    raise ValueError(f"invalid rational {text!r}")


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class AffineMap:
    """The map ``x -> slope*x + offset``; slope must be nonzero."""

    slope: Fraction
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if self.slope == 0:
            raise ValueError("affine map must have nonzero slope")

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.offset

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return AffineMap(self.slope * other.slope, self.slope * other.offset + self.offset)

    def inverse(self) -> "AffineMap":
        return AffineMap(1 / self.slope, -self.offset / self.slope)

    def is_identity(self) -> bool:
        return self.slope == 1 and self.offset == 0

    def order_preserving(self) -> bool:
        return self.slope > 0

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(Fraction(1), Fraction(0))

    def __str__(self) -> str:
        return format_affine(self)


@dataclass(frozen=True)
class Shift:
    """A slope-one affine map, identified by its displacement."""

    displacement: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "displacement", Fraction(self.displacement))

    def as_affine(self) -> AffineMap:
        return AffineMap(Fraction(1), self.displacement)

    def __call__(self, x: Fraction) -> Fraction:
        return x + self.displacement

    def compose(self, other: "Shift") -> "Shift":
        return Shift(self.displacement + other.displacement)

    def inverse(self) -> "Shift":
        return Shift(-self.displacement)

    def iterate(self, power: int, x: Fraction) -> Fraction:
        return x + power * self.displacement

    def is_identity(self) -> bool:
        return self.displacement == 0


@dataclass(frozen=True)
class Interval:
    """Half-open segment [lo, hi); empty exactly when lo == hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi})")

    def is_empty(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: Fraction) -> bool:
        return self.lo <= x < self.hi

    def intersects(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)})"


# --- affine parsing -----------------------------------------------------------

_AFFINE_RE = re.compile(
    rf"""^\s*
    (?:(?P<slope>[+-]?{RATIONAL})\s*\*\s*x | (?P<sign>[+-]?)\s*x)
    \s*(?:(?P<op>[+-])\s*(?P<offset>{RATIONAL}))?
    \s*$""",
    re.VERBOSE,
)


def parse_affine(text: str) -> AffineMap:
    """Parse "a*x+b", "x+b", "a*x", "-x", or "x" with rational coefficients."""
    match = _AFFINE_RE.match(text)
    if match:
        try:
            slope = parse_rational(match["slope"] or match["sign"] + "1")
            offset = parse_rational((match["op"] or "") + (match["offset"] or "0"))
        except ValueError:  # a zero denominator, or too many digits
            pass
        else:
            return AffineMap(slope, offset)
    raise ValueError(f"invalid affine map {text!r}")


def format_affine(affine: AffineMap) -> str:
    if affine.slope == 1:
        head = "x"
    elif affine.slope == -1:
        head = "-x"
    else:
        head = f"{format_rational(affine.slope)}*x"
    if affine.offset == 0:
        return head
    sign = "+" if affine.offset > 0 else "-"
    return f"{head} {sign} {format_rational(abs(affine.offset))}"


# --- displacement classification ------------------------------------------------

RAISING = "raising"
IDENTITY = "identity"
LOWERING = "lowering"
MIXED = "mixed"


def classify_displacement(affine: AffineMap) -> str:
    """Whether the map moves every point up, none, every point down, or mixes.

    Only slope-one maps avoid a crossing: for slope != 1 the point
    ``offset/(1-slope)`` is fixed, so the map is mixed.
    """
    if affine.slope != 1:
        return MIXED
    if affine.offset > 0:
        return RAISING
    if affine.offset < 0:
        return LOWERING
    return IDENTITY


def commutes(f: AffineMap, g: AffineMap) -> bool:
    return f.compose(g) == g.compose(f)


@dataclass(frozen=True)
class ConstructWitness:
    """A point where g fails to carry f's graph onto itself."""

    x: Fraction
    moved_pair: tuple[Fraction, Fraction]  # (g(x), g(f(x)))
    expected: Fraction  # f(g(x))


@dataclass(frozen=True)
class ConstructReport:
    preserves: bool
    witness: ConstructWitness | None


def preserves_construct(g: AffineMap, f: AffineMap) -> ConstructReport:
    """Does g map f's graph {(x, f(x))} onto itself?

    Decided exactly: the transformed graph {(g(x), g(f(x)))} lies on f's
    graph for all x iff g∘f = f∘g as affine identities.  The two composites
    have the same slope, so when they differ they differ at every point, and
    x = 0 is the witness.
    """
    if commutes(f, g):
        return ConstructReport(True, None)
    x = Fraction(0)
    return ConstructReport(False, ConstructWitness(x, (g(x), g(f(x))), f(g(x))))


# --- tiling and measure -----------------------------------------------------------


MAX_WINDOW = 10_000


def tile_line(shift: Shift, base: Fraction, window: int) -> list[Interval]:
    """The tiles ``[shift^j(base), shift^(j+1)(base))`` for j in -window..window-1.

    The 2*window + 1 points are built once, and each tile joins two
    consecutive ones, swapped for a lowering shift so intervals stay
    well-formed.  The family covers ``[shift^-window(base),
    shift^window(base))`` disjointly.  All 2*window tiles are built, so
    ``window`` is at most ``MAX_WINDOW``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > MAX_WINDOW:
        raise ValueError(f"window must be <= {MAX_WINDOW}")
    if shift.is_identity():
        raise ValueError("degenerate tiling: identity shift")
    step = shift.displacement
    points = [shift.iterate(-window, Fraction(base))]
    for _ in range(2 * window):
        points.append(points[-1] + step)
    pairs = zip(points, points[1:]) if step > 0 else zip(points[1:], points)
    return [Interval(lo, hi) for lo, hi in pairs]


def tiling_span(tiles: list[Interval]) -> Interval:
    return Interval(min(t.lo for t in tiles), max(t.hi for t in tiles))


def factor_through_shift(x: AffineMap, s: Shift, side: str) -> AffineMap:
    """The unique h with x = s∘h (side="left") or x = h∘s (side="right")."""
    affine = s.as_affine()
    if side == "left":
        return affine.inverse().compose(x)
    if side == "right":
        return x.compose(affine.inverse())
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True)
class MeasureResult:
    count: int
    remainder: Interval


def shift_measure(shift: Shift, interval: Interval) -> MeasureResult:
    """How many whole displacement steps fit in the interval, plus the rest.

    Translation-invariant by construction: translating the interval leaves
    both the count and the remainder width unchanged.
    """
    if classify_displacement(shift.as_affine()) != RAISING:
        raise ValueError("measure requires a raising (positive-displacement) shift")
    if interval.is_empty():
        raise ValueError("measure requires a non-empty interval")
    step = shift.displacement
    count = interval.width() // step
    return MeasureResult(int(count), Interval(interval.lo + count * step, interval.hi))


# --- shifts as points ----------------------------------------------------------------


@dataclass(frozen=True)
class PointShiftCorrespondence:
    """The order isomorphism between shifts and points induced by a base point.

    A shift corresponds to where it sends the base point; a point corresponds
    to the shift reaching it from the base point.  The two directions are
    mutually inverse and monotone.
    """

    base: Fraction

    def to_point(self, shift: Shift) -> Fraction:
        return shift(self.base)

    def to_shift(self, point: Fraction) -> Shift:
        return Shift(point - self.base)


def point_shift_correspondence(base: Fraction) -> PointShiftCorrespondence:
    return PointShiftCorrespondence(Fraction(base))


def shift_leq(f: Shift, g: Shift) -> bool:
    """Pointwise order on shifts; one sample point decides it."""
    return f.displacement <= g.displacement
