"""Galois ray operators, Dedekind cuts, and bounded-precision classification.

``upper_set``/``lower_set`` send a finite set of rationals to the ray of
elements strictly above/below all of it; applying the operators three times
collapses to one application, which is checked symbolically on rays.
Negation, x -> -x, reverses the order of the line, so it turns each operator
into the other: X^< = -((-X)^>).  Only the upward half of the ray algebra is
written out; ``_mirror`` reads the downward half off it.

``classify_cut`` takes a membership oracle for a downward-closed set and
descends the Stern-Brocot tree toward the cut boundary.  Mediant endpoints
stay unimodular, so whenever the descent interval's denominators exceed the
requested bound, no rational with a denominator within the bound remains
strictly inside: the boundary is either an endpoint (a principal cut, found
via a one-sided infinite run) or lies strictly between two consecutive
representable mediants (a gap at that precision).  Runs in one direction are
searched exponentially, so a boundary with denominator ``q`` is pinned after
roughly ``log``-many oracle queries per continued-fraction coefficient.  The
oracle is a Python callable, so it answers every query.

The descent works on integer pairs ``(p, q)`` with ``q > 0``: each queried
point is a mediant of, or a run along, two adjacent Stern-Brocot pairs, so it
is already coprime.  The consistency guard compares points by
cross-multiplication; a ``Fraction`` is built only to hand the point to the
oracle and to report a verdict.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .ordline import format_rational

UPWARD = "upward"
DOWNWARD = "downward"
ALL = "all"
EMPTY = "empty"

# the largest denominator bound: the gap bracket's denominators reach its
# square, and sq-lt:2 classifies in 0.09 s at 10^300 but 1.2 s at 10^1000
MAX_BOUND = 10**300


class CutError(ValueError):
    """Invalid oracle input (bad bounds or malformed arguments)."""


class NonMonotoneOracleError(CutError):
    """The oracle answered inconsistently with a downward-closed set."""


@dataclass(frozen=True)
class Ray:
    kind: str
    endpoint: Fraction | None = None
    closed: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (UPWARD, DOWNWARD, ALL, EMPTY):
            raise ValueError(f"unknown ray kind {self.kind!r}")
        if self.kind in (UPWARD, DOWNWARD):
            if self.endpoint is None:
                raise ValueError(f"{self.kind} ray requires an endpoint")
            if type(self.endpoint) is not Fraction:
                object.__setattr__(self, "endpoint", Fraction(self.endpoint))
        elif self.endpoint is not None:
            raise ValueError(f"{self.kind} ray admits no endpoint")

    def __contains__(self, x: Fraction) -> bool:
        if self.kind == UPWARD:
            return x >= self.endpoint if self.closed else x > self.endpoint
        if self.kind == DOWNWARD:
            return -x in _mirror(self)
        return self.kind == ALL

    def is_subset(self, other: "Ray") -> bool:
        if self.kind == EMPTY or other.kind == ALL:
            return True
        if self.kind != other.kind:
            return False
        if self.kind == DOWNWARD:
            return _mirror(self).is_subset(_mirror(other))
        e, f = self.endpoint, other.endpoint
        return e > f or e == f and (other.closed or not self.closed)

    def __str__(self) -> str:
        if self.kind == ALL:
            return "(-inf, inf)"
        if self.kind == EMPTY:
            return "{}"
        endpoint = format_rational(self.endpoint)
        if self.kind == UPWARD:
            return ("[" if self.closed else "(") + f"{endpoint}, inf)"
        return f"(-inf, {endpoint}" + ("]" if self.closed else ")")


def _mirror(ray: Ray) -> Ray:
    """The image of ``ray`` under x -> -x; ``ALL`` and ``EMPTY`` are fixed."""
    if ray.kind in (ALL, EMPTY):
        return ray
    return Ray(DOWNWARD if ray.kind == UPWARD else UPWARD, -ray.endpoint, ray.closed)


def upper_set(points: Iterable[Fraction]) -> Ray:
    """Elements strictly greater than every point; all of the line if empty."""
    points = list(points)
    if not points:
        return Ray(ALL)
    return Ray(UPWARD, max(points), closed=False)


def lower_set(points: Iterable[Fraction]) -> Ray:
    return _mirror(upper_set(-p for p in points))


def ray_upper(ray: Ray) -> Ray:
    """Elements strictly greater than every element of the ray."""
    if ray.kind == DOWNWARD:
        return Ray(UPWARD, ray.endpoint, closed=not ray.closed)
    return Ray(ALL if ray.kind == EMPTY else EMPTY)


def ray_lower(ray: Ray) -> Ray:
    return _mirror(ray_upper(_mirror(ray)))


@dataclass(frozen=True)
class GaloisReport:
    upper: Ray
    upper_lower: Ray
    upper_lower_upper: Ray
    lower: Ray
    lower_upper: Ray
    lower_upper_lower: Ray

    def passed(self) -> bool:
        return self.upper_lower_upper == self.upper and self.lower_upper_lower == self.lower


def galois_closure_check(points: Iterable[Fraction]) -> GaloisReport:
    """Verify that triple application collapses: X^{><>} = X^> and X^{<><} = X^<."""
    points = list(points)
    if not points:
        raise CutError("galois closure check requires a non-empty set")
    upper, lower = upper_set(points), lower_set(points)
    upper_lower, lower_upper = ray_lower(upper), ray_upper(lower)
    return GaloisReport(upper, upper_lower, ray_upper(upper_lower), lower, lower_upper, ray_lower(lower_upper))


# --- cut oracles and classification ------------------------------------------------


@dataclass(frozen=True)
class CutOracle:
    """Decidable membership in a downward-closed set of rationals.

    ``lo`` must be a member and ``hi`` a non-member.  ``member`` receives a
    reduced ``Fraction``; the built-in oracles read only its ``numerator``
    and ``denominator`` and compare integers.
    """

    name: str
    member: Callable[[Fraction], bool] = field(compare=False)
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise CutError(f"oracle {self.name!r}: lo must be strictly below hi")


def oracle_lt(threshold: Fraction) -> CutOracle:
    threshold = Fraction(threshold)
    n, d = threshold.numerator, threshold.denominator
    return CutOracle(
        f"lt {format_rational(threshold)}",
        lambda q: q.numerator * d < n * q.denominator,
        threshold - 1,
        threshold + 1,
    )


def oracle_le(threshold: Fraction) -> CutOracle:
    threshold = Fraction(threshold)
    n, d = threshold.numerator, threshold.denominator
    return CutOracle(
        f"le {format_rational(threshold)}",
        lambda q: q.numerator * d <= n * q.denominator,
        threshold - 1,
        threshold + 1,
    )


def oracle_sq_lt(target: Fraction) -> CutOracle:
    """The lower class of the positive square root of ``target``."""
    target = Fraction(target)
    if target <= 0:
        raise CutError("sq-lt oracle requires a positive target")
    n, d = target.numerator, target.denominator
    return CutOracle(
        f"sq-lt {format_rational(target)}",
        lambda q: q.numerator < 0 or q.numerator**2 * d < n * q.denominator**2,
        Fraction(0),
        target + 1,
    )


PRINCIPAL = "principal"
GAP = "gap"


@dataclass(frozen=True)
class CutClass:
    """Verdict of a bounded-precision cut classification.

    ``principal`` carries the boundary point; ``gap`` carries the final
    bracketing pair, between which the boundary is trapped with no rational
    of denominator within the bound in between.
    """

    kind: str
    bound: int
    point: Fraction | None = None
    bracket: tuple[Fraction, Fraction] | None = None


class _Probe:
    """Query wrapper enforcing consistency with a downward-closed set.

    ``probe(p, q)`` asks the oracle about p/q, for coprime p and q > 0, once:
    a point asked again (``0`` when it is ``lo``, or a run landing on ``lo``
    or ``hi``) is answered from ``answers``.  The greatest accepted and least
    rejected points are kept as pairs and compared by cross-multiplication.
    """

    def __init__(self, oracle: CutOracle):
        self.oracle = oracle
        self.answers: dict[tuple[int, int], bool] = {}
        self.max_true: tuple[int, int] | None = None
        self.min_false: tuple[int, int] | None = None

    def __call__(self, p: int, q: int) -> bool:
        if (p, q) in self.answers:
            return self.answers[p, q]
        answer = self.answers[p, q] = bool(self.oracle.member(Fraction(p, q)))
        if answer:
            if self.max_true is None or p * self.max_true[1] > self.max_true[0] * q:
                self.max_true = (p, q)
        else:
            if self.min_false is None or p * self.min_false[1] < self.min_false[0] * q:
                self.min_false = (p, q)
        if self.max_true is not None and self.min_false is not None:
            (tp, tq), (fp, fq) = self.max_true, self.min_false
            if tp * fq >= fp * tq:
                raise NonMonotoneOracleError(
                    f"oracle {self.oracle.name!r} accepts {Fraction(tp, tq)} but rejects "
                    f"{Fraction(fp, fq)} below it"
                )
        return answer


def classify_cut(oracle: CutOracle, denominator_bound: int) -> CutClass:
    """Pin the cut boundary to a rational within the bound, or bracket it.

    Descends mediants between a known member and a known non-member.  A run
    that stays on one side while the probe denominators grow past the
    verification cap (the square of the bound) certifies the opposite
    endpoint as the boundary; the verdict is principal when that endpoint's
    denominator is within the reporting bound.  Flips on both sides past the
    cap leave the boundary strictly between two consecutive mediants with no
    representable rational in between: a gap.
    """
    if not 1 <= denominator_bound <= MAX_BOUND:
        raise CutError("denominator bound must be between 1 and 10^300 (MAX_BOUND)")
    # probe denominators well past the reporting bound, so a boundary hiding
    # just beyond a candidate endpoint still produces a visible flip
    cap = max(denominator_bound * denominator_bound, 10_000)
    probe = _Probe(oracle)
    lo, hi = oracle.lo, oracle.hi
    if not probe(lo.numerator, lo.denominator):
        raise NonMonotoneOracleError(f"oracle {oracle.name!r} rejects its declared member {lo}")
    if probe(hi.numerator, hi.denominator):
        raise NonMonotoneOracleError(f"oracle {oracle.name!r} accepts its declared non-member {hi}")

    if probe(0, 1):
        low, high = (0, 1), (1, 0)
    else:
        low, high = (-1, 0), (0, 1)

    while low[1] + high[1] <= cap:
        member = probe(low[0] + high[0], low[1] + high[1])
        # one step for both directions: the end on the mediant's side (low
        # for a member, high otherwise) moves toward far through near + k*far
        near, far = (low, high) if member else (high, low)
        outcome, k = _run(probe, near, far, member, cap)
        if outcome == "flip":
            near = (near[0] + (k - 1) * far[0], near[1] + (k - 1) * far[1])
            far = (near[0] + far[0], near[1] + far[1])
        elif far[1] <= denominator_bound:
            return CutClass(PRINCIPAL, denominator_bound, point=Fraction(*far))
        else:
            near = (near[0] + k * far[0], near[1] + k * far[1])
        low, high = (near, far) if member else (far, near)
        if outcome == "all":
            break
    return CutClass(GAP, denominator_bound, bracket=(Fraction(*low), Fraction(*high)))


def _run(
    probe: _Probe,
    base: tuple[int, int],
    direction: tuple[int, int],
    expect: bool,
    bound: int,
) -> tuple[str, int]:
    """Search the maximal run of same-side answers along base + k*direction.

    Returns ("flip", k) for the least k whose answer breaks the run, or
    ("all", k) when answers hold through the last k with a representable
    denominator (direction infinite: until the consistency guard trips).
    k = 1 is the already-queried mediant, so runs start at k = 2.
    """
    (bp, bq), (dp, dq) = base, direction
    if dq > 0:
        k_cap = (bound - bq) // dq + 1
    else:
        k_cap = None  # unbounded: the probe guard terminates the search

    last_good = 1
    k = 2
    while True:
        if k_cap is not None and k >= k_cap:
            if probe(bp + k_cap * dp, bq + k_cap * dq) == expect:
                return "all", k_cap
            k = k_cap
            break
        if probe(bp + k * dp, bq + k * dq) != expect:
            break
        last_good = k
        k *= 2
    # least breaking index lies in (last_good, k]
    lo, hi = last_good, k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(bp + mid * dp, bq + mid * dq) == expect:
            lo = mid
        else:
            hi = mid
    return "flip", hi


# --- connectivity ------------------------------------------------------------------

CONNECTED_EVIDENCE = "connected-evidence"
DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class ProbeReport:
    verdict: str
    results: tuple[tuple[str, CutClass], ...]
    witness: str | None = None


def connectivity_probe(oracles: Iterable[CutOracle], denominator_bound: int) -> ProbeReport:
    """Classify a family of cuts; any gap witnesses a disconnection.

    All-principal families are evidence of connectedness relative to the
    family and the bound only, never a proof.
    """
    results = tuple((oracle.name, classify_cut(oracle, denominator_bound)) for oracle in oracles)
    if not results:
        raise CutError("connectivity probe requires at least one oracle")
    witness = next((name for name, verdict in results if verdict.kind == GAP), None)
    return ProbeReport(CONNECTED_EVIDENCE if witness is None else DISCONNECTED, results, witness)
