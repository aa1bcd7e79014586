"""Two deciders for n-uniformity of a finite structure.

A structure is n-uniform when every constant-free formula with free
variables ``x1..xn`` that is satisfied by some tuple of pairwise-distinct
elements is satisfied, up to a permutation of the variables, by every tuple
of pairwise-distinct elements.

``check_uniformity_schema`` decides the depth-bounded approximation by
scanning the enumerated formula space; ``check_uniformity_orbits`` decides
the semantic criterion (a single automorphism orbit on n-subsets), which is
the depth-unbounded limit of the schema on finite structures.  It never
enumerates the group: it takes the n-subsets in turn, rules a subset out
when its elements' invariant keys differ from those of the least n-subset,
and otherwise searches for one automorphism that maps the least n-subset
onto it.  Agreement of the two deciders is the package's central
cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import autgroup, tables
from .formulas import Formula, semantic_items
from .structures import FiniteStructure, elements_of

# The deepest scan allowed.  Depth 4 is the measured horizon: criterion 1
# scans the 2x3 biclique at depth 4 in 0.05-0.09 s, while the depth-5 stream
# of the 3-cycle at n=1 keeps 746,342 items in 13-18 s on a 2-core machine.
MAX_DEPTH = 4


@dataclass(frozen=True)
class SchemaCounterexample:
    """A formula violating the schema, with self-certifying witnesses.

    ``witness`` satisfies the formula as written; ``violating`` satisfies it
    under no permutation of its coordinates.  Both are pairwise-distinct
    element tuples, each the least such tuple in universe order.
    """

    formula: Formula
    witness: tuple[str, ...]
    violating: tuple[str, ...]


@dataclass(frozen=True)
class OrbitCounterexample:
    """Two n-subsets lying in different automorphism orbits."""

    first: tuple[str, ...]
    second: tuple[str, ...]


@dataclass(frozen=True)
class UniformityVerdict:
    mode: str  # "schema" or "orbits"
    n: int
    uniform: bool
    counterexample: SchemaCounterexample | OrbitCounterexample | None = None
    depth: int | None = None


def _check_depth(depth: int) -> None:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH}, got {depth}")


def _arrangements(spc: tables.AssignmentSpace, positions: tuple[int, ...]) -> list[int]:
    """The cells that put an arrangement of ``positions`` on ``x1..xn``, with
    every pool variable at element 0 (a schema instance is constant along the
    pool axes)."""
    return [spc.cell_index(p) for p in itertools.permutations(positions)]


@lru_cache(maxsize=None)
def _subset_plan(size: int, n: int, depth: int):
    """The n-subsets of a schema scan in order, the cells of each subset's
    arrangements, and the carrier: one bit at each of those cells.  The cells
    number at most the space's cells, like its cached masks."""
    spc = tables.space(size, n + depth)
    subsets = tuple(itertools.combinations(range(size), n))
    arrangements = tuple(_arrangements(spc, subset) for subset in subsets)
    bits = bytearray(spc.cells // 8 + 1)  # linear in the cells, where |= on an int is not
    for cells in arrangements:
        for c in cells:
            bits[c >> 3] |= 1 << (c & 7)
    return subsets, arrangements, int.from_bytes(bits, "little")


def check_uniformity_orbits(structure: FiniteStructure, n: int) -> UniformityVerdict:
    """Uniform when the least n-subset's orbit holds every n-subset; else the
    certificate is the least subset and the least subset outside its orbit,
    the least members of the first two classes of ``orbit_partition``."""
    second = autgroup.least_outside_orbit(structure, n)
    if second is None:
        return UniformityVerdict("orbits", n, True)
    first = elements_of(structure, range(n))
    return UniformityVerdict(
        "orbits", n, False, OrbitCounterexample(first, elements_of(structure, second))
    )


def check_uniformity_schema(structure: FiniteStructure, n: int, depth: int) -> UniformityVerdict:
    """Scan all depth-bounded formulas for a schema violation.

    The scan walks the semantically deduplicated enumeration, so each truth
    table is tested once, at its first formula in enumeration order.  Tables
    that vary along a bound-variable axis are not schema instances and are
    skipped.  A reported counterexample re-verifies by direct evaluation.
    """
    size = structure.size()
    autgroup._check_n(n, size)
    _check_depth(depth)
    subsets, arrangements, carrier = _subset_plan(size, n, depth)
    for formula, table, _, open_vars in semantic_items(structure, n, depth):
        if open_vars or (hit := table & carrier) == 0 or hit == carrier:
            continue  # not a schema instance, or it meets no subset or every one
        for subset, cells in zip(subsets, arrangements):
            for c in cells:
                if table >> c & 1:
                    break
            else:  # no arrangement of subset is met, and hit != 0, so some subset is
                # hit holds the cells of the distinct tuples that satisfy the
                # formula, with every pool variable at element 0, where the
                # cell of an n-tuple puts them
                spc = tables.space(size, n + depth)
                witness = next(t for t in itertools.permutations(range(size), n) if hit >> spc.cell_index(t) & 1)
                counterexample = SchemaCounterexample(
                    formula,
                    elements_of(structure, witness),
                    elements_of(structure, subset),
                )
                return UniformityVerdict("schema", n, False, counterexample, depth)
    return UniformityVerdict("schema", n, True, None, depth)


def distinguishing_formula(
    structure: FiniteStructure,
    first: tuple[str, ...],
    second: tuple[str, ...],
    max_depth: int,
) -> Formula | None:
    """First enumerated formula true on an arrangement of ``first`` and on
    no arrangement of ``second``, or None if no such formula exists within
    the depth bound."""
    if len(first) != len(second):
        raise ValueError("subsets must have the same size")
    _check_depth(max_depth)
    n = len(first)
    first_pos = tuple(structure.position(e) for e in first)
    second_pos = tuple(structure.position(e) for e in second)
    if len(set(first_pos)) != n or len(set(second_pos)) != n:
        raise ValueError("subsets must consist of distinct elements")
    if set(first_pos) == set(second_pos):
        return None
    spc = tables.space(structure.size(), n + max_depth)
    first_cells = _arrangements(spc, first_pos)
    second_cells = _arrangements(spc, second_pos)
    for formula, table, _, open_vars in semantic_items(structure, n, max_depth):
        if open_vars:
            continue  # not a schema instance
        if any(table >> c & 1 for c in first_cells) and not any(table >> c & 1 for c in second_cells):
            return formula
    return None
