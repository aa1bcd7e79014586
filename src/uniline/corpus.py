"""Corpus of small directed graphs (one binary relation) up to isomorphism.

A graph on the vertices 0..size-1 is a bitmask over the ordered pairs (i, j),
i != j, in row-major order.  Its canonical form is the least mask over all
vertex permutations, and the corpus lists the canonical forms in increasing
order.  The forms of size k come from those of size k-1: each is extended by
a new vertex k-1 with every set of its 2(k-1) possible arcs.  That reaches
every class, because deleting the last vertex of any k-vertex graph leaves a
graph isomorphic to some form of size k-1; relabelling the first k-1
vertices by that isomorphism turns the graph into one of the extensions.

The image of a mask under a permutation is the OR of the images of its bits.
So each base form and each arc set of the new vertex gets its list of images,
one per permutation, built once, and an extension's canonical form is the
least of the position-wise ORs of two such lists.  The base's arcs and the
new vertex's arcs map to disjoint bits, so an OR is at least its base image.
The permutations are therefore tried in increasing order of the base image,
and the search stops at the first whose base image is no less than the best
form found: no later permutation can give a smaller one.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .structures import FiniteStructure, Signature

RELATION = "e"
# size 6 would try 9,608 x 1,024 extensions under 720 permutations each,
# to find 1,540,944 classes
MAX_SIZE = 5
_SIGNATURE = Signature.of(e=2)


def _pairs(size: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(size) for j in range(size) if i != j]


@lru_cache(maxsize=None)
def _canonical_masks(size: int) -> tuple[int, ...]:
    if size == 1:
        return (0,)
    perms = list(itertools.permutations(range(size)))
    index = {pair: k for k, pair in enumerate(_pairs(size))}
    bit_images = {(i, j): [1 << index[p[i], p[j]] for p in perms] for i, j in index}

    def images(pairs: list[tuple[int, int]], mask: int) -> list[int]:
        out = [0] * len(perms)
        for k, pair in enumerate(pairs):
            if mask >> k & 1:
                out = list(map(operator.or_, out, bit_images[pair]))
        return out

    new = size - 1
    base_pairs = _pairs(new)
    arcs = [(new, j) for j in range(new)] + [(j, new) for j in range(new)]
    bases = [images(base_pairs, mask) for mask in _canonical_masks(new)]
    extensions = [images(arcs, code) for code in range(1 << len(arcs))]
    forms = set()
    for base in bases:
        ranked = sorted(range(len(perms)), key=base.__getitem__)
        for extension in extensions:
            best = base[ranked[0]] | extension[ranked[0]]
            for k in ranked:
                if base[k] >= best:
                    break
                form = base[k] | extension[k]
                if form < best:
                    best = form
            forms.add(best)
    return tuple(sorted(forms))


def digraphs_up_to_iso(size: int) -> list[FiniteStructure]:
    """All loopless directed graphs on ``size`` vertices, one per isomorphism
    class, by increasing canonical form; ``size`` is at most ``MAX_SIZE``."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > MAX_SIZE:
        raise ValueError(f"size must be at most {MAX_SIZE}")
    elements = tuple(f"v{i}" for i in range(size))
    arcs = [(elements[i], elements[j]) for i, j in _pairs(size)]
    structures = []
    for mask in _canonical_masks(size):
        tuples = frozenset(arc for k, arc in enumerate(arcs) if mask >> k & 1)
        structures.append(FiniteStructure(_SIGNATURE, elements, (tuples,)))
    return structures


# --- crafted structures -----------------------------------------------------------


def chain(size: int) -> FiniteStructure:
    """Strict total order v0 < v1 < ... as the full transitive arc set."""
    elements = [f"v{i}" for i in range(size)]
    arcs = [(elements[i], elements[j]) for i in range(size) for j in range(size) if i < j]
    return FiniteStructure.build(_SIGNATURE, elements, {RELATION: arcs})


def directed_cycle(size: int) -> FiniteStructure:
    elements = [f"v{i}" for i in range(size)]
    arcs = [(elements[i], elements[(i + 1) % size]) for i in range(size)]
    return FiniteStructure.build(_SIGNATURE, elements, {RELATION: arcs})


def antichain(size: int) -> FiniteStructure:
    elements = [f"v{i}" for i in range(size)]
    return FiniteStructure.build(_SIGNATURE, elements, {})


def disjoint_union(first: FiniteStructure, second: FiniteStructure) -> FiniteStructure:
    elements = [f"a_{e}" for e in first.universe] + [f"b_{e}" for e in second.universe]
    arcs = [tuple(f"a_{e}" for e in t) for t in first.tuples(RELATION)] + [
        tuple(f"b_{e}" for e in t) for t in second.tuples(RELATION)
    ]
    return FiniteStructure.build(_SIGNATURE, elements, {RELATION: arcs})


def crafted_structures() -> list[tuple[str, FiniteStructure]]:
    """The size-6 and size-7 cases exercised beyond the exhaustive corpus.

    The union of a 3-cycle and a 4-cycle is deliberately absent: its two
    vertex orbits agree on every formula of depth three (detecting a
    triangle from a vertex takes two quantifiers over a conjunction chain,
    which is depth four), so it sits just past the depth-3 horizon.  It is
    exposed separately as :func:`beyond_depth_three` and covered by its own
    regression test.
    """
    return [
        ("chain6", chain(6)),
        ("chain7", chain(7)),
        ("cycle6", directed_cycle(6)),
        ("cycle7", directed_cycle(7)),
        ("antichain6", antichain(6)),
        ("antichain7", antichain(7)),
        ("chain3+chain3", disjoint_union(chain(3), chain(3))),
        ("cycle3+cycle3", disjoint_union(directed_cycle(3), directed_cycle(3))),
        ("cycle3+chain4", disjoint_union(directed_cycle(3), chain(4))),
        ("chain2+antichain4", disjoint_union(chain(2), antichain(4))),
    ]


def beyond_depth_three() -> FiniteStructure:
    """Orbit-non-uniform at n=1 yet schema-uniform at depth three."""
    return disjoint_union(directed_cycle(3), directed_cycle(4))


def biclique_2_3() -> FiniteStructure:
    """Complete 2x3 bipartite graph with arcs both ways.

    The unique size-5 structure whose vertex orbits (the two sides) agree on
    every formula of depth three: the sides differ only in how many
    same-side companions a vertex has, and the cheapest way to say it
    ("some y2 is the only vertex besides x and its neighbors") costs two
    quantifiers over a two-level disjunction, depth four.  See the
    uniformity tests for the explicit separator.
    """
    side_a = ["a0", "a1"]
    side_b = ["b0", "b1", "b2"]
    arcs = [(x, y) for x in side_a for y in side_b]
    arcs += [(y, x) for x in side_a for y in side_b]
    return FiniteStructure.build(_SIGNATURE, side_a + side_b, {RELATION: arcs})
