"""The formula stream against the unpruned stream it replaced.

``semantic_items`` below is the stream as it stood before the scan skipped
the pairs (D) and (E) of ``uniline.formulas.semantic_items``: one candidate
generator per family, every pair built.  Its code is kept verbatim as the
reference, except that its set-up, ``_plan``, is its own: it builds each
relation table from universe positions and axis masks made cell by cell,
reads each kept item's open set off its table, and computes ``forall`` as
¬∃¬, where the library takes open sets from the operands, relation tables
from element names and ``forall`` from one fold.  Both streams must keep
the same items in the same order.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterator

from hypothesis import given, settings, strategies as st

from uniline.formulas import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    SemanticItem,
    render_formula,
)
from uniline.formulas import semantic_items as pruned_items
from uniline.structures import FiniteStructure, Signature
from uniline.tables import space

from oracles import _atoms


def _plan(structure: FiniteStructure, xs: tuple[str, ...], pool: tuple[str, ...]):
    """The space, the axis of each variable, each atom with its table, the
    open set of a table, the bit mask of each open set, and ``forall``."""
    variables = xs + pool
    axes = {v: i for i, v in enumerate(variables)}
    spc = space(structure.size(), len(variables))
    m, cells = spc.m, range(spc.cells)
    # axis_masks[axis][v]: the cells whose digit ``axis`` is v
    axis_masks = [[sum(1 << c for c in cells if c // stride % m == v) for v in range(m)] for stride in spc.strides]
    position = {element: k for k, element in enumerate(structure.universe)}

    def cells_where(pairs) -> int:
        bits = spc.full
        for axis, value in pairs:
            bits &= axis_masks[axis][value]
        return bits

    atoms = []
    for atom in _atoms(structure.signature, variables):
        if isinstance(atom, Atom):
            arg_axes = [axes[v] for v in atom.args]
            table = 0
            for t in structure.tuples(atom.relation):
                table |= cells_where(zip(arg_axes, map(position.get, t)))
        else:
            table = 0
            for v in range(m):
                table |= cells_where([(axes[atom.left], v), (axes[atom.right], v)])
        atoms.append((atom, table))
    # a table is open in a pool variable when some cell differs from its successor along its axis
    steps = [(v, spc.strides[axes[v]], spc.full & ~axis_masks[axes[v]][m - 1]) for v in pool]

    def open_set(table: int) -> tuple[str, ...]:
        return tuple([v for v, stride, inner in steps if (table ^ (table >> stride)) & inner])

    def forall(table: int, axis: int) -> int:
        return spc.full ^ spc.exists(spc.full ^ table, axis)

    mask_of = {tuple(v for k, v in enumerate(pool) if mask >> k & 1): mask for mask in range(1 << len(pool))}
    return spc, axes, atoms, open_set, mask_of, forall


def semantic_items(
    structure: FiniteStructure,
    xs: tuple[str, ...],
    pool: tuple[str, ...],
    max_depth: int,
) -> Iterator[SemanticItem]:
    """The unpruned stream: every candidate of every family is built."""
    spc, axes, atoms, open_set, mask_of, forall = _plan(structure, xs, pool)

    formulas: list[Formula] = []
    opens: list[tuple[str, ...]] = []
    masks: list[int] = []  # the open variables of each kept item as pool bits
    tabs: list[int] = []
    seen: set[int] = set()

    def families(layer: int, start: int, count: int):
        """One layer's candidate families in canonical order, each (build,
        candidates), made when reached: candidates yield (i, j, table)."""
        if layer == 0:
            yield lambda i, _: atoms[i][0], ((i, None, t) for i, (_, t) in enumerate(atoms))
            return
        room = max_depth - layer  # the quantifiers left to close a candidate
        fit = [len(open_vars) <= room for open_vars in mask_of]  # fit[mask] for a pair's union
        ops = [i for i in range(count) if len(opens[i]) <= room]  # this layer's operands in index order
        first = bisect.bisect_left(ops, start)  # ops[first:] lie in the previous layer
        prev = ops[first:]
        binders = [(i, var) for i in range(start, count) if len(opens[i]) <= room + 1 for var in opens[i]]
        yield lambda i, var: Exists(var, formulas[i]), ((i, var, spc.exists(tabs[i], axes[var])) for i, var in binders)
        yield lambda i, var: Forall(var, formulas[i]), ((i, var, forall(tabs[i], axes[var])) for i, var in binders)
        # tables lie within ``spc.full``, so ``spc.full ^ t`` is the negation of t
        negs = [spc.full ^ t for t in tabs[:count]]
        yield lambda i, _: Not(formulas[i]), ((i, None, negs[i]) for i in prev)
        # ops[k] is j, so ops[:k + 1] are the operands up to j
        yield lambda i, j: And(formulas[i], formulas[j]), (
            (i, j, tabs[i] & tabs[j])
            for k, j in enumerate(prev, first) for i in ops[: k + 1] if fit[masks[i] | masks[j]]
        )
        yield lambda i, j: Or(formulas[i], formulas[j]), (
            (i, j, tabs[i] | tabs[j])
            for k, j in enumerate(prev, first) for i in ops[: k + 1] if fit[masks[i] | masks[j]]
        )
        yield lambda i, j: Implies(formulas[i], formulas[j]), (
            (i, j, negs[i] | tabs[j]) for j in prev for i in ops if fit[masks[i] | masks[j]]
        )

    count = 0
    for layer in range(max_depth + 1):
        start, count = count, len(formulas)  # start is the first item of the previous layer
        for build, candidates in families(layer, start, count):
            for i, j, table in candidates:
                if table in seen:
                    continue
                open_vars = open_set(table)
                seen.add(table)
                formulas.append(build(i, j))
                opens.append(open_vars)
                masks.append(mask_of[open_vars])
                tabs.append(table)
                yield SemanticItem(formulas[-1], table, layer, open_vars)


SIGNATURES = (Signature.of(p=1, e=2), Signature.of(p=1, t=3), Signature.of(e=2, t=3))


@st.composite
def questions(draw):
    """A structure of 1-3 elements over two arities, n = 1-2 and depth 0-3;
    n = 2 at depth 3 only below 3 elements, so a space has at most 3^4
    cells (a dense 3-element ``e/2 t/3`` structure keeps 2.3M items at
    n = 2, depth 3)."""
    signature = draw(st.sampled_from(SIGNATURES))
    size = draw(st.integers(1, 3))
    universe = [f"a{k}" for k in range(size)]
    relations = {
        name: draw(st.lists(st.tuples(*[st.sampled_from(universe)] * arity), max_size=size**arity))
        for name, arity in signature.relations
    }
    n = draw(st.integers(1, 2))
    max_depth = draw(st.integers(0, 3 if size < 3 or n == 1 else 2))
    return FiniteStructure.build(signature, universe, relations), n, max_depth


def _rows(stream):
    for item in stream:
        yield render_formula(item.formula), item.table, item.depth, item.open_vars


@settings(max_examples=150, deadline=None)
@given(questions())
def test_same_stream_as_the_unpruned_reference(question):
    structure, n, max_depth = question
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    pool = tuple(f"y{i}" for i in range(1, max_depth + 1))
    pruned = _rows(pruned_items(structure, n, max_depth))
    unpruned = _rows(semantic_items(structure, xs, pool, max_depth))
    for new, old in itertools.zip_longest(pruned, unpruned):
        assert new == old
