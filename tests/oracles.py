"""Reference implementations that the tests check the library against.

Each is independent of the code it checks: the syntactic enumerator builds
every formula with its own atoms and no truth tables, the automorphism
oracle filters all ``|U|!`` permutations of relations it reads element by
element, and ``constant_along`` compares a table with itself moved one step
along an axis.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from uniline.formulas import And, Atom, Equal, Exists, Forall, Formula, Implies, Not, Or, free_vars
from uniline.structures import FiniteStructure, Signature


def enumerate_formulas(signature: Signature, free_var_count: int, max_depth: int) -> Iterator[Formula]:
    """All formulas with free variables exactly ``x1..xn`` and depth <= d.

    Bound variables come from the pool ``y1..yd`` and are named canonically
    (each quantifier binds the highest-index pool variable free in its body),
    so each alpha-equivalence class appears once.  Conjunctions and
    disjunctions are generated as unordered pairs, which prunes commutative
    duplicates.  The order is deterministic: formulas appear by depth layer,
    within a layer by operator (``exists forall ~ & | ->``) and operand index.
    """
    if free_var_count < 1:
        raise ValueError("free_var_count must be >= 1")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    xs = tuple(f"x{i}" for i in range(1, free_var_count + 1))
    pool = tuple(f"y{i}" for i in range(1, max_depth + 1))
    target = frozenset(xs)
    for formula, _ in _syntactic_items(signature, xs, pool, max_depth):
        if free_vars(formula) == target:
            yield formula


def _atoms(signature: Signature, variables: tuple[str, ...]) -> Iterator[Formula]:
    """Every relation atom, then every equality, over ``variables``."""
    for name, arity in signature.relations:
        for args in itertools.product(variables, repeat=arity):
            yield Atom(name, args)
    for left in variables:
        for right in variables:
            yield Equal(left, right)


def _layer(formulas: list[Formula], start: int, pool: tuple[str, ...]) -> Iterator[Formula]:
    """The formulas one layer deeper than ``formulas[start:]``, over the
    formulas present at the first step (the caller appends while this runs),
    in the canonical order: quantifiers, negation, then the binary
    connectives by operand index.  ``semantic_items`` keeps this order but
    prunes by table and needs no last family, as its docstring proves."""
    count = len(formulas)
    prev = range(start, count)
    binders = []
    for i in prev:
        free = free_vars(formulas[i])
        bindable = [v for v in pool if v in free]
        if bindable:
            binders.append((bindable[-1], formulas[i]))
    for ctor in (Exists, Forall):
        for var, body in binders:
            yield ctor(var, body)
    for i in prev:
        yield Not(formulas[i])
    for ctor in (And, Or):
        for j in prev:
            for i in range(j + 1):
                yield ctor(formulas[i], formulas[j])
    for j in prev:
        for i in range(count):
            yield Implies(formulas[i], formulas[j])
    for i in prev:
        for j in range(start):
            yield Implies(formulas[i], formulas[j])


def _syntactic_items(
    signature: Signature, xs: tuple[str, ...], pool: tuple[str, ...], max_depth: int
) -> Iterator[tuple[Formula, int]]:
    formulas = list(_atoms(signature, xs + pool))
    yield from ((atom, 0) for atom in formulas)
    stop = 0
    for layer in range(1, max_depth + 1):
        start, stop = stop, len(formulas)
        for formula in _layer(formulas, start, pool):
            if layer < max_depth:  # no later layer reads the last one
                formulas.append(formula)
            yield formula, layer


def brute_force_automorphisms(structure: FiniteStructure) -> list[tuple[int, ...]]:
    """All automorphisms, as image tuples, by filtering every permutation of
    the universe, in lexicographic order; the relations are read element by
    element, not through ``relation_positions``."""
    relations = [
        frozenset(tuple(structure.position(e) for e in t) for t in tuples)
        for tuples in structure.interpretation
    ]
    found = []
    for mapping in itertools.permutations(range(structure.size())):
        if all(tuple(mapping[i] for i in t) in rel for rel in relations for t in rel):
            found.append(mapping)
    return found


def constant_along(spc, table: int, axis: int) -> bool:
    """True when every cell of ``table`` in the space ``spc`` agrees with its
    successor along the axis."""
    stride = spc.strides[axis]
    # the cells that have a successor along the axis: their digit is not m - 1
    inner = sum(1 << c for c in range(spc.cells) if c // stride % spc.m != spc.m - 1)
    return not ((table ^ (table >> stride)) & inner)
