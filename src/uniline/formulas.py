"""Constant-free first-order formulas: AST, parser, evaluator, and the
stream of the first formula for each truth table over one structure.

The language has relation atoms, equality between variables, the connectives
``~ & | ->`` (binding in that order, tightest first) and the quantifiers
``forall``/``exists``, which extend as far right as possible.  There are no
constant or function symbols, so every leaf is built from variables only.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

from .structures import _IDENT_RE, FiniteStructure, Signature
from . import tables


class FormulaError(ValueError):
    """Syntax error, unknown relation, or arity mismatch in a formula."""


class EvaluationError(ValueError):
    """Raised when an assignment does not cover a formula's free variables."""


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Equal:
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, Equal, Not, And, Or, Implies, Exists, Forall]

def free_vars(formula: Formula) -> frozenset[str]:
    if isinstance(formula, Atom):
        return frozenset(formula.args)
    if isinstance(formula, Equal):
        return frozenset((formula.left, formula.right))
    if isinstance(formula, Not):
        return free_vars(formula.body)
    if isinstance(formula, (And, Or, Implies)):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_vars(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def depth(formula: Formula) -> int:
    """AST height; atoms are 0, every connective and quantifier adds one."""
    if isinstance(formula, (Atom, Equal)):
        return 0
    if isinstance(formula, Not):
        return 1 + depth(formula.body)
    if isinstance(formula, (And, Or, Implies)):
        return 1 + max(depth(formula.left), depth(formula.right))
    if isinstance(formula, (Exists, Forall)):
        return 1 + depth(formula.body)
    raise TypeError(f"not a formula: {formula!r}")


# --- rendering ---------------------------------------------------------------

# The binary connectives: binding power (higher binds tighter), whether the
# connective associates to the right, and the node it builds; ``<->`` is
# sugar.  The parser reads this table, and the renderer reads it by node.
_CONNECTIVES = {
    "<->": (1, True, lambda left, right: And(Implies(left, right), Implies(right, left))),
    "->": (2, True, Implies),
    "|": (3, False, Or),
    "&": (4, False, And),
}
_OPERATOR = {node: (f" {token} ", power, to_right) for token, (power, to_right, node) in _CONNECTIVES.items()}
_TIGHT = 5  # above every binding power: an operand of ``~``


def render_formula(formula: Formula) -> str:
    return _render(formula, 0)


def _render(formula: Formula, least: int) -> str:
    """``formula`` where the parser reads ``binary(least)``, or ``formula()``
    at ``least`` 0; a connective that binds looser, or a quantifier at any
    other ``least``, is put in parentheses."""
    if isinstance(formula, Atom):
        return f"{formula.relation}({','.join(formula.args)})"
    if isinstance(formula, Equal):
        return f"{formula.left} = {formula.right}"
    if isinstance(formula, Not):
        return "~" + _render(formula.body, _TIGHT)
    if isinstance(formula, (Exists, Forall)):
        keyword = "exists" if isinstance(formula, Exists) else "forall"
        text = f"{keyword} {formula.var}. {_render(formula.body, 0)}"
        return f"({text})" if least > 0 else text
    token, power, to_right = _OPERATOR[type(formula)]
    # the operand on the associating side may bind as loosely as its parent
    text = _render(formula.left, power + to_right) + token + _render(formula.right, power + (not to_right))
    return f"({text})" if least > power else text


# --- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(rf"\s*(->|<->|[()=,~&|.]|{_IDENT_RE.pattern})")
_KEYWORDS = {"forall", "exists"}


class _Parser:
    """Precedence climbing over ``_CONNECTIVES`` (Pratt 1973), with
    quantifiers, ``~``, parentheses and the right operands of ``->`` and
    ``<->`` nested at most ``MAX_NESTING`` deep.  A parenthesis level takes
    four Python frames, so the limit keeps a parse well inside the default
    recursion limit of 1000.  Quantifiers are read only where ``formula`` is
    entered: at the top, in parentheses and in a quantifier's body.
    ``a <-> b`` is sugar that holds each operand twice, so k nested ``<->``
    render and evaluate in time 2^k; a formula has at most ``MAX_IFF``."""

    MAX_NESTING = 50
    MAX_IFF = 8

    def __init__(self, text: str, signature: Signature):
        self.signature = signature
        self.nesting = 0
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if not match:
                if text[pos:].strip():
                    raise FormulaError(f"unexpected character {text[pos:].strip()[0]!r}")
                break
            self.tokens.append(match.group(1))
            pos = match.end()
        if self.tokens.count("<->") > self.MAX_IFF:
            raise FormulaError(f"formula has more than {self.MAX_IFF} '<->'")
        self.index = 0

    def peek(self) -> str | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise FormulaError("unexpected end of formula")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise FormulaError(f"expected {token!r}, got {got!r}")

    def nested(self, parse, *args) -> Formula:
        self.nesting += 1
        if self.nesting > self.MAX_NESTING:
            raise FormulaError(f"formula nested deeper than {self.MAX_NESTING}")
        result = parse(*args)
        self.nesting -= 1
        return result

    def formula(self) -> Formula:
        if self.peek() in _KEYWORDS:
            keyword = self.take()
            var = self.variable()
            self.expect(".")
            body = self.nested(self.formula)
            return Exists(var, body) if keyword == "exists" else Forall(var, body)
        return self.binary(1)

    def binary(self, least: int) -> Formula:
        """Operands joined by connectives that bind with power ``least`` or more."""
        left = self.operand()
        while self.peek() in _CONNECTIVES and _CONNECTIVES[self.peek()][0] >= least:
            power, to_right, node = _CONNECTIVES[self.take()]
            left = node(left, self.nested(self.binary, power) if to_right else self.binary(power + 1))
        return left

    def operand(self) -> Formula:
        token = self.take()
        if token == "~":
            return Not(self.nested(self.operand))
        if token == "(":
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if not _is_name(token):
            raise FormulaError(f"expected an atom, got {token!r}")
        if self.peek() == "(":
            self.take()
            args = [self.variable()]
            while self.peek() == ",":
                self.take()
                args.append(self.variable())
            self.expect(")")
            if token not in self.signature:
                raise FormulaError(f"unknown relation {token!r}")
            arity = self.signature.arity(token)
            if arity != len(args):
                raise FormulaError(
                    f"arity mismatch: {token!r} expects {arity} arguments, got {len(args)}"
                )
            return Atom(token, tuple(args))
        self.expect("=")
        right = self.variable()
        return Equal(token, right)

    def variable(self) -> str:
        token = self.take()
        if not _is_name(token):
            raise FormulaError(f"expected a variable, got {token!r}")
        return token


def _is_name(token: str) -> bool:
    return bool(_IDENT_RE.fullmatch(token)) and token not in _KEYWORDS


def parse_formula(text: str, signature: Signature) -> Formula:
    parser = _Parser(text, signature)
    result = parser.formula()
    if parser.peek() is not None:
        raise FormulaError(f"trailing input at {parser.peek()!r}")
    return result


# --- evaluation ----------------------------------------------------------------


def evaluate(structure: FiniteStructure, formula: Formula, assignment: Mapping[str, str]) -> bool:
    """Classical satisfaction over the structure's universe."""
    if isinstance(formula, Atom):
        values = tuple(_lookup(assignment, v) for v in formula.args)
        return values in structure.tuples(formula.relation)
    if isinstance(formula, Equal):
        return _lookup(assignment, formula.left) == _lookup(assignment, formula.right)
    if isinstance(formula, Not):
        return not evaluate(structure, formula.body, assignment)
    if isinstance(formula, And):
        return evaluate(structure, formula.left, assignment) and evaluate(structure, formula.right, assignment)
    if isinstance(formula, Or):
        return evaluate(structure, formula.left, assignment) or evaluate(structure, formula.right, assignment)
    if isinstance(formula, Implies):
        return (not evaluate(structure, formula.left, assignment)) or evaluate(
            structure, formula.right, assignment
        )
    if isinstance(formula, (Exists, Forall)):
        extended = dict(assignment)
        results = []
        for element in structure.universe:
            extended[formula.var] = element
            results.append(evaluate(structure, formula.body, extended))
        return any(results) if isinstance(formula, Exists) else all(results)
    raise TypeError(f"not a formula: {formula!r}")


def _lookup(assignment: Mapping[str, str], var: str) -> str:
    try:
        return assignment[var]
    except KeyError:
        raise EvaluationError(f"assignment does not cover free variable {var!r}") from None


# --- enumeration -----------------------------------------------------------------


def _atoms(signature: Signature, variables: tuple[str, ...]) -> Iterator[Formula]:
    for name, arity in signature.relations:
        for args in itertools.product(variables, repeat=arity):
            yield Atom(name, args)
    for left in variables:
        for right in variables:
            yield Equal(left, right)


class SemanticItem(NamedTuple):
    """A representative formula with its truth table over one structure.

    ``table`` covers assignments of ``xs + pool`` into the universe, encoded
    per :mod:`uniline.tables`.  ``open_vars``, the pool variables the table
    varies along, are its formula's free ones (``semantic_items``, (V)); the
    scan takes them from the formula's operands, never from the table.
    """

    formula: Formula
    table: int
    depth: int
    open_vars: tuple[str, ...]


@lru_cache(maxsize=None)
def _scan_plan(signature: Signature, size: int, n: int, depth: int):
    """The part of a scan's set-up that does not read the structure: the
    space of ``x1..xn`` and the pool ``y1..y{depth}``, each relation atom
    with its relation index, its axes and the bit mask of its pool
    variables, each equality atom with its table and mask, and for each
    mask, its open set (the pool variables of its bits, in pool order) and
    ``(var, axis, mask without var)`` for each of them.  The equality tables
    number at most ``n + depth`` squared, no more than the space's own axis
    masks, since ``n <= size``."""
    pool = tuple(f"y{i}" for i in range(1, depth + 1))
    variables = tuple(f"x{i}" for i in range(1, n + 1)) + pool
    axes = {v: i for i, v in enumerate(variables)}
    bits = {v: 1 << k for k, v in enumerate(pool)}
    spc = tables.space(size, len(variables))
    relation_atoms = []
    equality_atoms = []
    for atom in _atoms(signature, variables):
        mask = sum(bits.get(v, 0) for v in free_vars(atom))
        if isinstance(atom, Atom):
            relation_atoms.append((atom, signature.index[atom.relation], tuple(axes[v] for v in atom.args), mask))
        else:
            equality_atoms.append((atom, spc.equality_table(axes[atom.left], axes[atom.right]), mask))
    open_sets = tuple(tuple(v for v in pool if mask & bits[v]) for mask in range(1 << len(pool)))
    binds = tuple(tuple((v, axes[v], mask ^ bits[v]) for v in open_set) for mask, open_set in enumerate(open_sets))
    return spc, tuple(relation_atoms), tuple(equality_atoms), open_sets, binds


def semantic_items(structure: FiniteStructure, n: int, max_depth: int) -> Iterator[SemanticItem]:
    """Stream of first-per-truth-table formulas within the depth bound, in
    the free variables ``xs``, ``x1..xn``, and the pool ``y1..y{max_depth}``.

    Candidates at each layer combine previously kept representatives and
    quantify over the pool variables a table varies along, its open ones.
    A candidate is kept exactly when its table has not been seen; only then
    is its formula built, and atom tables are computed only when reached.
    Order: by layer, within a layer ``exists forall ~ & | ->``, each by
    operand index.  Binders, ``~`` and the right operand of a pair take items
    of the previous layer; the left operand of ``& |`` is an item before the
    right one, that of ``->`` any other item, and no operand of a pair has a
    full or empty table ((D), (E)).  The room rule builds a candidate at
    depth ``k`` only when its free pool variables, read from its operands'
    open sets (V), number at most ``max_depth - k``, the quantifiers left.
    The stream is exact; (C) to (V) hold by induction on the stream position.

    (C) A formula φ with at most ``max_depth - depth(φ)`` free pool variables
    (as has each subformula of a depth-bounded formula free within ``xs``)
    has its table kept by layer ``depth(φ)``: its operands qualify too and
    have theirs kept by items open only in their free variables, and the
    candidate on these comes in time in the family of φ's top (if (D) or (E)
    skips it, its table is kept before it is reached), is (R), or binds a
    variable no longer open and has its body's table.

    (D) A pair never takes one operand twice: ``A & A`` and ``A | A`` have
    A's table, and ``A -> A`` is full, which ``x1 = x1`` keeps at layer 0.

    (E) A pair never takes an operand whose table is full or empty: the
    pair's table is then the other operand's, full, empty, or that of ``~A``
    (``A -> B`` with ``B`` empty).  Every operand is a kept item, so its
    table is in ``seen``, and full is kept at layer 0 (D).  The ``~`` family
    takes ``A`` at the layer after A's, as ``A`` has room there, and that
    family runs before any ``->`` of its layer.

    (P) For a permutation π of the pool, the tables kept by each layer are
    closed under π: the atoms are, and the rules count open variables but
    never read their names.  So πψ's table is kept no deeper than ψ.

    (R) Let ``A`` be kept at layer ``L - 1``, ``B`` at a shallower one, with
    at most ``max_depth - L`` open variables together.  ``A -> B`` is
    equivalent to the formula below, of depth ``L`` at most and not topped
    by ``->``, so (C) keeps its table before the ``->`` family of layer ``L``:

        ~a -> B              a | B
        a & b -> B           ~a | (b -> B)
        a | b -> B           (a -> B) & (b -> B)
        (a -> b) -> B        (a | B) & (b -> B)
        (exists w. a) -> B   forall w. (a -> B), and dually for forall

    Each has at most ``max_depth - L`` free pool variables, as ``A`` and
    ``B`` are free in exactly their open ones (V).  If ``w`` is free in ``B``,
    bind instead ``u``, one of the ``L >= 2`` or more pool variables free in
    neither ``A`` nor ``B``; ``a[u/w]`` has its table kept no deeper (P).

    (S) For a candidate φ free in a pool variable ``v``, the table of
    ``φ[x1/v]`` is kept before φ is reached.  ``xs`` is never empty and never
    bound, so each operand turns into its substitute, kept no later and open
    in no more variables.  The candidate on these comes at an earlier layer
    or earlier in its family (atoms order ``x1`` first, ``& |`` commute),
    binds a variable no longer open and has its body's table, or is a ``->``
    whose right operand falls below its left (R).

    (V) A candidate φ free in a pool variable ``v`` that is not open has the
    table of ``φ[x1/v]``, kept before it (S).  So no kept item is vacuous,
    and neither a vacuity test nor a ``->`` family with the deeper operand
    on the left (R) would ever change the scan's state.  (V) also makes a
    kept item's open set its free pool set, which ``keep`` takes as a bit
    mask from the candidate: an atom's pool variables, a binder's operand's
    less the bound one, that of ``~``'s operand, and a pair's union.
    """
    spc, relation_atoms, equality_atoms, open_sets, binds = _scan_plan(
        structure.signature, structure.size(), n, max_depth
    )
    full = spc.full

    formulas: list[Formula] = []
    masks: list[int] = []  # the open variables of each kept item as pool bits
    tabs: list[int] = []
    seen: set[int] = set()

    def keep(formula: Formula, table: int, mask: int) -> SemanticItem:
        seen.add(table)
        formulas.append(formula)
        masks.append(mask)
        tabs.append(table)
        return SemanticItem(formula, table, layer, open_sets[mask])

    layer = 0
    interpretation = structure.interpretation
    by_element = tables.element_masks(spc, structure.universe)
    for atom, rel, args, mask in relation_atoms:
        if (table := spc.relation_table(interpretation[rel], args, by_element)) not in seen:
            yield keep(atom, table, mask)
    for atom, table, mask in equality_atoms:
        if table not in seen:
            yield keep(atom, table, mask)
    count = 0
    for layer in range(1, max_depth + 1):
        start, count = count, len(formulas)  # start is the first item of the previous layer
        room = max_depth - layer  # the quantifiers left to close a candidate
        fit = [len(open_set) <= room for open_set in open_sets]  # fit[mask]
        binders = [
            (i, var, axis, rest) for i in range(start, count) for var, axis, rest in binds[masks[i]] if fit[rest]
        ]
        for i, var, axis, rest in binders:
            if (table := spc.exists(tabs[i], axis)) not in seen:
                yield keep(Exists(var, formulas[i]), table, rest)
        for i, var, axis, rest in binders:
            if (table := spc.forall(tabs[i], axis)) not in seen:
                yield keep(Forall(var, formulas[i]), table, rest)
        # tables lie within ``full``, so ``full ^ t`` is the negation of t
        negs = [full ^ t for t in tabs[:count]]
        ops = [i for i in range(count) if fit[masks[i]]]  # this layer's operands in index order
        for i in ops[bisect.bisect_left(ops, start):]:
            if negs[i] not in seen:
                yield keep(Not(formulas[i]), negs[i], masks[i])
        pairs = [i for i in ops if 0 != tabs[i] != full]  # (E)
        first = bisect.bisect_left(pairs, start)  # pairs[first:] lie in the previous layer
        # pairs[k] is j, so pairs[:k] are the operands before j (D)
        for k in range(first, len(pairs)):
            j = pairs[k]
            tab, mask = tabs[j], masks[j]
            for i in pairs[:k]:
                if fit[union := masks[i] | mask] and (table := tabs[i] & tab) not in seen:
                    yield keep(And(formulas[i], formulas[j]), table, union)
        for k in range(first, len(pairs)):
            j = pairs[k]
            tab, mask = tabs[j], masks[j]
            for i in pairs[:k]:
                if fit[union := masks[i] | mask] and (table := tabs[i] | tab) not in seen:
                    yield keep(Or(formulas[i], formulas[j]), table, union)
        for j in pairs[first:]:
            tab, mask = tabs[j], masks[j]
            for i in pairs:
                if i != j and fit[union := masks[i] | mask] and (table := negs[i] | tab) not in seen:
                    yield keep(Implies(formulas[i], formulas[j]), table, union)
