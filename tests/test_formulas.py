from __future__ import annotations

import functools
import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from uniline.formulas import (
    And,
    Atom,
    Equal,
    EvaluationError,
    Exists,
    Forall,
    FormulaError,
    Implies,
    Not,
    Or,
    depth,
    evaluate,
    free_vars,
    parse_formula,
    render_formula,
    semantic_items,
)
from uniline.corpus import biclique_2_3, digraphs_up_to_iso
from uniline.structures import FiniteStructure, Signature, StructureError
from uniline.tables import space

from oracles import _syntactic_items, constant_along, enumerate_formulas

SIG = Signature.of(lt=2)


@functools.lru_cache(maxsize=None)
def drained(signature, n, max_depth):
    """The whole ``enumerate_formulas`` stream, drained once per test run."""
    return tuple(enumerate_formulas(signature, n, max_depth))


class TestParsing:
    def test_quantified_atom(self):
        formula = parse_formula("exists y. lt(y,x)", SIG)
        assert formula == Exists("y", Atom("lt", ("y", "x")))
        assert free_vars(formula) == {"x"}

    def test_closed_formula(self):
        formula = parse_formula("forall x. x = x", SIG)
        assert formula == Forall("x", Equal("x", "x"))
        assert free_vars(formula) == frozenset()

    def test_arity_mismatch(self):
        with pytest.raises(FormulaError, match="arity mismatch"):
            parse_formula("lt(x)", SIG)

    def test_unknown_relation(self):
        with pytest.raises(FormulaError, match="unknown relation"):
            parse_formula("gt(x,y)", SIG)

    def test_free_variables_are_legal(self):
        assert free_vars(parse_formula("lt(u,v)", SIG)) == {"u", "v"}

    def test_precedence(self):
        formula = parse_formula("~lt(x,y) & lt(y,x) | x = y -> lt(x,x)", SIG)
        assert formula == Implies(
            Or(And(Not(Atom("lt", ("x", "y"))), Atom("lt", ("y", "x"))), Equal("x", "y")),
            Atom("lt", ("x", "x")),
        )

    def test_implication_right_associative(self):
        formula = parse_formula("lt(x,y) -> lt(y,x) -> x = y", SIG)
        assert formula == Implies(
            Atom("lt", ("x", "y")), Implies(Atom("lt", ("y", "x")), Equal("x", "y"))
        )

    def test_quantifier_extends_right(self):
        formula = parse_formula("forall x. lt(x,y) | x = y", SIG)
        assert formula == Forall("x", Or(Atom("lt", ("x", "y")), Equal("x", "y")))

    def test_biconditional_is_derived(self):
        formula = parse_formula("lt(x,y) <-> lt(y,x)", SIG)
        a, b = Atom("lt", ("x", "y")), Atom("lt", ("y", "x"))
        assert formula == And(Implies(a, b), Implies(b, a))

    def test_syntax_error(self):
        with pytest.raises(FormulaError):
            parse_formula("lt(x,,y)", SIG)
        with pytest.raises(FormulaError):
            parse_formula("exists . lt(x,y)", SIG)

    @pytest.mark.parametrize("name", ["x", "_", "y_2", "Lt", "1a", "a-b", "\u00e9", "x\u00b2", "forall", ""])
    def test_names_are_the_identifiers_of_structures(self, name):
        """A formula's variables and relations are named as a structure's
        relations and elements are, less the two keywords."""
        identifier = re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) is not None
        try:
            Signature(((name, 1),))
        except StructureError:
            assert not identifier
        else:
            assert identifier
        relation = Signature(((name, 1),)) if identifier else SIG
        for text, signature in ((f"{name} = {name}", SIG), (f"{name}(x)", relation)):
            try:
                parse_formula(text, signature)
            except FormulaError:
                assert not identifier or name == "forall"
            else:
                assert identifier and name != "forall"


class TestNestingLimit:
    @pytest.mark.parametrize(
        "prefix, suffix",
        [("(", ")"), ("~", ""), ("forall x. ", ""), ("x = y -> ", "")],
        ids=["parentheses", "negation", "quantifier", "implication"],
    )
    def test_deep_nesting_is_a_formula_error(self, prefix, suffix):
        def nested(k):
            return prefix * k + "lt(x,y)" + suffix * k

        formula = parse_formula(nested(50), SIG)
        assert parse_formula(render_formula(formula), SIG) == formula
        for k in (51, 3000):
            with pytest.raises(FormulaError, match="nested deeper than 50"):
                parse_formula(nested(k), SIG)


class TestBiconditionalLimit:
    """``<->`` copies both operands, so without the limit the 16-chain below
    (199 characters) renders to 2,359,267 characters."""

    @pytest.mark.parametrize(
        "nest",
        [
            lambda k: " <-> ".join(["lt(x,y)"] * (k + 1)),
            lambda k: "(" * k + "lt(x,y)" + " <-> lt(y,x))" * k,
        ],
        ids=["chained", "parenthesized"],
    )
    def test_more_than_eight_is_a_formula_error(self, nest):
        formula = parse_formula(nest(8), SIG)
        assert parse_formula(render_formula(formula), SIG) == formula
        for k in (9, 16):
            with pytest.raises(FormulaError, match="more than 8 '<->'"):
                parse_formula(nest(k), SIG)


NAMES = st.sampled_from(["x", "y", "z"])
ATOMS = st.builds(lambda a, b: Atom("lt", (a, b)), NAMES, NAMES) | st.builds(Equal, NAMES, NAMES)
FORMULAS = st.recursive(
    ATOMS,
    lambda sub: st.builds(Not, sub)
    | st.builds(And, sub, sub)
    | st.builds(Or, sub, sub)
    | st.builds(Implies, sub, sub)
    | st.builds(Exists, NAMES, sub)
    | st.builds(Forall, NAMES, sub),
    max_leaves=12,
)
TOKENS = ["lt", "gt", "(", ")", "x", "y", ",", "=", "~", "&", "|", "->", "<->", "exists", "forall", "."]
FORMULA_TEXT = st.lists(st.sampled_from(TOKENS), max_size=30).map(" ".join) | st.text(max_size=60)


class TestParserTotality:
    @given(FORMULAS)
    def test_rendered_formulas_parse_back(self, formula):
        assert parse_formula(render_formula(formula), SIG) == formula

    @given(FORMULA_TEXT)
    def test_any_text_parses_and_round_trips_or_is_a_formula_error(self, text):
        try:
            formula = parse_formula(text, SIG)
        except FormulaError:
            return
        assert parse_formula(render_formula(formula), SIG) == formula


class TestRendering:
    def test_round_trip_on_enumerated(self):
        for formula in itertools.islice(enumerate_formulas(SIG, 1, 2), 500):
            assert parse_formula(render_formula(formula), SIG) == formula

    def test_round_trip_preserves_association(self):
        left = And(And(Equal("x", "x"), Equal("y", "y")), Equal("z", "z"))
        right = And(Equal("x", "x"), And(Equal("y", "y"), Equal("z", "z")))
        assert parse_formula(render_formula(left), SIG) == left
        assert parse_formula(render_formula(right), SIG) == right
        assert render_formula(left) != render_formula(right)

    def test_nested_quantifier_needs_parens(self):
        formula = And(Exists("y", Atom("lt", ("y", "x"))), Equal("x", "x"))
        assert parse_formula(render_formula(formula), SIG) == formula


class TestEvaluation:
    def test_chain3_successor(self, chain3):
        formula = parse_formula("exists y. lt(y,x)", SIG)
        assert evaluate(chain3, formula, {"x": "a"}) is False
        assert evaluate(chain3, formula, {"x": "c"}) is True

    def test_identity_always_true(self, chain3):
        formula = parse_formula("x = x", SIG)
        for element in chain3.universe:
            assert evaluate(chain3, formula, {"x": element}) is True

    def test_totality_of_chain(self, chain3):
        formula = parse_formula("forall y. (y = x | lt(x,y) | lt(y,x))", SIG)
        assert evaluate(chain3, formula, {"x": "b"}) is True

    def test_uncovered_free_variable(self, chain3):
        with pytest.raises(EvaluationError, match="free variable"):
            evaluate(chain3, parse_formula("lt(x,y)", SIG), {"x": "a"})

    def test_alpha_equivalence(self, chain3):
        one = parse_formula("exists y. lt(y,x)", SIG)
        other = parse_formula("exists z. lt(z,x)", SIG)
        for element in chain3.universe:
            assert evaluate(chain3, one, {"x": element}) == evaluate(
                chain3, other, {"x": element}
            )

    def test_automorphism_invariance(self, cycle3):
        # rotation a->b->c->a is an automorphism; satisfaction must be preserved
        rotate = {"a": "b", "b": "c", "c": "a"}
        for formula in itertools.islice(enumerate_formulas(cycle3.signature, 1, 2), 300):
            for element in cycle3.universe:
                assert evaluate(cycle3, formula, {"x1": element}) == evaluate(
                    cycle3, formula, {"x1": rotate[element]}
                )


class TestEnumeration:
    def test_depth_zero_atoms(self):
        formulas = list(enumerate_formulas(SIG, 1, 0))
        assert formulas == [Atom("lt", ("x1", "x1")), Equal("x1", "x1")]

    def test_depth_two_contains_quantified_atoms(self):
        formulas = set(drained(SIG, 1, 2))
        assert Exists("y1", Atom("lt", ("y1", "x1"))) in formulas
        assert Exists("y1", Atom("lt", ("x1", "y1"))) in formulas

    def test_empty_signature_equality_only(self):
        formulas = list(enumerate_formulas(Signature(()), 1, 1))
        assert Equal("x1", "x1") in formulas
        assert Not(Equal("x1", "x1")) in formulas
        assert all(isinstance(f, (Equal, Not, And, Or, Implies, Exists, Forall)) for f in formulas)

    def test_free_variables_exactly_target(self):
        for formula in itertools.islice(enumerate_formulas(SIG, 2, 1), 400):
            assert free_vars(formula) == {"x1", "x2"}

    def test_depth_bound_respected(self):
        assert all(depth(f) <= 2 for f in drained(SIG, 1, 2))

    def test_deterministic_order(self):
        first = list(itertools.islice(enumerate_formulas(SIG, 1, 2), 200))
        second = list(itertools.islice(enumerate_formulas(SIG, 1, 2), 200))
        assert first == second

    def test_bound_variables_from_fixed_pool(self):
        def variables(formula):
            if isinstance(formula, Atom):
                return set(formula.args)
            if isinstance(formula, Equal):
                return {formula.left, formula.right}
            if isinstance(formula, Not):
                return variables(formula.body)
            if isinstance(formula, (And, Or, Implies)):
                return variables(formula.left) | variables(formula.right)
            return {formula.var} | variables(formula.body)

        allowed = {"x1", "y1", "y2"}
        for formula in itertools.islice(enumerate_formulas(SIG, 1, 2), 600):
            assert variables(formula) <= allowed

    def test_syntactic_stream_digest(self):
        # pins the canonical order of the syntactic oracle, layer by layer
        e = Signature.of(e=2)
        cases = [(e, 1, 1, None), (e, 2, 1, None), (Signature.of(p=1, r=3), 1, 1, None), (e, 1, 2, 50_000)]
        digest = hashlib.sha256()
        for signature, n, max_depth, limit in cases:
            xs = tuple(f"x{i}" for i in range(1, n + 1))
            pool = tuple(f"y{i}" for i in range(1, max_depth + 1))
            for formula, layer in itertools.islice(_syntactic_items(signature, xs, pool, max_depth), limit):
                digest.update(f"{render_formula(formula)}|{layer}\n".encode())
        assert digest.hexdigest() == "eb0dfec87e48db4e69d61ed44d02bad2a3b5e6dba9896bca788443d9be5da76b"

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_formulas(SIG, 0, 1))
        with pytest.raises(ValueError):
            list(enumerate_formulas(SIG, 1, -1))


def closed_representatives(structure, max_depth):
    """The kept formulas of the semantic stream whose free variable is x1 alone."""
    for item in semantic_items(structure, 1, max_depth):
        if free_vars(item.formula) == {"x1"}:
            yield item.formula


class TestSemanticDedup:
    def _truth_key(self, structure, formula, n):
        xs = [f"x{i}" for i in range(1, n + 1)]
        return tuple(
            evaluate(structure, formula, dict(zip(xs, values)))
            for values in itertools.product(structure.universe, repeat=n)
        )

    def test_one_formula_per_truth_table(self, chain2):
        seen = set()
        for formula in closed_representatives(chain2, 2):
            key = self._truth_key(chain2, formula, 1)
            assert key not in seen
            seen.add(key)

    def test_semantic_stream_covers_syntactic_tables(self, chain3):
        # oracle: brute-force truth tables of the full syntactic enumeration;
        # the 3-chain is rigid, so its n = 1 tables separate all three elements
        brute = {
            self._truth_key(chain3, formula, 1)
            for formula in drained(chain3.signature, 1, 2)
        }
        deduped = {
            self._truth_key(chain3, formula, 1)
            for formula in closed_representatives(chain3, 2)
        }
        assert len(brute) == 7
        assert brute == deduped

    def test_items_report_tables_consistently(self, chain2):
        for item in semantic_items(chain2, 1, 2):
            if item.open_vars or (free_vars(item.formula) - {"x1"}):
                continue
            for i, element in enumerate(chain2.universe):
                direct = evaluate(chain2, item.formula, {"x1": element})
                assert direct == bool((item.table >> i) & 1)


@st.composite
def mixed_structures(draw, max_size):
    size = draw(st.integers(1, max_size))
    universe = [f"a{i}" for i in range(size)]
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    signature = Signature(tuple((f"r{k}", arity) for k, arity in enumerate(arities)))
    relations = {
        name: draw(st.lists(st.tuples(*[st.sampled_from(universe)] * arity), max_size=4))
        for name, arity in signature.relations
    }
    return FiniteStructure.build(signature, universe, relations)


@settings(max_examples=30, deadline=None)
@given(mixed_structures(max_size=2), st.integers(1, 2))
def test_semantic_stream_keeps_every_syntactic_table_of_layers_zero_and_one(structure, max_depth):
    # (C) against the syntactic oracle, open formulas included: a formula with
    # room for its free pool variables has its table kept by its own layer;
    # the tables are evaluated formula by formula, over the oracle's own atoms
    xs = ("x1",)
    pool = tuple(f"y{i}" for i in range(1, max_depth + 1))
    variables = xs + pool
    spc = space(structure.size(), len(variables))
    kept = {}
    for item in semantic_items(structure, 1, max_depth):
        kept.setdefault(item.table, item.depth)
    assignments = [
        (spc.cell_index(positions), dict(zip(variables, map(structure.universe.__getitem__, positions))))
        for positions in itertools.product(range(structure.size()), repeat=len(variables))
    ]
    items = _syntactic_items(structure.signature, xs, pool, max_depth)
    for formula, layer in itertools.takewhile(lambda item: item[1] < 2, items):
        if len(free_vars(formula) - set(xs)) <= max_depth - layer:
            table = sum(1 << cell for cell, assignment in assignments if evaluate(structure, formula, assignment))
            assert kept.get(table, layer + 1) <= layer, render_formula(formula)


def assert_admission_invariant(structure, max_depth):
    """Each kept item's open variables are exactly the pool variables its
    table is not constant along, and exactly its free pool variables (no kept
    item is vacuous), and they number at most the layers left.  So admission
    reads the table alone, and the scan may skip, before computing its table,
    any candidate with more free pool variables than layers left."""
    xs = ("x1",)
    pool = tuple(f"y{i}" for i in range(1, max_depth + 1))
    spc = space(structure.size(), 1 + max_depth)
    tables = set()
    last_depth = 0
    for item in semantic_items(structure, 1, max_depth):
        varying = tuple(v for axis, v in enumerate(pool, 1) if not constant_along(spc, item.table, axis))
        assert item.open_vars == varying
        assert free_vars(item.formula) - set(xs) == set(item.open_vars)
        assert item.depth + len(item.open_vars) <= max_depth
        assert item.depth >= last_depth and item.table not in tables
        last_depth = item.depth
        tables.add(item.table)


@settings(max_examples=40, deadline=None)
@given(mixed_structures(max_size=3))
def test_admission_reads_the_table_alone_at_depth_two(structure):
    assert_admission_invariant(structure, 2)


@settings(max_examples=10, deadline=None)
@given(mixed_structures(max_size=2))
def test_admission_reads_the_table_alone_at_depth_three(structure):
    assert_admission_invariant(structure, 3)


@settings(max_examples=20, deadline=None)
@given(mixed_structures(max_size=2))
def test_admission_reads_the_table_alone_at_depth_four(structure):
    assert_admission_invariant(structure, 4)


def _three_arities():
    return FiniteStructure.build(
        Signature.of(p=1, e=2, r=3),
        ["a", "b"],
        {"p": [("b",)], "e": [("a", "b")], "r": [("a", "a", "b"), ("b", "a", "b")]},
    )


def _stream_digest(cases) -> str:
    """SHA-256 over every kept item's formula, table, depth, free variables
    (read from the formula) and open set, one line each, in stream order."""
    digest = hashlib.sha256()
    for structure, n, max_depth in cases:
        for item in semantic_items(structure, n, max_depth):
            line = (
                f"{render_formula(item.formula)}|{item.table}|{item.depth}|"
                f"{','.join(sorted(free_vars(item.formula)))}|{','.join(item.open_vars)}\n"
            )
            digest.update(line.encode())
    return digest.hexdigest()


def _stream_cases():
    """Every digraph of size at most 3 at depth 2, a subset at depth 3 and
    with two free variables, and two structures that mix arities."""
    for size in (1, 2, 3):
        for graph in digraphs_up_to_iso(size):
            yield graph, 1, 2
    for size in (1, 2):
        for graph in digraphs_up_to_iso(size):
            yield graph, 2, 2
            yield graph, 1, 3
    size3 = digraphs_up_to_iso(3)
    for graph in size3[::4]:
        yield graph, 2, 2
    for graph in size3[::8]:
        yield graph, 1, 3
    unary_ternary = FiniteStructure.build(
        Signature.of(p=1, r=3),
        ["a", "b", "c"],
        {"p": [("a",)], "r": [("a", "b", "c"), ("b", "c", "a"), ("c", "c", "a")]},
    )
    yield unary_ternary, 1, 2
    three_arities = _three_arities()
    for n, max_depth in ((1, 2), (2, 2), (1, 3)):
        yield three_arities, n, max_depth


def test_semantic_stream_digest():
    # pins the canonical order and every kept table, free set and open set
    assert _stream_digest(_stream_cases()) == "23413d72e39c48b4b52683dbe7a60ec3593d9ec7e19c2c18e53b7bf08029bb82"


def _two_element_unary_binary():
    """Every structure over ``p/1, e/2`` on two elements, loops allowed: 64."""
    signature = Signature.of(p=1, e=2)
    universe = ["a", "b"]
    pairs = list(itertools.product(universe, repeat=2))
    for p_bits in range(1 << len(universe)):
        for e_bits in range(1 << len(pairs)):
            relations = {
                "p": [(u,) for k, u in enumerate(universe) if p_bits >> k & 1],
                "e": [pair for k, pair in enumerate(pairs) if e_bits >> k & 1],
            }
            yield FiniteStructure.build(signature, universe, relations)


def test_semantic_stream_digest_of_every_two_element_structure_at_depth_three():
    # depth 3 is the first at which a layer-2 candidate has room for a free pool
    # variable, so a deeper left operand of -> and a vacuous candidate can arise
    cases = [(structure, n, 3) for structure in _two_element_unary_binary() for n in (1, 2)]
    assert _stream_digest(cases) == "83b291c5c6fa63e1b9b2841af9db354aa94eea8f5c5a12bde013e8301496f815"


@pytest.mark.parametrize(
    "structure, expected",
    [
        (biclique_2_3(), "4db88a8374b5d11446e9102b835566016bebce382de9352776f65a49bd6abe52"),
        (_three_arities(), "415e2904634e30a5e3e1b4cec62ec84d6f9be66a8da4aab1f46e7006648c8f54"),
    ],
    ids=["biclique_2_3", "three_arities"],
)
def test_semantic_stream_digest_at_depth_four(structure, expected):
    # the whole n = 1 stream at the deepest scan allowed, where the most
    # candidates are skipped for having more free pool variables than layers left
    assert _stream_digest([(structure, 1, 4)]) == expected
