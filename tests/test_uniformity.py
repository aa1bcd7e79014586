from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

from uniline import autgroup
from uniline.autgroup import ResourceCapError, orbit_partition
from uniline.corpus import (
    antichain,
    beyond_depth_three,
    biclique_2_3,
    crafted_structures,
    digraphs_up_to_iso,
)
from uniline.formulas import (
    And,
    Atom,
    Equal,
    Exists,
    depth,
    evaluate,
    parse_formula,
    render_formula,
)
from uniline.structures import FiniteStructure, Signature, elements_of
from uniline.uniformity import (
    MAX_DEPTH,
    OrbitCounterexample,
    SchemaCounterexample,
    UniformityVerdict,
    check_uniformity_orbits,
    check_uniformity_schema,
    distinguishing_formula,
)

from oracles import brute_force_automorphisms, enumerate_formulas
from test_autgroup import random_mixed_structure


def naive_schema_check(structure, n, depth):
    """Independent oracle: direct scan of the syntactic enumeration."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    carrier = list(itertools.permutations(structure.universe, n))
    for formula in enumerate_formulas(structure.signature, n, depth):
        satisfied = {t for t in carrier if evaluate(structure, formula, dict(zip(xs, t)))}
        if not satisfied:
            continue
        for t in carrier:
            if not any(p in satisfied for p in itertools.permutations(t)):
                return formula, min(satisfied), t
    return None


def unpruned_separator_depth(structure, depth):
    """Independent oracle for n=1: the least depth <= ``depth`` at which some
    formula in ``x1`` separates two elements, or None.

    It closes the atom tables over ``x1, y1..y_depth`` under every connective
    and every pool quantifier, layer by layer, keeping each table whatever
    pool variables it depends on; nothing is pruned by a depth budget.  A
    separator is a table constant along every pool axis and not constant in
    ``x1``.  The last layer is not built in full.  Quantified tables are
    tested directly, and a negation separates only if its operand did.  A
    separator is all true on some x1-fibre (the cells with one value of
    ``x1``) and all false on another: a conjunction is all true on a fibre
    only where both operands are, a disjunction all false only where both
    are, an implication all false only where its antecedent is all true and
    its consequent all false, so only pairs sharing such a fibre are formed.
    Any formula of depth <= d in ``x1`` is equivalent to one over these d + 1
    variables of the same depth (rename each bound variable by its nesting
    level), so None proves that no such formula separates.
    """
    m = structure.size()
    variables = ("x1",) + tuple(f"y{i}" for i in range(1, depth + 1))
    # variable i is digit i of the cell index, so x1 is the fastest digit
    strides = [m**i for i in range(len(variables))]
    cells = [tuple(c // s % m for s in strides) for c in range(m ** len(variables))]
    full = (1 << len(cells)) - 1
    spreads = [sum(1 << (v * s) for v in range(m)) for s in strides]
    digit_zero = [
        sum(1 << c for c, values in enumerate(cells) if values[axis] == 0) for axis in range(len(variables))
    ]
    fibres = [sum(1 << c for c, values in enumerate(cells) if values[0] == u) for u in range(m)]
    # a table constant along the pool axes repeats its first m cells
    column = (1 << m) - 1
    repeat = sum(1 << (m * j) for j in range(m**depth))

    def table(formula):
        return sum(
            1 << c
            for c, values in enumerate(cells)
            if evaluate(structure, formula, {v: structure.universe[x] for v, x in zip(variables, values)})
        )

    def folds(t, axis):
        stride, mask = strides[axis], digit_zero[axis]
        some, every = 0, mask
        for v in range(m):
            part = (t >> (v * stride)) & mask
            some |= part
            every &= part
        return some * spreads[axis], every * spreads[axis]

    def fibre_kinds(t):
        true_at = {u for u in range(m) if t & fibres[u] == fibres[u]}
        false_at = {u for u in range(m) if not t & fibres[u]}
        return true_at, false_at

    def separates(t):
        low = t & column
        return 0 < low < column and low * repeat == t

    atoms = [
        Atom(name, args)
        for name, arity in structure.signature.relations
        for args in itertools.product(variables, repeat=arity)
    ] + [Equal(u, v) for u in variables for v in variables]
    level = {table(atom) for atom in atoms}
    for layer in range(depth):
        if any(separates(t) for t in level):
            return layer
        if layer == depth - 1:
            break
        prev = list(level)
        for t in prev:
            level.add(full & ~t)
            for axis in range(1, len(variables)):
                level.update(folds(t, axis))
        for a in prev:
            for b in prev:
                level.update((a & b, a | b, (full & ~a) | b))
    # the last layer; a negation separates only if its operand already did
    if any(separates(f) for t in level for axis in range(1, len(variables)) for f in folds(t, axis)):
        return depth
    kinds = [(t, *fibre_kinds(t)) for t in level]
    somewhere_true = [(t, true_at) for t, true_at, _ in kinds if true_at]
    somewhere_false = [(t, false_at) for t, _, false_at in kinds if false_at]
    pairs = itertools.chain(
        (a & b for (a, ta), (b, tb) in itertools.product(somewhere_true, repeat=2) if ta & tb),
        (a | b for (a, fa), (b, fb) in itertools.product(somewhere_false, repeat=2) if fa & fb),
        ((full & ~a) | b for (a, ta), (b, fb) in itertools.product(somewhere_true, somewhere_false) if ta & fb),
    )
    if any(separates(t) for t in pairs):
        return depth
    return None


class TestSchema:
    def test_chain2_counterexample(self, chain2):
        verdict = check_uniformity_schema(chain2, 1, 2)
        assert not verdict.uniform
        ce = verdict.counterexample
        assert isinstance(ce, SchemaCounterexample)
        assert ce.formula == Exists("y1", Atom("lt", ("x1", "y1")))
        assert ce.witness == ("a",)
        assert ce.violating == ("b",)

    def test_chain2_agrees_with_naive_oracle(self, chain2):
        oracle = naive_schema_check(chain2, 1, 2)
        assert oracle is not None
        verdict = check_uniformity_schema(chain2, 1, 2)
        # the oracle scans the same enumeration order, so the first
        # violating truth table is realized by the same formula
        assert render_formula(verdict.counterexample.formula) == render_formula(oracle[0])

    def test_naive_oracle_agreement_small_cases(self, chain3, cycle3, empty3):
        for structure in (chain3, cycle3, empty3):
            for n in (1, 2):
                oracle = naive_schema_check(structure, n, 1)
                verdict = check_uniformity_schema(structure, n, 1)
                assert verdict.uniform == (oracle is None)

    def test_empty4_uniform(self, empty4):
        assert check_uniformity_schema(empty4, 2, 2).uniform

    def test_cycle3_uniform_depth3(self, cycle3):
        assert check_uniformity_schema(cycle3, 1, 3).uniform

    def test_counterexample_is_self_certifying(self, chain3):
        verdict = check_uniformity_schema(chain3, 2, 2)
        assert not verdict.uniform
        ce = verdict.counterexample
        xs = ["x1", "x2"]
        assert evaluate(chain3, ce.formula, dict(zip(xs, ce.witness)))
        for arrangement in itertools.permutations(ce.violating):
            assert not evaluate(chain3, ce.formula, dict(zip(xs, arrangement)))

    def test_depth_zero(self, chain2):
        # no loops and reflexive equality only: nothing distinguishes a from b
        assert check_uniformity_schema(chain2, 1, 0).uniform

    def test_validation(self, chain2):
        with pytest.raises(ValueError):
            check_uniformity_schema(chain2, 0, 2)
        with pytest.raises(ValueError):
            check_uniformity_schema(chain2, 1, -1)

    @pytest.mark.parametrize("depth", [5, 60])
    def test_depth_limit(self, chain2, depth):
        assert MAX_DEPTH == 4
        with pytest.raises(ValueError, match=f"between 0 and 4, got {depth}"):
            check_uniformity_schema(chain2, 1, depth)

    def test_assignment_space_limit(self):
        # a space holds m * var_count * cells mask bits.  Without the limit the
        # first space builds for 43 s on 2 cores; the second is the smallest
        # universe over the limit at n = 1, depth 0 (10^5 elements need 625 MB)
        antichain10 = FiniteStructure.build(Signature.of(e=2), [f"v{i}" for i in range(10)], {})
        with pytest.raises(ValueError, match="space 10\\^7 exceeds the limit of 100,000,000 mask bits"):
            distinguishing_formula(antichain10, ("v0", "v1", "v2"), ("v1", "v2", "v3"), 4)
        wide = FiniteStructure.build(Signature.of(e=2), [f"v{i}" for i in range(10_001)], {})
        with pytest.raises(ValueError, match="space 10001\\^1 exceeds the limit"):
            check_uniformity_schema(wide, 1, 0)

    def test_wide_scan_memory(self):
        # 19,900 pairs over a 40,000-cell space: one bit mask per pair would
        # take about 67 MB, a list of cells per pair takes a few MB
        antichain = FiniteStructure.build(Signature.of(e=2), [f"v{i}" for i in range(200)], {})
        tracemalloc.start()
        try:
            verdict = check_uniformity_schema(antichain, 2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.uniform
        assert peak < 32 * 2**20

    def test_certificates_are_least_tuples(self):
        # the witness is the least distinct tuple satisfying the formula, the
        # violating tuple the least one with no satisfying arrangement;
        # permutations of the universe come in that order
        for size in (1, 2, 3):
            for graph in digraphs_up_to_iso(size):
                for n in (1, 2)[:size]:
                    verdict = check_uniformity_schema(graph, n, 2)
                    if verdict.uniform:
                        continue
                    ce = verdict.counterexample
                    xs = [f"x{i}" for i in range(1, n + 1)]
                    distinct = list(itertools.permutations(graph.universe, n))
                    satisfied = {t for t in distinct if evaluate(graph, ce.formula, dict(zip(xs, t)))}
                    assert ce.witness == next(t for t in distinct if t in satisfied)
                    unmet = (t for t in distinct if not satisfied & set(itertools.permutations(t)))
                    assert ce.violating == next(unmet)


class TestOrbits:
    def test_chain3_counterexample(self, chain3):
        verdict = check_uniformity_orbits(chain3, 1)
        assert not verdict.uniform
        assert verdict.counterexample == OrbitCounterexample(("a",), ("b",))

    def test_cycle3_uniform(self, cycle3):
        assert check_uniformity_orbits(cycle3, 1).uniform

    def test_empty5_triples_uniform(self, empty5):
        assert check_uniformity_orbits(empty5, 3).uniform

    def test_decider_equals_the_partition(self):
        # every corpus and crafted structure at n = 1, 2, every n up to size
        # 4, and three large groups at n = 1-3
        questions = [(s, n) for size in range(1, 5) for s in digraphs_up_to_iso(size) for n in range(1, size + 1)]
        questions += [(s, n) for s in digraphs_up_to_iso(5) for n in (1, 2)]
        questions += [(s, n) for _, s in crafted_structures() for n in (1, 2)]
        questions += [(s, n) for s in (antichain(8), clique(7), relabelled_product()) for n in (1, 2, 3)]
        for structure, n in questions:
            assert check_uniformity_orbits(structure, n) == partition_verdict(structure, n)
        # random structures with unary and ternary relations and repeated
        # coordinates, at every n, against the brute-force group
        rng = random.Random(15)
        for _ in range(300):
            structure = random_mixed_structure(rng)
            group = brute_force_automorphisms(structure)
            for n in range(1, structure.size() + 1):
                assert check_uniformity_orbits(structure, n) == partition_verdict(structure, n, group)

    def test_key_pretest_skips_the_search(self, monkeypatch, chain3, cycle3):
        # an automorphism keeps each element's sorted (relation, coordinate)
        # list, so a subset whose lists differ from those of the least subset
        # is returned with no search, and the plan waits for the first search
        calls = {"_search_plan": 0, "_search": 0}

        def counting(name):
            original = getattr(autgroup, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(autgroup, name, counting(name))

        def plans_and_searches(structure, n):
            calls.update(dict.fromkeys(calls, 0))
            check_uniformity_orbits(structure, n)
            return calls["_search_plan"], calls["_search"]

        def key_multiset(structure, subset):
            fills = {element: [] for element in structure.universe}
            for name in structure.signature.index:
                for t in structure.tuples(name):
                    for k, element in enumerate(t):
                        fills[element].append((name, k))
            return sorted(sorted(fills[element]) for element in elements_of(structure, subset))

        assert plans_and_searches(chain3, 1) == (0, 0)
        assert plans_and_searches(cycle3, 1) == (1, 2)
        unsearched = 0
        for structure in digraphs_up_to_iso(4):
            for n in (1, 2):
                subsets = list(itertools.combinations(range(4), n))
                classes = orbit_partition(structure, n, mode="subsets").classes
                if len(classes) == 1:
                    searches = len(subsets) - 1
                else:
                    outside = classes[1][0]
                    # one search per subset in the orbit before it, and one
                    # for it only when its keys match those of the least subset
                    searches = subsets.index(outside) - 1
                    searches += key_multiset(structure, outside) == key_multiset(structure, subsets[0])
                assert plans_and_searches(structure, n) == (min(searches, 1), searches)
                unsearched += searches == 0
        assert unsearched > 0

    def test_high_symmetry_memory(self):
        # the whole group of antichain9 is 9! = 362,880 permutations, about
        # 100 MB; the decider holds one automorphism at a time
        antichain9 = antichain(9)
        tracemalloc.start()
        try:
            verdicts = [check_uniformity_orbits(antichain9, n) for n in (1, 2, 3)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(verdict.uniform for verdict in verdicts)
        assert peak < 4 * 2**20

    def test_error_contract(self):
        # a bad n is reported before the size cap, and the cap holds at every
        # n, even n = size, where one subset needs no search
        antichain11 = antichain(11)
        for n in (0, 12):
            with pytest.raises(ValueError, match=f"^n must be between 1 and 11, got {n}$"):
                check_uniformity_orbits(antichain11, n)
        for n in (1, 11):
            with pytest.raises(ResourceCapError, match="^universe size 11 exceeds cap 10$"):
                check_uniformity_orbits(antichain11, n)


def partition_verdict(structure, n, group=None):
    """The orbit verdict read off the orbits of the n-subsets: uniform with
    one orbit, else the least subset and the least subset outside its orbit.
    The orbits are those of ``orbit_partition``, or of ``group`` if given."""
    if group is None:
        classes = orbit_partition(structure, n, mode="subsets").classes
        outside = classes[1][0] if len(classes) > 1 else None
    else:
        orbit = {tuple(sorted(g[:n])) for g in group}
        subsets = itertools.combinations(range(structure.size()), n)
        outside = next((subset for subset in subsets if subset not in orbit), None)
    if outside is None:
        return UniformityVerdict("orbits", n, True)
    first, second = elements_of(structure, range(n)), elements_of(structure, outside)
    return UniformityVerdict("orbits", n, False, OrbitCounterexample(first, second))


def clique(size):
    names = [f"v{i}" for i in range(size)]
    return FiniteStructure.build(Signature.of(e=2), names, {"e": [(a, b) for a in names for b in names if a != b]})


def relabelled_product():
    """The 3-cycle with each vertex blown up into an arc-free pair (6
    elements, a group of order 24), under shuffled element names."""
    m = 2
    arcs = [(u * m + i, (u + 1) % 3 * m + j) for u in range(3) for i in range(m) for j in range(m)]
    names = [f"p{k}" for k in range(3 * m)]
    random.Random(5).shuffle(names)
    return FiniteStructure.build(
        Signature.of(e=2), sorted(names), {"e": [(names[a], names[b]) for a, b in arcs]}
    )


class TestAgreement:
    def test_soundness_on_small_structures(self, chain2, chain3, cycle3, empty3, empty4):
        # orbit-uniform implies schema-uniform at every depth (checked at 2)
        for structure in (chain2, chain3, cycle3, empty3, empty4):
            for n in (1, 2):
                if n > structure.size():
                    continue
                if check_uniformity_orbits(structure, n).uniform:
                    assert check_uniformity_schema(structure, n, 2).uniform

    def test_depth_three_horizon(self):
        # two directed cycles of different lengths: different orbits, yet no
        # depth-3 formula tells a triangle vertex from a square vertex; the
        # depth-4 closed-walk formula does, and so does the depth-4 scan
        structure = beyond_depth_three()
        assert not check_uniformity_orbits(structure, 1).uniform
        assert check_uniformity_schema(structure, 1, 3).uniform
        verdict = check_uniformity_schema(structure, 1, 4)
        assert not verdict.uniform
        ce = verdict.counterexample
        assert depth(ce.formula) == 4
        assert evaluate(structure, ce.formula, {"x1": ce.witness[0]})
        assert not evaluate(structure, ce.formula, {"x1": ce.violating[0]})
        partition = orbit_partition(structure, 1)
        assert partition.class_of((structure.position(ce.witness[0]),)) != partition.class_of(
            (structure.position(ce.violating[0]),)
        )
        separator = Exists(
            "y1",
            And(
                Atom("e", ("x1", "y1")),
                Exists("y2", And(Atom("e", ("y1", "y2")), Atom("e", ("y2", "x1")))),
            ),
        )
        assert evaluate(structure, separator, {"x1": "a_v0"})
        assert not evaluate(structure, separator, {"x1": "b_v0"})

    def test_biclique_horizon_at_size_five(self, chain3):
        # the one size-5 structure where depth 3 misses the orbit split: the
        # 2x3 biclique's sides are separated at depth 4 ("some y2 is the
        # only vertex besides x1 and its neighbors") but by nothing shallower
        structure = biclique_2_3()
        assert not check_uniformity_orbits(structure, 1).uniform
        assert check_uniformity_schema(structure, 1, 3).uniform
        # independent evidence: the unpruned closure finds no depth-3 separator,
        # and it does find one where one exists, at depth 1 and at depth 3
        assert unpruned_separator_depth(structure, 3) is None
        assert unpruned_separator_depth(chain3, 3) == 1
        first_at_three = FiniteStructure.build(
            Signature.of(e=2),
            ["a", "b", "c", "d"],
            {"e": [("a", "b"), ("b", "c"), ("b", "d"), ("c", "a"), ("d", "a")]},
        )
        assert unpruned_separator_depth(first_at_three, 3) == 3
        # n=2 does find a depth-3 counterexample (adjacency vs same-side)
        assert not check_uniformity_schema(structure, 2, 3).uniform
        separator = parse_formula(
            "exists y2. (forall y1. (y2 = y1 | e(x1,y1) | x1 = y1))",
            structure.signature,
        )
        assert depth(separator) == 4
        assert all(evaluate(structure, separator, {"x1": v}) for v in ("a0", "a1"))
        assert not any(evaluate(structure, separator, {"x1": v}) for v in ("b0", "b1", "b2"))


class TestDistinguishing:
    def test_chain2(self, chain2):
        formula = distinguishing_formula(chain2, ("a",), ("b",), 2)
        assert formula == Exists("y1", Atom("lt", ("x1", "y1")))
        assert evaluate(chain2, formula, {"x1": "a"})
        assert not evaluate(chain2, formula, {"x1": "b"})

    def test_same_orbit_none(self, cycle3):
        assert distinguishing_formula(cycle3, ("a",), ("b",), 3) is None

    def test_identical_subsets_none(self, chain3):
        assert distinguishing_formula(chain3, ("a", "b"), ("b", "a"), 2) is None

    def test_size_mismatch(self, chain3):
        with pytest.raises(ValueError, match="same size"):
            distinguishing_formula(chain3, ("a",), ("a", "b"), 2)

    @pytest.mark.parametrize("depth", [-1, 5, 60])
    def test_depth_limit(self, chain2, depth):
        with pytest.raises(ValueError, match=f"between 0 and 4, got {depth}"):
            distinguishing_formula(chain2, ("a",), ("b",), depth)

    def test_pair_subsets(self, chain3):
        formula = distinguishing_formula(chain3, ("a", "b"), ("a", "c"), 2)
        assert formula is not None
        found_true = any(
            evaluate(chain3, formula, {"x1": p, "x2": q}) for p, q in [("a", "b"), ("b", "a")]
        )
        found_false = any(
            evaluate(chain3, formula, {"x1": p, "x2": q}) for p, q in [("a", "c"), ("c", "a")]
        )
        assert found_true and not found_false
