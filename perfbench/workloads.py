"""The four workloads: inputs from a seed, one op at a time, every op checked.

Each workload yields its ops in rounds.  A round has a fixed number of ops
per stratum, so every seed measures the same mix; the seed draws which cases
fill the strata and in what order they run.  ``execute`` is the timed call
into the program.  ``verdict`` renders its result as text, whose hash must
match the stored reference for the case; ``check`` re-checks certificates
and returns the problems found plus benchmark-level counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from uniline import autgroup, cli, corpus, cuts, formulas, ordline, structures, uniformity

REFERENCE = Path(__file__).resolve().parent / "reference"


class Op(NamedTuple):
    key: str  # names the case; the reference hash is looked up by it
    stratum: str
    expected: str | None  # reference hash of the verdict
    args: tuple


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / f"{name}.json").read_text(encoding="utf-8"))


def split_hashes(packed: str) -> list[str]:
    return [packed[i:i + 8] for i in range(0, len(packed), 8)]


# -- shared by the corpus workloads ---------------------------------------------------


def build_corpus(smoke: bool) -> list[tuple[str, structures.FiniteStructure]]:
    """Sizes 1-5 up to isomorphism, then the crafted size-6/7 cases; sizes 1-4
    alone in smoke mode."""
    cases = []
    for size in range(1, 5 if smoke else 6):
        for i, structure in enumerate(corpus.digraphs_up_to_iso(size)):
            cases.append((f"size{size}#{i}", structure))
    if not smoke:
        cases.extend(corpus.crafted_structures())
    return cases


def corpus_questions(cases) -> list[tuple[str, structures.FiniteStructure, int]]:
    """Every (structure, n) question for n in {1, 2}, in corpus order."""
    return [
        (f"{name}/{n}", structure, n)
        for name, structure in cases
        for n in (1, 2)
        if n <= structure.size()
    ]


def corpus_reference(name: str) -> tuple[dict, list[str], dict[str, str]]:
    """The reference file, its question keys in corpus order, and the
    verdict hash per key.

    Hashes are packed in corpus question order; ``sizes`` and ``crafted``
    give that order without building the corpus.
    """
    reference = load_reference(name)
    cases = [
        (f"size{size}#{i}", size) for size, count in reference["sizes"] for i in range(count)
    ] + [tuple(case) for case in reference["crafted"]]
    keys = [f"{case}/{n}" for case, size in cases for n in (1, 2) if n <= size]
    hashes = split_hashes(reference["hashes"])
    if len(keys) != len(hashes):
        raise RuntimeError(f"{name} reference: {len(hashes)} hashes for {len(keys)} questions")
    return reference, keys, dict(zip(keys, hashes))


def pack_corpus_reference(cases, hashes: list[str]) -> dict:
    """Inverse of ``corpus_reference`` for the full corpus."""
    sizes = Counter(structure.size() for name, structure in cases if name.startswith("size"))
    crafted = [[name, structure.size()] for name, structure in cases if not name.startswith("size")]
    return {"sizes": sorted(sizes.items()), "crafted": crafted, "hashes": "".join(hashes)}


def describe(verdict: uniformity.UniformityVerdict) -> str:
    ce = verdict.counterexample
    if ce is None:
        return f"{verdict.mode}: uniform"
    if isinstance(ce, uniformity.SchemaCounterexample):
        formula = formulas.render_formula(ce.formula)
        return f"{verdict.mode}: {formula} at ({','.join(ce.witness)}) not ({','.join(ce.violating)})"
    return f"{verdict.mode}: ({','.join(ce.first)}) vs ({','.join(ce.second)})"


def schema_problems(structure, n: int, verdict) -> list[str]:
    """The witness satisfies the formula; no arrangement of the violating tuple does."""
    ce = verdict.counterexample
    if ce is None:
        return []
    xs = [f"x{i}" for i in range(1, n + 1)]
    for tup in (ce.witness, ce.violating):
        if len(tup) != n or len(set(tup)) != n:
            return [f"certificate tuple {tup} is not {n} distinct elements"]
    if not formulas.evaluate(structure, ce.formula, dict(zip(xs, ce.witness))):
        return ["schema witness does not satisfy its formula"]
    for arrangement in itertools.permutations(ce.violating):
        if formulas.evaluate(structure, ce.formula, dict(zip(xs, arrangement))):
            return [f"arrangement {arrangement} of the violating tuple satisfies the formula"]
    return []


def orbit_problems(structure, n: int, verdict) -> list[str]:
    """The two subsets lie in different classes of the orbit partition."""
    ce = verdict.counterexample
    if ce is None:
        return []
    partition = autgroup.orbit_partition(structure, n, mode="subsets")
    first = tuple(structure.position(e) for e in ce.first)
    second = tuple(structure.position(e) for e in ce.second)
    if partition.class_of(first) == partition.class_of(second):
        return ["orbit counterexample subsets lie in one orbit"]
    return []


def agreement(schema, orbits, counts: Counter) -> list[str]:
    """A schema counterexample on an orbit-uniform case contradicts one decider;
    an orbit counterexample that the schema scan misses is a horizon miss."""
    if orbits.uniform and not schema.uniform:
        return ["schema counterexample on an orbit-uniform case"]
    if schema.uniform and not orbits.uniform:
        counts["uniformity.horizon_misses"] += 1
    return []


class Workload:
    name = ""
    trace_rounds = 1  # rounds replayed by a traced run

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke  # tiny inputs, for the benchmark's own test
        if smoke:
            self.trace_rounds = 1

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError

    def run_ops(self) -> list[Op]:
        """The ops of an untraced run, which passes over them again and again."""
        return next(self.rounds())

    def execute(self, op: Op):
        raise NotImplementedError

    def verdict(self, op: Op, result) -> str:
        raise NotImplementedError

    def check(self, op: Op, result, counts: Counter) -> list[str]:
        raise NotImplementedError


# -- corpus-d2 ------------------------------------------------------------------------


class CorpusD2(Workload):
    """Both deciders on every corpus question, the schema scan at depth 2.

    A traced run takes its rounds from the whole corpus in a shuffled order.
    An untraced run takes every crafted question and every ``step``-th
    question of sizes 1-5 from an offset drawn from the seed, shuffled.
    The corpus runs by size, so this sample holds the same share of every
    size for every seed, and the few dear crafted questions (antichain7 at
    n = 2 costs 50 times the median) are in every run.
    """

    name = "corpus-d2"
    depth = 2
    round_ops = 500
    step = 7
    trace_rounds = 8

    def setup(self) -> None:
        _, _, expected = corpus_reference(self.name)
        self.ops = [
            Op(key, "all", expected[key], (structure, n))
            for key, structure, n in corpus_questions(build_corpus(self.smoke))
        ]
        if self.smoke:
            self.round_ops = 40

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            order = list(self.ops)
            rng.shuffle(order)
            for start in range(0, len(order), self.round_ops):
                yield order[start:start + self.round_ops]

    def run_ops(self) -> list[Op]:
        rng = random.Random(self.seed)
        sized = [op for op in self.ops if op.key.startswith("size")]
        ops = [op for op in self.ops if not op.key.startswith("size")]
        ops += sized[rng.randrange(self.step)::self.step]
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        structure, n = op.args
        schema = uniformity.check_uniformity_schema(structure, n, self.depth)
        orbits = uniformity.check_uniformity_orbits(structure, n)
        return schema, orbits

    def verdict(self, op: Op, result) -> str:
        return f"{op.key} | {describe(result[0])} | {describe(result[1])}"

    def check(self, op: Op, result, counts: Counter) -> list[str]:
        structure, n = op.args
        schema, orbits = result
        return (
            schema_problems(structure, n, schema)
            + orbit_problems(structure, n, orbits)
            + agreement(schema, orbits, counts)
        )


# -- deep-d3 ------------------------------------------------------------------------


class DeepD3(Workload):
    """The schema scan alone at depth 3 on a stratified slice of the corpus.

    a: n=1 cases whose first counterexample is at depth 3; 2 drawn per round.
    b: cases that need the full depth-3 scan (orbit-uniform, sizes 4-7, plus
       the 2x3 biclique on the depth horizon); all of them run every round.
    c<n>.<d>: cases with a counterexample of depth d at depth 2, which exit
       early; drawn per round.  Their cost is set by n and d (about 0.14 ms
       for c2.0, 0.4 ms for c1.1, 1.6 ms for c2.1, 7 ms for c1.2, 30 ms for
       c2.2), so each has its own count and the median falls inside c1.2
       for every seed.
    """

    name = "deep-d3"
    depth = 3
    per_round = {"a": 2, "c2.0": 12, "c1.1": 12, "c2.1": 3, "c1.2": 30, "c2.2": 1}

    def setup(self) -> None:
        reference, keys, expected = corpus_reference(self.name)
        codes = dict(zip(keys, reference["strata"]))
        self.strata: dict[str, list[Op]] = {}
        for key, structure, n in corpus_questions(build_corpus(self.smoke)):
            code = codes[key]
            if code == "-":
                continue
            stratum = code if code in "ab" else f"c{n}.{code}"
            self.strata.setdefault(stratum, []).append(Op(key, stratum, expected[key], (structure, n)))
        if self.smoke:
            self.per_round = {"a": 1, "b": 1, "c2.0": 2, "c1.1": 2}

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            ops = [] if self.smoke else list(self.strata["b"])
            for stratum, count in self.per_round.items():
                ops += rng.sample(self.strata[stratum], count)
            rng.shuffle(ops)
            yield ops

    def execute(self, op: Op):
        structure, n = op.args
        return uniformity.check_uniformity_schema(structure, n, self.depth)

    def verdict(self, op: Op, result) -> str:
        return f"{op.key} | {describe(result)}"

    def check(self, op: Op, result, counts: Counter) -> list[str]:
        structure, n = op.args
        orbits = uniformity.check_uniformity_orbits(structure, n)
        return schema_problems(structure, n, result) + agreement(result, orbits, counts)


# -- sym-orbits -------------------------------------------------------------------------


def _digraph(size: int, arcs) -> structures.FiniteStructure:
    elements = [f"v{i}" for i in range(size)]
    return structures.FiniteStructure.build(
        structures.Signature.of(e=2), elements, {"e": [(elements[a], elements[b]) for a, b in arcs]}
    )


def _arcs(structure) -> set[tuple[int, int]]:
    return {(structure.position(a), structure.position(b)) for a, b in structure.tuples("e")}


def clique(size: int):
    return _digraph(size, [(i, j) for i in range(size) for j in range(size) if i != j])


def antichain(size: int):
    return _digraph(size, [])


def directed_cycle(size: int):
    return _digraph(size, [(i, (i + 1) % size) for i in range(size)])


def single_arc():
    return _digraph(2, [(0, 1)])


def disjoint_copies(part, copies: int):
    m = part.size()
    arcs = _arcs(part)
    return _digraph(m * copies, [(k * m + a, k * m + b) for k in range(copies) for a, b in arcs])


def lexicographic(outer, inner):
    """outer[inner]: each vertex of ``outer`` becomes a copy of ``inner``."""
    m = inner.size()
    outer_arcs, inner_arcs = _arcs(outer), _arcs(inner)
    arcs = [
        (u * m + i, v * m + j)
        for u in range(outer.size())
        for v in range(outer.size())
        for i in range(m)
        for j in range(m)
        if (u, v) in outer_arcs or (u == v and (i, j) in inner_arcs)
    ]
    return _digraph(outer.size() * m, arcs)


def relabel(structure, rng: random.Random):
    """The same structure under fresh element names in a random order."""
    names = [f"p{i}" for i in range(structure.size())]
    rng.shuffle(names)
    rename = dict(zip(structure.universe, names))
    order = sorted(structure.universe, key=rename.get)
    return structures.FiniteStructure.build(
        structure.signature,
        [rename[e] for e in order],
        {"e": [(rename[a], rename[b]) for a, b in structure.tuples("e")]},
    )


def sym_catalogue() -> dict[str, dict[str, structures.FiniteStructure]]:
    """High-symmetry structures of 6-9 elements, by round slot.

    Clique parts stay at 8 or fewer (a 9-clique costs about 45 s per call).
    Lexicographic products use outer digraphs of 2-3 vertices that are
    neither edgeless nor complete: those products would be plain antichains
    or cliques, which have slots of their own.  Products of a 3-vertex
    digraph have 2-element parts: with 3-element parts one call costs
    anywhere from 10 to 580 ms, so a single draw would decide where the
    90th percentile falls.
    """
    parts = {"K2": clique(2), "K3": clique(3), "K4": clique(4), "C3": directed_cycle(3),
             "C4": directed_cycle(4), "P2": single_arc()}
    light = {"K6": clique(6), "A6": antichain(6), "A7": antichain(7)}
    light |= {
        f"{copies}x{name}": disjoint_copies(part, copies)
        for name, part in parts.items()
        for copies in range(2, 5)
        if 6 <= copies * part.size() <= 9
    }
    catalogue = {
        "lead": {"A9": antichain(9), "K8": clique(8)},
        "heavy": {"K7": clique(7), "A8": antichain(8)},
        "light": light,
        "products": {},
    }
    for size, inner_sizes in ((2, (3, 4)), (3, (2,))):
        for i, outer in enumerate(corpus.digraphs_up_to_iso(size)):
            if len(outer.tuples("e")) in (0, size * (size - 1)):
                continue
            slot = "light" if size == 2 else "products"
            for m in inner_sizes:
                catalogue[slot][f"size{size}#{i}[K{m}]"] = lexicographic(outer, clique(m))
                catalogue[slot][f"size{size}#{i}[A{m}]"] = lexicographic(outer, antichain(m))
    return catalogue


class SymOrbits(Workload):
    """The orbit decider alone on relabelled high-symmetry structures.

    A round runs the two largest groups (antichain9, complete8) at a drawn
    n; complete7 and antichain8 at n = 1, 2, 3; every light structure at
    n = 1, 2, 3 four times over, relabelled afresh each time; and two drawn
    products of a 3-vertex digraph: 214 ops.  The light structures cost
    1-100 ms a call, and the repeats make enough of them that the median and
    the 90th percentile do not hang on one call; they are spread evenly
    between the heavy calls, so they sample the whole round.  The order is
    the same for every seed: the cost of a call that allocates a whole
    group depends on what the garbage collector has seen before it
    (complete8 takes a fifth longer after antichain9), so a shuffled order
    would make the timings depend on the seed.
    """

    name = "sym-orbits"
    products_per_round = 2
    light_repeats = 4

    def setup(self) -> None:
        self.catalogue = sym_catalogue()
        self.reference = load_reference(self.name)["hashes"]
        if self.smoke:
            self.catalogue["lead"] = self.catalogue["heavy"] = {}
            self.catalogue["light"] = {"K6": clique(6), "A6": antichain(6)}
            self.light_repeats = self.products_per_round = 1

    def _op(self, slot: str, key: str, n: int, rng: random.Random) -> Op:
        structure = relabel(self.catalogue[slot][key], rng)
        return Op(f"{key}/{n}", slot, self.reference[f"{key}/{n}"], (structure, n))

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            heavy = [self._op("lead", key, rng.randint(1, 3), rng) for key in self.catalogue["lead"]]
            heavy += [self._op("heavy", key, n, rng) for key in self.catalogue["heavy"] for n in (1, 2, 3)]
            light = [
                self._op("light", key, n, rng)
                for _ in range(self.light_repeats)
                for key in self.catalogue["light"]
                for n in (1, 2, 3)
            ]
            for key in rng.choices(sorted(self.catalogue["products"]), k=self.products_per_round):
                light.append(self._op("products", key, rng.randint(1, 3), rng))
            slots = max(1, len(heavy))
            share = -(-len(light) // slots)
            ops = []
            for i in range(slots):
                ops += heavy[i:i + 1] + light[i * share:(i + 1) * share]
            yield ops

    def execute(self, op: Op):
        structure, n = op.args
        return uniformity.check_uniformity_orbits(structure, n)

    def verdict(self, op: Op, result) -> str:
        # the reference holds what relabelling leaves unchanged
        return f"{op.key} | {'uniform' if result.uniform else 'not uniform'}"

    def check(self, op: Op, result, counts: Counter) -> list[str]:
        structure, n = op.args
        return orbit_problems(structure, n, result)


# -- line-cli ----------------------------------------------------------------------------

LINE_KINDS = (
    "structure-parse", "structure-aut", "structure-orbits", "uniformity",
    "line-classify", "line-commute", "line-tile", "line-factor", "line-measure",
    "field-eval", "field-verify", "field-iso", "field-stretch",
    "cyclic-orient", "cyclic-linearize", "cyclic-mobius",
    "cuts-rays", "cuts-galois", "cuts-classify", "cuts-probe",
)
POOL_SEED = 0
POOL_PER_KIND = 128
STRUCTURE_FILES = 24


def _rational(rng: random.Random, nonzero: bool = False, positive: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        if positive and value <= 0:
            continue
        if nonzero and value == 0:
            continue
        return value


def _fmt(value: Fraction) -> str:
    return ordline.format_rational(value)


def _distinct(rng: random.Random, count: int, infinity: bool = False) -> list[str]:
    values: list[str] = ["inf"] if infinity else []
    while len(values) < count:
        text = _fmt(_rational(rng))
        if text not in values:
            values.append(text)
    rng.shuffle(values)
    return values


def _affine(rng: random.Random) -> str:
    slope, offset = _rational(rng, nonzero=True), _rational(rng)
    sign = "+" if offset >= 0 else "-"
    return f"{_fmt(slope)}*x{sign}{_fmt(abs(offset))}"


def _structure_file(rng: random.Random, index: int):
    size = rng.randint(2, 5)
    names = [f"{rng.choice('abcdeuvw')}{i}" for i in range(size)]
    arcs = [(a, b) for a in names for b in names if a != b and rng.random() < 0.4]
    structure = structures.FiniteStructure.build(structures.Signature.of(e=2), names, {"e": arcs})
    if index % 2:
        return f"s{index:02d}.json", structures.render_structure_json(structure), size
    return f"s{index:02d}.txt", structures.render_structure(structure), size


def _expression(rng: random.Random, depth: int = 0) -> str:
    if depth >= 2 or rng.random() < 0.4:
        value = _rational(rng)
        return _fmt(value) if value >= 0 else f"-{_fmt(-value)}"
    left, right = _expression(rng, depth + 1), _expression(rng, depth + 1)
    return f"({left} {rng.choice('+-*')} {right})"


def _command(words: str, **options) -> list[str]:
    # --name=value keeps argparse from reading a negative rational as an option
    argv = words.split()
    for name, value in options.items():
        values = value if isinstance(value, list) else [value]
        argv += [f"--{name}={v}" for v in values]
    return argv


def _option(argv: list[str], name: str) -> list[str]:
    prefix = f"--{name}="
    return [arg[len(prefix):] for arg in argv if arg.startswith(prefix)]


def line_pool(structure_files: list[tuple[str, int]]) -> dict[str, list[list[str]]]:
    """``POOL_PER_KIND`` command lines per kind, fixed by ``POOL_SEED``.

    ``structure_files`` gives (path, size) per structure file.  Every input is
    valid, so exit code 2 would be a defect.  Sampler sizes keep the CLI's
    defaults.
    """
    rng = random.Random(POOL_SEED)

    def r(**kind) -> str:
        return _fmt(_rational(rng, **kind))

    def oracle() -> tuple[str, str]:
        kind = rng.choice(["lt", "le", "sq-lt"])
        return kind, r(positive=kind == "sq-lt")

    def make(kind: str) -> list[str]:
        path, size = rng.choice(structure_files)
        if kind == "structure-parse":
            return _command("structure parse", structure=path, emit=rng.choice(["text", "json"]))
        if kind == "structure-aut":
            return _command("structure aut", structure=path)
        if kind == "structure-orbits":
            return _command("structure orbits", structure=path, n=rng.randint(1, size),
                            mode=rng.choice(["tuples", "subsets"]))
        if kind == "uniformity":
            return _command("uniformity", structure=path, n=rng.randint(1, min(2, size)),
                            method=rng.choice(["both", "schema", "orbits"]), depth=rng.randint(1, 2))
        if kind == "line-classify":
            return _command("line classify", map=_affine(rng))
        if kind == "line-commute":
            return _command("line commute", f=_affine(rng), g=_affine(rng))
        if kind == "line-tile":
            return _command("line tile", shift=r(nonzero=True), base=r(), window=rng.randint(1, 40))
        if kind == "line-factor":
            return _command("line factor", map=_affine(rng), shift=r(),
                            side=rng.choice(["left", "right"]))
        if kind == "line-measure":
            lo, hi = sorted(_distinct(rng, 2), key=Fraction)
            return _command("line measure", shift=r(positive=True), lo=lo, hi=hi)
        if kind == "field-eval":
            zero, one = _distinct(rng, 2)
            return _command("field eval", zero=zero, one=one, expr=_expression(rng))
        if kind == "field-verify":
            zero, one = _distinct(rng, 2)
            return _command("field verify", zero=zero, one=one)
        if kind == "field-iso":
            (zero1, one1), (zero2, one2) = _distinct(rng, 2), _distinct(rng, 2)
            return _command("field iso", zero1=zero1, one1=one1, zero2=zero2, one2=one2)
        if kind == "field-stretch":
            zero, one, factor = _distinct(rng, 3)
            lo, hi = sorted(_distinct(rng, 2), key=Fraction)
            return _command("field stretch", zero=zero, one=one, factor=factor, lo=lo, hi=hi)
        if kind == "cyclic-orient":
            return _command("cyclic orient", points=",".join(_distinct(rng, 3, rng.random() < 0.3)))
        if kind == "cyclic-linearize":
            points = _distinct(rng, rng.randint(3, 7), rng.random() < 0.3)
            cut = points.pop(rng.randrange(len(points)))
            return _command("cyclic linearize", cut=cut, points=",".join(points))
        if kind == "cyclic-mobius":
            while True:
                a, b, c, d = (_rational(rng) for _ in range(4))
                if a * d != b * c:
                    return _command("cyclic mobius", map=",".join(_fmt(v) for v in (a, b, c, d)))
        if kind == "cuts-rays":
            return _command("cuts rays", set=" ".join(_distinct(rng, rng.randint(1, 5))))
        if kind == "cuts-galois":
            return _command("cuts galois", set=" ".join(_distinct(rng, rng.randint(1, 4))))
        if kind == "cuts-classify":
            kind, target = oracle()
            return _command("cuts classify", oracle=kind, target=target)
        cuts_ = [":".join(oracle()) for _ in range(rng.randint(1, 3))]
        return _command("cuts probe", cut=cuts_)

    pool = {}
    for kind in LINE_KINDS:
        pool[kind] = [
            ["--format", "machine", "--seed", str(rng.randint(0, 99))] + make(kind)
            for _ in range(POOL_PER_KIND)
        ]
    return pool


def write_structure_files(workdir: Path) -> list[tuple[str, int]]:
    rng = random.Random(POOL_SEED)
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for index in range(STRUCTURE_FILES):
        name, text, size = _structure_file(rng, index)
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        files.append((str(path), size))
    return files


class LineCli(Workload):
    """One in-process CLI command per op, machine output, every subcommand.

    Every round runs the same commands, the first ``per_round[kind]`` of each
    kind's pool, in an order drawn from the seed.  Commands cost 3-6 ms,
    except field-verify (about 180 ms) and field-iso (about 75 ms), which
    make 4% of a round; a drawn mix would let the draw of those two kinds
    decide the throughput.
    """

    name = "line-cli"
    per_round = dict.fromkeys(LINE_KINDS, 6) | {"field-verify": 2, "field-iso": 2}
    trace_rounds = 1

    def setup(self) -> None:
        if self.smoke:
            self.per_round = dict.fromkeys(LINE_KINDS, 1)
        pool = line_pool(write_structure_files(self.workdir / self.name))
        reference = load_reference(self.name)["hashes"]
        self.pool = {
            kind: [
                Op(f"{kind}#{i}", kind, expected, (argv,))
                for i, (argv, expected) in enumerate(zip(commands, split_hashes(reference[kind])))
            ]
            for kind, commands in pool.items()
        }

    def rounds(self):
        rng = random.Random(self.seed)
        ops = [op for kind, count in self.per_round.items() for op in self.pool[kind][:count]]
        while True:
            rng.shuffle(ops)
            yield list(ops)

    def execute(self, op: Op):
        result = cli.run(op.args[0])
        return result.exit_code, cli.render_output(result, True)

    def verdict(self, op: Op, result) -> str:
        exit_code, output = result
        return f"exit {exit_code}\n{output}"

    def check(self, op: Op, result, counts: Counter) -> list[str]:
        exit_code, output = result
        argv = op.args[0]
        if exit_code != 1:
            return []
        record = json.loads(output)
        if op.stratum == "uniformity":
            return self._check_uniformity(argv, record, counts)
        if op.stratum == "line-commute":
            f = ordline.parse_affine(record["f"])
            g = ordline.parse_affine(record["g"])
            witness = record["witness"]
            x = Fraction(witness["x"])
            if g(f(x)) != Fraction(witness["g_of_fx"]) or f(g(x)) != Fraction(witness["f_of_gx"]):
                return ["commute witness does not re-evaluate"]
            if g(f(x)) == f(g(x)):
                return ["commute witness shows no disagreement"]
            return []
        if op.stratum == "cuts-probe":
            specs = _option(argv, "cut")
            names = [name for name, _ in cuts.connectivity_probe(
                [_oracle(spec) for spec in specs], 10**6).results]
            spec = specs[names.index(record["witness"])]
            if cuts.classify_cut(_oracle(spec), 10**6).kind != cuts.GAP:
                return ["probe witness is not a gap"]
            return []
        return [f"{op.stratum} exited 1, which this input cannot certify"]

    def _check_uniformity(self, argv, record, counts: Counter) -> list[str]:
        structure = structures.parse_structure(
            Path(_option(argv, "structure")[0]).read_text(encoding="utf-8")
        )
        n = record["n"]
        xs = [f"x{i}" for i in range(1, n + 1)]
        verdicts = {result["mode"]: result for result in record["results"]}
        problems = []
        schema = verdicts.get("schema")
        if schema and not schema["uniform"]:
            ce = schema["counterexample"]
            formula = formulas.parse_formula(ce["formula"], structure.signature)
            if not formulas.evaluate(structure, formula, dict(zip(xs, ce["witness"]))):
                problems.append("schema witness does not satisfy its formula")
            if any(formulas.evaluate(structure, formula, dict(zip(xs, arrangement)))
                   for arrangement in itertools.permutations(ce["violating"])):
                problems.append("violating tuple satisfies the formula")
        orbits = verdicts.get("orbits")
        if orbits and not orbits["uniform"]:
            ce = orbits["counterexample"]
            partition = autgroup.orbit_partition(structure, n, mode="subsets")
            first = tuple(structure.position(e) for e in ce["first"])
            second = tuple(structure.position(e) for e in ce["second"])
            if partition.class_of(first) == partition.class_of(second):
                problems.append("orbit counterexample subsets lie in one orbit")
        if schema and orbits:
            if orbits["uniform"] and not schema["uniform"]:
                problems.append("schema counterexample on an orbit-uniform case")
            if schema["uniform"] and not orbits["uniform"]:
                counts["uniformity.horizon_misses"] += 1
        return problems


def _oracle(spec: str):
    kind, _, target = spec.partition(":")
    value = ordline.parse_rational(target)
    return {"lt": cuts.oracle_lt, "le": cuts.oracle_le, "sq-lt": cuts.oracle_sq_lt}[kind](value)


WORKLOADS = {workload.name: workload for workload in (CorpusD2, DeepD3, SymOrbits, LineCli)}
