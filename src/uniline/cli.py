"""Command-line front end.

Exit codes: 0 when the command succeeds (and any checked property holds),
1 when a checked property fails (always with a re-checkable certificate in
the output), 2 for input errors.  With ``--format machine`` every command
emits line-delimited JSON records carrying a ``schema_version`` field;
output is byte-identical across runs for identical arguments and seed.

Every command path and its options are declared in the table
``uniline.cli.COMMANDS``, and a command line is read from it in one pass.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import autgroup, cuts, cyclic, fieldgen, ordline, uniformity
from .formulas import render_formula
from .structures import StructureError, elements_of, parse_structure, render_structure, render_structure_json

SCHEMA_VERSION = 1


@dataclass
class CommandResult:
    exit_code: int
    lines: list[str]
    records: list[dict]
    machine: bool = False


def _rat(value: Fraction) -> str:
    return ordline.format_rational(value)


def _rats(values) -> list[str]:
    return [_rat(v) for v in values]


def _load_structure(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}") from None
    return parse_structure(text)


class _Option(NamedTuple):
    """A ``--name`` option: its type (``str``, ``int``, a tuple of choices, or
    ``list`` for a string that repeats, every value kept), its default (None
    for an option that must be given) and its help text."""

    kind: object = str
    default: object = None
    help: str = ""


_S, _N = _Option(), _Option(int)  # a required string, a required integer
# oracle constructors by name, looked up on ``cuts`` at each call, so a wrapper
# installed on the module after import (a query counter) is the one called
_ORACLES = {"lt": "oracle_lt", "le": "oracle_le", "sq-lt": "oracle_sq_lt"}
_GLOBAL = {"format": _Option(("text", "machine"), "text"), "seed": _Option(int, 0)}
COMMANDS: dict[tuple[str, ...], dict[str, _Option]] = {
    ("structure", "parse"): {"structure": _S, "emit": _Option(("text", "json"), "text")},
    ("structure", "aut"): {"structure": _S},
    ("structure", "orbits"): {"structure": _S, "n": _N, "mode": _Option(("tuples", "subsets"), "subsets")},
    ("uniformity",): {
        "structure": _S, "n": _N, "method": _Option(("schema", "orbits", "both"), "both"), "depth": _Option(int, 2),
    },
    ("line", "classify"): {"map": _S},
    ("line", "commute"): {"f": _S, "g": _S},
    ("line", "tile"): {"shift": _S, "base": _S, "window": _N},
    ("line", "factor"): {"map": _S, "shift": _S, "side": _Option(("left", "right"))},
    ("line", "measure"): {"shift": _S, "lo": _S, "hi": _S},
    ("field", "eval"): {"zero": _S, "one": _S, "expr": _S},
    ("field", "verify"): {"zero": _S, "one": _S, "samples": _Option(int, 1000)},
    ("field", "iso"): {"zero1": _S, "one1": _S, "zero2": _S, "one2": _S, "samples": _Option(int, 1000)},
    ("field", "stretch"): {"zero": _S, "one": _S, "factor": _S, "lo": _S, "hi": _S},
    ("cyclic", "orient"): {"points": _Option(help="three points, comma separated; 'inf' allowed")},
    ("cyclic", "linearize"): {"cut": _S, "points": _S},
    ("cyclic", "mobius"): {"map": _Option(help="a,b,c,d for (a*x+b)/(c*x+d)"), "triples": _Option(int, 20)},
    ("cuts", "rays"): {"set": _Option(help="whitespace-separated rationals")},
    ("cuts", "galois"): {"set": _S},
    ("cuts", "classify"): {"oracle": _Option(tuple(_ORACLES)), "target": _S, "bound": _Option(int, 10**6)},
    ("cuts", "probe"): {"cut": _Option(list, help="KIND:TARGET, once per cut"), "bound": _Option(int, 10**6)},
}


class _Stop(Exception):
    """A request for the help of ``level`` when ``error`` is None, else a bad command line."""

    def __init__(self, level: _Level, error: str | None = None):
        self.level, self.error = level, error


class _Level:
    """The root, a command word with actions below it, or a leaf.  A level
    reads its options, then the word that leads on or, at a leaf, on to the
    end.  An option may be shortened to a unique prefix and takes its value
    after ``=`` or from the next argument.  An argument names an option if it
    starts with ``-h``, or with ``--`` and has no space; any other is a value
    or a word, such as -1/2.  ``--`` is neither and ends what is read.  An
    ambiguous prefix anywhere in a level is an error before it reads anything."""

    def __init__(self, path: tuple[str, ...], options: dict[str, _Option]):
        self.path, self.options, self.words = path, options, {}
        self.defaults = {dest: option.default for dest, option in options.items()}
        self.prog, self.dest = " ".join(("uniline",) + path), ("command", "action", None)[len(path)]
        self.spelled = {dest: f"--{dest} " + ("{" + ",".join(option.kind) + "}" if isinstance(option.kind, tuple)
                                              else dest.upper()) for dest, option in options.items()}
        matches: dict[str, list[str]] = {}
        for string in ["--help"] + ["--" + name for name in options]:
            for end in range(2, len(string) + 1):
                matches.setdefault(string[:end], []).append(string)
        # each whole name and unique prefix, to its option; each other prefix, to the names it could be
        self.names = {head: head if head in found else found[0]
                      for head, found in matches.items() if len(found) == 1 or head in found}
        self.ambiguous = {head: found for head, found in matches.items() if head not in self.names}

    def classify(self, token: str) -> tuple[str, str | None] | None:
        """The option ``token`` names ("" for one of no level here) and the
        value after its ``=``; None for a value, a word or ``--``."""
        if token[:1] != "-" or token in ("-", "--"):
            return None
        head, equals, value = token.partition("=")
        explicit = value if equals else None
        if token[1] != "-":  # -h, -h=VALUE or -hVALUE; any other is a value
            if not head.startswith("-h"):
                return None
            return "-h", explicit if head == "-h" else token[2:]
        if head in self.names:
            return self.names[head], explicit
        return None if " " in token else ("", None)

    def read(self, argv: list[str], i: int, values: dict, extras: list[str]) -> tuple[_Level | None, int]:
        """Reads this level from ``argv[i:]`` into ``values``, and what it
        cannot place into ``extras``; returns the next level and its start."""
        for token in argv[i:]:
            if token == "--":
                break
            if found := self.ambiguous.get(token.partition("=")[0]):
                raise _Stop(self, f"ambiguous option: {token} could match {', '.join(found)}")
        values.update(self.defaults)
        while i < len(argv):
            token = argv[i]
            i += 1
            string, text = self.classify(token) or (None, None)
            if string is None and self.words:
                if token not in self.words:
                    raise _Stop(self, f"argument {self.dest}: invalid choice: {token!r}")
                values[self.dest] = token
                return self.words[token], i
            if token == "--":  # nothing after it is read
                extras += argv[i - 1:]
                break
            if not string:
                extras.append(token)
            elif string in ("-h", "--help"):
                if text is None or string == "-h" and text and not text.strip("h"):  # -hh reads as -h -h
                    raise _Stop(self)
                raise _Stop(self, f"argument -h/--help: ignored explicit argument {text!r}")
            else:
                if text is None:
                    if i == len(argv) or argv[i] == "--" or self.classify(argv[i]):
                        raise _Stop(self, f"argument {string}: expected one argument")
                    text, i = argv[i], i + 1
                values[string[2:]] = self._value(string, text, values[string[2:]])
        if self.words:
            raise _Stop(self, f"the following arguments are required: {self.dest}")
        if None in values.values():  # only an option that must be given and was not holds None
            missing = ", ".join("--" + dest for dest in self.options if values[dest] is None)
            raise _Stop(self, f"the following arguments are required: {missing}")
        return None, i

    def _value(self, string: str, text: str, before):
        kind = self.options[string[2:]].kind
        if kind is int:
            try:
                return int(text)
            except ValueError:
                raise _Stop(self, f"argument {string}: invalid int value: {text!r}") from None
        if isinstance(kind, tuple) and text not in kind:
            raise _Stop(self, f"argument {string}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        return (before or []) + [text] if kind is list else text

    def usage(self) -> str:
        options = [text if self.options[dest].default is None else f"[{text}]" for dest, text in self.spelled.items()]
        words = ["{" + ",".join(self.words) + "} ..."] if self.words else []
        return " ".join(["usage:", self.prog, "[-h]", *options, *words]) + "\n"

    def help(self) -> str:
        rows = {"-h, --help": "show this help message and exit"}
        for dest, option in self.options.items():
            note = "required" if option.default is None else f"default: {option.default}"
            rows[self.spelled[dest]] = f"{option.help} ({note})".lstrip()
        text = self.usage() + ("" if self.path else "\n" + __doc__.strip() + "\n")
        text += f"\n{self.dest}s: {', '.join(self.words)}\n" if self.words else ""
        return text + "\noptions:\n" + "".join(f"  {spelled:<24}{note}\n" for spelled, note in rows.items())


def _command_tree() -> _Level:
    root = _Level((), _GLOBAL)
    for path, options in COMMANDS.items():
        parent = root.words.setdefault(path[0], _Level(path[:1], {})) if len(path) > 1 else root
        parent.words[path[-1]] = _Level(path, options)
    return root


_ROOT = _command_tree()


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace ``_dispatch`` reads: ``format``, ``seed``, ``command``,
    ``action`` below a command word, and the options of the command path."""
    values, extras, level, i = {}, [], _ROOT, 0
    while level:
        level, i = level.read(argv, i, values, extras)
    if extras:
        raise _Stop(_ROOT, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def run(argv: list[str]) -> CommandResult:
    try:
        args = _parse(argv)
    except _Stop as stop:
        if stop.error is None:
            sys.stdout.write(stop.level.help())
            return CommandResult(0, [], [])
        sys.stderr.write(f"{stop.level.usage()}{stop.level.prog}: error: {stop.error}\n")
        return CommandResult(2, [], [])
    try:
        result = _dispatch(args)
    except (ValueError, ZeroDivisionError, autgroup.ResourceCapError) as exc:
        result = _result(args, 2, [f"error: {exc}"], {"error": str(exc)})
    result.machine = args.format == "machine"
    return result


def _dispatch(args) -> CommandResult:
    handlers = {"structure": _cmd_structure, "uniformity": _cmd_uniformity, "line": _cmd_line,
                "field": _cmd_field, "cyclic": _cmd_cyclic, "cuts": _cmd_cuts}
    return handlers[args.command](args)


def _result(args, exit_code: int, lines: list[str], payload: dict) -> CommandResult:
    record = {"schema_version": SCHEMA_VERSION, "command": args.command}
    if getattr(args, "action", None):
        record["action"] = args.action
    record.update(payload)
    return CommandResult(exit_code, lines, [record])


# --- structure ---------------------------------------------------------------------


def _cmd_structure(args) -> CommandResult:
    structure = _load_structure(args.structure)
    if args.action == "parse":
        text = render_structure(structure) if args.emit == "text" else render_structure_json(structure)
        return _result(args, 0, [text.rstrip("\n")], {"universe": list(structure.universe), "rendered": text})
    if args.action == "aut":
        group = autgroup.automorphisms(structure)
        mappings = [[structure.universe[i] for i in image] for image in group]
        lines = [f"{len(group)} automorphisms"] + [" ".join(m) for m in mappings]
        return _result(args, 0, lines, {"order": len(group), "automorphisms": mappings})
    partition = autgroup.orbit_partition(structure, args.n, mode=args.mode)
    classes = [[list(elements_of(structure, member)) for member in cls] for cls in partition.classes]
    lines = [f"{len(classes)} orbit classes (n={args.n}, {args.mode})"]
    lines += ["  " + " ".join("(" + ",".join(m) + ")" for m in cls) for cls in classes]
    return _result(args, 0, lines, {"n": args.n, "mode": args.mode, "classes": classes})


# --- uniformity ---------------------------------------------------------------------


def _cmd_uniformity(args) -> CommandResult:
    structure = _load_structure(args.structure)
    verdicts = []
    if args.method in ("schema", "both"):
        verdicts.append(uniformity.check_uniformity_schema(structure, args.n, args.depth))
    if args.method in ("orbits", "both"):
        verdicts.append(uniformity.check_uniformity_orbits(structure, args.n))
    uniform = all(v.uniform for v in verdicts)
    lines, results = [], []
    for verdict in verdicts:
        result: dict = {"mode": verdict.mode, "uniform": verdict.uniform}
        if verdict.depth is not None:
            result["depth"] = verdict.depth
        ce = verdict.counterexample
        if verdict.uniform:
            lines.append(f"{verdict.mode}: uniform (n={args.n})")
        elif isinstance(ce, uniformity.SchemaCounterexample):
            formula = render_formula(ce.formula)
            lines.append(
                f"{verdict.mode}: counterexample {formula} "
                f"holds at ({','.join(ce.witness)}), fails at ({','.join(ce.violating)})"
            )
            result["counterexample"] = {"formula": formula, "witness": list(ce.witness), "violating": list(ce.violating)}
        else:
            lines.append(
                f"{verdict.mode}: subsets ({','.join(ce.first)}) and ({','.join(ce.second)}) "
                "lie in different orbits"
            )
            result["counterexample"] = {"first": list(ce.first), "second": list(ce.second)}
        results.append(result)
    payload = {"n": args.n, "uniform": uniform, "results": results}
    return _result(args, 0 if uniform else 1, lines, payload)


# --- line ----------------------------------------------------------------------------


def _cmd_line(args) -> CommandResult:
    if args.action == "classify":
        affine = ordline.parse_affine(args.map)
        kind = ordline.classify_displacement(affine)
        return _result(args, 0, [kind], {"map": str(affine), "classification": kind})
    if args.action == "commute":
        f = ordline.parse_affine(args.f)
        g = ordline.parse_affine(args.g)
        report = ordline.preserves_construct(g, f)
        payload: dict = {"f": str(f), "g": str(g), "commute": report.preserves, "construct_preserved": report.preserves}
        if report.preserves:
            return _result(args, 0, ["commute: yes (construct preserved)"], payload)
        w = report.witness
        payload["witness"] = {"x": _rat(w.x), "g_of_fx": _rat(w.moved_pair[1]), "f_of_gx": _rat(w.expected)}
        lines = [
            "commute: no",
            f"witness x = {_rat(w.x)}: g(f(x)) = {_rat(w.moved_pair[1])} != f(g(x)) = {_rat(w.expected)}",
        ]
        return _result(args, 1, lines, payload)
    if args.action == "tile":
        shift = ordline.Shift(ordline.parse_rational(args.shift))
        base = ordline.parse_rational(args.base)
        tiles = ordline.tile_line(shift, base, args.window)
        # along the line each tile starts where the one before it ends, so each endpoint is formatted once
        order = 1 if shift.displacement > 0 else -1
        spatial = tiles[::order]
        edges = _rats([spatial[0].lo] + [t.hi for t in spatial])
        pairs = [list(pair) for pair in zip(edges, edges[1:])][::order]
        lines = [f"{len(tiles)} tiles spanning [{edges[0]}, {edges[-1]})"] + [f"[{lo}, {hi})" for lo, hi in pairs]
        payload = {"tiles": pairs, "span": [edges[0], edges[-1]]}
        return _result(args, 0, lines, payload)
    if args.action == "factor":
        x = ordline.parse_affine(args.map)
        s = ordline.Shift(ordline.parse_rational(args.shift))
        h = ordline.factor_through_shift(x, s, args.side)
        line = f"{args.side}: h = {h}"
        return _result(args, 0, [line], {"h": str(h), "side": args.side})
    shift = ordline.Shift(ordline.parse_rational(args.shift))
    interval = ordline.Interval(ordline.parse_rational(args.lo), ordline.parse_rational(args.hi))
    measure = ordline.shift_measure(shift, interval)
    lines = [f"count {measure.count}, remainder {measure.remainder}"]
    payload = {"count": measure.count, "remainder": [_rat(measure.remainder.lo), _rat(measure.remainder.hi)]}
    return _result(args, 0, lines, payload)


# --- field -----------------------------------------------------------------------------


def _localization(zero: str, one: str) -> fieldgen.Localization:
    return fieldgen.Localization(ordline.parse_rational(zero), ordline.parse_rational(one))


# binding power and law of each binary operator, all associating to the left;
# power 3, above both, reads an operand alone
_ARITHMETIC = {"+": (1, fieldgen.loc_add), "-": (1, fieldgen.loc_sub),
               "*": (2, fieldgen.loc_mul), "/": (2, fieldgen.loc_div)}
_MAX_EXPR_NESTING = 100


def _field_value(text: str, loc: fieldgen.Localization) -> Fraction:
    """Arithmetic over the localized field: + - * / ( ) and rational literals,
    read by precedence climbing over ``_ARITHMETIC``, with parentheses and
    unary minus nested at most ``_MAX_EXPR_NESTING`` deep."""
    tokens = re.findall(rf"{ordline.RATIONAL}|[+\-*/()]", text)
    if "".join(tokens).replace(" ", "") != text.replace(" ", ""):
        raise ValueError(f"invalid expression {text!r}")
    tokens.reverse()  # so that pop() takes the next token

    def take() -> str:
        if not tokens:
            raise ValueError("unexpected end of expression")
        return tokens.pop()

    def climb(least: int, nesting: int) -> Fraction:
        """An operand and the operators after it that bind with power
        ``least`` or more."""
        token = take()
        if token in ("(", "-"):
            if nesting == _MAX_EXPR_NESTING:
                raise ValueError(f"expression nested deeper than {_MAX_EXPR_NESTING}")
            if token == "-":
                value = fieldgen.loc_neg(loc, climb(3, nesting + 1))
            else:
                value = climb(1, nesting + 1)
                if take() != ")":
                    raise ValueError("unbalanced parentheses")
        else:
            try:
                value = ordline.parse_rational(token)
            except ValueError:
                raise ValueError(f"invalid operand {token!r} in expression {text!r}") from None
        while tokens and tokens[-1] in _ARITHMETIC and _ARITHMETIC[tokens[-1]][0] >= least:
            power, law = _ARITHMETIC[tokens.pop()]
            value = law(loc, value, climb(power + 1, nesting))
        return value

    value = climb(1, 0)
    if tokens:
        raise ValueError(f"trailing input at {tokens[-1]!r}")
    return value


def _cmd_field(args) -> CommandResult:
    if args.action == "iso":
        first, second = _localization(args.zero1, args.one1), _localization(args.zero2, args.one2)
    else:
        loc = _localization(args.zero, args.one)
    if args.action in ("verify", "iso") and args.samples < 1:
        raise ValueError("sample_count must be >= 1")
    if args.action == "eval":
        value = _field_value(args.expr, loc)
        return _result(args, 0, [_rat(value)], {"value": _rat(value)})
    if args.action == "verify":
        report = fieldgen.verify_field_axioms(loc)
        checks = [
            {"axiom": check.name, "passed": check.passed,
             "counterexample": _rats(check.counterexample) if check.counterexample else None}
            for check in report.checks
        ]
        payload = {"zero": _rat(loc.zero), "one": _rat(loc.one), "samples": args.samples, "checks": checks,
                   "all_passed": report.all_passed()}
        lines = [
            f"{check.name}: {'pass' if check.passed else 'FAIL at ' + str(_rats(check.counterexample))}"
            for check in report.checks
        ]
        return _result(args, 0 if report.all_passed() else 1, lines, payload)
    if args.action == "iso":
        iso = fieldgen.localization_iso(first, second)
        failure = fieldgen.homomorphism_failure(first, second, iso)
        payload = {"iso": str(iso), "samples": args.samples, "homomorphism": failure is None}
        if failure:
            op, x, y = failure
            payload["witness"] = {"op": op, "x": _rat(x), "y": _rat(y)}
            return _result(args, 1, [f"iso {iso} fails {op} at ({_rat(x)}, {_rat(y)})"], payload)
        return _result(args, 0, [f"iso: {iso} (decided exactly on 4 grid pairs)"], payload)
    factor = ordline.parse_rational(args.factor)
    interval = ordline.Interval(ordline.parse_rational(args.lo), ordline.parse_rational(args.hi))
    image = fieldgen.stretch_image(loc, factor, interval)
    payload = {"factor": _rat(factor), "image": [_rat(image.lo), _rat(image.hi)]}
    return _result(args, 0, [f"{interval} -> {image}"], payload)


# --- cyclic -------------------------------------------------------------------------------


def _proj_points(text: str) -> list:
    return [cyclic.parse_proj_point(part) for part in text.split(",") if part.strip()]


def _cmd_cyclic(args) -> CommandResult:
    if args.action == "orient":
        points = _proj_points(args.points)
        if len(points) != 3:
            raise ValueError("orient requires exactly three points")
        oriented = cyclic.cyclic_orient(*points)
        payload = {"points": [cyclic.format_proj_point(p) for p in points], "oriented": oriented}
        return _result(args, 0, ["true" if oriented else "false"], payload)
    if args.action == "linearize":
        cut = cyclic.parse_proj_point(args.cut)
        points = _proj_points(args.points)
        order = cyclic.linearize_at(cut)
        ordered = order.sort(points)
        rendered = [cyclic.format_proj_point(p) for p in ordered]
        return _result(args, 0, [" < ".join(rendered)], {"cut": cyclic.format_proj_point(cut), "ordered": rendered})
    coefficients = [ordline.parse_rational(p) for p in args.map.split(",")]
    if len(coefficients) != 4:
        raise ValueError("mobius map requires four coefficients a,b,c,d")
    m = cyclic.MobiusMap(*coefficients)
    if args.triples < 1:
        raise ValueError("at least one sample triple is required")
    # a Möbius map preserves every cyclic orientation or reverses every one
    verdict = cyclic.mobius_orientation(m, [(Fraction(0), Fraction(1), cyclic.INFINITY)])
    det = m.determinant()
    payload = {"map": _rats(coefficients), "determinant": _rat(det), "orientation": verdict, "triples": args.triples}
    return _result(args, 0, [f"{verdict} (det = {_rat(det)})"], payload)


# --- cuts ----------------------------------------------------------------------------------


def _ray_payload(ray: cuts.Ray) -> dict:
    payload: dict = {"kind": ray.kind}
    if ray.endpoint is not None:
        payload["endpoint"] = _rat(ray.endpoint)
        payload["closed"] = ray.closed
    return payload


def _oracle_from_spec(kind: str, target: str) -> cuts.CutOracle:
    value = ordline.parse_rational(target)
    if kind not in _ORACLES:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return getattr(cuts, _ORACLES[kind])(value)


def _cut_class_payload(verdict: cuts.CutClass) -> dict:
    payload: dict = {"kind": verdict.kind, "bound": verdict.bound}
    if verdict.point is not None:
        payload["point"] = _rat(verdict.point)
    if verdict.bracket is not None:
        payload["bracket"] = [_rat(verdict.bracket[0]), _rat(verdict.bracket[1])]
    return payload


def _cmd_cuts(args) -> CommandResult:
    if args.action == "rays":
        points = [ordline.parse_rational(p) for p in args.set.split()]
        upper = cuts.upper_set(points)
        lower = cuts.lower_set(points)
        payload = {"upper": _ray_payload(upper), "lower": _ray_payload(lower)}
        return _result(args, 0, [f"upper: {upper}", f"lower: {lower}"], payload)
    if args.action == "galois":
        points = [ordline.parse_rational(p) for p in args.set.split()]
        report = cuts.galois_closure_check(points)
        lines = [
            f"X^> = {report.upper}; X^(><) = {report.upper_lower}; X^(><>) = {report.upper_lower_upper}",
            f"X^< = {report.lower}; X^(<>) = {report.lower_upper}; X^(<><) = {report.lower_upper_lower}",
            "idempotence: " + ("pass" if report.passed() else "FAIL"),
        ]
        payload = {name: _ray_payload(ray) for name, ray in vars(report).items()} | {"passed": report.passed()}
        return _result(args, 0 if report.passed() else 1, lines, payload)
    if args.action == "classify":
        oracle = _oracle_from_spec(args.oracle, args.target)
        verdict = cuts.classify_cut(oracle, args.bound)
        if verdict.kind == cuts.PRINCIPAL:
            line = f"principal({_rat(verdict.point)})"
        else:
            lo, hi = verdict.bracket
            line = f"{verdict.kind} between {_rat(lo)} and {_rat(hi)} at bound {verdict.bound}"
        payload = {"oracle": oracle.name, **_cut_class_payload(verdict)}
        return _result(args, 0, [line], payload)
    oracles = []
    for spec in args.cut:
        kind, _, target = spec.partition(":")
        if not target:
            raise ValueError(f"cut spec must look like kind:target, got {spec!r}")
        oracles.append(_oracle_from_spec(kind, target))
    report = cuts.connectivity_probe(oracles, args.bound)
    lines = [f"{name}: {verdict.kind}" for name, verdict in report.results]
    lines.append(report.verdict + (f" (witness: {report.witness})" if report.witness else ""))
    results = [{"oracle": name, **_cut_class_payload(verdict)} for name, verdict in report.results]
    payload = {"verdict": report.verdict, "witness": report.witness, "results": results}
    return _result(args, 0 if report.verdict != cuts.DISCONNECTED else 1, lines, payload)


def render_output(result: CommandResult, machine: bool) -> str:
    if machine:
        return "".join(json.dumps(record, sort_keys=True) + "\n" for record in result.records)
    return "".join(line + "\n" for line in result.lines)


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(render_output(result, result.machine))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
