"""Command-line front end.

Exit codes: 0 when the command succeeds (and any checked property holds),
1 when a checked property fails (always with a re-checkable certificate in
the output), 2 for input errors.  With ``--format machine`` every command
emits line-delimited JSON records carrying a ``schema_version`` field;
output is byte-identical across runs for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import autgroup, cuts, cyclic, fieldgen, ordline, uniformity
from .formulas import render_formula
from .structures import StructureError, parse_structure, render_structure, render_structure_json

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


class _ArgumentParser(argparse.ArgumentParser):
    """Reads ``--option=--`` as the value "--", which argparse 3.11 turns into [],
    and any argument with a single leading ``-`` as a value, such as
    ``--zero -1/2``: every option except ``-h`` starts with ``--``, and
    ``-h`` is matched before this check."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?!-)")

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.nargs is None:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once per process, on the first ``run``; each parse still
    returns a fresh namespace."""
    parser = _ArgumentParser(prog="uniline", description=__doc__)
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    structure = commands.add_parser("structure").add_subparsers(dest="action", required=True)
    sp = structure.add_parser("parse")
    sp.add_argument("--structure", required=True, metavar="FILE")
    sp.add_argument("--emit", choices=("text", "json"), default="text")
    sa = structure.add_parser("aut")
    sa.add_argument("--structure", required=True)
    so = structure.add_parser("orbits")
    so.add_argument("--structure", required=True)
    so.add_argument("--n", type=int, required=True)
    so.add_argument("--mode", choices=("tuples", "subsets"), default="subsets")

    un = commands.add_parser("uniformity")
    un.add_argument("--structure", required=True)
    un.add_argument("--n", type=int, required=True)
    un.add_argument("--method", choices=("schema", "orbits", "both"), default="both")
    un.add_argument("--depth", type=int, default=2)

    line = commands.add_parser("line").add_subparsers(dest="action", required=True)
    lc = line.add_parser("classify")
    lc.add_argument("--map", required=True)
    lk = line.add_parser("commute")
    lk.add_argument("--f", required=True)
    lk.add_argument("--g", required=True)
    lt = line.add_parser("tile")
    lt.add_argument("--shift", required=True)
    lt.add_argument("--base", required=True)
    lt.add_argument("--window", type=int, required=True)
    lf = line.add_parser("factor")
    lf.add_argument("--map", required=True)
    lf.add_argument("--shift", required=True)
    lf.add_argument("--side", choices=("left", "right"), required=True)
    lm = line.add_parser("measure")
    lm.add_argument("--shift", required=True)
    lm.add_argument("--lo", required=True)
    lm.add_argument("--hi", required=True)

    fld = commands.add_parser("field").add_subparsers(dest="action", required=True)
    fe = fld.add_parser("eval")
    fe.add_argument("--zero", required=True)
    fe.add_argument("--one", required=True)
    fe.add_argument("--expr", required=True)
    fv = fld.add_parser("verify")
    fv.add_argument("--zero", required=True)
    fv.add_argument("--one", required=True)
    fv.add_argument("--samples", type=int, default=1000)
    fi = fld.add_parser("iso")
    fi.add_argument("--zero1", required=True)
    fi.add_argument("--one1", required=True)
    fi.add_argument("--zero2", required=True)
    fi.add_argument("--one2", required=True)
    fi.add_argument("--samples", type=int, default=1000)
    fs = fld.add_parser("stretch")
    fs.add_argument("--zero", required=True)
    fs.add_argument("--one", required=True)
    fs.add_argument("--factor", required=True)
    fs.add_argument("--lo", required=True)
    fs.add_argument("--hi", required=True)

    cyc = commands.add_parser("cyclic").add_subparsers(dest="action", required=True)
    co = cyc.add_parser("orient")
    co.add_argument("--points", required=True, help="three points, comma separated; 'inf' allowed")
    cl = cyc.add_parser("linearize")
    cl.add_argument("--cut", required=True)
    cl.add_argument("--points", required=True)
    cm = cyc.add_parser("mobius")
    cm.add_argument("--map", required=True, help="a,b,c,d for (a*x+b)/(c*x+d)")
    cm.add_argument("--triples", type=int, default=20)

    cut = commands.add_parser("cuts").add_subparsers(dest="action", required=True)
    cr = cut.add_parser("rays")
    cr.add_argument("--set", required=True, help="whitespace-separated rationals")
    cg = cut.add_parser("galois")
    cg.add_argument("--set", required=True)
    cc = cut.add_parser("classify")
    cc.add_argument("--oracle", choices=("lt", "le", "sq-lt"), required=True)
    cc.add_argument("--target", required=True)
    cc.add_argument("--bound", type=int, default=10**6)
    cp = cut.add_parser("probe")
    cp.add_argument("--cut", action="append", required=True, metavar="KIND:TARGET")
    cp.add_argument("--bound", type=int, default=10**6)
    return parser


def run(argv: list[str]) -> CommandResult:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, [], [])
    try:
        result = _dispatch(args)
    except (ValueError, ZeroDivisionError, autgroup.ResourceCapError) as exc:
        record = {"schema_version": SCHEMA_VERSION, "command": args.command, "error": str(exc)}
        result = CommandResult(2, [f"error: {exc}"], [record])
    result.machine = args.format == "machine"
    return result


def _dispatch(args) -> CommandResult:
    handler = {
        "structure": _cmd_structure,
        "uniformity": _cmd_uniformity,
        "line": _cmd_line,
        "field": _cmd_field,
        "cyclic": _cmd_cyclic,
        "cuts": _cmd_cuts,
    }[args.command]
    return handler(args)


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
        return _result(
            args,
            0,
            [text.rstrip("\n")],
            {"universe": list(structure.universe), "rendered": text},
        )
    if args.action == "aut":
        group = autgroup.automorphisms(structure)
        mappings = [[structure.universe[i] for i in g.mapping] for g in group]
        lines = [f"{len(group)} automorphisms"] + [" ".join(m) for m in mappings]
        return _result(args, 0, lines, {"order": len(group), "automorphisms": mappings})
    partition = autgroup.orbit_partition(structure, args.n, mode=args.mode)
    classes = [
        [list(autgroup.elements_of(structure, member)) for member in cls]
        for cls in partition.classes
    ]
    lines = [f"{len(classes)} orbit classes (n={args.n}, {args.mode})"]
    lines += ["  " + " ".join("(" + ",".join(m) + ")" for m in cls) for cls in classes]
    return _result(args, 0, lines, {"n": args.n, "mode": args.mode, "classes": classes})


# --- uniformity ---------------------------------------------------------------------


def _verdict_payload(verdict: uniformity.UniformityVerdict) -> dict:
    payload: dict = {"mode": verdict.mode, "uniform": verdict.uniform}
    if verdict.depth is not None:
        payload["depth"] = verdict.depth
    ce = verdict.counterexample
    if isinstance(ce, uniformity.SchemaCounterexample):
        payload["counterexample"] = {
            "formula": render_formula(ce.formula),
            "witness": list(ce.witness),
            "violating": list(ce.violating),
        }
    elif isinstance(ce, uniformity.OrbitCounterexample):
        payload["counterexample"] = {"first": list(ce.first), "second": list(ce.second)}
    return payload


def _cmd_uniformity(args) -> CommandResult:
    structure = _load_structure(args.structure)
    verdicts = []
    if args.method in ("schema", "both"):
        verdicts.append(uniformity.check_uniformity_schema(structure, args.n, args.depth))
    if args.method in ("orbits", "both"):
        verdicts.append(uniformity.check_uniformity_orbits(structure, args.n))
    uniform = all(v.uniform for v in verdicts)
    lines = []
    for verdict in verdicts:
        if verdict.uniform:
            lines.append(f"{verdict.mode}: uniform (n={args.n})")
        else:
            ce = verdict.counterexample
            if isinstance(ce, uniformity.SchemaCounterexample):
                lines.append(
                    f"{verdict.mode}: counterexample {render_formula(ce.formula)} "
                    f"holds at ({','.join(ce.witness)}), fails at ({','.join(ce.violating)})"
                )
            else:
                lines.append(
                    f"{verdict.mode}: subsets ({','.join(ce.first)}) and ({','.join(ce.second)}) "
                    "lie in different orbits"
                )
    payload = {"n": args.n, "uniform": uniform, "results": [_verdict_payload(v) for v in verdicts]}
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
        payload: dict = {
            "f": str(f),
            "g": str(g),
            "commute": report.preserves,
            "construct_preserved": report.preserves,
        }
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
    payload = {
        "count": measure.count,
        "remainder": [_rat(measure.remainder.lo), _rat(measure.remainder.hi)],
    }
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
    tokens = re.findall(r"\d+/\d+|\d+|[+\-*/()]", text)
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
            value = Fraction(token)
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
        payload = {
            "zero": _rat(loc.zero),
            "one": _rat(loc.one),
            "samples": args.samples,
            "checks": [
                {
                    "axiom": check.name,
                    "passed": check.passed,
                    "counterexample": _rats(check.counterexample) if check.counterexample else None,
                }
                for check in report.checks
            ],
            "all_passed": report.all_passed(),
        }
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
        return _result(args, 0, [f"iso: {iso} (verified on {args.samples} samples)"], payload)
    factor = ordline.parse_rational(args.factor)
    interval = ordline.Interval(ordline.parse_rational(args.lo), ordline.parse_rational(args.hi))
    image = fieldgen.stretch_image(loc, factor, interval)
    return _result(
        args,
        0,
        [f"{interval} -> {image}"],
        {"factor": _rat(factor), "image": [_rat(image.lo), _rat(image.hi)]},
    )


# --- cyclic -------------------------------------------------------------------------------


def _proj_points(text: str) -> list:
    return [cyclic.parse_proj_point(part) for part in text.split(",") if part.strip()]


def _cmd_cyclic(args) -> CommandResult:
    if args.action == "orient":
        points = _proj_points(args.points)
        if len(points) != 3:
            raise ValueError("orient requires exactly three points")
        oriented = cyclic.cyclic_orient(*points)
        word = "true" if oriented else "false"
        return _result(
            args,
            0,
            [word],
            {"points": [cyclic.format_proj_point(p) for p in points], "oriented": oriented},
        )
    if args.action == "linearize":
        cut = cyclic.parse_proj_point(args.cut)
        points = _proj_points(args.points)
        order = cyclic.linearize_at(cut)
        ordered = order.sort(points)
        rendered = [cyclic.format_proj_point(p) for p in ordered]
        return _result(
            args,
            0,
            [" < ".join(rendered)],
            {"cut": cyclic.format_proj_point(cut), "ordered": rendered},
        )
    coefficients = [ordline.parse_rational(p) for p in args.map.split(",")]
    if len(coefficients) != 4:
        raise ValueError("mobius map requires four coefficients a,b,c,d")
    m = cyclic.MobiusMap(*coefficients)
    if args.triples < 1:
        raise ValueError("at least one sample triple is required")
    # a Möbius map preserves every cyclic orientation or reverses every one
    verdict = cyclic.mobius_orientation(m, [(Fraction(0), Fraction(1), cyclic.INFINITY)])
    det = m.determinant()
    payload = {
        "map": [_rat(c) for c in coefficients],
        "determinant": _rat(det),
        "orientation": verdict,
        "triples": args.triples,
    }
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
    if kind == "lt":
        return cuts.oracle_lt(value)
    if kind == "le":
        return cuts.oracle_le(value)
    if kind == "sq-lt":
        return cuts.oracle_sq_lt(value)
    raise ValueError(f"unknown oracle kind {kind!r}")


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
        return _result(
            args,
            0,
            [f"upper: {upper}", f"lower: {lower}"],
            {"upper": _ray_payload(upper), "lower": _ray_payload(lower)},
        )
    if args.action == "galois":
        points = [ordline.parse_rational(p) for p in args.set.split()]
        report = cuts.galois_closure_check(points)
        lines = [
            f"X^> = {report.upper}; X^(><) = {report.upper_lower}; X^(><>) = {report.upper_lower_upper}",
            f"X^< = {report.lower}; X^(<>) = {report.lower_upper}; X^(<><) = {report.lower_upper_lower}",
            "idempotence: " + ("pass" if report.passed() else "FAIL"),
        ]
        payload = {
            "upper": _ray_payload(report.upper),
            "upper_lower": _ray_payload(report.upper_lower),
            "upper_lower_upper": _ray_payload(report.upper_lower_upper),
            "lower": _ray_payload(report.lower),
            "lower_upper": _ray_payload(report.lower_upper),
            "lower_upper_lower": _ray_payload(report.lower_upper_lower),
            "passed": report.passed(),
        }
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
    payload = {
        "verdict": report.verdict,
        "witness": report.witness,
        "results": [
            {"oracle": name, **_cut_class_payload(verdict)} for name, verdict in report.results
        ],
    }
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
