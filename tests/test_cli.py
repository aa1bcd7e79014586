from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import uniline
from uniline import cli, fieldgen
from uniline.cli import main, render_output, run
from uniline.corpus import biclique_2_3
from uniline.ordline import AffineMap, format_rational, parse_rational
from uniline.structures import render_structure

CHAIN3_TEXT = """\
signature
  lt/2
universe
  a b c
relations
  lt: (a,b) (b,c) (a,c)
"""


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.txt"
    path.write_text(CHAIN3_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def antichain11_file(tmp_path):
    path = tmp_path / "antichain11.txt"
    path.write_text("signature\n  e/2\nuniverse\n  " + " ".join("abcdefghijk") + "\n", encoding="utf-8")
    return str(path)


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
# the literals ``field eval`` reads: a natural number or a fraction of two
LITERALS = st.integers(0, 12).map(str) | st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 9))


def machine(argv: list[str]) -> tuple[int, list[dict]]:
    result = run(argv)
    text = render_output(result, machine=True)
    return result.exit_code, [json.loads(line) for line in text.splitlines()]


def assert_error_exit(result, path: str, error: str) -> None:
    """Exit 2 with the error as one text line and as one machine record,
    which names the command and action of ``path``, as a success record does."""
    command, _, action = path.partition(" ")
    named = f'"action": "{action}", ' if action else ""
    assert result.exit_code == 2
    assert render_output(result, machine=True) == (
        f'{{{named}"command": "{command}", "error": "{error}", "schema_version": 1}}\n'
    )
    assert render_output(result, machine=False) == f"error: {error}\n"


class TestExitCodes:
    def test_uniform_structure_exits_zero(self, tmp_path):
        path = tmp_path / "empty3.txt"
        path.write_text("signature\n  e/2\nuniverse\n  a b c\n", encoding="utf-8")
        code, records = machine(
            ["uniformity", "--structure", str(path), "--n", "1", "--method", "both", "--depth", "2"]
        )
        assert code == 0
        assert records[0]["uniform"] is True

    def test_non_uniform_exits_one_with_certificate(self, chain3_file):
        code, records = machine(
            ["uniformity", "--structure", chain3_file, "--n", "1", "--method", "both", "--depth", "3"]
        )
        assert code == 1
        record = records[0]
        assert record["uniform"] is False
        schema = next(r for r in record["results"] if r["mode"] == "schema")
        orbits = next(r for r in record["results"] if r["mode"] == "orbits")
        assert schema["counterexample"]["formula"]
        assert schema["counterexample"]["witness"]
        assert orbits["counterexample"]["first"]

    def test_unknown_command_exits_two(self):
        assert run(["bogus"]).exit_code == 2

    def test_input_error_exits_two(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("signature\n  lt/2\nuniverse\n  a a\n", encoding="utf-8")
        result = run(["structure", "parse", "--structure", str(path)])
        assert result.exit_code == 2
        assert "error" in result.records[0]

    @pytest.mark.parametrize(
        "document",
        [
            {"signature": {"e": 2}, "universe": ["a", "b"], "relations": {"e": 5}},
            {"signature": {"e": 2}, "universe": ["a", "b"], "relations": {"e": ["ab"]}},
            {"signature": {"e": True}, "universe": ["a"], "relations": {}},
        ],
        ids=["relation-not-a-list", "tuple-as-string", "boolean-arity"],
    )
    def test_malformed_json_shape_exits_two(self, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, records = machine(["structure", "parse", "--structure", str(path)])
        assert code == 2
        assert "error" in records[0]

    @pytest.mark.parametrize("depth", ["5", "60"])
    def test_depth_above_limit_exits_two(self, chain3_file, depth):
        code, records = machine(["uniformity", "--structure", chain3_file, "--n", "1", "--depth", depth])
        assert code == 2
        assert records[0]["error"] == f"depth must be between 0 and 4, got {depth}"

    @pytest.mark.parametrize("n", ["3", "5"])
    def test_assignment_space_above_limit_exits_two(self, tmp_path, n):
        # 10^(n+4) cells: without the limit n = 3 builds for 43 s (2 cores) and n = 5 needs about 11 GB of masks
        path = tmp_path / "antichain10.txt"
        path.write_text("signature\n  e/2\nuniverse\n  " + " ".join("abcdefghij") + "\n", encoding="utf-8")
        argv = ["uniformity", "--structure", str(path), "--n", n, "--depth", "4", "--method", "both"]
        code, records = machine(argv)
        assert code == 2
        assert records[0]["error"] == f"assignment space 10^{int(n) + 4} exceeds the limit of 100,000,000 mask bits"

    @pytest.mark.parametrize(
        "n, error",
        [("0", "n must be between 1 and 11, got 0"), ("12", "n must be between 1 and 11, got 12"),
         ("1", "universe size 11 exceeds cap 10"), ("11", "universe size 11 exceeds cap 10")],
    )
    def test_orbit_decider_errors_exit_two(self, antichain11_file, n, error):
        result = run(["uniformity", "--structure", antichain11_file, "--n", n, "--method", "orbits"])
        assert_error_exit(result, "uniformity", error)

    @pytest.mark.parametrize("n", ["0", "12"])
    def test_schema_decider_n_out_of_range_exits_two(self, antichain11_file, n):
        # the same message as the orbit decider's, checked before the depth and the space
        result = run(["uniformity", "--structure", antichain11_file, "--n", n, "--method", "schema"])
        assert_error_exit(result, "uniformity", f"n must be between 1 and 11, got {n}")

    @pytest.mark.parametrize("mode", ["subsets", "tuples"])
    @pytest.mark.parametrize(
        "n, error",
        [("0", "n must be between 1 and 11, got 0"), ("12", "n must be between 1 and 11, got 12"),
         ("1", "universe size 11 exceeds cap 10"), ("11", "universe size 11 exceeds cap 10")],
    )
    def test_structure_orbits_errors_exit_two(self, antichain11_file, mode, n, error):
        # n is checked before the cap
        result = run(["structure", "orbits", "--structure", antichain11_file, "--n", n, "--mode", mode])
        assert_error_exit(result, "structure orbits", error)

    def test_structure_aut_above_cap_exits_two(self, antichain11_file):
        result = run(["structure", "aut", "--structure", antichain11_file])
        assert_error_exit(result, "structure aut", "universe size 11 exceeds cap 10")

    def test_non_uniform_text_output(self, chain3_file):
        result = run(["uniformity", "--structure", chain3_file, "--n", "1", "--method", "both", "--depth", "2"])
        assert result.exit_code == 1
        assert render_output(result, machine=False) == (
            "schema: counterexample exists y1. lt(x1,y1) holds at (a), fails at (c)\n"
            "orbits: subsets (a) and (b) lie in different orbits\n"
        )

    def test_depth_four_scan_of_the_biclique(self, tmp_path):
        # the deepest scan allowed, on the one corpus structure that needs it
        path = tmp_path / "biclique.txt"
        path.write_text(render_structure(biclique_2_3()), encoding="utf-8")
        result = run(["uniformity", "--structure", str(path), "--n", "1", "--method", "both", "--depth", "4"])
        assert result.exit_code == 1
        assert render_output(result, machine=True) == (
            '{"command": "uniformity", "n": 1, "results": [{"counterexample": '
            '{"formula": "exists y2. forall y1. y1 = y2 | (e(x1,y1) | x1 = y1)", '
            '"violating": ["b0"], "witness": ["a0"]}, "depth": 4, "mode": "schema", "uniform": false}, '
            '{"counterexample": {"first": ["a0"], "second": ["b0"]}, "mode": "orbits", "uniform": false}], '
            '"schema_version": 1, "uniform": false}\n'
        )

    def test_uniform_text_output(self, tmp_path):
        path = tmp_path / "cycle3.txt"
        path.write_text("signature\n  e/2\nuniverse\n  a b c\nrelations\n  e: (a,b) (b,c) (c,a)\n", encoding="utf-8")
        result = run(["uniformity", "--structure", str(path), "--n", "1", "--method", "both", "--depth", "2"])
        assert result.exit_code == 0
        assert render_output(result, machine=False) == "schema: uniform (n=1)\norbits: uniform (n=1)\n"

    def test_missing_file_exits_two(self):
        assert run(["structure", "parse", "--structure", "/nonexistent"]).exit_code == 2

    def test_commute_failure_exits_one_with_witness(self):
        code, records = machine(["line", "commute", "--f", "x+1", "--g", "2*x"])
        assert code == 1
        assert records[0]["witness"]["x"] == "0"

    def test_commute_success_exits_zero(self):
        assert run(["line", "commute", "--f", "x+1", "--g", "x+1/2"]).exit_code == 0

    def test_probe_disconnected_exits_one(self):
        code, records = machine(["cuts", "probe", "--cut", "sq-lt:2", "--bound", "10000"])
        assert code == 1
        assert records[0]["verdict"] == "disconnected"
        assert records[0]["witness"] == "sq-lt 2"

    def test_exit_one_certificates_reverify(self, chain3_file):
        from uniline.formulas import evaluate, parse_formula
        from uniline.ordline import parse_affine
        from uniline.structures import parse_structure

        code, records = machine(
            ["uniformity", "--structure", chain3_file, "--n", "1", "--method", "schema", "--depth", "2"]
        )
        assert code == 1
        structure = parse_structure(CHAIN3_TEXT)
        ce = records[0]["results"][0]["counterexample"]
        formula = parse_formula(ce["formula"], structure.signature)
        assert evaluate(structure, formula, {"x1": ce["witness"][0]})
        assert not evaluate(structure, formula, {"x1": ce["violating"][0]})

        code, records = machine(["line", "commute", "--f", "x+1", "--g", "2*x"])
        assert code == 1
        witness = records[0]["witness"]
        f, g = parse_affine("x+1"), parse_affine("2*x")
        x = Fraction(witness["x"])
        assert g(f(x)) == Fraction(witness["g_of_fx"])
        assert f(g(x)) == Fraction(witness["f_of_gx"])
        assert witness["g_of_fx"] != witness["f_of_gx"]


# Rational literals, each through the three readers of one grammar:
# ``parse_rational``, ``line classify --map '<literal>*x'`` and ``field eval
# --expr <literal>``.  ``field eval`` reads a sign as an operator, so a signed
# literal is not one of its operands.
UNSIGNED_LITERALS = {"3": Fraction(3), "0": Fraction(0), "3/7": Fraction(3, 7), "3/07": Fraction(3, 7),
                     " 4 ": Fraction(4)}
SIGNED_LITERALS = {"-2": Fraction(-2), "+5": Fraction(5)}
# each rejected literal, with the error of ``field eval``: its tokenizer
# refuses a character outside the grammar, and ``parse_rational`` an operand
LONG_LITERAL = "1" * 4301  # past Python's 4,300-digit limit
REJECTED_LITERALS = {
    "1.5": "invalid expression '1.5'",
    "1e3": "invalid expression '1e3'",
    "1_0": "invalid expression '1_0'",
    "\u0663": "invalid expression '\u0663'",
    "3/0": "invalid operand '3/0' in expression '3/0'",
    "0x1": "invalid expression '0x1'",
    "": "unexpected end of expression",
    LONG_LITERAL: f"invalid operand {LONG_LITERAL!r} in expression {LONG_LITERAL!r}",
}


def _read_three_ways(literal: str):
    classify = run(["line", "classify", "--map", f"{literal}*x"])
    evaluate = run(["field", "eval", "--zero", "1", "--one", "3", "--expr", literal])
    return classify, evaluate


class TestRationalLiterals:
    @pytest.mark.parametrize("literal", [*UNSIGNED_LITERALS, *SIGNED_LITERALS])
    def test_accepted(self, literal):
        value = (UNSIGNED_LITERALS | SIGNED_LITERALS)[literal]
        assert parse_rational(literal) == value
        classify, evaluate = _read_three_ways(literal)
        if value:
            assert classify.exit_code == 0
            assert classify.records[0]["map"] == str(AffineMap(value, Fraction(0)))
        else:  # read, then refused as a slope
            assert classify.lines == ["error: affine map must have nonzero slope"]
        if literal in UNSIGNED_LITERALS:
            assert evaluate.lines == [format_rational(value)]
        elif literal == "-2":  # negation in the field whose zero is 1: 2*1 - 2
            assert evaluate.lines == ["0"]
        else:
            assert evaluate.lines == ["error: invalid operand '+' in expression '+5'"]

    @pytest.mark.parametrize("literal", REJECTED_LITERALS, ids=lambda literal: ascii(literal)[:12])
    def test_rejected(self, literal):
        with pytest.raises(ValueError) as raised:
            parse_rational(literal)
        classify, evaluate = _read_three_ways(literal)
        errors = [str(raised.value), classify.records[0]["error"], evaluate.records[0]["error"]]
        assert errors == [
            f"invalid rational {literal!r}", f"invalid affine map {literal + '*x'!r}", REJECTED_LITERALS[literal]
        ]
        assert (classify.exit_code, evaluate.exit_code) == (2, 2)
        assert not any("Fraction(" in error or "Exceeds the limit" in error for error in errors)


class TestCommands:
    def test_field_eval(self):
        code, records = machine(["field", "eval", "--zero", "0", "--one", "2", "--expr", "2 * 3"])
        assert code == 0
        assert records[0]["value"] == "3"

    def test_field_eval_plain(self):
        result = run(["field", "eval", "--zero", "0", "--one", "1", "--expr", "2 * (3 + 4)"])
        assert result.lines == ["14"]

    @pytest.mark.parametrize(
        "expr, value",
        [
            ("8 - 2 - 1", "7"),
            ("8 / 2 / 2", "29"),
            ("2 + 3 * 4", "5"),
            ("-2 * 3", "0"),
            ("2 - -3", "4"),
            ("3/4 / 1/2", "2"),
            ("2 * (3 - 1) / 4", "5/3"),
        ],
    )
    def test_field_eval_precedence_and_association(self, expr, value):
        assert run(["field", "eval", "--zero", "1", "--one", "3", "--expr", expr]).lines == [value]

    @pytest.mark.parametrize(
        "expr, error",
        [
            ("1 / 1", "division by localized zero"),
            ("(1 2", "unbalanced parentheses"),
            ("((2)", "unexpected end of expression"),
            ("1 + 2)", "trailing input at ')'"),
            ("1 + x", "invalid expression '1 + x'"),
            ("1/0", "invalid operand '1/0' in expression '1/0'"),
            ("()", "invalid operand ')' in expression '()'"),
            ("1 + * 2", "invalid operand '*' in expression '1 + * 2'"),
        ],
    )
    def test_field_eval_errors_exit_two(self, expr, error):
        assert_error_exit(run(["field", "eval", "--zero", "1", "--one", "3", "--expr", expr]), "field eval", error)

    @given(
        zero=RATIONALS,
        one=RATIONALS,
        expr=st.recursive(
            LITERALS,
            lambda sub: st.builds("({})".format, sub)
            | st.builds("-{}".format, sub)
            | st.builds("{} {} {}".format, sub, st.sampled_from("+-*/"), sub),
            max_leaves=8,
        ),
    )
    def test_field_eval_agrees_with_rational_arithmetic(self, zero, one, expr):
        """Read every literal x as (x - zero)/(one - zero) in Q, evaluate the
        text as Python does, and map the value back."""
        if zero == one:
            return
        unit = one - zero
        python = re.sub(r"\d+/\d+|\d+", lambda m: f"Fraction({str((Fraction(m[0]) - zero) / unit)!r})", expr)
        result = run(["field", "eval", f"--zero={zero}", f"--one={one}", f"--expr={expr}"])
        try:
            expected = zero + eval(python, {"Fraction": Fraction}) * unit
        except ZeroDivisionError:
            assert_error_exit(result, "field eval", "division by localized zero")
            return
        assert result.exit_code == 0
        assert Fraction(result.lines[0]) == expected

    def test_field_verify(self):
        code, records = machine(["field", "verify", "--zero=-7/3", "--one", "5/2", "--samples", "100"])
        assert code == 0
        assert records[0]["all_passed"] is True

    def test_field_iso(self):
        code, records = machine(
            ["field", "iso", "--zero1", "0", "--one1", "1", "--zero2", "1", "--one2", "3", "--samples", "50"]
        )
        assert code == 0
        assert records[0]["iso"] == "2*x + 1"
        assert records[0]["samples"] == 50  # echoed, while the decision reads the grid
        result = run(["field", "iso", "--zero1", "0", "--one1", "1", "--zero2", "1", "--one2", "3", "--samples", "50"])
        assert result.lines == ["iso: 2*x + 1 (decided exactly on 4 grid pairs)"]

    def test_field_stretch(self):
        code, records = machine(
            ["field", "stretch", "--zero", "0", "--one", "1", "--factor", "3", "--lo", "0", "--hi", "1"]
        )
        assert code == 0
        assert records[0]["image"] == ["0", "3"]

    def test_cuts_classify_gap(self):
        code, records = machine(
            ["cuts", "classify", "--oracle", "sq-lt", "--target", "2", "--bound", "1000000"]
        )
        assert code == 0
        assert records[0]["kind"] == "gap"

    def test_cuts_classify_principal(self):
        code, records = machine(
            ["cuts", "classify", "--oracle", "lt", "--target", "3/7", "--bound", "1000000"]
        )
        assert code == 0
        assert records[0]["kind"] == "principal"
        assert records[0]["point"] == "3/7"

    def test_cuts_rays_and_galois(self):
        code, records = machine(["cuts", "rays", "--set", "1 2 3"])
        assert code == 0
        assert records[0]["upper"] == {"kind": "upward", "endpoint": "3", "closed": False}
        code, records = machine(["cuts", "galois", "--set", "1 2 3"])
        assert code == 0
        assert records[0]["passed"] is True

    def test_structure_parse_round_trip(self, chain3_file):
        code, records = machine(["structure", "parse", "--structure", chain3_file])
        assert code == 0
        assert records[0]["rendered"] == CHAIN3_TEXT.replace("(a,b) (b,c) (a,c)", "(a,b) (a,c) (b,c)")

    def test_structure_parse_json_emit(self, chain3_file):
        code, records = machine(["structure", "parse", "--structure", chain3_file, "--emit", "json"])
        assert code == 0
        assert '"signature"' in records[0]["rendered"]
        reparsed = run(["structure", "parse", "--structure", chain3_file])
        assert reparsed.exit_code == 0

    def test_cyclic_linearize_with_infinity(self):
        code, records = machine(["cyclic", "linearize", "--cut", "1", "--points", "2,inf,0"])
        assert code == 0
        assert records[0]["ordered"] == ["2", "inf", "0"]

    def test_structure_aut(self, chain3_file):
        code, records = machine(["structure", "aut", "--structure", chain3_file])
        assert code == 0
        assert records[0]["order"] == 1
        assert records[0]["automorphisms"] == [["a", "b", "c"]]

    def test_structure_orbits(self, chain3_file):
        code, records = machine(
            ["structure", "orbits", "--structure", chain3_file, "--n", "1"]
        )
        assert code == 0
        assert records[0]["classes"] == [[["a"]], [["b"]], [["c"]]]

    @pytest.mark.parametrize(
        "argv, literal",
        [
            (["cuts", "classify", "--oracle", "lt", "--target", "1/0"], "1/0"),
            (["cyclic", "orient", "--points", "1/0,1,2"], "1/0"),
            (["line", "tile", "--shift", "1e1000000", "--base", "0", "--window", "1"], "1e1000000"),
        ],
    )
    def test_bad_rational_names_itself(self, argv, literal):
        """The error is the reader's own, never ``Fraction``'s or Python's
        int-to-string message, and an exponent is not evaluated."""
        assert_error_exit(run(argv), " ".join(argv[:2]), f"invalid rational {literal!r}")

    @pytest.mark.parametrize("affine", ["1/0*x", "x+1/0"])
    def test_line_classify_zero_denominator_exits_two(self, affine):
        assert_error_exit(run(["line", "classify", "--map", affine]), "line classify", f"invalid affine map {affine!r}")

    def test_line_classify(self):
        code, records = machine(["line", "classify", "--map", "x - 2"])
        assert records[0]["classification"] == "lowering"
        code, records = machine(["line", "classify", "--map", "2*x"])
        assert records[0]["classification"] == "mixed"

    def test_line_tile(self):
        code, records = machine(["line", "tile", "--shift", "2/3", "--base", "0", "--window", "3"])
        assert code == 0
        assert len(records[0]["tiles"]) == 6
        assert records[0]["span"] == ["-2", "2"]

    def test_line_tile_text_with_lowering_shift(self):
        result = run(["line", "tile", "--shift", "-3", "--base", "1/2", "--window", "2"])
        assert result.exit_code == 0
        assert render_output(result, machine=False) == (
            "4 tiles spanning [-11/2, 13/2)\n"
            "[7/2, 13/2)\n"
            "[1/2, 7/2)\n"
            "[-5/2, 1/2)\n"
            "[-11/2, -5/2)\n"
        )

    def test_line_factor(self):
        code, records = machine(
            ["line", "factor", "--map", "2*x+1", "--shift", "1", "--side", "left"]
        )
        assert records[0]["h"] == "2*x"

    def test_line_measure(self):
        code, records = machine(["line", "measure", "--shift", "1", "--lo", "0", "--hi", "7/2"])
        assert records[0]["count"] == 3
        assert records[0]["remainder"] == ["3", "7/2"]

    def test_cyclic_orient(self):
        code, records = machine(["cyclic", "orient", "--points", "2,3,1"])
        assert records[0]["oriented"] is True
        code, records = machine(["cyclic", "orient", "--points", "3,1,inf"])
        assert records[0]["oriented"] is False

    def test_cyclic_linearize(self):
        code, records = machine(["cyclic", "linearize", "--cut", "0", "--points", "2,-1,1"])
        assert records[0]["ordered"] == ["1", "2", "-1"]

    def test_cyclic_mobius(self):
        code, records = machine(["cyclic", "mobius", "--map", "0,1,1,0"])
        assert records[0]["orientation"] == "reverses"
        code, records = machine(["cyclic", "mobius", "--map", "1,1,0,1"])
        assert records[0]["orientation"] == "preserves"


class TestDeterminism:
    COMMANDS = [
        ["field", "verify", "--zero", "1", "--one", "3", "--samples", "200"],
        ["cyclic", "mobius", "--map", "2,1,1,1", "--triples", "25"],
        ["cuts", "classify", "--oracle", "sq-lt", "--target", "2", "--bound", "1000000"],
        ["line", "commute", "--f", "x+1", "--g", "2*x"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(c[:2]) for c in COMMANDS])
    def test_same_seed_byte_identical(self, argv):
        first = run(["--seed", "7"] + argv)
        second = run(["--seed", "7"] + argv)
        assert render_output(first, machine=True) == render_output(second, machine=True)
        assert first.exit_code == second.exit_code

    def test_input_error_independent_of_hash_seed(self, tmp_path):
        # several bad tuples: the reported one must not follow string hashing
        path = tmp_path / "bad.txt"
        path.write_text(CHAIN3_TEXT.replace("(a,b) (b,c) (a,c)", "(a,d) (b,e) (c,f) (a,g)"), encoding="utf-8")
        argv = [sys.executable, "-m", "uniline.cli", "--format", "machine", "structure", "parse",
                "--structure", str(path)]
        src = str(Path(uniline.__file__).resolve().parent.parent)
        outputs = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run(argv, env=env, capture_output=True, check=False)
            assert done.returncode == 2
            outputs.add(done.stdout)
        assert len(outputs) == 1
        assert json.loads(outputs.pop())["error"] == "tuple for 'lt' references unknown element 'd'"

    def test_records_carry_schema_version(self, chain3_file):
        for argv in [
            ["structure", "parse", "--structure", chain3_file],
            ["field", "eval", "--zero", "0", "--one", "1", "--expr", "1 + 1"],
        ]:
            _, records = machine(argv)
            assert all(r["schema_version"] == 1 for r in records)


class TestParseState:
    def test_interleaved_commands_match_each_run_alone(self, chain3_file, monkeypatch):
        # no option or default of one run leaks into the next: each command
        # alone, on a freshly built command tree, reads the same
        sequence = [
            ["uniformity", "--structure", chain3_file, "--n", "1", "--depth=1"],
            ["uniformity", "--structure", chain3_file, "--n", "1"],
            ["field", "iso", "--bogus"],
            ["--format", "machine", "cuts", "probe", "--cut", "lt:1/2", "--cut", "sq-lt:2"],
            ["cuts", "probe", "--cut", "lt:1"],
            ["--seed", "3", "cyclic", "mobius", "--map", "2,1,1,1"],
            ["cyclic", "mobius", "--map", "2,1,1,1"],
            ["field", "verify", "--zero", "1", "--one", "3"],
            ["structure", "parse", "--structure", chain3_file, "--emit", "json"],
            ["structure", "parse", "--structure", chain3_file],
        ]
        interleaved = [run(argv) for argv in sequence]
        alone = []
        for argv in sequence:
            monkeypatch.setattr(cli, "_ROOT", cli._command_tree())
            alone.append(run(argv))
        assert interleaved == alone
        assert interleaved[1].records[0]["results"][0]["depth"] == 2
        assert interleaved[2].exit_code == 2
        assert len(interleaved[4].records[0]["results"]) == 1


class TestMain:
    @pytest.mark.parametrize("spelling", [["--format", "machine"], ["--format=machine"]])
    def test_machine_format(self, capsys, spelling):
        assert main(spelling + ["line", "classify", "--map", "x+1"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "raising"

    def test_text_format(self, capsys):
        assert main(["line", "classify", "--map", "x+1"]) == 0
        assert capsys.readouterr().out == "raising\n"

    def test_parse_error_prints_nothing_to_stdout(self, capsys):
        assert main(["--format=machine", "line", "classify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--map" in captured.err


DASH_VALUE_COMMANDS = [
    ["cyclic", "linearize", "--cut", "0", "--points", "-1,2"],
    ["cyclic", "linearize", "--cut", "-1/2", "--points", "0,1"],
    ["line", "classify", "--map", "-2*x"],
    ["line", "classify", "--map", "-x"],
    ["field", "eval", "--zero", "-1/2", "--one", "1", "--expr", "1+1"],
    ["cuts", "classify", "--oracle", "lt", "--target", "-1/2"],
    ["cuts", "rays", "--set", "-1/2"],
]


def _joined(argv: list[str]) -> list[str]:
    """The same command with every option written as ``--option=value``."""
    joined = argv[:2]
    for option, value in zip(argv[2::2], argv[3::2]):
        joined.append(f"{option}={value}")
    return joined


class TestDashValues:
    @pytest.mark.parametrize("argv", DASH_VALUE_COMMANDS, ids=" ".join)
    def test_value_may_start_with_dash(self, capsys, argv):
        outputs = []
        for spelling in (argv, _joined(argv)):
            assert main(["--format", "machine"] + spelling) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_missing_value_still_exits_two(self):
        assert run(["line", "classify", "--map"]).exit_code == 2
        assert run(["line", "classify", "--map", "--format"]).exit_code == 2

    def test_help_still_prints(self, capsys):
        assert main(["line", "classify", "-h"]) == 0
        assert "--map MAP" in capsys.readouterr().out


OPTION_COMMANDS = {
    "field-expression": lambda text: ["field", "eval", "--zero", "0", "--one", "1", f"--expr={text}"],
    "affine-map": lambda text: ["line", "classify", f"--map={text}"],
    "projective-point": lambda text: ["cyclic", "orient", f"--points={text}"],
    "cut-spec": lambda text: ["cuts", "probe", f"--cut={text}", "--bound", "1000"],
    "rational-set": lambda text: ["cuts", "rays", f"--set={text}"],
}
OPTION_TEXT = st.text() | st.text(alphabet="0123456789/+-*() ,:.xinf-lqst", max_size=40)


class TestExitContract:
    @pytest.mark.parametrize("kind", OPTION_COMMANDS)
    @given(text=OPTION_TEXT)
    @example(text="--")
    @example(text="(" * 200 + "1" + ")" * 200)
    @example(text="-" * 2000 + "1")
    def test_any_option_text(self, kind, text):
        result = run(OPTION_COMMANDS[kind](text))
        assert result.exit_code in (0, 1, 2)
        if result.exit_code == 2:
            assert "error" in result.records[0]

    def test_deep_expression_is_bad_input(self):
        code, records = machine(
            ["field", "eval", "--zero", "0", "--one", "1", "--expr=" + "(" * 101 + "1" + ")" * 101]
        )
        assert code == 2
        assert "nested deeper than 100" in records[0]["error"]
        nested = "(" * 99 + "-1" + ")" * 99
        assert run(["field", "eval", "--zero", "0", "--one", "1", f"--expr={nested}"]).lines == ["-1"]

    def test_tile_window_limit_is_bad_input(self):
        code, records = machine(["line", "tile", "--shift", "1", "--base", "0", "--window=100000000"])
        assert code == 2
        assert records[0]["error"] == "window must be <= 10000"

    @pytest.mark.parametrize(
        "cut, points", [("1", "1"), ("1", "1,2"), ("1", "2,1"), ("inf", "inf"), ("inf", "0,inf")]
    )
    def test_cut_point_among_points_is_bad_input(self, cut, points):
        result = run(["cyclic", "linearize", "--cut", cut, "--points", points])
        assert_error_exit(result, "cyclic linearize", "cannot compare the cut point with itself")

    @pytest.mark.parametrize(
        "argv",
        [["cuts", "classify", "--oracle", "sq-lt", "--target", "2"], ["cuts", "probe", "--cut", "sq-lt:2"]],
        ids=["classify", "probe"],
    )
    def test_cut_bound_above_limit_is_bad_input(self, argv):
        result = run(argv + ["--bound", str(10**300 + 1)])
        error = "denominator bound must be between 1 and 10^300 (MAX_BOUND)"
        assert_error_exit(result, " ".join(argv[:2]), error)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["field", "verify", "--zero", "0", "--one", "1"], "sample_count must be >= 1"),
            (
                ["field", "iso", "--zero1", "0", "--one1", "1", "--zero2", "1", "--one2", "3"],
                "sample_count must be >= 1",
            ),
            (["cyclic", "mobius", "--map", "2,1,1,1"], "at least one sample triple is required"),
        ],
        ids=["verify-samples", "iso-samples", "mobius-triples"],
    )
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_echoed_counts_validated_alike(self, argv, message, count):
        option = "--triples" if argv[0] == "cyclic" else "--samples"
        code, records = machine(argv + [f"{option}={count}"])
        assert code == 2
        assert records[0]["error"] == message

    def test_internal_key_error_is_not_bad_input(self, monkeypatch):
        def broken(points):
            raise KeyError("internal")

        monkeypatch.setattr(cli.cuts, "upper_set", broken)
        with pytest.raises(KeyError):
            run(["cuts", "rays", "--set", "1 2"])


class TestFieldIso:
    @pytest.mark.parametrize(
        "wrong, op",
        [(AffineMap(Fraction(2), Fraction(0)), "add"), (AffineMap(Fraction(3), Fraction(1)), "mul")],
        ids=["breaks-add", "breaks-mul"],
    )
    def test_wrong_map_exits_one_with_rechecked_witness(self, monkeypatch, wrong, op):
        monkeypatch.setattr(fieldgen, "localization_iso", lambda first, second: wrong)
        code, records = machine(["field", "iso", "--zero1", "0", "--one1", "1", "--zero2", "1", "--one2", "3"])
        assert code == 1
        assert records[0]["homomorphism"] is False
        witness = records[0]["witness"]
        assert witness["op"] == op
        first, second = fieldgen.Localization(0, 1), fieldgen.Localization(1, 3)
        law = {"add": fieldgen.loc_add, "mul": fieldgen.loc_mul}[op]
        x, y = Fraction(witness["x"]), Fraction(witness["y"])
        assert wrong(law(first, x, y)) != law(second, wrong(x), wrong(y))
