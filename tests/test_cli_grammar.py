"""The command-line grammar: the table parser in ``uniline.cli`` against the
argparse tree it replaced, and help at every level of the command table.

``_ArgumentParser`` and ``_parser`` below are the argparse parser that
``uniline.cli`` used before its command table, kept verbatim as the
reference.  The table parser must agree with it on every command line: both
print help and exit 0, both exit 2, or both read the same namespace.
"""

from __future__ import annotations

import argparse
import functools
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from uniline import cli
from uniline.cli import main


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
    parser = _ArgumentParser(prog="uniline", description=cli.__doc__)
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


def reference(argv: list[str]):
    """What the argparse tree made of ``argv``: 0 for help, 2 for an error,
    or the namespace as a dict."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv))
        except SystemExit as exc:
            return 2 if exc.code else 0


def table(argv: list[str]):
    """The same for the table parser."""
    try:
        return vars(cli._parse(argv))
    except cli._Stop as stop:
        return 0 if stop.error is None else 2


def spelled(kind) -> str:
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else ""


# values that start with -, --, -h or =, hold = or a space, or are empty, bad ints and bad choices
ODD_VALUES = [
    "", "-", "--", "-h", "-hh", "-h=h", "-h=", "-hx", "--x", "--x y", "-- x", "-1/2", "-x", "=", "a=b",
    "--map=1", "x y", "--help", "--he", "--=x", "--one", "0", "7", "-3", " 5", "+2", "1_0", "x", "both",
]
# arguments dropped anywhere in a command line
NOISE = [
    "-h", "--help", "--he", "-hh", "-hx", "-h=", "-h=h", "--help=x", "--bogus", "extra", "--", "--=x",
    "--format", "machine", "--seed=3", "--f=text", "--s", "--h", "--o=1", "-x", "-", "", "classify",
]


def values_of(option) -> st.SearchStrategy[str]:
    if option.kind is int:
        valid = st.integers(-3, 30).map(str)
    elif isinstance(option.kind, tuple):
        valid = st.sampled_from(option.kind)
    else:
        valid = st.text(alphabet="01/-x+*, :=h", max_size=6)
    return st.one_of(valid, valid, valid, st.sampled_from(ODD_VALUES))


@st.composite
def option_tokens(draw, options: dict) -> list[str]:
    """Every required option, perhaps less one, and some others, in any
    order, each spelled whole or by a prefix, with its value after = or in
    the next argument."""
    names = [name for name, option in options.items() if option.default is None]
    if names and draw(st.integers(0, 5)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))
    names += draw(st.lists(st.sampled_from(list(options)), max_size=3))
    tokens: list[str] = []
    for name in draw(st.permutations(names)):
        string = "--" + name
        if draw(st.integers(0, 3)) == 0:
            string = string[:draw(st.integers(2, len(string)))]
        value = draw(values_of(options[name]))
        tokens += [f"{string}={value}"] if draw(st.booleans()) else [string, value]
    return tokens


@st.composite
def command_lines(draw) -> list[str]:
    path = draw(st.sampled_from(list(cli.COMMANDS)))
    global_tokens = draw(option_tokens(cli._GLOBAL)) if draw(st.booleans()) else []
    leaf_tokens = draw(option_tokens(cli.COMMANDS[path]))
    if draw(st.integers(0, 4)) == 0:
        argv = list(path) + global_tokens + leaf_tokens  # global options after the command
    else:
        argv = global_tokens + list(path) + leaf_tokens
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(NOISE)))
    return argv


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the reference is the argparse of Python 3.11")
class TestAgainstArgparse:
    @settings(max_examples=1500, deadline=None)
    @given(argv=command_lines())
    @example(argv=["-h", "line", "classify", "--=x"])
    @example(argv=["field", "iso", "-h", "--one", "1"])
    @example(argv=["line", "classify", "--map", "-hh"])
    @example(argv=["line", "classify", "-hh", "--map", "x"])
    @example(argv=["line", "classify", "-hhx", "--map", "x"])
    @example(argv=["line", "classify", "-h=", "--map", "x"])
    @example(argv=["--seed", "-5", "line", "classify", "--map=--"])
    @example(argv=["line", "--bogus", "classify", "--map", "x", "-h"])
    @example(argv=["line", "classify", "--map", "x", "--", "-h"])
    @example(argv=["line", "classify", "-h", "--", "--=x"])
    @example(argv=["line", "--", "classify", "--map", "x"])
    @example(argv=["line", "classify", "--map", "--x y"])
    @example(argv=["line", "classify", "--map", "x", "--help=1"])
    @example(argv=["line", "--he=1", "classify", "--map", "x"])
    @example(argv=["cuts", "probe", "--cut", "lt:1", "--c=le:2", "--cut", "sq-lt:2"])
    @example(argv=["field", "stretch", "--h", "1"])
    @example(argv=["uniformity", "--structure", "s", "--n", "1", "--format", "machine"])
    @example(argv=["--format", "--", "line", "classify", "--map", "x"])
    @example(argv=[])
    def test_same_outcome_as_argparse(self, argv):
        assert table(argv) == reference(argv)


class TestGrammar:
    @pytest.mark.parametrize(
        "argv, read",
        [
            (["line", "classify", "--map", "x"], {"map": "x"}),
            (["line", "classify", "--map=x"], {"map": "x"}),
            (["line", "classify", "--ma", "x"], {"map": "x"}),
            (["line", "classify", "--m=-x"], {"map": "-x"}),
            (["line", "classify", "--map", "-1/2"], {"map": "-1/2"}),
            (["line", "classify", "--map=--"], {"map": "--"}),
            (["line", "classify", "--map=-h"], {"map": "-h"}),
            (["line", "classify", "--map", "--x y"], {"map": "--x y"}),
            (["line", "classify", "--map", "1", "--map", "2"], {"map": "2"}),
            (["cuts", "probe", "--cut", "lt:1", "--cu=le:2"], {"cut": ["lt:1", "le:2"], "bound": 10**6}),
            (["field", "iso", "--zero1", "4", "--one1", "1", "--zero2", "3", "--one2", "2", "--s", "9"], {"samples": 9}),
            (["--f", "machine", "--seed=-4", "line", "classify", "--map", "x"], {"format": "machine", "seed": -4}),
            (["uniformity", "--s", "f", "--n", " 3 ", "--m", "orbits"], {"n": 3, "method": "orbits", "depth": 2}),
        ],
    )
    def test_accepted(self, argv, read):
        values = table(argv)
        assert isinstance(values, dict)
        assert values.items() >= read.items()

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "iso", "--one", "1"],  # ambiguous: --one1, --one2
            ["field", "stretch", "--h", "1"],  # ambiguous: --help, --hi
            ["line", "classify", "--map", "--x"],
            ["line", "classify", "--map", "-hx"],
            ["line", "classify", "--map"],
            ["line", "classify"],
            ["line", "classify", "--map", "x", "extra"],
            ["line", "classify", "--map", "x", "--format", "machine"],
            ["line", "classify", "--map", "x", "--"],
            ["line", "tile", "--shift", "1", "--base", "0", "--window", "two"],
            ["line", "factor", "--map", "x", "--shift", "1", "--side", "up"],
            ["--format", "json", "line", "classify", "--map", "x"],
            ["line", "--format", "machine", "classify", "--map", "x"],
            ["line"],
            ["bogus"],
            [],
        ],
    )
    def test_rejected(self, argv):
        assert table(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--he"], ["line", "-h"], ["line", "classify", "-hh"], ["line", "classify", "--bogus", "-h"]],
    )
    def test_help(self, argv):
        assert table(argv) == 0


LEVELS = [()] + list(dict.fromkeys(path[:1] for path in cli.COMMANDS if len(path) > 1)) + list(cli.COMMANDS)


@pytest.mark.parametrize("path", LEVELS, ids=lambda path: " ".join(path) or "root")
def test_help_at_every_level(capsys, path):
    assert main([*path, "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(" ".join(("usage: uniline",) + path) + " ")
    options = cli.COMMANDS.get(path, {}) if path else cli._GLOBAL
    for name, option in options.items():
        assert f"--{name} {spelled(option.kind) or name.upper()}" in captured.out
    if not path:
        assert cli.__doc__.strip() in captured.out
        assert "structure, uniformity, line, field, cyclic, cuts" in captured.out


def test_parse_error_writes_usage_and_error_to_stderr(capsys):
    assert main(["line", "classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: uniline line classify [-h] --map MAP\n"
        "uniline line classify: error: the following arguments are required: --map\n"
    )
