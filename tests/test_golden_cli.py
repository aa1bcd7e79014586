"""Golden ``--format machine`` output: the exact bytes and exit code of each
command, compared with ``tests/golden_cli.json``.

The commands are criterion 10's plus cases that pin the exactly decided
commands (Möbius orientation, commutation, the field laws and the
isomorphism) and some input errors.  ``{chain}`` in an argument stands for a
structure file holding the three-element chain.

After an intended change of output, rewrite the golden file with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review its diff.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from uniline import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
CHAIN3 = "signature\n  lt/2\nuniverse\n  a b c\nrelations\n  lt: (a,b) (b,c) (a,c)\n"

SEEDED = ["--seed", "11", "--format", "machine"]
COMMANDS = [
    SEEDED + argv
    for argv in [
        ["structure", "parse", "--structure", "{chain}"],
        ["structure", "aut", "--structure", "{chain}"],
        ["structure", "orbits", "--structure", "{chain}", "--n", "2"],
        ["uniformity", "--structure", "{chain}", "--n", "1", "--method", "both", "--depth", "3"],
        ["line", "classify", "--map", "x+1"],
        ["line", "commute", "--f", "x+1", "--g", "2*x"],
        ["line", "tile", "--shift", "2/3", "--base", "0", "--window", "4"],
        ["line", "factor", "--map", "2*x+1", "--shift", "1", "--side", "left"],
        ["line", "measure", "--shift", "1", "--lo", "0", "--hi", "7/2"],
        ["field", "eval", "--zero", "0", "--one", "2", "--expr", "2 * 3"],
        ["field", "verify", "--zero", "1", "--one", "3", "--samples", "300"],
        ["field", "iso", "--zero1", "0", "--one1", "1", "--zero2", "1", "--one2", "3"],
        ["field", "stretch", "--zero", "0", "--one", "1", "--factor", "3", "--lo", "0", "--hi", "1"],
        ["cyclic", "orient", "--points", "2,3,1"],
        ["cyclic", "linearize", "--cut", "0", "--points", "2,-1,1"],
        ["cyclic", "mobius", "--map", "0,1,1,0", "--triples", "30"],
        ["cuts", "rays", "--set", "1 2 3"],
        ["cuts", "galois", "--set", "0"],
        ["cuts", "classify", "--oracle", "sq-lt", "--target", "2", "--bound", "1000000"],
        ["cuts", "probe", "--cut", "lt:1/2", "--cut", "sq-lt:2", "--bound", "1000000"],
    ]
] + [
    ["--format", "machine"] + argv
    for argv in [
        ["cyclic", "mobius", "--map", "1,0,0,-1"],
        ["cyclic", "mobius", "--map", "2,-1,1,1"],
        ["cyclic", "mobius", "--map", "1,0,1,-2", "--triples", "30"],
        ["cyclic", "mobius", "--map", "3,1/2,0,2"],
        ["cyclic", "mobius", "--map=-1,0,0,1", "--triples", "30"],
        ["--seed", "5", "cyclic", "mobius", "--map", "1/2,3,-2,1/3", "--triples", "7"],
        ["cyclic", "mobius", "--map", "1,0,0,1", "--triples", "0"],
        ["line", "commute", "--f", "3*x-1/2", "--g=-x+2"],
        ["line", "commute", "--f", "x+5", "--g", "x-2"],
        ["line", "tile", "--shift", "-3", "--base", "1/2", "--window", "2"],
        ["line", "tile", "--shift", "1", "--base", "0", "--window", "0"],
        ["field", "iso", "--zero1=-2", "--one1", "1/3", "--zero2", "5", "--one2", "4", "--samples", "9"],
        ["field", "verify", "--zero=-7/3", "--one", "5/2"],
        ["field", "verify", "--zero", "0", "--one", "1", "--samples", "0"],
    ]
]


def _run_all(directory: Path) -> list[dict]:
    chain = directory / "chain3.txt"
    chain.write_text(CHAIN3, encoding="utf-8")
    runs = []
    for argv in COMMANDS:
        result = cli.run([arg.replace("{chain}", str(chain)) for arg in argv])
        runs.append(
            {"argv": argv, "exit_code": result.exit_code, "output": cli.render_output(result, True)}
        )
    return runs


def test_machine_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [run["argv"] for run in golden] == COMMANDS
    for expected, actual in zip(golden, _run_all(tmp_path)):
        assert actual == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        runs = _run_all(Path(directory))
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
