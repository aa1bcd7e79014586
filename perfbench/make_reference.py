"""Regenerate the stored references under ``perfbench/reference``.

    python3 perfbench/make_reference.py [corpus-d2] [deep-d3] [sym-orbits] [line-cli]

A reference holds the verdict hash of every case a workload can draw, so
any seed is checked, and deep-d3's strata.  Run it only on a commit whose
verdicts are trusted: the benchmark fails every op whose verdict differs.
Takes about ten minutes for all four on one core.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from uniline import formulas, uniformity  # noqa: E402
from workloads import Op, short_hash  # noqa: E402

WORKDIR = ROOT / ".bench_work" / "reference"
LONG_SCAN_S = 5.0  # a left-out case longer than this would not fit a deep-d3 round


def _hash(workload, op: Op) -> str:
    return short_hash(workload.verdict(op, workload.execute(op)))


def corpus_d2() -> dict:
    workload = workloads.CorpusD2(0, WORKDIR)
    cases = workloads.build_corpus(smoke=False)
    hashes = [
        _hash(workload, Op(key, "all", None, (structure, n)))
        for key, structure, n in workloads.corpus_questions(cases)
    ]
    return workloads.pack_corpus_reference(cases, hashes)


def deep_d3() -> dict:
    """Strata from the orbit and depth-2 verdicts, one letter per question:

    a: no depth-2 counterexample, but one at depth 3 (orbit-non-uniform)
    b: no depth-3 counterexample (orbit-uniform, or on the depth horizon)
    0, 1, 2: stratum c, by the depth of the depth-2 counterexample
    -: left out

    The depth-3 verdict only tells a from the horizon cases in b.
    """
    workload = workloads.DeepD3(0, WORKDIR)
    cases = workloads.build_corpus(smoke=False)
    strata = []
    left_out = []
    hashes = []
    for key, structure, n in workloads.corpus_questions(cases):
        orbit_uniform = uniformity.check_uniformity_orbits(structure, n).uniform
        depth2 = uniformity.check_uniformity_schema(structure, n, 2)
        if orbit_uniform and structure.size() < 4:
            start = time.perf_counter()
            uniformity.check_uniformity_schema(structure, n, 3)
            seconds = round(time.perf_counter() - start, 2)
            why = "orbit-uniform below size 4; stratum b covers sizes 4-7"
            if seconds > LONG_SCAN_S:
                why += "; too long for a round as well"
            left_out.append({"case": key, "depth3_scan_s": seconds, "why": why})
            hashes.append("-" * 8)
            strata.append("-")
            continue
        op = Op(key, "", None, (structure, n))
        verdict = workload.execute(op)
        hashes.append(short_hash(workload.verdict(op, verdict)))
        if orbit_uniform:
            strata.append("b")
        elif depth2.uniform:
            strata.append("b" if verdict.uniform else "a")
        else:
            strata.append(str(formulas.depth(depth2.counterexample.formula)))
    reference = workloads.pack_corpus_reference(cases, hashes)
    reference.update(strata="".join(strata), left_out=left_out)
    return reference


def sym_orbits() -> dict:
    workload = workloads.SymOrbits(0, WORKDIR)
    hashes = {}
    for slot, structures in workloads.sym_catalogue().items():
        for key, structure in structures.items():
            for n in (1, 2, 3):
                hashes[f"{key}/{n}"] = _hash(workload, Op(f"{key}/{n}", slot, None, (structure, n)))
    return {"hashes": hashes}


def line_cli() -> dict:
    workload = workloads.LineCli(0, WORKDIR)
    pool = workloads.line_pool(workloads.write_structure_files(WORKDIR / "line-cli"))
    return {
        "hashes": {
            kind: "".join(_hash(workload, Op(kind, kind, None, (argv,))) for argv in commands)
            for kind, commands in pool.items()
        }
    }


BUILDERS = {"corpus-d2": corpus_d2, "deep-d3": deep_d3, "sym-orbits": sym_orbits, "line-cli": line_cli}


def main(names: list[str]) -> None:
    for name in names or BUILDERS:
        start = time.perf_counter()
        reference = BUILDERS[name]()
        path = workloads.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: wrote {path.name} in {time.perf_counter() - start:.0f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
