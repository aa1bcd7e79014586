"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1] [--workload NAME ...]
                                    [--traced] [--out FILE]

Runs are sequential, one process at a time.  For each workload and
end-to-end metric it prints the median over the seeds and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median.  ``--out`` writes every run's result and
the summary as JSON; ``perfbench/baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """The run's result line, with the machine facts, strata and verdict
    digest from its details file."""
    trace = "1" if traced else "0"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True, cwd=ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    report = json.loads(details.read_text(encoding="utf-8"))
    result.update({key: report[key] for key in ("machine", "ops_per_stratum", "verdict_digest")})
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: those in BENCHMARK.json")
    parser.add_argument("--traced", action="store_true", help="also one traced run per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        runs = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs[seed] = run(workload, seed, config["run_seconds"], traced=False)
            print(f"{workload} seed {seed}: attempted {runs[seed]['attempted']}, "
                  f"failed {runs[seed]['failed']}", flush=True)
        summary = {}
        for name in bounds:
            values = [result["metrics"][name]["value"] for result in runs.values()]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bounds[name]}
            print(f"  {name:12} median {summary[name]['median']:12.6g}  spread "
                  f"{summary[name]['spread']:.3f}  bound {bounds[name]}", flush=True)
        entry = {"summary": summary, "runs": runs}
        if args.traced:
            entry["traced"] = run(workload, args.first_seed, config["run_seconds"], traced=True)
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
