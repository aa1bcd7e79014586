"""The benchmark's own test: smoke mode end to end.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced on tiny inputs, and checks that a
traced run's counts repeat exactly for one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
CONFIG = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# deep-d3 and sym-orbits run by name but are not in BENCHMARK.json (see README.md)
WORKLOADS = tuple(workload["name"] for workload in CONFIG["workloads"]) + ("deep-d3", "sym-orbits")
SEED = 5


def run(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_mode_passes_every_workload():
    done = subprocess.run([sys.executable, str(RUN), "--smoke", "--seed", str(SEED)],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok (") == 2 * len(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--smoke")
    first, second = run(*args), run(*args)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {metric["name"] for metric in CONFIG["per_layer"]}
    counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"}
    again = {name: m["value"] for name, m in second["metrics"].items() if m["unit"] == "count"}
    assert counts == again
    assert first["attempted"] == second["attempted"] > 0


def test_untraced_run_reports_end_to_end_metrics():
    result = run("--workload", "line-cli", "--seed", str(SEED), "--seconds", "0", "--smoke")
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {metric["name"] for metric in CONFIG["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_another_seed_runs_the_same_ops_per_stratum():
    strata = []
    for seed in (SEED, SEED + 1):
        result = run("--workload", "deep-d3", "--seed", str(seed), "--seconds", "0", "--smoke")
        assert result["correct"] and result["failed"] == 0
        details = HERE.parent / ".bench_out" / f"deep-d3-seed{seed}-trace0-smoke.json"
        strata.append(json.loads(details.read_text(encoding="utf-8"))["ops_per_stratum"])
    assert strata[0] == strata[1]
