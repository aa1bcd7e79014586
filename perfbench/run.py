"""Benchmark entry point: one workload per process, every op checked.

    python3 perfbench/run.py --workload corpus-d2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke        # all four workloads, tiny, both modes

An untraced run (``--trace 0``) sets the workload up, times its ops in a
closed loop (one thread; each op starts when the previous one has ended)
and prints the end-to-end metrics.  It passes over the workload's
``run_ops()`` again and again until ``--seconds`` have gone into ops and
checks.  An op's latency is the best of its passes, which lie seconds
apart, so that a spell in which the shared machine runs slow does not
decide a metric.  A traced run (``--trace 1``) runs a fixed number of
rounds, each op once untraced and once traced, and prints the per-layer
metrics, whose counts repeat exactly for a seed.  Either way the last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Details (machine facts, strata, verdict digest, p99, spans) go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

START = time.perf_counter()
LOAD_START = os.getloadavg()

import tracing  # noqa: E402  (the benchmark's own module, next to this file)

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"
OUTDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("corpus-d2", "deep-d3", "sym-orbits", "line-cli")
DEFAULT_SEED = 1
SETUPS = 7  # setup_s is the median of this many set-ups, each in a fresh process
PROBLEMS_KEPT = 20

COUNTS = (
    "corpus.structures",
    "structures.parse_calls",
    "autgroup.aut_calls",
    "autgroup.perms",
    "autgroup.orbit_moves",
    "formulas.items",
    "tables.spaces",
    "uniformity.full_scans",
    "uniformity.counterexamples",
    "uniformity.horizon_misses",
    "ordline.calls",
    "fieldgen.samples",
    "cyclic.triples",
    "cuts.oracle_queries",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; all workloads if none is named")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


class Stats:
    """Latencies, failures and the verdict digest of the ops run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.results: list = []  # what each op returned the first time
        self.hashes: list[str] = []
        self.failed_ops: set[int] = set()  # indices into latencies
        self.problems: list[tuple[str, list[str]]] = []
        self.strata: Counter = Counter()
        self.counts: Counter = Counter()  # counts made by the checks
        self.digest = hashlib.sha256()

    def run_round(self, workload, ops, timed=None) -> None:
        """Run the ops back to back, then check them, so that checking does
        not disturb the timed calls.  ``timed(workload, op)`` returns
        (result, error, seconds); the default times ``workload.execute``."""
        from workloads import short_hash

        outcomes = [(timed or timed_call)(workload, op) for op in ops]
        first = len(self.latencies)
        for index, op, (result, error, seconds) in zip(itertools.count(first), ops, outcomes):
            self.latencies.append(seconds)
            self.results.append(result)
            self.strata[op.stratum] += 1
            verdict = "-" * 8
            if error is not None:
                problems = [f"raised {error!r}"]
            else:
                try:
                    verdict = short_hash(workload.verdict(op, result))
                    problems = [] if verdict == op.expected else [
                        f"verdict {verdict} differs from reference {op.expected}"
                    ]
                    problems += workload.check(op, result, self.counts)
                except Exception as exc:  # a check that raises fails the op
                    problems = [f"check raised {exc!r}"]
            self.hashes.append(verdict)
            self.digest.update(f"{op.key} {verdict}\n".encode())
            if problems:
                self.fail(index, op.key, problems)

    def rerun_round(self, workload, ops) -> None:
        """Run the ops of the first round again: each op keeps its best
        latency, and must return what it returned the first time."""
        outcomes = [timed_call(workload, op) for op in ops]
        for index, (op, (result, error, seconds)) in enumerate(zip(ops, outcomes)):
            self.latencies[index] = min(self.latencies[index], seconds)
            if index in self.failed_ops:
                continue
            if error is not None:
                self.fail(index, op.key, [f"raised {error!r} when run again"])
            elif result != self.results[index]:
                self.fail(index, op.key, ["run again, it returned something else"])

    def fail(self, index: int, key: str, problems: list[str]) -> None:
        self.failed_ops.add(index)
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append((key, problems))


def timed_call(workload, op):
    start = time.perf_counter()
    try:
        result, error = workload.execute(op), None
    except Exception as exc:  # an op that raises is a failed op, and the run goes on
        result, error = None, exc
    return result, error, time.perf_counter() - start


def percentile(sorted_values: list[float], q: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def child_setup_s(args) -> float:
    """Set the workload up in a fresh process and return its setup time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def timed_run(workload, args, setup_s: float) -> tuple[Stats, dict, dict]:
    ops = workload.run_ops()
    setups = [setup_s]
    stats = Stats()
    measured_s = 0.0
    passes = 0
    while passes == 0 or measured_s < args.seconds:
        # the other set-ups run between passes, spread over the run, so
        # that their median samples the machine's speed over the whole run
        while len(setups) < SETUPS and measured_s >= (len(setups) - 1) * args.seconds / (SETUPS - 1):
            setups.append(child_setup_s(args))
        start = time.perf_counter()
        if passes == 0:
            stats.run_round(workload, ops)
        else:
            stats.rerun_round(workload, ops)
        measured_s += time.perf_counter() - start
        passes += 1
    setups += [child_setup_s(args) for _ in range(SETUPS - len(setups))]
    latencies = sorted(stats.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"setups_s": setups, "passes": passes, "measured_s": measured_s,
               # p99 has many samples beyond it only on corpus-d2
               "op_p99_ms": percentile(latencies, 99) * 1000, "op_max_ms": latencies[-1] * 1000}
    return stats, metrics, details


def traced_run(workload, args, tracer) -> tuple[Stats, dict, dict]:
    from uniline import tables
    from workloads import short_hash

    tracer.active = False
    stats = Stats()
    traced = []  # (op, outcome) of each traced call, in op order

    def paired(workload, op):
        # the untraced and the traced call of one op, in alternating order,
        # so that drift in machine speed cancels out of the overhead
        tracer.op = f"{len(traced)}:{op.key}"
        for active in (True, False) if len(traced) % 2 else (False, True):
            tracer.active = active
            outcome = timed_call(workload, op)
            tracer.active = False
            if active:
                traced_outcome = outcome
            else:
                untraced_outcome = outcome
        traced.append((op, traced_outcome))
        return untraced_outcome

    for ops in itertools.islice(workload.rounds(), workload.trace_rounds):
        stats.run_round(workload, ops, paired)
    for index, (op, (result, error, _)) in enumerate(traced):
        if error is not None:
            stats.fail(index, op.key, [f"raised {error!r} when traced"])
        elif short_hash(workload.verdict(op, result)) != stats.hashes[index]:
            stats.fail(index, op.key, ["traced verdict differs from the untraced one"])
    untraced_s = sum(stats.latencies)
    traced_s = sum(seconds for _, (_, _, seconds) in traced)

    counts = Counter(tracer.counts)
    counts["tables.spaces"] = tables.space.cache_info().misses
    counts["uniformity.horizon_misses"] = stats.counts["uniformity.horizon_misses"]
    metrics = {f"{layer}.self_s": (seconds, "s") for layer, seconds in tracer.layer_self_times().items()}
    metrics.update({name: (counts[name], "count") for name in COUNTS})
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    OUTDIR.mkdir(exist_ok=True)
    spans = OUTDIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.write_records(spans)
    details = {
        "traced_ops": len(traced),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_s_by_function": dict(sorted(tracer.self_s.items())),
        "spans_file": spans.name,
        "span_records": len(tracer.records),
    }
    return stats, metrics, details


def machine_facts() -> dict:
    sources = sorted((ROOT / "src" / "uniline").glob("*.py"))
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in sources)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "src_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": LOAD_START,
        "loadavg_end": os.getloadavg(),
    }


def run_workload(args) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.trace_imports(tracer)
    if not (ROOT / "src" / "uniline").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'uniline'} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if tracer is not None:
        tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR, smoke=args.smoke)
    workload.setup()
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is None:
        stats, metrics, details = timed_run(workload, args, setup_s)
    else:
        stats, metrics, details = traced_run(workload, args, tracer)
    attempted = len(stats.latencies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(),
        "ops_per_stratum": dict(sorted(stats.strata.items())),
        "verdict_digest": stats.digest.hexdigest(),
        "problems": stats.problems,
        **details,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUTDIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    out = OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}: {attempted} ops {dict(stats.strata)}, "
          f"{len(stats.failed_ops)} failed, digest {report['verdict_digest'][:16]}, details in {out.name}")
    for key, problems in stats.problems:
        print(f"# FAIL {key}: {'; '.join(problems)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": len(stats.failed_ops) == 0,
        "attempted": attempted,
        "failed": len(stats.failed_ops),
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_smoke(args) -> int:
    """Every workload, untraced and traced, on tiny inputs."""
    ok = True
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                    str(args.seed), "--seconds", "0", "--trace", str(traced), "--smoke"]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            passed = result is not None and result["correct"]
            ok = ok and passed
            summary = f"{result['attempted']} ops, {result['failed']} failed" if result else done.stderr[-500:]
            print(f"# smoke {name} trace {traced}: {'ok' if passed else 'FAILED'} ({summary})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_smoke(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
