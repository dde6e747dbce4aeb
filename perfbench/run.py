"""Benchmark for capnet: one workload per process, metrics as one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: plan, plan-lex, analyze, allocate (see perfbench/README.md), or
``all`` to run each in its own process and print one table. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separately traced run. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

Seeds 1-10 are the development seeds; seed 4242 is held out for claims.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import WORK, BenchError, beyond, cap_threads, environment, percentile, use_checkout_sources

NAMES = ("plan", "plan-lex", "analyze", "allocate")
SETUP_SAMPLES = 3
MIN_PASSES = 2
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="capnet benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def new_workload(name: str, seed: int, workdir: Path, tracer=None):
    """Import capnet in full (scipy included), then set the workload up."""
    import capnet.cli  # noqa: F401  - the import is part of set-up
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir, tracer)
    workload.setup()
    return workload


def probe(args) -> int:
    """Child process: set up once and report seconds since the parent spawned it."""
    started = float(os.environ["PERFBENCH_SPAWNED"])
    workdir = Path(tempfile.mkdtemp(prefix=f"probe-{args.workload}-", dir=WORK))
    try:
        new_workload(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": time.time() - started}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_seconds(args) -> float:
    """Median over fresh processes of process start to set-up done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        env = dict(os.environ, PERFBENCH_SPAWNED=repr(time.time()))
        command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed ({done.returncode}): {done.stderr[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def judge(workload, check, *args) -> None:
    try:
        check(*args)
    except Exception as exc:  # a malformed output must count, not crash the run
        workload.record("checks", [f"{check.__name__} raised {exc!r}"])


def measure(args, workdir: Path) -> dict:
    import layers
    from tracing import Tracer

    setup_s = None if args.trace else setup_seconds(args)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    workload = new_workload(args.workload, args.seed, workdir, tracer)

    pass_seconds = []
    started = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - started < args.seconds:
        if tracer and index == 0:
            # The first pass of a traced run is untraced: it gives the overhead.
            tracer.restore()
            workload.tracer = None
        elif tracer and index == 1:
            layers.instrument(tracer)
            workload.tracer = tracer
        if workload.tracer:
            tracer.start_phase(f"pass {index}")
        began = time.perf_counter()
        workload.run_pass(index)
        pass_seconds.append(time.perf_counter() - began)
        judge(workload, workload.after_pass, index)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.finish()
        tracer.restore()
    judge(workload, workload.check)

    latencies_ms = [1000.0 * s for s in workload.latencies]
    notes = [f"passes {len(pass_seconds)}: " + " ".join(f"{s:.3f}" for s in pass_seconds) + " s",
             f"operations {len(latencies_ms)}, {beyond(len(latencies_ms), 0.99)} beyond p99"
             + ("" if beyond(len(latencies_ms), 0.99) >= 10 else " (fewer than ten: p99 is the slowest operation)")]
    if tracer:
        overhead = statistics.median(pass_seconds[1:]) - pass_seconds[0]
        metrics = layers.per_layer_metrics(tracer, overhead)
        spans_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        notes.append(f"{len(tracer.spans)} spans written to {spans_file.relative_to(WORK.parent)}")
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(pass_seconds),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p99_ms": percentile(latencies_ms, 0.99),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "notes": notes,
        "problems": workload.problems[:20],
    }


def report(name: str, result: dict, env: dict) -> None:
    print(f"# {name}  env {json.dumps(env, sort_keys=True)}")
    for line in result.pop("notes"):
        print(f"#   {line}")
    for problem in result.pop("problems"):
        print(f"#   FAILED {problem}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"#   fail_ratio {ratio:.6f} ({result['failed']} of {result['attempted']} operations)")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric} {entry['value']:.6g} {entry['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(line + "\n" for line in done.stdout.splitlines()[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {}
    print(f"{'workload':<10} {'metric':<24} {'value':>14} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<10} {metric:<24} {entry['value']:>14.6g} {entry['unit']}")
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cap_threads()
    try:
        use_checkout_sources()
        WORK.mkdir(exist_ok=True)
        if args.probe:
            return probe(args)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            result = measure(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result, environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
