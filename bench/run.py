"""Benchmark of certified interdiction solves on three workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --workload families --seconds 2 --smoke

The library is imported from ``src`` next to this directory, never from an
installed copy; without it the run exits with code 2.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--smoke`` shrinks every workload to seconds.
bench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import harness
import workloads
from tracer import TraceError

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 7
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def set_up(args, workdir):
    """Import the library afresh and build the workload, SETUP_REPEATS
    times; numpy is imported once before, as it cannot be re-imported.
    Returns the last build and the median set-up time."""
    import numpy  # noqa: F401

    durations = []
    for _ in range(SETUP_REPEATS):
        for key in [k for k in sys.modules if k == "interdict" or k.startswith("interdict.")]:
            del sys.modules[key]
        start = time.perf_counter()
        lib = importlib.import_module("interdict")
        work = workloads.build(args.workload, lib, args.seed, args.smoke, workdir)
        durations.append(time.perf_counter() - start)
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported {lib.__file__}, not the library under {SRC}")
    return work, statistics.median(durations)


def apply_post_check(work, outcomes) -> None:
    """Untimed checks after the run; an instance that fails them turns its
    solved ops into wrong ones."""
    for name, problem in work.post_check().items():
        for outcome in outcomes:
            if outcome.op == name and outcome.status == "ok":
                outcome.status, outcome.detail = "wrong", problem


def report_outcomes(outcomes) -> None:
    seen = set()
    for o in outcomes:
        if o.status != "ok" and (o.op, o.status) not in seen:
            seen.add((o.op, o.status))
            times = sum(x.op == o.op and x.status == o.status for x in outcomes)
            detail = o.detail.strip().splitlines()[-1] if o.detail.strip() else ""
            print(f"{o.status}: {o.op} (x{times}): {detail}")


def run_one(args, workdir) -> int:
    work, setup_s = set_up(args, workdir)
    gc.collect()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    if args.trace:
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        traced = harness.traced_run(work.trace_ops, args.seconds, spans_path)
        outcomes = traced.outcomes
        apply_post_check(work, outcomes)
        metrics = traced.metrics
        print("pass walls, untraced/traced: " + ", ".join(
            f"{u:.3f}/{t:.3f}" for u, t in zip(traced.untraced_walls, traced.traced_walls)) + " s")
        print(f"layer self times add up to the traced wall time; spans of the "
              f"last pass in {os.path.relpath(spans_path, ROOT)}")
        for name, entry in metrics.items():
            print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    else:
        measured = harness.measure(work.ops, args.seconds, work.whole_passes)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = measured.outcomes
        apply_post_check(work, outcomes)
        rows = harness.end_to_end(measured, work.tail_pct, setup_s, peak)
        for name, (value, unit, note) in rows.items():
            print(f"{name} = {value:.6g} {unit} ({note})")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    refused = sum(o.status == "refused" for o in outcomes)
    failed = sum(o.status in ("wrong", "error") for o in outcomes)
    print(f"failed_share = {(refused + failed) / len(outcomes):.6g} share "
          f"({refused} refused, {failed} wrong or crashed, of {len(outcomes)} ops)")
    report_outcomes(outcomes)
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<34}" + "".join(f"{w:>14}" for w in results))
    for metric in names:
        print(f"{metric:<34}" + "".join(
            f"{results[w]['metrics'][metric]['value']:>14.6g}" for w in results))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("INTERDICT_")]:
        del os.environ[var]  # the CLI would read limits from them
    if not os.path.isfile(os.path.join(SRC, "interdict", "__init__.py")):
        print(f"error: no library source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run_one(args, workdir)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
