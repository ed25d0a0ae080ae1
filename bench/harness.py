"""Timing loop, latency statistics and the traced run.

A run is closed-loop with one client: the next op starts when the previous
one has returned.  Ops are timed one by one with ``time.perf_counter``.
"""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field

import tracer as tracing


@dataclass
class Outcome:
    op: str
    status: str  # "ok" | "refused" | "wrong" | "error"
    seconds: float
    detail: str = ""


@dataclass
class Measured:
    outcomes: list[Outcome] = field(default_factory=list)
    wall_s: float = 0.0
    passes: int = 0  # complete passes

    def count(self, *statuses) -> int:
        return sum(o.status in statuses for o in self.outcomes)


def execute(op, tracer=None) -> Outcome:
    """Run one op and check its output.  Only the op is timed (and traced);
    an exception is the op's outcome, not the benchmark's failure."""
    span = tracer.enter("bench.op") if tracer is not None else None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the run goes on and reports the op
        seconds = time.perf_counter() - start
        if type(exc).__name__.endswith("LimitExceeded"):
            return Outcome(op.name, "refused", seconds, f"{type(exc).__name__}: {exc}")
        return Outcome(op.name, "error", seconds, traceback.format_exc())
    finally:
        if span is not None:
            tracer.exit(span)
    seconds = time.perf_counter() - start
    status, detail = op.check(result)
    return Outcome(op.name, status, seconds, detail)


def measure(ops, seconds: float, whole_passes: bool) -> Measured:
    """Cycle through ``ops`` for about ``seconds``.  Without
    ``whole_passes`` the run stops after the op that crosses the deadline;
    with it, only at the end of a pass, the one nearest the deadline, so
    that every op counts as often as every other.  At least one op (one
    pass with ``whole_passes``) always runs."""
    out = Measured()
    start = time.perf_counter()
    while True:
        for op in ops:
            out.outcomes.append(execute(op))
            if not whole_passes and time.perf_counter() - start >= seconds:
                break
        else:
            out.passes += 1
            elapsed = time.perf_counter() - start
            if whole_passes and elapsed + elapsed / out.passes / 2 < seconds:
                continue
            if not whole_passes and elapsed < seconds:
                continue
        break
    out.wall_s = time.perf_counter() - start
    return out


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (statistics' inclusive method)."""
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def end_to_end(measured: Measured, tail_pct: int, setup_s: float, peak_rss_mb: float):
    """The end-to-end metrics and, per metric, a note with its sample count."""
    n = len(measured.outcomes)
    times = [o.seconds for o in measured.outcomes]
    solved = measured.count("ok")
    beyond = sum(t > percentile(times, tail_pct) for t in times)
    return {
        "ops_per_s": (n / measured.wall_s, "1/s",
                      f"{n} ops in {measured.wall_s:.2f} s, {measured.passes} complete passes"),
        "op_p50_s": (percentile(times, 50), "s", f"median of {n} ops"),
        "op_tail_s": (percentile(times, tail_pct), "s",
                      f"p{tail_pct} of {n} ops, {beyond} beyond it"),
        "solved_share": (solved / n, "share", f"{solved} of {n} ops solved and checked"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident memory of the process"),
        "setup_s": (setup_s, "s", "median of the set-up repeats"),
    }


@dataclass
class Traced:
    metrics: dict
    untraced_walls: list[float]
    traced_walls: list[float]
    outcomes: list[Outcome]  # of every pass, traced or not


def traced_run(ops, seconds: float, spans_path=None) -> Traced:
    """Pairs of passes, one untraced then one traced, at least two pairs,
    ending at the pair boundary nearest ``seconds``.  Exact counts must
    repeat on every traced pass; times are medians over the traced passes,
    and the overhead is the median ratio of paired pass times, minus 1."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    untraced, traced, times, counts = [], [], [], None
    outcomes, elapsed = [], 0.0
    while len(traced) < 2 or elapsed + elapsed / len(traced) / 2 < seconds:
        pass_start = time.perf_counter()
        outcomes += [execute(op) for op in ops]
        untraced.append(time.perf_counter() - pass_start)
        tracer.reset()
        tracer.install()
        try:
            pass_start = time.perf_counter()
            outcomes += [execute(op, tracer) for op in ops]
            traced.append(time.perf_counter() - pass_start)
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer.spans)
        pass_counts = tracing.exact_counts(summary, tracer.counters)
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            diff = {k: (counts.get(k), pass_counts.get(k))
                    for k in set(counts) | set(pass_counts)
                    if counts.get(k) != pass_counts.get(k)}
            raise tracing.TraceError(f"exact counts differ between passes: {diff}")
        times.append(tracing.pass_times(summary))
        elapsed = time.perf_counter() - start
    if spans_path is not None:
        tracer.write(spans_path)
    median_times = {key: statistics.median(t.get(key, 0.0) for t in times)
                    for key in set().union(*times)}
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    return Traced(tracing.per_layer_metrics(counts, median_times, overhead),
                  untraced, traced, outcomes)
