"""Per-layer trace taken from outside the library.

The tracer replaces the library's public functions with timing wrappers at
every module binding: a module that did ``from .graph import max_flow``
holds its own reference, so wrapping only ``graph.max_flow`` would miss the
calls made from ``game``, ``solvers`` and ``lomodel``.  Each call becomes a
span (name, start, end, parent) kept in memory; a layer's self time is its
spans' durations minus the parts their child spans cover.

Spans are named ``<module>.<function>``; the module is the layer.  The
benchmark's own spans are ``bench.op`` (one per op, the root) and
``trace.hook`` (the tracer's bookkeeping, so it is not billed to a layer).
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict


class TraceError(Exception):
    """The trace contradicts itself: a span outside its parent, self times
    that do not add up, or exact counts that differ between passes."""


# Public functions timed per layer.  A name the library no longer has is
# skipped, and its metrics read 0.
TARGETS = {
    "graph": ("max_flow", "min_cut", "enumerate_paths"),
    "linopt": ("solve_lp", "solve_lp_lexicographic"),
    "game": ("scenarios", "adaptive_value", "adaptive_value_by_cuts"),
    "solvers": (
        "solve_ni",
        "solve_rni",
        "solve_rni_path",
        "solve_rni_gamma1",
        "certify",
        "certify_gamma1",
        "best_response_arc",
        "best_response_path",
    ),
    "lomodel": ("solve_lo", "lo_cuts", "approx_report"),
    "instances": ("parse", "serialize", "generate"),
    "cli": ("main",),
}
RNI_ROUTES = ("scenario", "cuts")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("graph.max_flow.calls", "count"),
    ("graph.max_flow.self_s", "s"),
    ("graph.min_cut.calls", "count"),
    ("graph.min_cut.self_s", "s"),
    ("graph.enumerate_paths.paths", "count"),
    ("graph.self_s", "s"),
    ("linopt.solve_lp.calls", "count"),
    ("linopt.solve_lp.self_s", "s"),
    ("linopt.rows_max", "count"),
    ("linopt.rows_sum", "count"),
    ("linopt.cols_sum", "count"),
    ("linopt.nnz_sum", "count"),
    ("linopt.tableau_mb_max", "MB"),
    ("linopt.self_s", "s"),
    ("game.adaptive_value.calls", "count"),
    ("game.adaptive_value.self_s", "s"),
    ("game.adaptive_value_by_cuts.calls", "count"),
    ("game.scenarios.count", "count"),
    ("game.self_s", "s"),
    ("solvers.solve_ni.total_s", "s"),
    ("solvers.solve_rni.calls", "count"),
    ("solvers.solve_rni.total_s", "s"),
    ("solvers.solve_rni_path.total_s", "s"),
    ("solvers.certify.total_s", "s"),
    ("solvers.rni_route.scenario", "count"),
    ("solvers.rni_route.cuts", "count"),
    ("solvers.rni_route.other", "count"),
    ("solvers.self_s", "s"),
    ("lomodel.solve_lo.total_s", "s"),
    ("lomodel.lo_cuts.total_s", "s"),
    ("lomodel.lo_cuts.min_cut_calls", "count"),
    ("lomodel.approx_report.self_s", "s"),
    ("lomodel.self_s", "s"),
    ("instances.parse.total_s", "s"),
    ("instances.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_share", "share"),
)


def lp_shape(problem) -> tuple[int, int, int, int]:
    """(rows, structural columns, nonzeros, tableau bytes) of the problem's
    standard form: a free variable splits into two columns, a fixed one
    folds into the right-hand sides, a variable bounded on both sides adds
    a row.  The tableau is the dense two-phase one: rows plus two cost
    rows, by columns plus slack, surplus and artificial columns plus the
    right-hand side, in float64.  Computed from the problem, not measured.
    """
    width = []  # standard-form columns per user variable
    offset = []  # constant a variable contributes per unit coefficient
    extra_rows = 0
    for lo, up in zip(problem.lower, problem.upper):
        lo, up = float(lo), float(up)
        if math.isfinite(lo) and math.isfinite(up) and lo == up:
            width.append(0)
            offset.append(lo)
        elif math.isfinite(lo):
            width.append(1)
            offset.append(lo)
            extra_rows += math.isfinite(up)
        elif math.isfinite(up):
            width.append(1)
            offset.append(up)
        else:
            width.append(2)
            offset.append(0.0)
    nnz = extra_rows
    extra_cols = extra_rows  # bound rows are "<=" with a nonnegative side
    for coeffs, rel, rhs in problem.rows:
        const = 0.0
        for j, a in coeffs.items():
            nnz += width[j]
            const += a * offset[j]
        if rhs - const < 0:
            rel = {"<=": ">=", ">=": "<="}.get(rel, rel)
        extra_cols += 2 if rel == ">=" else 1
    rows = len(problem.rows) + extra_rows
    cols = sum(width)
    tableau = (rows + 2) * (cols + extra_cols + 1) * 8
    return rows, cols, nnz, tableau


def _count_lp(counters, args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    rows, cols, nnz, tableau = lp_shape(problem)
    counters["linopt.rows_sum"] += rows
    counters["linopt.cols_sum"] += cols
    counters["linopt.nnz_sum"] += nnz
    counters["linopt.rows_max"] = max(counters["linopt.rows_max"], rows)
    counters["linopt.tableau_bytes_max"] = max(
        counters["linopt.tableau_bytes_max"], tableau
    )


def _count_len(key):
    def hook(counters, result):
        counters[key] += len(result)

    return hook


def _count_route(counters, result):
    method = getattr(result, "method", "")
    route = method if method in RNI_ROUTES else "other"
    counters[f"solvers.rni_route.{route}"] += 1


BEFORE = {"linopt.solve_lp": _count_lp}
AFTER = {
    "graph.enumerate_paths": _count_len("graph.enumerate_paths.paths"),
    "game.scenarios": _count_len("game.scenarios.count"),
    "solvers.solve_rni": _count_route,
}


class Tracer:
    """Spans and counters for one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                hook = tracer.enter("trace.hook")
                try:
                    before(tracer.counters, args, kwargs)
                finally:
                    tracer.exit(hook)
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if after is not None:
                after(tracer.counters, result)
            return result

        return wrapper

    def install(self, package: str = "interdict") -> None:
        """Wrap every binding of the target functions in every loaded module
        of the package."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def summarize(spans) -> dict:
    """Calls, total and self seconds per span name and self seconds per
    layer; checks that every span nests inside its parent and that the self
    times add up to the root spans' wall time."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= start <= end <= p[2]):
                raise TraceError(f"span {name} does not nest in {p[0]}")
            child[parent] += end - start
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    roots = 0.0
    lo_cut_min_cuts = 0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_s = duration - child[i]
        if self_s < -1e-9:
            raise TraceError(f"span {name} has negative self time {self_s}")
        calls[name] += 1
        total[name] += duration
        own[name] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
        if parent < 0:
            roots += duration
        if name == "graph.min_cut":
            p = parent
            while p >= 0 and spans[p][0] != "lomodel.lo_cuts":
                p = spans[p][3]
            lo_cut_min_cuts += p >= 0
    summed = sum(layer_self.values())
    if abs(summed - roots) > 1e-6 * max(1.0, roots):
        raise TraceError(f"layer self times {summed} != traced wall {roots}")
    return {
        "calls": calls,
        "total": total,
        "self": own,
        "layer_self": layer_self,
        "roots_s": roots,
        "lo_cuts.min_cut_calls": lo_cut_min_cuts,
    }


def exact_counts(summary, counters) -> dict:
    """The figures that must repeat exactly on every pass of one seed."""
    counts = {f"{name}.calls": n for name, n in sorted(summary["calls"].items())}
    counts["lomodel.lo_cuts.min_cut_calls"] = summary["lo_cuts.min_cut_calls"]
    counts.update(sorted(counters.items()))
    return counts


def per_layer_metrics(counts, times, overhead_share) -> dict:
    """The PER_LAYER metrics from one pass's exact counts and the median
    times over the traced passes (``times`` maps ``<span>.self_s``/``.total_s`` and
    ``<layer>.self_s`` to seconds)."""
    values = {**times, **counts}
    values["linopt.tableau_mb_max"] = counts.get("linopt.tableau_bytes_max", 0) / 2**20
    values["trace.overhead_share"] = overhead_share
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def pass_times(summary) -> dict:
    """Seconds of one pass keyed as the per-layer metrics name them."""
    times = {}
    for name, seconds in summary["self"].items():
        times[f"{name}.self_s"] = seconds
    for name, seconds in summary["total"].items():
        times[f"{name}.total_s"] = seconds
    for layer, seconds in summary["layer_self"].items():
        times[f"{layer}.self_s"] = seconds
    return times
