"""Directed multigraph instances and exact flow primitives.

Capacities and flows are `fractions.Fraction` values at the boundary, so
max-flow, min-cut, decomposition, and payoff evaluations are exact whenever
the inputs are rational (floats convert exactly to binary rationals).  The
max-flow kernel scales the capacities once to integers over the LCM D of
their denominators and augments on Python ints; flows come back as
Fraction(f, D).  Unbounded capacities are materialized as a finite big-M
chosen so it can never bind.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence, Union

Numeric = Union[int, float, Fraction]
ArcId = int


class PathLimitExceeded(Exception):
    """s-t path enumeration would exceed the requested limit."""


def as_fraction(value: Numeric) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    capacity: Optional[Fraction]  # None means unbounded

    def __post_init__(self):
        if self.capacity is not None:
            cap = as_fraction(self.capacity)
            if cap < 0:
                raise ValueError("arc capacity must be nonnegative")
            object.__setattr__(self, "capacity", cap)


@dataclass(frozen=True)
class Instance:
    """A capacitated directed multigraph with a removal budget.

    Nodes are 1-based integers.  Arcs are identified by their 1-based
    position in ``arcs`` (stable across parsing, serialization, and all
    solver output).  Parallel arcs are permitted.  No arc may enter the
    source or leave the sink.
    """

    node_count: int
    source: int
    sink: int
    arcs: tuple[Arc, ...]
    gamma: int

    def __post_init__(self):
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if self.node_count < 2:
            raise ValueError("need at least two nodes")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for v in (self.source, self.sink):
            if not 1 <= v <= self.node_count:
                raise ValueError(f"node id {v} out of range")
        for arc in self.arcs:
            for v in (arc.tail, arc.head):
                if not 1 <= v <= self.node_count:
                    raise ValueError(f"arc endpoint {v} out of range")
            if arc.head == self.source:
                raise ValueError("no arc may enter the source")
            if arc.tail == self.sink:
                raise ValueError("no arc may leave the sink")
        if not 1 <= self.gamma <= len(self.arcs):
            raise ValueError("gamma must lie in [1, arc count]")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def arc(self, arc_id: ArcId) -> Arc:
        return self.arcs[arc_id - 1]

    def arc_ids(self) -> range:
        return range(1, len(self.arcs) + 1)

    @cached_property
    def big_m(self) -> Fraction:
        """Stand-in for unbounded capacity; exceeds any achievable flow."""
        return 1 + sum(
            (a.capacity for a in self.arcs if a.capacity is not None),
            start=Fraction(0),
        )

    def effective_capacity(self, arc_id: ArcId) -> Fraction:
        cap = self.arc(arc_id).capacity
        return self.big_m if cap is None else cap

    @cached_property
    def _adjacency(self) -> tuple[dict, dict]:
        out: dict[int, list[ArcId]] = {v: [] for v in range(1, self.node_count + 1)}
        inc: dict[int, list[ArcId]] = {v: [] for v in range(1, self.node_count + 1)}
        for aid in self.arc_ids():
            arc = self.arc(aid)
            out[arc.tail].append(aid)
            inc[arc.head].append(aid)
        return out, inc

    @cached_property
    def _ends(self) -> tuple[list[int], list[int]]:
        """Arc tails and heads, indexed by arc id (entry 0 unused)."""
        return [0] + [a.tail for a in self.arcs], [0] + [a.head for a in self.arcs]

    @cached_property
    def _cuts(self) -> tuple[tuple[ArcId, ...], ...]:
        """Every s-t cut's crossing arc ids (iter_cuts), built once."""
        inner = self.internal_nodes()
        return tuple(
            _crossing(
                self, {self.source} | {v for i, v in enumerate(inner) if mask >> i & 1}
            )
            for mask in range(1 << len(inner))
        )

    def out_ids(self, node: int) -> Sequence[ArcId]:
        return self._adjacency[0][node]

    def in_ids(self, node: int) -> Sequence[ArcId]:
        return self._adjacency[1][node]

    def internal_nodes(self) -> list[int]:
        return [
            v
            for v in range(1, self.node_count + 1)
            if v not in (self.source, self.sink)
        ]


@dataclass(frozen=True)
class ArcFlow:
    """Flow on arcs; ``value`` is the net flow into the sink."""

    values: Mapping[ArcId, Fraction]
    value: Fraction

    @classmethod
    def from_values(
        cls, instance: Instance, values: Mapping[ArcId, Numeric]
    ) -> "ArcFlow":
        clean = {aid: as_fraction(x) for aid, x in values.items() if x}
        val = sum(
            (clean.get(aid, Fraction(0)) for aid in instance.in_ids(instance.sink)),
            start=Fraction(0),
        )
        return cls(values=clean, value=val)

    def get(self, arc_id: ArcId) -> Fraction:
        return self.values.get(arc_id, Fraction(0))


@dataclass(frozen=True)
class PathFlow:
    """Flow on explicit s-t paths; each entry is (arc-id path, amount)."""

    entries: tuple[tuple[tuple[ArcId, ...], Fraction], ...]

    @property
    def value(self) -> Fraction:
        return sum((amount for _, amount in self.entries), start=Fraction(0))

    def arc_loads(self) -> dict[ArcId, Fraction]:
        loads: dict[ArcId, Fraction] = {}
        for path, amount in self.entries:
            for aid in path:
                loads[aid] = loads.get(aid, Fraction(0)) + amount
        return loads


@dataclass(frozen=True)
class CutReport:
    """An s-t cut with the max flow that located it.  Only the parametric
    model (lomodel) fills the theta fields, for a cut read at theta."""

    s_side: frozenset[int]
    crossing: tuple[ArcId, ...]
    capacity: Fraction
    flow: ArcFlow
    theta: Optional[Fraction] = None
    capacity_at_theta: Optional[Fraction] = None
    tight_at_or_below: frozenset[ArcId] = frozenset()  # theta <= u_e
    strictly_below: frozenset[ArcId] = frozenset()  # theta <  u_e


@dataclass(frozen=True)
class Violation:
    kind: str  # "capacity" | "conservation" | "negative" | "path" | "value"
    where: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def resolve_capacities(
    instance: Instance,
    capacities: Optional[Mapping[ArcId, Numeric]] = None,
) -> list[Fraction]:
    """1-indexed capacity vector, defaulting to the instance capacities."""
    caps = [Fraction(0)] * (instance.arc_count + 1)
    for aid in instance.arc_ids():
        if capacities is not None:
            caps[aid] = as_fraction(capacities.get(aid, 0))
        else:
            caps[aid] = instance.effective_capacity(aid)
    return caps


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over the LCM D of their
    denominators, and D."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _augment(instance, caps: list[int]) -> tuple[int, list[int], frozenset[int]]:
    """Edmonds-Karp max flow on integer capacities indexed by arc id.

    Each augmenting path is a shortest one in the residual graph, found by
    a search that scans arcs in id order (forward arcs before backward), so
    the flow is reproducible.  Returns the flow value, the arc flows, and
    the source side of the source-side-minimal min cut: the nodes that the
    last, failed search reached.
    """
    out, inc = instance._adjacency
    tails, heads = instance._ends
    source, sink = instance.source, instance.sink
    flows = [0] * len(caps)
    value = 0
    while True:
        parent = {source: 0}  # node -> arc reaching it, negated if backward
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for aid in out[u]:
                v = heads[aid]
                if v not in parent and flows[aid] < caps[aid]:
                    parent[v] = aid
                    if v == sink:
                        break
                    queue.append(v)
            else:
                for aid in inc[u]:
                    v = tails[aid]
                    if v not in parent and flows[aid] > 0:
                        parent[v] = -aid
                        queue.append(v)
        if sink not in parent:
            return value, flows, frozenset(parent)
        path = []
        v = sink
        while v != source:
            aid = parent[v]
            path.append(aid)
            v = tails[aid] if aid > 0 else heads[-aid]
        delta = min(caps[a] - flows[a] if a > 0 else flows[-a] for a in path)
        for aid in path:
            flows[abs(aid)] += delta if aid > 0 else -delta
        value += delta


def _arc_flow(value: int, flows: list[int], d: int) -> ArcFlow:
    """An integer flow over the common denominator d, in Fractions."""
    values = {aid: Fraction(f, d) for aid, f in enumerate(flows) if f}
    return ArcFlow(values=values, value=Fraction(value, d))


def _crossing(instance, s_side) -> tuple[ArcId, ...]:
    return tuple(
        aid
        for aid, arc in enumerate(instance.arcs, 1)
        if arc.tail in s_side and arc.head not in s_side
    )


def max_flow(
    instance: Instance,
    capacities: Optional[Mapping[ArcId, Numeric]] = None,
) -> tuple[Fraction, ArcFlow]:
    """Maximum s-t flow under the given (default: instance) capacities.

    Returns the exact value and a feasible flow attaining it.  The
    augmenting order is fixed, so the returned flow is reproducible.
    """
    caps, d = _scaled(resolve_capacities(instance, capacities))
    value, flows, _ = _augment(instance, caps)
    flow = _arc_flow(value, flows, d)
    return flow.value, flow


def min_cut(
    instance: Instance,
    capacities: Optional[Mapping[ArcId, Numeric]] = None,
) -> CutReport:
    """Source-side-minimal minimum cut under the given (default: instance)
    capacities.

    The cut is the set of nodes reachable from the source in the final
    residual graph, which makes the report canonical and deterministic.
    The report carries that max flow, the one max_flow returns under the
    same capacities, and the cut's capacity under them.
    """
    caps = resolve_capacities(instance, capacities)
    scaled, d = _scaled(caps)
    value, flows, s_side = _augment(instance, scaled)
    crossing = _crossing(instance, s_side)
    return CutReport(
        s_side=s_side,
        crossing=crossing,
        capacity=sum((caps[aid] for aid in crossing), start=Fraction(0)),
        flow=_arc_flow(value, flows, d),
    )


def decompose(instance: Instance, flow: ArcFlow) -> PathFlow:
    """Split an arc flow into at most |E| s-t path flows; any circulation
    left over carries no s-t value and is discarded."""
    remaining = {aid: flow.get(aid) for aid in instance.arc_ids() if flow.get(aid) > 0}
    entries = []
    while True:
        parent: dict[int, ArcId] = {}
        seen = {instance.source}
        queue = deque([instance.source])
        while queue:
            u = queue.popleft()
            if u == instance.sink:
                break
            for aid in instance.out_ids(u):
                if remaining.get(aid, Fraction(0)) > 0:
                    v = instance.arc(aid).head
                    if v not in seen:
                        seen.add(v)
                        parent[v] = aid
                        queue.append(v)
        if instance.sink not in seen:
            break
        path = []
        v = instance.sink
        while v != instance.source:
            aid = parent[v]
            path.append(aid)
            v = instance.arc(aid).tail
        path.reverse()
        amount = min(remaining[aid] for aid in path)
        for aid in path:
            remaining[aid] -= amount
            if remaining[aid] == 0:
                del remaining[aid]
        entries.append((tuple(path), amount))
    return PathFlow(entries=tuple(entries))


def enumerate_paths(instance: Instance, limit: int) -> list[tuple[ArcId, ...]]:
    """All node-simple s-t paths as arc-id tuples, in lexicographic order.

    Raises PathLimitExceeded as soon as the count would pass ``limit``,
    signalling that the instance is too large for path-based solvers.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    paths: list[tuple[ArcId, ...]] = []
    stack_path: list[ArcId] = []
    on_path = {instance.source}

    def visit(u: int):
        if u == instance.sink:
            if len(paths) >= limit:
                raise PathLimitExceeded(f"more than {limit} s-t paths")
            paths.append(tuple(stack_path))
            return
        for aid in instance.out_ids(u):
            v = instance.arc(aid).head
            if v in on_path:
                continue
            on_path.add(v)
            stack_path.append(aid)
            visit(v)
            stack_path.pop()
            on_path.remove(v)

    visit(instance.source)
    return paths


def _check_arc_flow(instance, flow: ArcFlow, tol: float) -> list[Violation]:
    out = []
    for aid in instance.arc_ids():
        x = flow.get(aid)
        cap = instance.effective_capacity(aid)
        if x < 0 and float(-x) > tol:
            out.append(Violation("negative", f"arc {aid}", float(-x)))
        excess = x - cap
        if excess > 0 and float(excess) > tol * (1 + float(cap)):
            out.append(Violation("capacity", f"arc {aid}", float(excess)))
    for v in instance.internal_nodes():
        inflow = sum((flow.get(a) for a in instance.in_ids(v)), start=Fraction(0))
        outflow = sum((flow.get(a) for a in instance.out_ids(v)), start=Fraction(0))
        gap = abs(inflow - outflow)
        scale = 1 + max(float(inflow), float(outflow))
        if float(gap) > tol * scale:
            out.append(Violation("conservation", f"node {v}", float(gap)))
    net = sum((flow.get(a) for a in instance.in_ids(instance.sink)), start=Fraction(0))
    gap = abs(as_fraction(flow.value) - net)
    if float(gap) > tol * (1 + abs(float(net))):
        out.append(Violation("value", "sink", float(gap)))
    return out


def _check_path_flow(instance, flow: PathFlow, tol: float) -> list[Violation]:
    out = []
    for idx, (path, amount) in enumerate(flow.entries):
        if amount < 0 and float(-amount) > tol:
            out.append(Violation("negative", f"path {idx}", float(-amount)))
        nodes = [instance.source]
        ok = bool(path)
        for aid in path:
            arc = instance.arc(aid)
            if arc.tail != nodes[-1]:
                ok = False
                break
            nodes.append(arc.head)
        if not ok or nodes[-1] != instance.sink or len(set(nodes)) != len(nodes):
            out.append(Violation("path", f"path {idx}", 0.0))
    loads = flow.arc_loads()
    for aid, load in sorted(loads.items()):
        cap = instance.effective_capacity(aid)
        excess = load - cap
        if excess > 0 and float(excess) > tol * (1 + float(cap)):
            out.append(Violation("capacity", f"arc {aid}", float(excess)))
    return out


def validate_flow(
    instance: Instance,
    flow: Union[ArcFlow, PathFlow],
    tolerance: float = 1e-6,
) -> ValidationReport:
    """List every capacity/conservation violation, and for an ArcFlow a
    value other than its net flow into the sink; empty report iff the flow
    is feasible within the relative tolerance.  Violations are data, not
    errors; an arc id outside 1..m is not a flow of the instance and
    raises ValueError."""
    if isinstance(flow, ArcFlow):
        named, check = flow.values, _check_arc_flow
    else:
        named = {aid for path, _ in flow.entries for aid in path}
        check = _check_path_flow
    if any(not 1 <= aid <= instance.arc_count for aid in named):
        raise ValueError(f"witness arc ids must lie in 1..{instance.arc_count}")
    return ValidationReport(violations=tuple(check(instance, flow, tolerance)))


def iter_cuts(instance: Instance) -> Iterator[tuple[ArcId, ...]]:
    """The crossing arc ids of every s-t cut, in a fixed order.

    There are 2^(n-2) cuts, built once per instance and kept on it; callers
    enforce their own size limits.
    """
    return iter(instance._cuts)
