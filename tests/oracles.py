"""Independent oracles shared by the test modules.

Most avoid the library's LP path and its best-response searches: they
enumerate every scenario or every cut and work in exact rational
arithmetic, so they can vouch for the solvers.  The two RNI references are
complete LPs with one block or row per scenario, written up front, against
which the solvers' row generation is checked; the arc best response to a
mixed strategy is likewise checked against one complete LP with an inner
flow block per support scenario.  The flow reference is Edmonds-Karp in
Fraction arithmetic, against which the library's integer kernel is
checked.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from interdict.game import payoff_arc, payoff_path, scenarios
from interdict.graph import enumerate_paths, iter_cuts, resolve_capacities
from interdict.linopt import LpProblem, solve_lp
from interdict.lomodel import lo_value_at


@dataclass(frozen=True)
class FractionCut:
    value: Fraction
    flows: dict  # arc id -> nonzero Fraction flow
    s_side: frozenset
    crossing: tuple
    capacity: Fraction  # under the uncapped capacities


def _augmenting_path(instance, caps, flows):
    """Shortest augmenting path in the residual graph, scanning arcs in id
    order (forward arcs before backward)."""
    source, sink = instance.source, instance.sink
    parent = {}
    seen = {source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for aid in instance.out_ids(u):
            if flows[aid] < caps[aid]:
                v = instance.arc(aid).head
                if v not in seen:
                    seen.add(v)
                    parent[v] = (u, aid, True)
                    if v == sink:
                        return parent
                    queue.append(v)
        for aid in instance.in_ids(u):
            if flows[aid] > 0:
                v = instance.arc(aid).tail
                if v not in seen:
                    seen.add(v)
                    parent[v] = (u, aid, False)
                    queue.append(v)
    return None


def _residual_reachable(instance, caps, flows):
    seen = {instance.source}
    queue = deque([instance.source])
    while queue:
        u = queue.popleft()
        for aid in instance.out_ids(u):
            v = instance.arc(aid).head
            if v not in seen and flows[aid] < caps[aid]:
                seen.add(v)
                queue.append(v)
        for aid in instance.in_ids(u):
            v = instance.arc(aid).tail
            if v not in seen and flows[aid] > 0:
                seen.add(v)
                queue.append(v)
    return frozenset(seen)


def fraction_min_cut(instance, capacities=None, theta=None):
    """Max flow and source-side-minimal min cut under the (default:
    instance) capacities capped at theta, by Edmonds-Karp with every
    amount a Fraction: the same augmenting order as graph.max_flow, so the
    same flow.  The cut is the set of nodes reachable from the source in
    the final residual graph."""
    base = resolve_capacities(instance, capacities)
    caps = base if theta is None else [min(c, Fraction(theta)) for c in base]
    flows = [Fraction(0)] * len(caps)
    while (parent := _augmenting_path(instance, caps, flows)) is not None:
        path = []
        v = instance.sink
        while v != instance.source:
            u, aid, forward = parent[v]
            path.append((aid, forward))
            v = u
        bottleneck = min(caps[a] - flows[a] if fwd else flows[a] for a, fwd in path)
        for aid, forward in path:
            flows[aid] += bottleneck if forward else -bottleneck
    s_side = _residual_reachable(instance, caps, flows)
    crossing = tuple(
        aid
        for aid in instance.arc_ids()
        if instance.arc(aid).tail in s_side and instance.arc(aid).head not in s_side
    )
    return FractionCut(
        value=sum((flows[aid] for aid in instance.in_ids(instance.sink)), Fraction(0)),
        flows={aid: flows[aid] for aid in instance.arc_ids() if flows[aid]},
        s_side=s_side,
        crossing=crossing,
        capacity=sum((base[aid] for aid in crossing), Fraction(0)),
    )


def adaptive_by_scenarios(instance, flow):
    """Adaptive value of an arc flow: the least payoff_arc over every
    scenario."""
    return min(payoff_arc(instance, s, flow.values)[0] for s in scenarios(instance))


def adaptive_by_cuts(instance, flow):
    """Adaptive value of an arc flow by max-flow/min-cut: the least, over
    every s-t cut, of the crossing flow minus its gamma largest arcs."""
    gamma = instance.gamma

    def kept(crossing):
        ranked = sorted((flow.get(aid) for aid in crossing), reverse=True)
        return sum(ranked[gamma:], start=Fraction(0))

    return min(kept(crossing) for crossing in iter_cuts(instance))


def worst_path_payoff_by_scenarios(instance, flow):
    """Least payoff_path of a path flow over every scenario, however many."""
    every = scenarios(instance, limit=math.inf)
    return min(payoff_path(instance, s, flow) for s in every)


def theta_sweep(instance):
    """Exact optimum of the parametric model by candidate enumeration.

    The model value at theta is (min over cuts of the capped crossing
    capacity) - gamma * theta, a piecewise-linear concave function whose
    maximum sits at a kink: a capacity value of some crossing arc, zero, or
    a crossing point of two cut-capacity curves.  All candidates are
    enumerated exactly and evaluated with lo_value_at.

    Returns (best value, largest maximizing candidate theta).
    """
    caps = {aid: instance.effective_capacity(aid) for aid in instance.arc_ids()}
    crossings = list(iter_cuts(instance))
    kinks = sorted({caps[aid] for c in crossings for aid in c} | {Fraction(0)})
    candidates = set(kinks)

    def cap_at(crossing, theta):
        return sum((min(caps[a], theta) for a in crossing), start=Fraction(0))

    segments = list(zip(kinks, kinks[1:]))
    for i in range(len(crossings)):
        for j in range(i + 1, len(crossings)):
            for lo, hi in segments:
                f_lo, f_hi = cap_at(crossings[i], lo), cap_at(crossings[i], hi)
                g_lo, g_hi = cap_at(crossings[j], lo), cap_at(crossings[j], hi)
                slope_f = (f_hi - f_lo) / (hi - lo)
                slope_g = (g_hi - g_lo) / (hi - lo)
                if slope_f == slope_g:
                    continue
                cross = lo + (g_lo - f_lo) / (slope_f - slope_g)
                if lo <= cross <= hi:
                    candidates.add(cross)

    best = None
    best_theta = None
    for theta in sorted(candidates):
        value = lo_value_at(instance, theta)
        if best is None or value > best or (value == best and theta > best_theta):
            best = value
            best_theta = theta
    return best, best_theta


def _add_conservation(lp, instance, col_of):
    """Flow conservation at every internal node for the arc flow in the
    columns col_of(arc id)."""
    for v in instance.internal_nodes():
        coeffs = {}
        for aid in instance.out_ids(v):
            coeffs[col_of(aid)] = coeffs.get(col_of(aid), 0.0) + 1.0
        for aid in instance.in_ids(v):
            coeffs[col_of(aid)] = coeffs.get(col_of(aid), 0.0) - 1.0
        lp.add_row(coeffs, "=", 0.0)


def _add_scenario_flow(lp, instance, scenario, base):
    """Inner flow y in columns base.. surviving the scenario and routed
    within the committed flow x in columns 0..m-1; returns y's column map."""

    def ycol(aid):
        return base + aid - 1

    for aid in scenario.removed:
        lp.set_bounds(ycol(aid), 0.0, 0.0)
    _add_conservation(lp, instance, ycol)
    for aid in instance.arc_ids():
        if aid not in scenario.removed_set:
            lp.add_row({ycol(aid): 1.0, aid - 1: -1.0}, "<=", 0.0)
    return ycol


def best_response_by_block_lp(instance, alpha):
    """The flow player's best committed flow x against the mixed strategy
    from one LP: x within the capacities, and per support scenario an inner
    flow within x that survives it, its value weighted by the scenario's
    probability.  Returns (value, x as a list over the arcs)."""
    m = instance.arc_count
    sink_in = list(instance.in_ids(instance.sink))
    support = list(alpha.support)
    lp = LpProblem(m * (1 + len(support)), sense="max")
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    objective = {}
    for k, (scenario, prob) in enumerate(support):
        ycol = _add_scenario_flow(lp, instance, scenario, m + k * m)
        for aid in sink_in:
            objective[ycol(aid)] = objective.get(ycol(aid), 0.0) + prob
    lp.set_objective(objective)
    sol = solve_lp(lp)
    return sol.objective, list(sol.x[:m])


def rni_by_scenario_lp(instance):
    """Z_RNI from the scenario-indexed LP: the committed flow x, the value
    z, and one inner flow per scenario that survives it within x and
    bounds z by its value."""
    m = instance.arc_count
    scens = scenarios(instance)
    sink_in = list(instance.in_ids(instance.sink))
    lp = LpProblem(m + 1 + m * len(scens), sense="max")
    lp.set_objective({m: 1.0})
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    for k, scenario in enumerate(scens):
        ycol = _add_scenario_flow(lp, instance, scenario, m + 1 + k * m)
        lp.add_row({m: 1.0, **{ycol(aid): -1.0 for aid in sink_in}}, "<=", 0.0)
    return solve_lp(lp).objective


def rni_path_by_scenario_lp(instance):
    """Z_RNI^Path from the path LP with one survival row per scenario."""
    paths = enumerate_paths(instance, limit=20000)
    z = len(paths)
    lp = LpProblem(z + 1, sense="max")
    lp.set_objective({z: 1.0})
    for aid in instance.arc_ids():
        through = {p: 1.0 for p, path in enumerate(paths) if aid in path}
        if through:
            lp.add_row(through, "<=", float(instance.effective_capacity(aid)))
    for scenario in scenarios(instance):
        removed = scenario.removed_set
        alive = {p: -1.0 for p, path in enumerate(paths) if removed.isdisjoint(path)}
        lp.add_row({z: 1.0, **alive}, "<=", 0.0)
    return solve_lp(lp).objective
