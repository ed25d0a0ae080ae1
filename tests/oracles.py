"""Independent oracles shared by the test modules.

Most avoid the library's LP path and its best-response searches: they
enumerate every scenario or every cut and work in exact rational
arithmetic, so they can vouch for the solvers.  The two RNI references are
complete LPs with one block or row per scenario, written up front, against
which the solvers' row generation is checked.
"""

from fractions import Fraction

from interdict.game import payoff_arc, payoff_path, scenarios
from interdict.graph import enumerate_paths, iter_cuts
from interdict.linopt import LpProblem, solve_lp
from interdict.lomodel import lo_value_at
from interdict.solvers import _add_conservation, _add_scenario_flow


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
    """Least payoff_path of a path flow over every scenario."""
    return min(payoff_path(instance, s, flow) for s in scenarios(instance))


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
