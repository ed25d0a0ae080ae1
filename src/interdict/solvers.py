"""Exact interdiction solvers and saddle-point certificates.

solve_ni gives the deterministic value (best pure removal); solve_rni and
solve_rni_path give the randomized values in the arc- and path-based
payoff models together with an optimal mixed removal strategy; the gamma=1
case has a dedicated polynomial LP.  Every mixed strategy is extracted
from LP duals and can be re-validated with an independent two-sided
certificate (certify): the flow witness is checked against the
interdictor's exact best response (game.worst_removal, the same oracle
solve_ni applies to the capacities) and the strategy against an exact
best-response LP.

solve_rni carries two interchangeable exact formulations:

* "scenario": one inner flow per scenario coupled to the committed flow,
  with the strategy read off the per-scenario duals.  Size grows with
  |scenarios| * |arcs|, so it is the default only at small sizes.
* "cuts": one block per s-t cut bounding the survivable crossing flow,
  with the sum of the gamma largest crossing values linearized through a
  per-cut threshold variable.  Per-cut removal marginals come from the
  duals and are decomposed into scenarios by systematic sampling.

Both routes return certified-equal values (property-tested); the cut route
keeps instances with many scenarios but few nodes at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .game import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_SCENARIO_LIMIT,
    CutLimitExceeded,
    MixedStrategy,
    Scenario,
    ScenarioLimitExceeded,
    adaptive_value,
    payoff_arc,
    payoff_path,
    scenario_count,
    scenarios,
    worst_removal,
)
from .graph import (
    ArcFlow,
    Instance,
    PathFlow,
    cut_count,
    enumerate_paths,
    iter_cuts,
)
from .linopt import LpProblem, solve_lp

DEFAULT_LP_SCENARIO_LIMIT = 2000
DEFAULT_PATH_LIMIT = 20000
# beyond this estimated row count the dense kernel is no longer desk scale
LP_ROW_CAP = 8000
# largest scenario-formulation row count before auto prefers the cut route
SCENARIO_LP_AUTO_ROWS = 400


class GammaMismatch(Exception):
    """Operation requires gamma = 1."""


@dataclass(frozen=True)
class NiSolution:
    value: Fraction
    witness_scenario: Scenario
    witness_flow: ArcFlow


@dataclass(frozen=True)
class RniSolution:
    value: float
    strategy: MixedStrategy
    flow_witness: Union[ArcFlow, PathFlow]
    scenario_flows: Optional[dict[Scenario, ArcFlow]] = None
    method: str = ""


@dataclass(frozen=True)
class Gamma1Solution:
    value: float
    alpha: dict[int, float]  # per-arc removal probability
    rho: dict[int, float]  # per-arc dual weight on the capacity
    pi: dict[int, float]  # node potentials


@dataclass(frozen=True)
class CertificateReport:
    flow_gap: float
    adversary_gap: float
    passed: bool
    tolerance: float


def _arc_flow_from_lp(instance, values) -> ArcFlow:
    cleaned = {}
    for aid in instance.arc_ids():
        v = float(values[aid - 1])
        if v > 1e-12:
            cleaned[aid] = Fraction(v)
    return ArcFlow.from_values(instance, cleaned)


def _add_conservation(lp, instance, col_of):
    for v in instance.internal_nodes():
        coeffs: dict[int, float] = {}
        for aid in instance.out_ids(v):
            col = col_of(aid)
            coeffs[col] = coeffs.get(col, 0.0) + 1.0
        for aid in instance.in_ids(v):
            col = col_of(aid)
            coeffs[col] = coeffs.get(col, 0.0) - 1.0
        lp.add_row(coeffs, "=", 0.0)


def solve_ni(
    instance: Instance,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> NiSolution:
    """Best pure removal: the interdictor's best response to the capacities
    (worst_removal), with the max flow left after it."""
    caps = {aid: instance.effective_capacity(aid) for aid in instance.arc_ids()}
    _, witness = worst_removal(instance, caps, scenario_limit, cut_limit)
    value, flow = payoff_arc(instance, witness, caps)
    return NiSolution(value=value, witness_scenario=witness, witness_flow=flow)


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


def _rni_scenario_lp(instance, scens):
    """One coupled inner flow per scenario; strategy from the duals of the
    value-coupling rows."""
    m = instance.arc_count
    sink_in = list(instance.in_ids(instance.sink))
    lp = LpProblem(m + 1 + m * len(scens), sense="max")
    z = m
    lp.set_objective({z: 1.0})
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    value_rows = []
    for k, scenario in enumerate(scens):
        ycol = _add_scenario_flow(lp, instance, scenario, m + 1 + k * m)
        row = lp.add_row(
            {z: 1.0, **{ycol(aid): -1.0 for aid in sink_in}}, "<=", 0.0
        )
        value_rows.append(row)
    sol = solve_lp(lp)
    witness = _arc_flow_from_lp(instance, sol.x[:m])
    strategy = MixedStrategy.normalized(
        (scens[k], max(0.0, float(sol.duals[row])))
        for k, row in enumerate(value_rows)
    )
    flows = {}
    for k, scenario in enumerate(scens):
        base = m + 1 + k * m
        flows[scenario] = _arc_flow_from_lp(instance, sol.x[base : base + m])
    return sol.objective, strategy, witness, flows


def _madow_mixture(arc_ids, marginals, gamma):
    """Decompose per-arc removal marginals (each in [0,1], summing to at
    most gamma) into a mixture of at-most-gamma-arc subsets with those
    marginals, by systematic sampling: the subset map u -> selection is
    piecewise constant on [0,1), so the mixture is read off the
    breakpoints exactly."""
    cums = [0.0]
    for p in marginals:
        cums.append(cums[-1] + p)
    breaks = {0.0, 1.0}
    for c in cums:
        breaks.add(c - math.floor(c))
    points = sorted(breaks)
    mixture = []
    for lo, hi in zip(points, points[1:]):
        width = hi - lo
        if width <= 1e-15:
            continue
        u = (lo + hi) / 2.0
        chosen = [
            arc_ids[i]
            for i in range(len(arc_ids))
            if math.ceil(cums[i + 1] - u) - math.ceil(cums[i] - u) >= 1
        ]
        if len(chosen) > gamma:  # float fuzz on a breakpoint
            chosen = chosen[:gamma]
        mixture.append((tuple(chosen), width))
    return mixture


def _rni_cut_lp(instance, cut_limit):
    """Cut formulation: for each cut, the survivable crossing flow bounds
    the value; the gamma-largest-arcs term is linearized with a per-cut
    threshold and per-arc overflow variables."""
    if cut_count(instance) > cut_limit:
        raise CutLimitExceeded(f"{cut_count(instance)} cuts exceed {cut_limit}")
    cuts = list(iter_cuts(instance))
    m = instance.arc_count
    gamma = instance.gamma
    est_rows = len(instance.internal_nodes()) + sum(len(c) + 1 for _, c in cuts)
    if est_rows > LP_ROW_CAP:
        raise CutLimitExceeded(
            f"cut formulation needs ~{est_rows} rows, beyond desk scale"
        )
    ncols = m + 1 + sum(1 + len(crossing) for _, crossing in cuts)
    lp = LpProblem(ncols, sense="max")
    z = m
    lp.set_objective({z: 1.0})
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    col = m + 1
    cut_rows = []  # (value_row, crossing, [overflow_row per arc])
    for _, crossing in cuts:
        t_col = col
        s_cols = {aid: col + 1 + i for i, aid in enumerate(crossing)}
        col += 1 + len(crossing)
        coeffs = {z: 1.0, t_col: float(gamma)}
        for aid in crossing:
            coeffs[aid - 1] = coeffs.get(aid - 1, 0.0) - 1.0
            coeffs[s_cols[aid]] = 1.0
        value_row = lp.add_row(coeffs, "<=", 0.0)
        overflow_rows = []
        for aid in crossing:
            overflow_rows.append(
                lp.add_row({aid - 1: 1.0, t_col: -1.0, s_cols[aid]: -1.0}, "<=", 0.0)
            )
        cut_rows.append((value_row, crossing, overflow_rows))
    sol = solve_lp(lp)
    witness = _arc_flow_from_lp(instance, sol.x[:m])
    pairs = []
    for value_row, crossing, overflow_rows in cut_rows:
        lam = float(sol.duals[value_row])
        if lam <= 1e-12:
            continue
        marginals = []
        for aid, row in zip(crossing, overflow_rows):
            marginals.append(min(1.0, max(0.0, float(sol.duals[row]) / lam)))
        total = sum(marginals)
        if total > gamma:
            marginals = [p * gamma / total for p in marginals]
        for chosen, width in _madow_mixture(list(crossing), marginals, gamma):
            pairs.append((Scenario.covering(instance, chosen), lam * width))
    strategy = MixedStrategy.normalized(pairs)
    return sol.objective, strategy, witness


def solve_rni(
    instance: Instance,
    lp_scenario_limit: int = DEFAULT_LP_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    method: str = "auto",
) -> RniSolution:
    """Randomized value in the arc-based payoff model, with an optimal
    mixed removal strategy and a committed-flow witness.

    "auto" uses the scenario formulation while it stays small and the cut
    formulation otherwise; see the module docstring.  Witness-side inner
    flows are attached for the support scenarios as diagnostics.
    """
    nscen = scenario_count(instance)
    m = instance.arc_count
    if method == "auto":
        est_rows = (
            len(instance.internal_nodes()) * (1 + nscen)
            + nscen * (m - instance.gamma + 1)
        )
        if nscen <= lp_scenario_limit and est_rows <= SCENARIO_LP_AUTO_ROWS:
            method = "scenario"
        elif cut_count(instance) <= cut_limit:
            method = "cuts"
        elif nscen <= lp_scenario_limit:
            method = "scenario"
        else:
            raise ScenarioLimitExceeded(
                f"{nscen} scenarios exceed the LP limit of {lp_scenario_limit} "
                f"and {cut_count(instance)} cuts exceed {cut_limit}"
            )
    if method == "scenario":
        scens = scenarios(instance, limit=lp_scenario_limit)
        value, strategy, witness, flows = _rni_scenario_lp(instance, scens)
        return RniSolution(
            value=value,
            strategy=strategy,
            flow_witness=witness,
            scenario_flows=flows,
            method="scenario",
        )
    if method != "cuts":
        raise ValueError(f"unknown method {method!r}")
    value, strategy, witness = _rni_cut_lp(instance, cut_limit)
    flows = {
        scenario: payoff_arc(instance, scenario, witness.values)[1]
        for scenario, _ in strategy.support
    }
    return RniSolution(
        value=value,
        strategy=strategy,
        flow_witness=witness,
        scenario_flows=flows,
        method="cuts",
    )


def solve_rni_path(
    instance: Instance,
    path_limit: int = DEFAULT_PATH_LIMIT,
    lp_scenario_limit: int = DEFAULT_LP_SCENARIO_LIMIT,
) -> RniSolution:
    """Randomized value in the path-based payoff model: maximize the
    worst-case surviving path flow, one survival row per scenario; the
    strategy is read from those rows' duals."""
    paths = enumerate_paths(instance, limit=path_limit)
    scens = scenarios(instance, limit=lp_scenario_limit)
    npaths = len(paths)
    lp = LpProblem(npaths + 1, sense="max")
    z = npaths
    lp.set_objective({z: 1.0})
    loads: dict[int, dict[int, float]] = {}
    for p, path in enumerate(paths):
        for aid in path:
            loads.setdefault(aid, {})[p] = loads.get(aid, {}).get(p, 0.0) + 1.0
    for aid, coeffs in sorted(loads.items()):
        lp.add_row(dict(coeffs), "<=", float(instance.effective_capacity(aid)))
    value_rows = []
    for scenario in scens:
        removed = scenario.removed_set
        coeffs = {z: 1.0}
        for p, path in enumerate(paths):
            if not removed.intersection(path):
                coeffs[p] = -1.0
        value_rows.append(lp.add_row(coeffs, "<=", 0.0))
    sol = solve_lp(lp)
    entries = []
    for p, path in enumerate(paths):
        amount = float(sol.x[p])
        if amount > 1e-12:
            entries.append((path, Fraction(amount)))
    witness = PathFlow(entries=tuple(entries))
    strategy = MixedStrategy.normalized(
        (scens[k], max(0.0, float(sol.duals[row])))
        for k, row in enumerate(value_rows)
    )
    return RniSolution(
        value=sol.objective,
        strategy=strategy,
        flow_witness=witness,
        scenario_flows=None,
        method="path-lp",
    )


def solve_rni_gamma1(instance: Instance) -> Gamma1Solution:
    """Polynomial LP for gamma = 1: per-arc removal probabilities alpha,
    capacity weights rho, and node potentials pi minimizing the weighted
    capacity, subject to rho_e + alpha_e + pi_v - pi_w >= 0 on each arc
    and a unit potential rise from source to sink."""
    if instance.gamma != 1:
        raise GammaMismatch("this formulation requires gamma = 1")
    m = instance.arc_count
    n = instance.node_count
    lp = LpProblem(2 * m + n, sense="min")
    rho = lambda aid: aid - 1
    alp = lambda aid: m + aid - 1
    pi = lambda v: 2 * m + v - 1
    for v in range(1, n + 1):
        lp.set_bounds(pi(v), -math.inf, math.inf)
    lp.set_objective(
        {rho(aid): float(instance.effective_capacity(aid)) for aid in instance.arc_ids()}
    )
    for aid in instance.arc_ids():
        arc = instance.arc(aid)
        lp.add_row(
            {rho(aid): 1.0, alp(aid): 1.0, pi(arc.tail): 1.0, pi(arc.head): -1.0},
            ">=",
            0.0,
        )
    lp.add_row({pi(instance.sink): 1.0, pi(instance.source): -1.0}, ">=", 1.0)
    lp.add_row({alp(aid): 1.0 for aid in instance.arc_ids()}, "=", 1.0)
    sol = solve_lp(lp)
    return Gamma1Solution(
        value=sol.objective,
        alpha={aid: float(sol.x[alp(aid)]) for aid in instance.arc_ids()},
        rho={aid: float(sol.x[rho(aid)]) for aid in instance.arc_ids()},
        pi={v: float(sol.x[pi(v)]) for v in range(1, n + 1)},
    )


def gamma1_residuals(instance: Instance, sol: Gamma1Solution) -> dict[str, float]:
    """Worst violations of the gamma=1 LP feasibility conditions; all
    should be <= 1e-7 for a valid solution."""
    alpha_sum = abs(sum(sol.alpha.values()) - 1.0)
    neg = max(
        [0.0]
        + [-a for a in sol.alpha.values()]
        + [-r for r in sol.rho.values()]
    )
    arc_slack = 0.0
    for aid in instance.arc_ids():
        arc = instance.arc(aid)
        slack = (
            sol.rho[aid] + sol.alpha[aid] + sol.pi[arc.tail] - sol.pi[arc.head]
        )
        arc_slack = max(arc_slack, -slack)
    potential = max(0.0, 1.0 - (sol.pi[instance.sink] - sol.pi[instance.source]))
    weighted = sum(
        float(instance.effective_capacity(aid)) * sol.rho[aid]
        for aid in instance.arc_ids()
    )
    return {
        "alpha_sum": alpha_sum,
        "negativity": neg,
        "arc_slack": arc_slack,
        "potential_rise": potential,
        "value_mismatch": abs(weighted - sol.value),
    }


def gamma1_strategy(sol: Gamma1Solution) -> MixedStrategy:
    """Per-arc removal probabilities as a mixed strategy over singletons."""
    return MixedStrategy.normalized(
        (Scenario((aid,)), p) for aid, p in sol.alpha.items() if p > 1e-12
    )


def gamma1_witness(instance: Instance) -> ArcFlow:
    """Committed flow maximizing the worst single-arc-removal payoff,
    valid as the flow-side certificate witness for gamma = 1."""
    if instance.gamma != 1:
        raise GammaMismatch("this witness requires gamma = 1")
    m = instance.arc_count
    sink_in = list(instance.in_ids(instance.sink))
    lp = LpProblem(m + 1, sense="max")
    z = m
    lp.set_objective({z: 1.0})
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    val_coeffs = {aid - 1: 1.0 for aid in sink_in}
    for aid in instance.arc_ids():
        coeffs = {z: 1.0, aid - 1: 1.0}
        for c, a in val_coeffs.items():
            coeffs[c] = coeffs.get(c, 0.0) - a
        lp.add_row(coeffs, "<=", 0.0)
    sol = solve_lp(lp)
    return _arc_flow_from_lp(instance, sol.x[:m])


def best_response_arc(
    instance: Instance, alpha: MixedStrategy
) -> tuple[float, ArcFlow]:
    """Exact value of the flow player's best committed flow against the
    mixed strategy, via one coupled inner flow per support scenario."""
    m = instance.arc_count
    sink_in = list(instance.in_ids(instance.sink))
    support = list(alpha.support)
    lp = LpProblem(m * (1 + len(support)), sense="max")
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    _add_conservation(lp, instance, lambda aid: aid - 1)
    objective: dict[int, float] = {}
    for k, (scenario, prob) in enumerate(support):
        ycol = _add_scenario_flow(lp, instance, scenario, m + k * m)
        for aid in sink_in:
            objective[ycol(aid)] = objective.get(ycol(aid), 0.0) + prob
    lp.set_objective(objective)
    sol = solve_lp(lp)
    return sol.objective, _arc_flow_from_lp(instance, sol.x[:m])


def best_response_path(
    instance: Instance,
    alpha: MixedStrategy,
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> tuple[float, PathFlow]:
    """Best committed path flow against the mixed strategy: maximize
    survival-weighted path flow under the arc capacities."""
    paths = enumerate_paths(instance, limit=path_limit)
    lp = LpProblem(max(1, len(paths)), sense="max")
    weights = []
    for path in paths:
        w = sum(
            prob
            for scenario, prob in alpha.support
            if not scenario.removed_set.intersection(path)
        )
        weights.append(w)
    lp.set_objective({p: w for p, w in enumerate(weights)})
    loads: dict[int, dict[int, float]] = {}
    for p, path in enumerate(paths):
        for aid in path:
            loads.setdefault(aid, {})[p] = 1.0
    for aid, coeffs in sorted(loads.items()):
        lp.add_row(dict(coeffs), "<=", float(instance.effective_capacity(aid)))
    sol = solve_lp(lp)
    entries = tuple(
        (path, Fraction(float(sol.x[p])))
        for p, path in enumerate(paths)
        if float(sol.x[p]) > 1e-12
    )
    return sol.objective, PathFlow(entries=entries)


def _min_scenario_payoff_path(instance, flow, scenario_limit):
    best = None
    for scenario in scenarios(instance, limit=scenario_limit):
        value = payoff_path(instance, scenario, flow)
        if best is None or value < best:
            best = value
    return best


def certify(
    instance: Instance,
    solution: RniSolution,
    kind: str,
    tolerance: float = 1e-6,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> CertificateReport:
    """Two-sided saddle check, independent of how the solution was found.

    flow_gap = value - (worst scenario payoff of the witness); adversary_gap
    = (exact best response against the strategy) - value.  PASS iff both
    are within tolerance * (1 + value) in absolute value; FAIL is data,
    not an error.
    """
    if kind not in ("arc", "path"):
        raise ValueError("kind must be 'arc' or 'path'")
    value = float(solution.value)
    if kind == "arc":
        worst = adaptive_value(
            instance, solution.flow_witness, scenario_limit, cut_limit
        )
        adversary, _ = best_response_arc(instance, solution.strategy)
    else:
        worst = _min_scenario_payoff_path(
            instance, solution.flow_witness, scenario_limit
        )
        adversary, _ = best_response_path(
            instance, solution.strategy, path_limit=path_limit
        )
    flow_gap = value - float(worst)
    adversary_gap = adversary - value
    tol = tolerance * (1.0 + abs(value))
    passed = abs(flow_gap) <= tol and abs(adversary_gap) <= tol
    return CertificateReport(
        flow_gap=flow_gap,
        adversary_gap=adversary_gap,
        passed=passed,
        tolerance=tolerance,
    )


def certify_gamma1(
    instance: Instance, sol: Gamma1Solution, tolerance: float = 1e-6
) -> CertificateReport:
    """Saddle check for the gamma=1 LP output: its per-arc strategy against
    an exact best response, and a worst-case-optimal committed flow."""
    strategy = gamma1_strategy(sol)
    witness = gamma1_witness(instance)
    solution = RniSolution(
        value=sol.value, strategy=strategy, flow_witness=witness, method="gamma1"
    )
    return certify(instance, solution, kind="arc", tolerance=tolerance)
