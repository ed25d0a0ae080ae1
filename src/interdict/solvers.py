"""Exact interdiction solvers and saddle-point certificates.

solve_ni gives the deterministic value (best pure removal); solve_rni and
solve_rni_path give the randomized values in the arc- and path-based
payoff models together with an optimal mixed removal strategy; the gamma=1
case has a dedicated polynomial LP.  Every solution can be re-validated
with an independent two-sided certificate (certify): the flow witness is
checked against the interdictor's exact best response in its payoff model
(game.worst_removal, the same oracle solve_ni applies to the capacities,
or game.worst_path_removals) and the strategy against the flow player's.

The paper's value chain Z_LO <= Z_RNI^Path <= Z_RNI <= Z_NI closes the
game wherever the LO model reaches Z_NI: then all four values are equal,
and the pure NI removal is optimal in both payoff models.  Both RNI
solvers test this first (_closing_flow, lomodel's tangent search with
Z_NI as its target) and return Z_NI, that removal and the LO probe's flow
without an LP.  Otherwise both RNI values and the arc model's flow-player
best response come from one constraint-generation loop (_row_generation).
Each is a maximum over the flow player's variables of payoffs that are
least over gamma-arc removals: an LP with one row per removal (in the arc
model, by max-flow/min-cut, the committed flow over a cut minus the
removed arcs), of which only the few binding at the optimum are needed.
The loop grows one small master LP with the rows of the responses its
current point violates, taken from game's best response for the model,
at most gamma + 1 of them per round, and re-optimizes it from its last
tableau by the dual simplex (Kelley's cutting planes); the solvers read
the strategy off the row duals.  How those responses are found, and the
one limit on it, is game's alone; the path model's s-t paths
(graph.enumerate_paths) count against the same scenario_limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .game import (
    DEFAULT_SCENARIO_LIMIT,
    MixedStrategy,
    Scenario,
    ScenarioLimitExceeded,
    adaptive_value,
    _scenario_responses,
    payoff_arc,
    removal_candidates,
    worst_path_removals,
    worst_removal,
)
from .graph import (
    ArcFlow,
    Instance,
    PathFlow,
    decompose,
    enumerate_paths,
    resolve_capacities,
    _scaled,
    validate_flow,
)
from .linopt import LpProblem, _Simplex, solve_lp


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


@dataclass(frozen=True)
class Gamma1Solution:
    value: float
    alpha: dict[int, float]  # per-arc removal probability
    rho: dict[int, float]  # per-arc dual weight on the capacity
    pi: dict[int, float]  # node potentials
    witness: ArcFlow  # the arc rows' duals: a worst-case-optimal committed flow


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


def _path_flow_from_lp(paths, values) -> PathFlow:
    return PathFlow(
        entries=tuple(
            (path, Fraction(float(v))) for path, v in zip(paths, values) if v > 1e-12
        )
    )


def _add_path_capacities(lp, instance, paths):
    """Each arc's capacity bounds the flow on the paths (columns 0..)
    through it."""
    loads: dict[int, dict[int, float]] = {}
    for p, path in enumerate(paths):
        for aid in path:
            loads.setdefault(aid, {})[p] = 1.0
    for aid, coeffs in sorted(loads.items()):
        lp.add_row(coeffs, "<=", float(instance.effective_capacity(aid)))


def solve_ni(
    instance: Instance, scenario_limit: int = DEFAULT_SCENARIO_LIMIT
) -> NiSolution:
    """Best pure removal: the interdictor's best response to the capacities
    (worst_removal, which keeps no response but the least), with the max
    flow left after it."""
    caps = _arc_weights(instance, None)
    _, scenario = worst_removal(instance, caps, scenario_limit)
    value, flow = payoff_arc(instance, scenario, caps)
    return NiSolution(value=value, witness_scenario=scenario, witness_flow=flow)


def _ni(instance, scenario_limit):
    """Z_NI, its first minimizing scenario (worst_removal's), and the
    responses to the capacities it is the least of, as a list: an open
    game's row generation starts from them.  No max flow beyond theirs."""
    caps = _arc_weights(instance, None)
    first = list(removal_candidates(instance, caps, scenario_limit))
    z_ni, response = min(first, key=lambda candidate: candidate[0])
    return z_ni, response()[0], first


def _row_generation(instance, master, objective, candidates):
    """Maximize the objective, a map from z columns to their weights, over
    the master LP's other columns (the flow player's), subject to one row
    z <= (sum of the columns a response leaves alive) per interdictor
    response generated for that z so far.

    candidates(x, below) yields the responses whose payoff at the master's
    point x is below below(z) for their z (before the first solve x is
    None, to score at the capacities, and below(z) is infinite) as
    (payoff, response); response() gives the scenario, the z and the
    columns it leaves alive, and is called only for the rows considered.
    Each round adds, per z, the rows of at most gamma + 1 responses
    violated by more than 1e-9 (1 + |z|), least payoff first, skipping rows
    already in the master, and stops when it adds none.  A repeated row
    cannot cut off the current point and the rows are finitely many, so
    the loop ends.  Returns the last LP solution and the mixed strategy of
    the rows' duals.

    One master serves the whole loop (Kelley's cutting planes): each
    round's rows are appended to its last optimal tableau and re-optimized
    by the dual simplex (linopt._Simplex), and every round's point passes
    the same KKT re-check as a cold solve.  Why gamma + 1 rows a round:
    the optimal strategies of the paper's families have at most gamma + 1
    scenarios (fig1 and fig2a remove gamma of some gamma + 1 arcs
    uniformly), so one round can hold a whole support; with fewer the
    next point moves its flow onto an arc that no row removes yet, and the
    loop takes more rounds.  More rows per round make every re-solve
    larger without saving rounds: most of them stay slack.
    """
    master.set_objective(objective)
    for z in objective:  # free, so the duals of its rows sum to its weight
        master.set_bounds(z, -math.inf, math.inf)
    simplex = _Simplex(master)
    rows: dict[tuple[int, frozenset], tuple[int, Scenario]] = {}
    sol = None
    while True:
        x, below = None, lambda z: math.inf
        if sol is not None:
            x = sol.x
            below = lambda z: float(x[z]) - 1e-9 * (1.0 + abs(float(x[z])))
        added = dict.fromkeys(objective, 0)
        for _, response in sorted(candidates(x, below), key=lambda c: c[0]):
            scenario, z, alive = response()
            key = (z, frozenset(alive))
            if key in rows or added[z] > instance.gamma:
                continue
            coeffs = {z: 1.0, **{j: -1.0 for j in alive}}
            rows[key] = (master.add_row(coeffs, "<=", 0.0), scenario)
            added[z] += 1
            if min(added.values()) > instance.gamma:
                break
        if not any(added.values()):
            break
        sol = simplex.solve()
    strategy = MixedStrategy.normalized(
        (scenario, max(0.0, float(sol.duals[row]))) for row, scenario in rows.values()
    )
    return sol, strategy


def _arc_master(instance, zs):
    """The committed arc flow x in columns 0..m-1, within the capacities
    and conserved at every internal node, then zs z columns."""
    master = LpProblem(instance.arc_count + zs, sense="max")
    for aid in instance.arc_ids():
        master.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    for v in instance.internal_nodes():
        row = {aid - 1: 1.0 for aid in instance.out_ids(v)}
        for aid in instance.in_ids(v):
            row[aid - 1] = row.get(aid - 1, 0.0) - 1.0
        master.add_row(row, "=", 0.0)
    return master


def _arc_weights(instance, x):
    """The capacities before the first solve, then the master's flow."""
    if x is None:
        return {aid: instance.effective_capacity(aid) for aid in instance.arc_ids()}
    return {a: float(v) for a, v in zip(instance.arc_ids(), x) if v > 1e-12}


def _kept_row(z, scenario, kept):
    return scenario, z, [aid - 1 for aid in kept]


def _closing_flow(instance, z_ni, scenario) -> Optional[ArcFlow]:
    """A max flow x under the capacities capped at some theta with
    val(x) - gamma theta = z_ni, or None when the LO model stays below
    z_ni: lomodel's tangent search with z_ni as its target, started at the
    least capacity among the scenario's arcs (the NI minimizer's).

    Every probe value is at most Z_LO <= Z_RNI^Path <= Z_RNI <= Z_NI, so
    reaching z_ni closes the game: a gamma-removal takes at most gamma
    theta of x, or of decompose(x), so both hold z_ni against any removal,
    and the flow player's best response to the pure scenario is z_ni."""
    from .lomodel import _search  # lomodel's report imports this module

    start = min(instance.effective_capacity(aid) for aid in scenario.removed)
    _, value, flow, _ = _search(instance, target=z_ni, start=start)
    return flow if value == z_ni else None


def _closed(value, scenario, witness) -> RniSolution:
    """The saddle point of a closed game: Z_NI, its pure removal, and a
    flow that holds Z_NI against every removal."""
    return RniSolution(
        value=float(value),
        strategy=MixedStrategy.degenerate(scenario),
        flow_witness=witness,
    )


def solve_rni(
    instance: Instance, scenario_limit: int = DEFAULT_SCENARIO_LIMIT
) -> RniSolution:
    """Randomized value in the arc-based payoff model, with an optimal
    mixed removal strategy and a committed-flow witness.

    The responses to the capacities give Z_NI and a pure minimizer S*.
    When the LO model reaches Z_NI (_closing_flow) that is the value, S*
    the strategy and the LO probe's flow the witness, with no LP.
    Otherwise the row generation decides, starting from those responses
    (_rni_rows).
    """
    z_ni, scenario, first = _ni(instance, scenario_limit)
    flow = _closing_flow(instance, z_ni, scenario)
    if flow is not None:
        return _closed(z_ni, scenario, flow)
    return _rni_rows(instance, scenario_limit, first)


def _rni_rows(instance, scenario_limit, first=None) -> RniSolution:
    """Z_RNI by row generation: the master is the arc flow x plus z; each
    response's row bounds z by x over the arcs game.removal_candidates
    says it keeps, a cut minus the removed arcs.  first, when given, is
    the responses to the capacities, the first round's."""
    m = instance.arc_count

    def candidates(x, below):
        below = below(m)
        if x is not None:
            below = Fraction(below)  # finite here; a Fraction compares faster
        if x is None and first is not None:
            scored = first
        else:
            weights = _arc_weights(instance, x)
            scored = removal_candidates(instance, weights, scenario_limit)
        for payoff, response in scored:
            if payoff < below:
                yield payoff, lambda response=response: _kept_row(m, *response())

    sol, strategy = _row_generation(
        instance, _arc_master(instance, 1), {m: 1.0}, candidates
    )
    return RniSolution(
        value=sol.objective,
        strategy=strategy,
        flow_witness=_arc_flow_from_lp(instance, sol.x[:m]),
    )


def solve_rni_path(
    instance: Instance, scenario_limit: int = DEFAULT_SCENARIO_LIMIT
) -> RniSolution:
    """Randomized value in the path-based payoff model.  When the LO model
    reaches Z_NI (solve_ni's enumeration, then _closing_flow), that is the
    value, with the pure NI removal and the decomposed LO probe flow;
    when the NI enumeration is over the scenario limit, or the LO model
    stays below, the row generation decides (_rni_path_rows), whose s-t
    paths count against the same limit."""
    caps = _arc_weights(instance, None)
    try:
        z_ni, scenario = worst_removal(instance, caps, scenario_limit)
    except ScenarioLimitExceeded:  # the path search may still fit the limit
        flow = None
    else:
        flow = _closing_flow(instance, z_ni, scenario)
    if flow is not None:
        return _closed(z_ni, scenario, decompose(instance, flow))
    return _rni_path_rows(instance, scenario_limit)


def _rni_path_rows(instance, scenario_limit) -> RniSolution:
    """Z_RNI^Path by the same row generation as Z_RNI: the master is one
    column per s-t path under the arc capacities plus z, and each
    response's row bounds z by the paths that survive it.  The responses
    are game.worst_path_removals on the master's path flow, in floats,
    the gamma + 1 least a round.  When those are all rows the master has,
    any other violated response is violated less than a row the master
    holds, that is within the LP's own error, and the loop ends.  The
    s-t paths and the search's removals each count against
    scenario_limit."""
    paths = enumerate_paths(instance, limit=scenario_limit)
    npaths = len(paths)
    master = LpProblem(npaths + 1, sense="max")
    _add_path_capacities(master, instance, paths)
    # before the first solve each path is scored at its own bottleneck
    bottlenecks = [
        float(min(instance.effective_capacity(aid) for aid in path)) for path in paths
    ]

    def candidates(x, below):
        flow = bottlenecks if x is None else [float(v) for v in x[:npaths]]
        support = [(path, f) for path, f in zip(paths, flow) if f > 1e-12]
        for payoff, scenario in worst_path_removals(
            instance, support, instance.gamma + 1, below(npaths), scenario_limit
        ):

            def response(scenario=scenario):
                removed = scenario.removed_set
                return scenario, npaths, [
                    p for p, path in enumerate(paths) if removed.isdisjoint(path)
                ]

            yield payoff, response

    sol, strategy = _row_generation(instance, master, {npaths: 1.0}, candidates)
    return RniSolution(
        value=sol.objective,
        strategy=strategy,
        flow_witness=_path_flow_from_lp(paths, sol.x),
    )


def solve_rni_gamma1(instance: Instance) -> Gamma1Solution:
    """Polynomial LP for gamma = 1: per-arc removal probabilities alpha,
    capacity weights rho, and node potentials pi minimizing the weighted
    capacity, subject to rho_e + alpha_e + pi_v - pi_w >= 0 on each arc
    and a unit potential rise from source to sink.

    The multipliers of the m arc rows form an s-t flow within the
    capacities (stationarity in pi is conservation, in rho the capacity),
    and the dual objective is its value minus its largest arc amount: the
    worst single-removal payoff.  So the duals are the flow-side witness."""
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
        witness=_arc_flow_from_lp(instance, sol.duals[:m]),
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


def _pure_response(instance, alpha):
    """Against a strategy with one scenario S of positive probability p:
    p and the max flow of the graph without S, which is the flow player's
    best response in either payoff model.  None for any other strategy."""
    support = [(scenario, p) for scenario, p in alpha.support if p > 0]
    if len(support) != 1:
        return None
    [(scenario, p)] = support
    value, flow = payoff_arc(instance, scenario, _arc_weights(instance, None))
    return p * float(value), flow


def best_response_arc(
    instance: Instance, alpha: MixedStrategy
) -> tuple[float, ArcFlow]:
    """Exact value of the flow player's best committed flow against the
    mixed strategy.  A pure strategy's is one max flow (_pure_response).
    Otherwise solve_rni's master with one z_k per support scenario S_k,
    weighted by its probability, each bounded by x over the min cut of one
    max flow within x once S_k is removed, minus S_k."""
    pure = _pure_response(instance, alpha)
    if pure is not None:
        return pure
    m = instance.arc_count
    # p = 0 adds nothing to the value, and a p < 0 would leave z_k unbounded
    support = [(scenario, p) for scenario, p in alpha.support if p > 0]
    removals = [scenario for scenario, _ in support]

    def candidates(x, below):
        responses = _scenario_responses(instance, _arc_weights(instance, x), removals)
        for z, (payoff, response) in enumerate(responses, start=m):
            if payoff < below(z):
                yield payoff, lambda z=z, response=response: _kept_row(z, *response())

    objective = {m + k: p for k, (_, p) in enumerate(support)}
    sol, _ = _row_generation(
        instance, _arc_master(instance, len(support)), objective, candidates
    )
    return sol.objective, _arc_flow_from_lp(instance, sol.x[:m])


def best_response_path(
    instance: Instance,
    alpha: MixedStrategy,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> tuple[float, PathFlow]:
    """Best committed path flow against the mixed strategy.  A pure
    strategy's is the decomposed max flow without its scenario
    (_pure_response); otherwise one LP maximizes survival-weighted path
    flow under the arc capacities, over the s-t paths, which count
    against scenario_limit."""
    pure = _pure_response(instance, alpha)
    if pure is not None:
        value, flow = pure
        return value, decompose(instance, flow)
    paths = enumerate_paths(instance, limit=scenario_limit)
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
    _add_path_capacities(lp, instance, paths)
    sol = solve_lp(lp)
    return sol.objective, _path_flow_from_lp(paths, sol.x)


def _removal_bound(instance, witness) -> Fraction:
    """A lower bound on the witness's worst payoff in its model, from its
    amounts alone: the flow it surely routes less its gamma largest arc
    amounts, since a removal takes at most the flow through its arcs.

    An ArcFlow surely routes, within its positive amounts, their net flow
    into the sink less what the internal nodes that send more than they
    receive could have added (never its value field).  A PathFlow routes
    the sum of its amounts and is charged its paths' positive loads.  The
    amounts are scaled once to integers over their common denominator."""
    if isinstance(witness, ArcFlow):
        scaled, d = _scaled(resolve_capacities(instance, witness.values))
        amounts = [max(x, 0) for x in scaled]
        tails, heads = instance._ends
        net = [0] * (instance.node_count + 1)  # inflow minus outflow
        for aid in instance.arc_ids():
            net[tails[aid]] -= amounts[aid]
            net[heads[aid]] += amounts[aid]
        internal = instance.internal_nodes()
        routed = net[instance.sink] + sum(min(net[v], 0) for v in internal)
    else:
        scaled, d = _scaled([amount for _, amount in witness.entries])
        amounts = [0] * (instance.arc_count + 1)
        for (path, _), x in zip(witness.entries, scaled):
            for aid in path:
                amounts[aid] += max(x, 0)
        routed = sum(scaled)
    largest = sorted(amounts, reverse=True)[: instance.gamma]
    return Fraction(routed - sum(largest), d)


def certify(
    instance: Instance,
    solution: RniSolution,
    kind: str,
    tolerance: float = 1e-6,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> CertificateReport:
    """Two-sided saddle check, independent of how the solution was found.

    flow_gap = value - (worst scenario payoff of the witness); adversary_gap
    = (exact best response against the strategy) - value.  PASS iff the
    witness is a feasible flow (validate_flow within the tolerance) and
    both gaps are within tolerance * (1 + value) in absolute value; FAIL is
    data, not an error.  A witness of the other model's type, a witness arc
    id outside 1..m, or a support scenario that is not gamma distinct arc
    ids of the instance, raises ValueError.

    Which check settles each side: for a feasible witness whose
    _removal_bound is within the tolerance of the value, that bound stands
    in for the worst payoff (it is a lower bound, and the strategy side
    bounds the worst payoff from above), so no removal is enumerated;
    otherwise, and always for a witness that fails validate_flow, the
    exact best response (game.adaptive_value or game.worst_path_removals)
    does.  A pure strategy's best response is one max flow, a mixed one's
    an LP (best_response_arc, best_response_path).  A FAIL therefore
    always comes from the exact checks.
    """
    witness_type = {"arc": ArcFlow, "path": PathFlow}.get(kind)
    if witness_type is None:
        raise ValueError("kind must be 'arc' or 'path'")
    witness = solution.flow_witness
    if not isinstance(witness, witness_type):
        raise ValueError(f"kind {kind!r} needs a {witness_type.__name__} witness")
    m = instance.arc_count
    for scenario, _ in solution.strategy.support:
        removed = scenario.removed  # sorted and distinct
        if len(removed) != instance.gamma or not 1 <= removed[0] <= removed[-1] <= m:
            raise ValueError(f"scenario {removed}: need {instance.gamma} ids in 1..{m}")
    feasible = validate_flow(instance, witness, tolerance).ok
    value = float(solution.value)
    tol = tolerance * (1.0 + abs(value))
    worst = _removal_bound(instance, witness) if feasible else None
    if worst is None or abs(value - float(worst)) > tol:
        if kind == "arc":
            worst = adaptive_value(instance, witness, scenario_limit)
        else:
            [(worst, _)] = worst_path_removals(
                instance, witness.entries, scenario_limit=scenario_limit
            )
    if kind == "arc":
        adversary, _ = best_response_arc(instance, solution.strategy)
    else:
        adversary, _ = best_response_path(instance, solution.strategy, scenario_limit)
    flow_gap = value - float(worst)
    adversary_gap = adversary - value
    passed = feasible and abs(flow_gap) <= tol and abs(adversary_gap) <= tol
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
    an exact best response, and its dual flow against the worst removal."""
    solution = RniSolution(
        value=sol.value,
        strategy=gamma1_strategy(sol),
        flow_witness=sol.witness,
    )
    return certify(instance, solution, kind="arc", tolerance=tolerance)
