"""Parametric lower-bound model and the approximation/bounds report.

The model caps every arc flow at a common threshold theta and maximizes
flow value minus gamma * theta; its optimum lower-bounds every game value.
solve_lo picks, among optima, the one with the largest theta (lexicographic
LP), which is what makes the two certificate cuts of lo_cuts exist: a min
cut whose crossing arcs at-or-above theta number at least gamma, and one
whose strictly-above arcs number fewer than gamma.

approx_report assembles all solver values, the cuts, and every ratio with
its guaranteed bound into one verdict table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .game import (
    DEFAULT_CUT_LIMIT,
    DEFAULT_SCENARIO_LIMIT,
    CutLimitExceeded,
    ScenarioLimitExceeded,
)
from .graph import (
    ArcFlow,
    CutReport,
    Instance,
    Numeric,
    PathLimitExceeded,
    as_fraction,
    max_flow,
    min_cut,
)
from .linopt import LpProblem, NumericalFailure, solve_lp_lexicographic
from .solvers import (
    DEFAULT_LP_SCENARIO_LIMIT,
    DEFAULT_PATH_LIMIT,
    _add_conservation,
    solve_ni,
    solve_rni,
    solve_rni_path,
)


class InvariantViolation(Exception):
    """The certificate cuts failed their required conditions, which points
    at a theta-maximality bug upstream."""


@dataclass(frozen=True)
class LoSolution:
    value: Fraction
    theta_star: Fraction
    flow: ArcFlow
    flow_value: Fraction


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: Optional[float]
    rhs: Optional[float]
    verdict: str  # "PASS" | "FAIL" | "NA"
    tight: bool = False


@dataclass(frozen=True)
class ApproxReport:
    nominal_max_flow: float
    z_ni: Optional[float]
    z_rni: Optional[float]
    z_rni_path: Optional[float]
    z_lo: float
    theta_star: float
    flow_value: float
    s_prime: CutReport
    s_dblprime: CutReport
    a: int
    b: int
    big_l: float
    bounds: tuple[BoundCheck, ...]
    partial: bool
    skipped: tuple[str, ...]


def lo_value_at(instance: Instance, theta: Numeric) -> Fraction:
    """Exact model value at a fixed threshold: the max flow under
    capacities min(u_e, theta), minus gamma * theta."""
    th = as_fraction(theta)
    if th < 0:
        raise ValueError("theta must be nonnegative")
    caps = {
        aid: min(instance.effective_capacity(aid), th) for aid in instance.arc_ids()
    }
    value, _ = max_flow(instance, caps)
    return value - instance.gamma * th


def _snap_theta(theta: float) -> Fraction:
    exact = Fraction(theta)
    snapped = exact.limit_denominator(10**6)
    if abs(float(snapped) - theta) <= 1e-9 * (1.0 + abs(theta)):
        return snapped
    return exact


def solve_lo(instance: Instance) -> LoSolution:
    """Maximize flow value minus gamma * theta over (flow, theta), taking
    the largest theta among optima; the returned solution is re-evaluated
    exactly at the (rationalized) theta."""
    m = instance.arc_count
    lp = LpProblem(m + 1, sense="max")
    th = m
    for aid in instance.arc_ids():
        lp.set_bounds(aid - 1, 0.0, float(instance.effective_capacity(aid)))
    objective = {th: -float(instance.gamma)}
    for aid in instance.in_ids(instance.sink):
        objective[aid - 1] = objective.get(aid - 1, 0.0) + 1.0
    lp.set_objective(objective)
    _add_conservation(lp, instance, lambda aid: aid - 1)
    for aid in instance.arc_ids():
        lp.add_row({aid - 1: 1.0, th: -1.0}, "<=", 0.0)
    sol = solve_lp_lexicographic(lp, {th: 1.0})
    if sol.status != "optimal":
        raise NumericalFailure(f"parametric model LP ended {sol.status}")
    theta = _snap_theta(float(sol.x[th]))
    for attempt in (theta, Fraction(float(sol.x[th]))):
        caps = {
            aid: min(instance.effective_capacity(aid), attempt)
            for aid in instance.arc_ids()
        }
        flow_value, flow = max_flow(instance, caps)
        value = flow_value - instance.gamma * attempt
        if abs(float(value) - sol.objective) <= 1e-7 * (1.0 + abs(sol.objective)):
            return LoSolution(
                value=value, theta_star=attempt, flow=flow, flow_value=flow_value
            )
    raise NumericalFailure("could not reconcile LP optimum with exact re-evaluation")


def _cut_at_theta(instance, probe_theta, theta) -> CutReport:
    """Min cut located at the probe threshold, reported at theta."""
    located = min_cut(instance, theta=probe_theta)
    crossing = located.crossing
    caps = {aid: instance.effective_capacity(aid) for aid in crossing}
    return CutReport(
        s_side=located.s_side,
        crossing=crossing,
        capacity=sum(caps.values(), start=Fraction(0)),
        theta=theta,
        capacity_at_theta=sum(
            (min(c, theta) for c in caps.values()), start=Fraction(0)
        ),
        tight_at_or_below=frozenset(a for a in crossing if theta <= caps[a]),
        strictly_below=frozenset(a for a in crossing if theta < caps[a]),
    )


def lo_cuts(
    instance: Instance, solution: LoSolution
) -> tuple[CutReport, CutReport]:
    """The two certificate cuts at theta*: one found just below it (its
    at-or-above set must have >= gamma arcs; checked only for theta* > 0,
    where the guarantee holds), one just above (strictly-above set < gamma).

    Probes start at theta* -/+ (min positive gap of the capacity values
    and theta*) / (2|E|) and shrink until both probe cuts are minimal at
    theta* itself; failure of the required conditions raises
    InvariantViolation since it signals a theta*-maximality bug upstream.
    """
    theta = solution.theta_star
    values = sorted({instance.effective_capacity(a) for a in instance.arc_ids()}
                    | {theta})
    gaps = [b - a for a, b in zip(values, values[1:]) if b > a]
    eps = (min(gaps) if gaps else max(values[0], Fraction(1))) / (
        2 * instance.arc_count
    )

    def locate(side: int) -> CutReport:
        probe_eps = eps
        for _ in range(60):
            probe = theta + side * probe_eps
            if probe < 0:
                probe = Fraction(0)
            report = _cut_at_theta(instance, probe, theta)
            if report.capacity_at_theta == solution.flow_value:
                return report
            probe_eps /= 4
        raise InvariantViolation(
            "no probe cut stayed minimal at theta*; theta* is not maximal"
        )

    s_prime = locate(-1) if theta > 0 else _cut_at_theta(instance, theta, theta)
    s_dblprime = locate(+1)
    if theta > 0 and len(s_prime.tight_at_or_below) < instance.gamma:
        raise InvariantViolation(
            f"below-cut has only {len(s_prime.tight_at_or_below)} arcs at or "
            f"above theta*, needs >= {instance.gamma}"
        )
    if len(s_dblprime.strictly_below) >= instance.gamma:
        raise InvariantViolation(
            f"above-cut has {len(s_dblprime.strictly_below)} arcs strictly "
            f"above theta*, needs < {instance.gamma}"
        )
    return s_prime, s_dblprime


def path_model_factor(gamma: int) -> float:
    """Guaranteed bound on (path-model value) / (parametric model value)."""
    return 1.0 + (gamma // 2) * ((gamma + 1) // 2) / (gamma + 1)


def _ratio_row(name, num, den, bound, tol) -> BoundCheck:
    if num is None or den is None:
        return BoundCheck(name, None, bound, "NA")
    if den <= tol:
        return BoundCheck(name, None, bound, "NA")
    lhs = num / den
    ok = lhs <= bound + tol * (1.0 + abs(bound))
    tight = abs(lhs - bound) <= tol * (1.0 + abs(bound))
    return BoundCheck(name, lhs, bound, "PASS" if ok else "FAIL", tight)


def _le_row(name, lhs, rhs, tol) -> BoundCheck:
    if lhs is None or rhs is None:
        return BoundCheck(name, lhs, rhs, "NA")
    ok = lhs <= rhs + tol * (1.0 + abs(rhs))
    tight = abs(lhs - rhs) <= tol * (1.0 + abs(rhs))
    return BoundCheck(name, lhs, rhs, "PASS" if ok else "FAIL", tight)


def _eq_row(name, premise, lhs, rhs, tol) -> BoundCheck:
    if not premise or lhs is None or rhs is None:
        return BoundCheck(name, lhs, rhs, "NA")
    ok = abs(lhs - rhs) <= tol * (1.0 + abs(rhs))
    return BoundCheck(name, lhs, rhs, "PASS" if ok else "FAIL", ok)


def approx_report(
    instance: Instance,
    tolerance: float = 1e-6,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    lp_scenario_limit: int = DEFAULT_LP_SCENARIO_LIMIT,
    path_limit: int = DEFAULT_PATH_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> ApproxReport:
    """Solve every model that fits the limits and tabulate the value chain,
    the guaranteed ratio bounds, the certificate-cut conditions, and the
    conditional identities (premises checked with a 1e-9 margin).  Ratios
    with a vanishing denominator report NA, never infinity.  Solvers whose
    limits are exceeded are skipped and flagged (partial result)."""
    nominal = float(max_flow(instance)[0])
    lo = solve_lo(instance)
    s_prime, s_dblprime = lo_cuts(instance, lo)
    a = len(s_prime.tight_at_or_below)
    b = len(s_dblprime.strictly_below)
    big_l = float(
        sum(
            (
                instance.effective_capacity(aid)
                for aid in s_prime.crossing
                if aid not in s_prime.tight_at_or_below
            ),
            start=Fraction(0),
        )
    )
    skipped = []
    z_ni = z_rni = z_rni_path = None
    try:
        z_ni = float(
            solve_ni(instance, scenario_limit=scenario_limit, cut_limit=cut_limit).value
        )
    except (ScenarioLimitExceeded, CutLimitExceeded):
        skipped.append("ni")
    try:
        z_rni = solve_rni(
            instance, lp_scenario_limit=lp_scenario_limit, cut_limit=cut_limit
        ).value
    except (ScenarioLimitExceeded, CutLimitExceeded):
        skipped.append("rni")
    try:
        z_rni_path = solve_rni_path(
            instance, path_limit=path_limit, lp_scenario_limit=lp_scenario_limit
        ).value
    except (ScenarioLimitExceeded, PathLimitExceeded):
        skipped.append("rni_path")

    z_lo = float(lo.value)
    theta = float(lo.theta_star)
    val_x = float(lo.flow_value)
    gamma = instance.gamma
    tol = tolerance
    margin = 1e-9

    bounds = [
        _le_row("Z_LO<=Z_RNI^Path", z_lo, z_rni_path, tol),
        _le_row("Z_RNI^Path<=Z_RNI", z_rni_path, z_rni, tol),
        _le_row("Z_RNI<=Z_NI", z_rni, z_ni, tol),
        _ratio_row("Z_NI/Z_LO", z_ni, z_lo, float(gamma + 1), tol),
        _ratio_row("Z_RNI/Z_LO", z_rni, z_lo, float(gamma), tol),
        _ratio_row("Z_RNI^Path/Z_LO", z_rni_path, z_lo, path_model_factor(gamma), tol),
        _ratio_row("Z_NI/Z_RNI", z_ni, z_rni, float(gamma + 1), tol),
        _ratio_row("Z_NI/Z_RNI^Path", z_ni, z_rni_path, float(gamma + 1), tol),
        _ratio_row("Z_RNI/Z_RNI^Path", z_rni, z_rni_path, float(gamma), tol),
    ]
    if theta > 0:
        bounds.append(
            BoundCheck(
                "|A(S',theta*)|>=gamma",
                float(a),
                float(gamma),
                "PASS" if a >= gamma else "FAIL",
            )
        )
    else:
        bounds.append(BoundCheck("|A(S',theta*)|>=gamma", float(a), float(gamma), "NA"))
    bounds.append(
        BoundCheck(
            "|B(S'',theta*)|<gamma",
            float(b),
            float(gamma),
            "PASS" if b < gamma else "FAIL",
        )
    )
    bounds.append(
        _eq_row(
            "Z_NI==Z_LO (small Z_LO)",
            z_lo < val_x / (gamma + 1) - margin,
            z_ni,
            z_lo,
            tol,
        )
    )
    bounds.append(
        _eq_row("Z_RNI==Z_LO (Z_LO<theta*)", z_lo < theta - margin, z_rni, z_lo, tol)
    )
    bounds.append(_le_row("Z_NI<=Val(x*)", z_ni, val_x, tol))
    bounds.append(
        _eq_row(
            "Z_RNI==Z_LO (x* maximal)",
            abs(val_x - nominal) <= margin * (1.0 + nominal),
            z_rni,
            z_lo,
            tol,
        )
    )
    bounds.append(_le_row("Z_RNI<=Val(x*)-theta*", z_rni, val_x - theta, tol))

    return ApproxReport(
        nominal_max_flow=nominal,
        z_ni=z_ni,
        z_rni=z_rni,
        z_rni_path=z_rni_path,
        z_lo=z_lo,
        theta_star=theta,
        flow_value=val_x,
        s_prime=s_prime,
        s_dblprime=s_dblprime,
        a=a,
        b=b,
        big_l=big_l,
        bounds=tuple(bounds),
        partial=bool(skipped),
        skipped=tuple(skipped),
    )
