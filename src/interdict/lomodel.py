"""Parametric lower-bound model and the approximation/bounds report.

The model caps every arc flow at a common threshold theta and maximizes
flow value minus gamma * theta; its optimum lower-bounds every game value.
Its value at theta is the min-cut value under capacities min(u_e, theta)
minus gamma * theta, a concave piecewise-linear function whose
supergradients a min cut gives exactly.  Every cut this module reads comes
from one evaluator, _cut_at: graph.min_cut under u(probe theta), reported
at theta (the theta fields of CutReport are filled here only).  solve_lo
finds the largest maximizer theta* by an exact tangent search over min
cuts (no LP), which is what makes the two certificate cuts of lo_cuts
exist: a min cut whose crossing arcs at-or-above theta* number at least
gamma, and one whose strictly-above arcs number fewer than gamma.  lo_cuts
reads them off two min cuts at theta* -/+ an exact epsilon.  The RNI
solvers run the same search with Z_NI as its target, stopping as soon as
it decides whether the model reaches it: every probe value is at most
Z_LO, so one that equals Z_NI closes the game.

approx_report assembles all solver values, the cuts, and every ratio with
its guaranteed bound into one verdict table.  Where Z_LO = Z_NI it takes
both RNI solutions from the NI removal and the LO witness, with no second
solve, and its nominal max flow is the search's probe past the largest
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .game import DEFAULT_SCENARIO_LIMIT, ScenarioLimitExceeded
from .graph import (
    ArcFlow,
    CutReport,
    Instance,
    Numeric,
    PathLimitExceeded,
    as_fraction,
    decompose,
    max_flow,
    min_cut,
)
from .solvers import (
    DEFAULT_PATH_LIMIT,
    RniSolution,
    _closed,
    _rni_path_rows,
    _rni_rows,
    solve_ni,
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
    # the search's max flow under the capacities, when it made that probe
    _nominal: Optional[ArcFlow] = field(default=None, repr=False, compare=False)


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
    rni: Optional[RniSolution]  # None when skipped
    rni_path: Optional[RniSolution]  # None when skipped


def _capped(instance: Instance, theta: Fraction) -> dict[int, Fraction]:
    return {
        aid: min(instance.effective_capacity(aid), theta) for aid in instance.arc_ids()
    }


def lo_value_at(instance: Instance, theta: Numeric) -> Fraction:
    """Exact model value at a fixed threshold: the max flow under
    capacities min(u_e, theta), minus gamma * theta."""
    th = as_fraction(theta)
    if th < 0:
        raise ValueError("theta must be nonnegative")
    return max_flow(instance, _capped(instance, th))[0] - instance.gamma * th


def _cut_at(instance: Instance, probe_theta: Fraction, theta: Fraction) -> CutReport:
    """The min cut under u(probe_theta), reported at theta: its capacity
    under u and under u(theta), and its crossing arcs with theta <= u_e and
    theta < u_e."""
    cut = min_cut(instance, _capped(instance, probe_theta))
    caps = {aid: instance.effective_capacity(aid) for aid in cut.crossing}
    return replace(
        cut,
        capacity=sum(caps.values(), Fraction(0)),
        theta=theta,
        capacity_at_theta=sum((min(c, theta) for c in caps.values()), Fraction(0)),
        tight_at_or_below=frozenset(a for a in caps if theta <= caps[a]),
        strictly_below=frozenset(a for a in caps if theta < caps[a]),
    )


def _probe(
    instance: Instance, theta: Fraction
) -> tuple[Fraction, int, int, ArcFlow]:
    """Model value at theta and its right and left slopes, read off one min
    cut C under u(theta): |{e in C: u_e > theta}| - gamma and
    |{e in C: u_e >= theta}| - gamma.  Both are supergradients.  Last, the
    max flow under u(theta) that located C."""
    cut = _cut_at(instance, theta, theta)
    gamma = instance.gamma
    return (
        cut.capacity_at_theta - gamma * theta,
        len(cut.strictly_below) - gamma,
        len(cut.tight_at_or_below) - gamma,
        cut.flow,
    )


def _search(
    instance: Instance, target: Optional[Fraction] = None, start: Fraction = Fraction(0)
) -> tuple[Fraction, Fraction, ArcFlow, Optional[ArcFlow]]:
    """The exact tangent search for the model's largest maximizer theta*;
    with a target, it stops as soon as it decides whether the model value
    reaches the target.

    The model value f(theta) is concave and piecewise linear, and a min cut
    at theta gives a tangent line on each side.  The search keeps a point a
    whose right tangent rises (slope >= 0) and a point b whose left tangent
    falls (slope < 0), found by probing start, then 0 or one past the
    largest capacity for the one still missing, and then probes where the
    two tangents meet.  It stops at theta* when a probe reaches the
    tangents' value or its cut's right slope is negative and its left slope
    (at 0, none) is not; otherwise the probe replaces a or b.  Every step
    lowers the tangents' bound or moves b past a new line, so it ends after
    finitely many min cuts.

    A target comes with a start past which f stays below it.  For Z_NI
    that is the least capacity theta_0 in an NI minimizer S*: removing S*
    costs a max flow under u(theta) at most the sum over S* of
    min(u_e, theta), which is below gamma theta once theta > theta_0, and
    leaves at most Z_NI.  The search then stops at a probe whose value is
    the target, and decides that none reaches it once the tangents' bound
    falls below it or the probe at start rises to its right (f on
    [0, start] then stays at most f(start)).

    Returns the last probe's theta, value and max flow, and the max flow
    under the capacities when the probe past the largest capacity was made.
    """
    top = max(instance.effective_capacity(aid) for aid in instance.arc_ids()) + 1
    a = b = bound = nominal = None
    theta = start
    while True:
        value, right, left, flow = _probe(instance, theta)
        if theta == top:
            nominal = flow
        if value in (target, bound) or right < 0 and (left >= 0 or theta == 0):
            return theta, value, flow, nominal
        if right >= 0:
            if target is not None and theta == start:
                return theta, value, flow, nominal
            a, fa, ra = theta, value, right
        else:
            b, fb, lb = theta, value, left
        if a is None or b is None:
            probe = Fraction(0) if a is None else top
        else:
            probe = (fb - fa + a * ra - b * lb) / (ra - lb)
            bound = fa + (probe - a) * ra
            if target is not None and bound < target:
                return theta, value, flow, nominal
        theta = probe


def solve_lo(instance: Instance) -> LoSolution:
    """Maximize flow value minus gamma * theta over (flow, theta), taking
    the largest theta among optima, exactly, by the tangent search from 0
    (_search).  The witness flow is the max flow of its last probe, the one
    at theta*."""
    theta, value, flow, nominal = _search(instance)
    return LoSolution(
        value=value,
        theta_star=theta,
        flow=flow,
        flow_value=flow.value,
        _nominal=nominal,
    )


def lo_cuts(
    instance: Instance, solution: LoSolution
) -> tuple[CutReport, CutReport]:
    """The two certificate cuts at theta*: the min cut at theta* - eps (its
    at-or-above set must have >= gamma arcs; at theta* = 0 the cut at 0,
    unchecked) and the one at theta* + eps (strictly-above set < gamma),
    both reported at theta*.

    With D the LCM of the capacity denominators and m the arc count, every
    kink of the min-cut value is p / (D k) with k <= m, so distinct kinks
    lie at least 1 / (D m^2) apart and eps = 1 / (2 D m^2) puts each probe
    inside the linear piece next to theta*.  A probe cut that is not
    minimal at theta*, or a failed condition, raises InvariantViolation
    since it signals a theta*-maximality bug upstream.
    """
    theta = solution.theta_star
    m = instance.arc_count
    d = math.lcm(
        *(instance.effective_capacity(aid).denominator for aid in instance.arc_ids())
    )
    eps = Fraction(1, 2 * d * m * m)
    s_prime = _cut_at(instance, theta - eps if theta > 0 else theta, theta)
    s_dblprime = _cut_at(instance, theta + eps, theta)
    flow_value = solution.flow_value
    if not s_prime.capacity_at_theta == s_dblprime.capacity_at_theta == flow_value:
        raise InvariantViolation("a probe cut is not minimal at theta*")
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
    return _le_row(name, num / den, bound, tol)


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
    path_limit: int = DEFAULT_PATH_LIMIT,
) -> ApproxReport:
    """Solve every model that fits the limits and tabulate the value chain,
    the guaranteed ratio bounds, the certificate-cut conditions, and the
    conditional identities (premises checked with a 1e-9 margin).  Ratios
    with a vanishing denominator report NA, never infinity.  Solvers whose
    limits are exceeded are skipped and flagged (partial result); the RNI
    solutions are kept on the report for certification.  Where Z_LO = Z_NI
    both are the closed game's (the NI removal, with the LO witness flow or
    its decomposition) and no RNI solver runs; otherwise the RNI solvers'
    row generation runs without their closure test, already decided."""
    lo = solve_lo(instance)
    # the search's probe past the largest capacity is the nominal max flow
    nominal = float((lo._nominal or max_flow(instance)[1]).value)
    s_prime, s_dblprime = lo_cuts(instance, lo)
    a = len(s_prime.tight_at_or_below)
    b = len(s_dblprime.strictly_below)
    # the below-cut's arcs with u_e < theta*: the other a are capped at theta*
    big_l = float(s_prime.capacity_at_theta - a * lo.theta_star)
    skipped = []
    ni = rni = rni_path = None
    try:
        ni = solve_ni(instance, scenario_limit=scenario_limit)
    except ScenarioLimitExceeded:
        skipped.append("ni")
    if ni is not None and ni.value == lo.value:
        # Z_LO = Z_NI closes the game at the NI removal and the LO flow
        rni = _closed(ni.value, ni.witness_scenario, lo.flow)
        rni_path = _closed(ni.value, ni.witness_scenario, decompose(instance, lo.flow))
    else:
        try:
            rni = _rni_rows(instance, scenario_limit)
        except ScenarioLimitExceeded:
            skipped.append("rni")
        try:
            rni_path = _rni_path_rows(instance, path_limit, scenario_limit)
        except (ScenarioLimitExceeded, PathLimitExceeded):
            skipped.append("rni_path")

    z_ni = None if ni is None else float(ni.value)
    z_rni = None if rni is None else rni.value
    z_rni_path = None if rni_path is None else rni_path.value
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
    # lo_cuts has raised InvariantViolation if either cut condition fails
    verdict = "PASS" if theta > 0 else "NA"  # at theta* = 0 S' is unchecked
    bounds.append(BoundCheck("|A(S',theta*)|>=gamma", float(a), float(gamma), verdict))
    bounds.append(BoundCheck("|B(S'',theta*)|<gamma", float(b), float(gamma), "PASS"))
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
        rni=rni,
        rni_path=rni_path,
    )
