"""Scenarios, payoffs, mixed strategies, and the interdictor's best response.

A scenario removes exactly gamma arcs.  The arc-based payoff is the largest
flow re-routable inside the committed arc flow once the removed arcs are
gone; the path-based payoff is the committed path flow surviving removal
(a path dies if any of its arcs is removed).  Both are evaluated exactly.

Only this module knows how the interdictor's exact best response is found:
one way per payoff model, under one limit, scenario_limit.  Its error,
ScenarioLimitExceeded, is defined in graph, whose enumerate_paths counts
the path model's s-t paths against the same limit, and is re-exported
here.  In the arc model removal_candidates enumerates the scenarios or
the s-t cuts, whichever are fewer, on the weights scaled once to integers
over their common denominator (one max flow per scenario gives its payoff
and its kept arcs), and worst_removal is its first minimizer; the same max
flows score a mixed strategy's support in the arc certificate.  In the
path model worst_path_removals is a branch-and-bound search.  The solvers' rows and
certificates and the deterministic value all come from these.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

from .graph import (
    ArcFlow,
    Instance,
    Numeric,
    PathFlow,
    ScenarioLimitExceeded,
    _augment,
    _crossing,
    _scaled,
    as_fraction,
    iter_cuts,
    max_flow,
    resolve_capacities,
)

DEFAULT_SCENARIO_LIMIT = 20000


@dataclass(frozen=True)
class Scenario:
    """A set of exactly gamma removed arc ids, kept sorted."""

    removed: tuple[int, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.removed))
        if len(set(ordered)) != len(ordered):
            raise ValueError("scenario arcs must be distinct")
        object.__setattr__(self, "removed", ordered)

    @property
    def removed_set(self) -> frozenset[int]:
        return frozenset(self.removed)

    @classmethod
    def covering(cls, instance: Instance, arcs) -> "Scenario":
        """The given arcs (at most gamma of them), padded to exactly gamma
        with the lowest other arc ids."""
        chosen = list(arcs)
        for aid in instance.arc_ids():
            if len(chosen) >= instance.gamma:
                break
            if aid not in chosen:
                chosen.append(aid)
        return cls(tuple(chosen))


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over scenarios with finite support."""

    support: tuple[tuple[Scenario, float], ...]

    def __post_init__(self):
        seen = set()
        total = 0.0
        for scenario, prob in self.support:
            if scenario in seen:
                raise ValueError("duplicate scenario in support")
            seen.add(scenario)
            if prob < -1e-12:
                raise ValueError("negative probability")
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def normalized(cls, pairs) -> "MixedStrategy":
        """Merge duplicates, clip tiny negatives, rescale to total 1."""
        merged: dict[Scenario, float] = {}
        for scenario, prob in pairs:
            merged[scenario] = merged.get(scenario, 0.0) + float(prob)
        kept = {s: p for s, p in merged.items() if p > 1e-12}
        total = sum(kept.values())
        if total <= 0:
            raise ValueError("no probability mass")
        items = sorted(kept.items(), key=lambda item: item[0].removed)
        return cls(tuple((s, p / total) for s, p in items))

    @classmethod
    def degenerate(cls, scenario: Scenario) -> "MixedStrategy":
        return cls(((scenario, 1.0),))


def scenario_count(instance: Instance) -> int:
    return math.comb(instance.arc_count, instance.gamma)


def scenarios(
    instance: Instance, limit: int = DEFAULT_SCENARIO_LIMIT
) -> list[Scenario]:
    """All removal sets, lexicographic over sorted arc-id tuples."""
    count = scenario_count(instance)
    if count > limit:
        raise ScenarioLimitExceeded(
            f"{count} scenarios exceed the limit of {limit}"
        )
    ids = list(instance.arc_ids())
    return [Scenario(combo) for combo in itertools.combinations(ids, instance.gamma)]


def payoff_arc(
    instance: Instance, scenario: Scenario, weights: Mapping[int, Fraction]
) -> tuple[Fraction, ArcFlow]:
    """Largest flow routable within the arc weights (a committed flow's
    values, or the capacities; missing arcs weigh 0) once the scenario's
    arcs are removed, with a flow attaining it."""
    removed = scenario.removed_set
    return max_flow(
        instance, {aid: w for aid, w in weights.items() if aid not in removed}
    )


def payoff_path(instance: Instance, scenario: Scenario, flow: PathFlow) -> Fraction:
    """Committed path flow that still reaches the sink: each path counts
    with weight max(0, 1 - number of removed arcs on it)."""
    removed = scenario.removed_set
    total = Fraction(0)
    for path, amount in flow.entries:
        hits = sum(1 for aid in path if aid in removed)
        total += max(0, 1 - hits) * amount
    return total


def _payoff(instance, scenario, flow):
    if isinstance(flow, ArcFlow):
        return payoff_arc(instance, scenario, flow.values)[0]
    return payoff_path(instance, scenario, flow)


def removal_candidates(
    instance: Instance,
    weights: Mapping[int, Numeric],
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> Iterator[tuple[Fraction, Callable[[], tuple[Scenario, tuple[int, ...]]]]]:
    """The interdictor's responses to the arc weights, in a fixed order, as
    (payoff, response): response() gives the scenario and the arcs the
    payoff counts, and the least payoff is the exact best response.

    By max-flow/min-cut the least payoff_arc over the scenarios is the least,
    over s-t cuts, of the crossing weight minus its gamma largest arcs.  The
    fewer of the two is enumerated, the cuts on a tie; ScenarioLimitExceeded
    when even the fewer exceed the limit.  The weights are scaled to
    integers over their common denominator once.  A cut's scenario is
    Scenario.covering of its gamma heaviest arcs; a scenario's payoff and
    kept arcs, the min cut left after it, come from one max flow
    (_scenario_responses).
    """
    nscen, ncuts = scenario_count(instance), 1 << (instance.node_count - 2)
    if min(nscen, ncuts) > scenario_limit:
        raise ScenarioLimitExceeded(
            f"{nscen} scenarios and {ncuts} cuts exceed the limit of {scenario_limit}"
        )
    if ncuts <= nscen:
        w, d = _scaled(resolve_capacities(instance, weights))
        gamma = instance.gamma
        for crossing in iter_cuts(instance):
            ranked = sorted(crossing, key=lambda aid: (-w[aid], aid))

            def cut_response(ranked=ranked):
                return Scenario.covering(instance, ranked[:gamma]), tuple(ranked[gamma:])

            yield Fraction(sum(w[aid] for aid in ranked[gamma:]), d), cut_response
        return
    removals = scenarios(instance, limit=scenario_limit)
    yield from _scenario_responses(instance, weights, removals)


def _scenario_responses(instance, weights, removals):
    """Each scenario's payoff_arc within the arc weights, in order, as
    (payoff, response): one max flow on the weights scaled once to
    integers.  response() gives the scenario and its kept arcs, the
    flow's min cut minus the removed arcs."""
    w, d = _scaled(resolve_capacities(instance, weights))
    for scenario in removals:
        caps = list(w)
        for aid in scenario.removed:
            caps[aid] = 0
        value, _, s_side = _augment(instance, caps)

        def response(scenario=scenario, s_side=s_side):
            crossing = _crossing(instance, s_side)
            return scenario, tuple(a for a in crossing if a not in scenario.removed)

        yield Fraction(value, d), response


def worst_removal(
    instance: Instance,
    weights: Mapping[int, Numeric],
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> tuple[Fraction, Scenario]:
    """The interdictor's exact best response to the arc weights: the least
    payoff_arc over all scenarios, and a scenario attaining it (the first
    minimizer among removal_candidates)."""
    candidates = removal_candidates(instance, weights, scenario_limit)
    value, response = min(candidates, key=lambda candidate: candidate[0])
    return value, response()[0]


def adaptive_value(
    instance: Instance,
    flow: ArcFlow,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> Fraction:
    """Worst arc-based payoff of the committed flow over all scenarios."""
    return worst_removal(instance, flow.values, scenario_limit)[0]


def worst_path_removals(
    instance: Instance,
    entries: Iterable[tuple[tuple[int, ...], Numeric]],
    count: int = 1,
    below: Numeric = math.inf,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
) -> list[tuple[Numeric, Scenario]]:
    """The interdictor's exact best responses to a committed path flow of
    (path, amount) entries: up to count removals whose path payoff is below
    the threshold, least first, as (payoff, scenario); exact for Fractions.

    A branch-and-bound search (Land & Doig) over removal sets R.  The
    allowed arcs are ranked by their load, the surviving flow through them;
    a child adds the first of them that the removal hits and bans those
    ranked before it, so every leaf is a distinct scenario.  A node is
    pruned when its surviving flow minus its gamma - |R| largest loads
    cannot beat the threshold or the count-th best leaf so far.  Past
    scenario_limit leaves, ScenarioLimitExceeded: never while C(m, gamma)
    is within the limit.
    """
    found: list[tuple[Numeric, Scenario]] = []
    leaves = 0

    def cutoff():
        return below if len(found) < count else min(below, found[-1][0])

    def search(removed, banned, alive):
        nonlocal leaves
        flow = sum((amount for _, amount in alive), start=0)
        need = instance.gamma - len(removed)
        loads = {aid: 0 for aid in instance.arc_ids() if aid not in banned}
        for path, amount in alive:
            for aid in path - banned:
                loads[aid] += amount
        ranked = sorted(loads, key=lambda aid: (-loads[aid], aid))
        if flow - sum(loads[aid] for aid in ranked[:need]) >= cutoff():
            return
        if not need:
            if leaves == scenario_limit:
                raise ScenarioLimitExceeded(
                    f"path-model removals evaluated exceed the limit of "
                    f"{scenario_limit}"
                )
            leaves += 1
            bisect.insort(found, (flow, Scenario(removed)), key=lambda c: c[0])
            del found[count:]
            return
        # past this child too few allowed arcs are left to complete R
        for i, aid in enumerate(ranked[: len(ranked) - need + 1]):
            # at most the child's own bound, and growing with i
            if flow - sum(loads[a] for a in ranked[i : i + need]) >= cutoff():
                break
            search(
                removed + (aid,),
                banned | frozenset(ranked[: i + 1]),
                [(path, amount) for path, amount in alive if aid not in path],
            )

    search((), frozenset(), [(frozenset(p), a) for p, a in entries if a > 0])
    return found


def expected_payoff(
    instance: Instance,
    alpha: MixedStrategy,
    flow: Union[ArcFlow, PathFlow],
) -> Fraction:
    """Exact probability-weighted payoff over the support."""
    total = Fraction(0)
    for scenario, prob in alpha.support:
        total += as_fraction(prob) * _payoff(instance, scenario, flow)
    return total


def estimate_expected_payoff(
    instance: Instance,
    alpha: MixedStrategy,
    flow: Union[ArcFlow, PathFlow],
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of expected_payoff: (mean, standard error).

    Scenarios are drawn i.i.d. from alpha by inverse CDF over the support
    order, using Python's stdlib Mersenne Twister (`random.Random(seed)`),
    whose float stream is stable across platforms; runs are fully
    deterministic per seed.  Payoffs are evaluated once per support
    scenario.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    cumulative = []
    acc = 0.0
    for _, prob in alpha.support:
        acc += prob
        cumulative.append(acc)
    # each payoff is rounded to float once; the moments of the draws are
    # then exact, so identical draws give their own value and no error
    payoffs = [Fraction(float(_payoff(instance, s, flow))) for s, _ in alpha.support]
    rng = random.Random(seed)
    counts = [0] * len(payoffs)
    for _ in range(samples):
        u = rng.random()
        idx = 0
        while idx < len(cumulative) - 1 and u >= cumulative[idx]:
            idx += 1
        counts[idx] += 1
    mean = sum(c * p for c, p in zip(counts, payoffs)) / samples
    if samples == 1:
        return float(mean), 0.0
    var = sum(c * (p - mean) ** 2 for c, p in zip(counts, payoffs)) / (samples - 1)
    return float(mean), math.sqrt(var / samples)
