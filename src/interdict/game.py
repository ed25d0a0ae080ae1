"""Scenarios, payoffs, mixed strategies, and the interdictor's best response.

A scenario removes exactly gamma arcs.  The arc-based payoff is the largest
flow re-routable inside the committed arc flow once the removed arcs are
gone; the path-based payoff is the committed path flow surviving removal
(a path dies if any of its arcs is removed).  Both are evaluated exactly.

removal_candidates is the one enumeration of the interdictor's responses to
a set of arc weights: either the C(m, gamma) scenarios or the 2^(n-2) s-t
cuts, whichever are fewer among those within their limits.  worst_removal,
its first minimizer, is the exact best response, used on the capacities for
the deterministic value and on a committed flow for its adaptive value;
solvers.solve_rni draws its rows from the same enumeration.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Union

from .graph import (
    ArcFlow,
    Instance,
    PathFlow,
    as_fraction,
    cut_count,
    iter_cuts,
    max_flow,
)

DEFAULT_SCENARIO_LIMIT = 20000
DEFAULT_CUT_LIMIT = 4096  # node_count - 2 <= 12


class ScenarioLimitExceeded(Exception):
    """The scenario count puts exact enumeration out of desk-scale range."""


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
    weights: Mapping[int, Fraction],
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> Iterator[tuple[Fraction, Scenario, Optional[tuple[int, ...]]]]:
    """The interdictor's candidate responses to the arc weights, in a fixed
    order, as (payoff, scenario, kept); the least payoff is the exact best
    response.

    By max-flow/min-cut the least payoff_arc over all scenarios is, over
    all s-t cuts, the crossing weight minus its gamma largest arcs.
    Whichever of the scenarios and the cuts are fewer among those within
    their limits get enumerated, the cuts on a tie.  A cut yields the
    weight of its crossing arcs kept after removing the gamma heaviest,
    those kept arcs, and Scenario.covering of the removed ones; a scenario
    yields its payoff_arc, itself, and kept=None.
    """
    nscen, ncuts = scenario_count(instance), cut_count(instance)
    if ncuts <= cut_limit and (ncuts <= nscen or nscen > scenario_limit):
        gamma = instance.gamma
        for _, crossing in iter_cuts(instance):
            ranked = sorted(crossing, key=lambda aid: (-weights.get(aid, 0), aid))
            kept = tuple(ranked[gamma:])
            value = sum((weights.get(aid, 0) for aid in kept), start=Fraction(0))
            yield value, Scenario.covering(instance, ranked[:gamma]), kept
        return
    if nscen > scenario_limit:
        raise ScenarioLimitExceeded(
            f"{nscen} scenarios exceed the limit of {scenario_limit} and "
            f"{ncuts} cuts exceed the limit of {cut_limit}"
        )
    for scenario in scenarios(instance, limit=scenario_limit):
        yield payoff_arc(instance, scenario, weights)[0], scenario, None


def worst_removal(
    instance: Instance,
    weights: Mapping[int, Fraction],
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> tuple[Fraction, Scenario]:
    """The interdictor's exact best response to the arc weights: the least
    payoff_arc over all scenarios, and a scenario attaining it (the first
    minimizer among removal_candidates)."""
    candidates = removal_candidates(instance, weights, scenario_limit, cut_limit)
    value, scenario, _ = min(candidates, key=lambda candidate: candidate[0])
    return value, scenario


def adaptive_value(
    instance: Instance,
    flow: ArcFlow,
    scenario_limit: int = DEFAULT_SCENARIO_LIMIT,
    cut_limit: int = DEFAULT_CUT_LIMIT,
) -> Fraction:
    """Worst arc-based payoff of the committed flow over all scenarios."""
    return worst_removal(instance, flow.values, scenario_limit, cut_limit)[0]


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
