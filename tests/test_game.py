from fractions import Fraction

import pytest

from interdict.graph import Arc, ArcFlow, Instance, decompose, max_flow, min_cut
from interdict.game import (
    MixedStrategy,
    Scenario,
    ScenarioLimitExceeded,
    adaptive_value,
    estimate_expected_payoff,
    expected_payoff,
    payoff_arc,
    payoff_path,
    removal_candidates,
    scenario_count,
    scenarios,
    worst_path_removals,
)
from interdict.instances import fig1, fig2a, fig2b, random_instance
from interdict.solvers import solve_rni, solve_rni_path
from oracles import (
    adaptive_by_cuts,
    adaptive_by_scenarios,
    worst_path_payoff_by_scenarios,
)


def saturating_flow(instance):
    return max_flow(instance)[1]


def balanced_fig_flow(instance, k):
    """fig2a-style flow: every unit arc full, downstream arcs loaded evenly."""
    downstream = [aid for aid in instance.arc_ids() if instance.arc(aid).tail != 1]
    share = Fraction(k, len(downstream))
    values = {aid: Fraction(1) for aid in instance.arc_ids() if instance.arc(aid).tail == 1}
    values.update({aid: share for aid in downstream})
    return ArcFlow.from_values(instance, values)


def chain_instance(caps, gamma=1):
    """Single path s -> ... -> t with the given arc capacities."""
    n = len(caps) + 1
    arcs = tuple(Arc(i, i + 1, Fraction(c)) for i, c in enumerate(caps, start=1))
    return Instance(n, 1, n, arcs, gamma)


class TestScenarios:
    def test_three_arcs_gamma_two(self):
        inst = chain_instance([1, 1, 1], gamma=2)
        assert [s.removed for s in scenarios(inst)] == [(1, 2), (1, 3), (2, 3)]

    def test_four_singletons(self):
        inst = fig2a(2, 1)
        assert [s.removed for s in scenarios(inst)] == [(1,), (2,), (3,), (4,)]

    def test_fig1_count(self):
        assert len(scenarios(fig1(12, 2))) == 120

    def test_limit(self):
        with pytest.raises(ScenarioLimitExceeded):
            scenarios(fig1(12, 2), limit=119)

    def test_scenario_sorts_and_rejects_duplicates(self):
        assert Scenario((3, 1)).removed == (1, 3)
        with pytest.raises(ValueError):
            Scenario((2, 2))


class TestPayoffArc:
    def test_fig2a_k2_losing_one_unbounded_arc(self):
        inst = fig2a(2, 1)
        x = balanced_fig_flow(inst, 2)
        assert payoff_arc(inst, Scenario((3,)), x.values)[0] == 1

    def test_removing_unused_arc_keeps_value(self):
        inst = fig2a(2, 1)
        x = ArcFlow.from_values(inst, {1: 1, 3: 1})  # one unit on one route
        assert payoff_arc(inst, Scenario((2,)), x.values)[0] == x.value == 1

    def test_single_path_cut_to_zero(self):
        inst = chain_instance([2, 2, 2])
        x = saturating_flow(inst)
        value, survivor = payoff_arc(inst, Scenario((2,)), x.values)
        assert value == survivor.value == 0


class TestPayoffPath:
    def test_fig2a_k2_one_path_killed(self):
        inst = fig2a(2, 1)
        pf = decompose(inst, saturating_flow(inst))
        dead_arc = pf.entries[0][0][0]
        assert payoff_path(inst, Scenario((dead_arc,)), pf) == 1

    def test_disjoint_scenario_keeps_value(self):
        inst = fig2a(6, 2)
        pf = decompose(inst, saturating_flow(inst))
        used = {aid for path, _ in pf.entries for aid in path}
        unused = sorted(set(inst.arc_ids()) - used)[:2]
        assert payoff_path(inst, Scenario(tuple(unused)), pf) == pf.value

    def test_double_hit_counts_path_once(self):
        # the per-path weight clamps at zero, not -1
        inst = chain_instance([3, 3, 3], gamma=2)
        pf = decompose(inst, saturating_flow(inst))
        assert pf.value == 3
        assert payoff_path(inst, Scenario((1, 3)), pf) == 0


class TestAdaptiveValue:
    def test_fig2a_k2_saturating(self):
        inst = fig2a(2, 1)
        x = balanced_fig_flow(inst, 2)
        assert adaptive_value(inst, x) == 1

    def test_zero_flow(self):
        inst = fig2a(2, 1)
        assert adaptive_value(inst, ArcFlow.from_values(inst, {})) == 0

    def test_fig1_witness_flow(self):
        # route 18 with at most 6 per downstream arc
        inst = fig1(12, 2)
        values = {aid: Fraction(1) for aid in range(1, 13)}
        values[13] = Fraction(6)  # the 3K/2 arc, capped at 6
        for aid in (14, 15, 16):
            values[aid] = Fraction(6)
        x = ArcFlow.from_values(inst, values)
        assert x.value == 18
        assert adaptive_value(inst, x) == 6

    def test_limit_propagates(self):
        inst = fig1(12, 2)  # 120 scenarios, 2 cuts
        with pytest.raises(ScenarioLimitExceeded, match="120 scenarios.*2 cuts"):
            adaptive_value(inst, saturating_flow(inst), scenario_limit=1)


class TestAdaptiveValueByCuts:
    def test_single_cut_drops_largest(self):
        inst = Instance(2, 1, 2, (Arc(1, 2, Fraction(3)), Arc(1, 2, Fraction(1))), 1)
        x = saturating_flow(inst)
        assert adaptive_by_cuts(inst, x) == 1

    def test_fig2a_k2(self):
        inst = fig2a(2, 1)
        assert adaptive_by_cuts(inst, balanced_fig_flow(inst, 2)) == 1

    def test_gamma_covers_cut(self):
        inst = chain_instance([5, 5], gamma=2)
        assert adaptive_by_cuts(inst, saturating_flow(inst)) == 0

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_matches_enumeration(self, seed, gamma):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=gamma, seed=seed)
        x = saturating_flow(inst)
        assert adaptive_by_scenarios(inst, x) == adaptive_by_cuts(inst, x)
        assert adaptive_value(inst, x) == adaptive_by_cuts(inst, x)


def rni_witness_case(name):
    """The instance of one case; its shape pins the enumeration route."""
    if name == "chain":
        # 16 nodes: 5 unit arcs, then 14 links of 3 parallel arcs; gamma = 2
        # gives 1,081 scenarios and 16,384 cuts
        links = [(1,) * 5] + [(v % 4 + 3, v % 3 + 3, v % 5 + 3) for v in range(2, 16)]
        arcs = tuple(Arc(v, v + 1, Fraction(c)) for v, cs in enumerate(links, 1) for c in cs)
        return Instance(16, 1, 16, arcs, 2)
    # 4 cuts against 1,378 and 286 scenarios
    return fig2b(48, 2) if name == "fig2b_48_2" else fig2b(7, 3)


class TestRemovalCandidates:
    @pytest.mark.parametrize("name", ["chain", "fig2b_48_2", "fig2b_7_3"])
    def test_float_weights_of_an_rni_witness(self, name):
        inst = rni_witness_case(name)
        by_scenarios = scenario_count(inst) < 1 << (inst.node_count - 2)
        witness = solve_rni(inst).flow_witness
        # floats, as solve_rni scores its rows
        weights = {aid: float(x) for aid, x in witness.values.items()}
        candidates = list(removal_candidates(inst, weights))
        assert len(candidates) == (scenario_count(inst) if by_scenarios else 4)
        least = min(payoff for payoff, _ in candidates)
        for payoff, response in candidates:
            scenario, kept = response()
            exact = payoff_arc(inst, scenario, weights)[0]
            assert type(payoff) is Fraction
            if by_scenarios:
                assert payoff == exact
                removed = scenario.removed_set
                survivors = {a: w for a, w in weights.items() if a not in removed}
                crossing = min_cut(inst, survivors).crossing
                assert kept == tuple(a for a in crossing if a not in removed)
            else:
                # a cut's payoff is its kept weight, which bounds the max flow
                # left after its scenario and meets it at the least payoff
                assert payoff == sum(Fraction(weights.get(a, 0)) for a in kept)
                assert payoff >= exact and (payoff > least or payoff == exact)
        assert least == adaptive_by_scenarios(inst, witness)
        assert least == adaptive_by_cuts(inst, witness)


class TestWorstPathRemovals:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_matches_enumeration(self, seed, gamma):
        nodes = 4 + seed % 6
        inst = random_instance(nodes, 2 * nodes, 7, gamma, 800 + seed)
        decomposed = decompose(inst, max_flow(inst)[1])
        witness = solve_rni_path(inst).flow_witness  # Fraction(float) amounts
        for flow in (decomposed, witness):
            best = worst_path_payoff_by_scenarios(inst, flow)
            # its leaves are distinct scenarios, so C(m, gamma) is never refused
            [(value, scenario)] = worst_path_removals(
                inst, flow.entries, scenario_limit=scenario_count(inst)
            )
            assert value == best == payoff_path(inst, scenario, flow)
            assert worst_path_removals(inst, flow.entries, 3, below=best) == []
            found = worst_path_removals(inst, flow.entries, 3, below=flow.value + 1)
            assert found[0][0] == best
            assert [v for v, _ in found] == sorted(v for v, _ in found)
            assert len({s for _, s in found}) == len(found) <= 3
            for v, s in found:
                assert v == payoff_path(inst, s, flow) <= flow.value


class TestExpectedPayoff:
    def test_uniform_over_two(self):
        inst = fig2a(2, 1)
        x = balanced_fig_flow(inst, 2)
        alpha = MixedStrategy(((Scenario((3,)), 0.5), (Scenario((4,)), 0.5)))
        assert expected_payoff(inst, alpha, x) == 1

    def test_degenerate(self):
        inst = fig2a(2, 1)
        x = balanced_fig_flow(inst, 2)
        alpha = MixedStrategy.degenerate(Scenario((1,)))
        value, _ = payoff_arc(inst, Scenario((1,)), x.values)
        assert expected_payoff(inst, alpha, x) == value

    def test_linear_in_alpha(self):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=2, seed=5)
        x = saturating_flow(inst)
        scen = scenarios(inst)
        a1 = MixedStrategy(((scen[0], 0.5), (scen[1], 0.5)))
        a2 = MixedStrategy(((scen[2], 1.0),))
        lam = Fraction(3, 10)
        blend = MixedStrategy.normalized(
            [(scen[0], lam * Fraction(1, 2)), (scen[1], lam * Fraction(1, 2)),
             (scen[2], 1 - lam)]
        )
        lhs = expected_payoff(inst, blend, x)
        rhs = lam * expected_payoff(inst, a1, x) + (1 - lam) * expected_payoff(
            inst, a2, x
        )
        assert abs(lhs - rhs) < Fraction(1, 10**9)

    def test_path_flow_dispatch(self):
        inst = fig2a(2, 1)
        pf = decompose(inst, saturating_flow(inst))
        alpha = MixedStrategy(((Scenario((3,)), 0.5), (Scenario((4,)), 0.5)))
        assert expected_payoff(inst, alpha, pf) == 1


class TestPayoffOrdering:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("gamma", [1, 2])
    def test_path_payoff_never_exceeds_arc_payoff(self, seed, gamma):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=gamma, seed=600 + seed)
        _, x = max_flow(inst)
        pf = decompose(inst, x)
        for scenario in scenarios(inst):
            g = payoff_path(inst, scenario, pf)
            f, _ = payoff_arc(inst, scenario, x.values)
            assert 0 <= g <= f <= x.value


class TestMixedStrategy:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: MixedStrategy(((Scenario((1,)), 0.5), (Scenario((1,)), 0.5))),
            lambda: MixedStrategy(((Scenario((1,)), -0.5), (Scenario((2,)), 1.5))),
            lambda: MixedStrategy.normalized([(Scenario((1,)), 0.0)]),
            lambda: estimate_expected_payoff(
                fig2a(2, 1), MixedStrategy.degenerate(Scenario((1,))),
                max_flow(fig2a(2, 1))[1], samples=0, seed=0,
            ),
        ],
        ids=["duplicate-scenario", "negative-probability", "no-mass", "zero-samples"],
    )
    def test_invalid_input_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            MixedStrategy(((Scenario((1,)), 0.5),))

    def test_normalized_merges_and_rescales(self):
        s = Scenario((1,))
        t = Scenario((2,))
        alpha = MixedStrategy.normalized([(s, 0.4), (t, 0.4), (s, 0.4)])
        probs = dict((sc.removed, p) for sc, p in alpha.support)
        assert probs[(1,)] == pytest.approx(2 / 3)
        assert probs[(2,)] == pytest.approx(1 / 3)


class TestMonteCarlo:
    def test_degenerate_alpha_exact(self):
        inst = fig2a(2, 1)
        x = balanced_fig_flow(inst, 2)
        alpha = MixedStrategy.degenerate(Scenario((3,)))
        mean, se = estimate_expected_payoff(inst, alpha, x, samples=100, seed=0)
        assert mean == pytest.approx(1.0)
        assert se == 0.0

    def test_constant_payoffs_zero_error(self):
        inst = fig2a(2, 1)
        alpha = MixedStrategy(
            ((Scenario((1,)), 0.25), (Scenario((2,)), 0.25),
             (Scenario((3,)), 0.25), (Scenario((4,)), 0.25))
        )
        # a float sum of 10,000 draws of 0.9999999999999999 drifts below it
        for scale, samples in ((1, 500), (Fraction(0.9999999999999999), 10_000)):
            values = balanced_fig_flow(inst, 2).values
            x = ArcFlow.from_values(inst, {aid: scale * v for aid, v in values.items()})
            mean, se = estimate_expected_payoff(inst, alpha, x, samples=samples, seed=1)
            assert mean == float(scale)
            assert se == 0.0

    def test_within_four_standard_errors(self):
        inst = fig2a(2, 1)
        x = ArcFlow.from_values(inst, {1: 1, 2: 1, 3: 2})  # asymmetric routing
        alpha = MixedStrategy(((Scenario((3,)), 0.5), (Scenario((4,)), 0.5)))
        exact = float(expected_payoff(inst, alpha, x))
        mean, se = estimate_expected_payoff(inst, alpha, x, samples=10_000, seed=123)
        assert se > 0
        assert abs(mean - exact) <= 4 * se

    def test_deterministic_per_seed(self):
        inst = fig2a(2, 1)
        x = saturating_flow(inst)
        alpha = MixedStrategy(((Scenario((1,)), 0.5), (Scenario((3,)), 0.5)))
        first = estimate_expected_payoff(inst, alpha, x, samples=1000, seed=42)
        second = estimate_expected_payoff(inst, alpha, x, samples=1000, seed=42)
        assert first == second

    def test_unbiased_over_pooled_seeds(self):
        inst = fig2a(3, 1)
        x = ArcFlow.from_values(inst, {1: 1, 2: 1, 3: 1, 4: 2, 5: 1})
        alpha = MixedStrategy(((Scenario((4,)), 0.5), (Scenario((5,)), 0.5)))
        exact = float(expected_payoff(inst, alpha, x))
        means = []
        ses = []
        for seed in range(50):
            mean, se = estimate_expected_payoff(inst, alpha, x, samples=400, seed=seed)
            means.append(mean)
            ses.append(se)
        pooled_mean = sum(means) / len(means)
        pooled_se = (sum(se**2 for se in ses) / len(ses) ** 2) ** 0.5
        assert abs(pooled_mean - exact) < 4 * pooled_se
