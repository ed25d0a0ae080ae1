import random
from fractions import Fraction

import pytest

from interdict import solvers
from interdict.graph import (
    Arc,
    ArcFlow,
    Instance,
    PathFlow,
    enumerate_paths,
    max_flow,
    validate_flow,
)
from interdict.game import (
    MixedStrategy,
    Scenario,
    ScenarioLimitExceeded,
    adaptive_value,
    expected_payoff,
    scenarios,
    worst_removal,
)
from interdict.instances import fig1, fig2a, fig2b, random_instance
from interdict.linopt import _Simplex, solve_lp
from interdict.lomodel import solve_lo
from interdict.solvers import (
    GammaMismatch,
    best_response_arc,
    best_response_path,
    certify,
    certify_gamma1,
    gamma1_residuals,
    gamma1_strategy,
    solve_ni,
    solve_rni,
    solve_rni_gamma1,
    solve_rni_path,
)
from oracles import (
    adaptive_by_cuts,
    adaptive_by_scenarios,
    best_response_by_block_lp,
    fraction_min_cut,
    rni_by_scenario_lp,
    rni_path_by_scenario_lp,
    worst_path_payoff_by_scenarios,
)
from test_acceptance import property_corpus


def single_arc(cap=5):
    return Instance(2, 1, 2, (Arc(1, 2, Fraction(cap)),), 1)


def best_response_case(case):
    """An instance and a mixed strategy against it: for an integer case, a
    seeded random DAG (gamma 1-3) and 1-12 of its scenarios with random
    weights; otherwise a solver's strategy."""
    if case == "fig2a_100_3-solve_rni":
        inst = fig2a(100, 3)
        return inst, solve_rni(inst).strategy
    if case == "gamma1-random_6_9_7_1_401":
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=1, seed=401)
        return inst, gamma1_strategy(solve_rni_gamma1(inst))
    rng = random.Random(case)
    inst = random_instance(
        nodes=rng.randint(4, 7),
        arcs=rng.randint(8, 12),
        cap_max=rng.randint(2, 9),
        gamma=1 + case % 3,
        seed=rng.randrange(2**31),
    )
    removals = scenarios(inst)
    chosen = rng.sample(removals, min(rng.randint(1, 12), len(removals)))
    return inst, MixedStrategy.normalized((s, rng.random() + 0.01) for s in chosen)


def chain(caps, gamma=1):
    n = len(caps) + 1
    return Instance(
        n, 1, n, tuple(Arc(i, i + 1, Fraction(c)) for i, c in enumerate(caps, 1)), gamma
    )


def fat_chain():
    """14 links of 4 parallel arcs, gamma = 3: C(56, 3) = 27,720 scenarios
    and 2^13 = 8,192 cuts, so only the cuts fit the limit."""
    rng = random.Random(3)
    links = [[Fraction(rng.randint(1, 9)) for _ in range(4)] for _ in range(14)]
    arcs = tuple(Arc(v, v + 1, c) for v, caps in enumerate(links, 1) for c in caps)
    return Instance(15, 1, 15, arcs, 3), links


def parallel_units(count=3):
    """count parallel unit arcs s -> t, gamma = 1: Z_NI = Z_LO = count - 1."""
    return Instance(2, 1, 2, tuple(Arc(1, 2, Fraction(1)) for _ in range(count)), 1)


def capacities(inst):
    return {aid: inst.effective_capacity(aid) for aid in inst.arc_ids()}


class TestSolveNi:
    def test_fig2a(self):
        sol = solve_ni(fig2a(6, 2))
        assert sol.value == 4
        assert set(sol.witness_scenario.removed) <= set(range(1, 7))
        assert max_flow(
            fig2a(6, 2),
            {aid: 0 if aid in sol.witness_scenario.removed_set
             else fig2a(6, 2).effective_capacity(aid) for aid in range(1, 10)},
        )[0] == 4

    def test_fig1(self):
        sol = solve_ni(fig1(12, 2))
        assert sol.value == 11
        assert 13 in sol.witness_scenario.removed  # the 3K/2 arc must go

    def test_gamma_equals_arc_count(self):
        inst = chain([2, 3], gamma=2)
        assert solve_ni(inst).value == 0

    def test_cut_method_matches_enumeration(self):
        for seed in range(10):
            inst = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=seed)
            sol = solve_ni(inst)
            caps = ArcFlow.from_values(
                inst, {aid: inst.effective_capacity(aid) for aid in inst.arc_ids()}
            )
            assert sol.value == adaptive_by_scenarios(inst, caps)
            assert sol.value == adaptive_by_cuts(inst, caps)
            # the witness actually attains the value
            post, _ = max_flow(
                inst,
                {aid: 0 if aid in sol.witness_scenario.removed_set
                 else inst.effective_capacity(aid) for aid in inst.arc_ids()},
            )
            assert post == sol.value

    def test_long_chain_enumerates_scenarios(self):
        inst = chain(range(1, 16))  # 15 scenarios, fewer than its 2^14 cuts
        sol = solve_ni(inst)
        assert sol.value == 0 and sol.witness_scenario.removed == (1,)
        x = max_flow(inst)[1]
        assert adaptive_value(inst, x) == 0
        with pytest.raises(ScenarioLimitExceeded, match="15 scenarios.*16384 cuts"):
            solve_ni(inst, scenario_limit=14)

    def test_fat_chain_enumerates_cuts(self):
        inst, links = fat_chain()
        least_min = min(min(caps) for caps in links)
        assert solve_ni(inst).value == least_min

    def test_fig2b_enumerates_cuts_under_tiny_scenario_limit(self):
        inst = fig2b(48, 2)  # 1,378 scenarios, 4 cuts
        assert solve_ni(inst, scenario_limit=10).value == 47
        sol = solve_rni(inst)
        worst = adaptive_value(inst, sol.flow_witness, scenario_limit=10)
        assert float(worst) == pytest.approx(sol.value, abs=1e-6)
        assert certify(inst, sol, kind="arc", scenario_limit=10).passed

    def test_cut_method_beyond_enumeration_limits(self):
        inst = fig2a(100, 3)  # C(104, 3) scenarios
        sol = solve_ni(inst)
        assert sol.value == 97

    def test_arc_permutation_invariance(self):
        inst = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=5)
        order = list(range(len(inst.arcs)))
        random.Random(0).shuffle(order)
        permuted = Instance(
            inst.node_count,
            inst.source,
            inst.sink,
            tuple(inst.arcs[i] for i in order),
            inst.gamma,
        )
        assert solve_ni(inst).value == solve_ni(permuted).value


class TestSolveRni:
    def test_fig2a_both_methods(self):
        inst = fig2a(6, 2)
        sol = solve_rni(inst)
        assert sol.value == pytest.approx(2.0, abs=1e-7)
        assert certify(inst, sol, kind="arc").passed

    def test_fig2a_strategy_is_uniform_over_unbounded_pairs(self):
        # symmetry forces the unique optimum here
        sol = solve_rni(fig2a(6, 2))
        probs = {s.removed: p for s, p in sol.strategy.support}
        assert set(probs) == {(7, 8), (7, 9), (8, 9)}
        for p in probs.values():
            assert p == pytest.approx(1 / 3, abs=1e-6)

    def test_fig1(self):
        inst = fig1(12, 2)
        sol = solve_rni(inst)
        assert sol.value == pytest.approx(10.0, abs=1e-6)
        assert certify(inst, sol, kind="arc").passed

    def test_single_arc(self):
        sol = solve_rni(single_arc(5))
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.strategy.support[0][0].removed == (1,)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_methods_agree_on_random_instances(self, seed, gamma):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=gamma, seed=300 + seed)
        arc, path = solve_rni(inst), solve_rni_path(inst)
        scale = 1e-6 * (1 + abs(arc.value))
        assert arc.value == pytest.approx(rni_by_scenario_lp(inst), abs=scale)
        assert path.value == pytest.approx(rni_path_by_scenario_lp(inst), abs=scale)
        assert certify(inst, arc, kind="arc").passed
        assert certify(inst, path, kind="path").passed


class TestSolveRniPath:
    def test_fig1(self):
        inst = fig1(12, 2)
        sol = solve_rni_path(inst)
        assert sol.value == pytest.approx(8.0, abs=1e-6)
        assert certify(inst, sol, kind="path").passed

    def test_fig2a(self):
        inst = fig2a(6, 2)
        sol = solve_rni_path(inst)
        assert sol.value == pytest.approx(2.0, abs=1e-6)
        assert certify(inst, sol, kind="path").passed

    def test_single_path_chain(self):
        sol = solve_rni_path(chain([2, 2, 2]))
        assert sol.value == pytest.approx(0.0, abs=1e-9)

    def test_paths_count_against_the_scenario_limit(self):
        # an open game (Z_LO = 6 < Z_NI = 11) with 2 cuts and 39 s-t paths
        inst = fig1(12, 2)
        sol = solve_rni_path(inst, scenario_limit=39)
        assert sol.value == pytest.approx(8.0, abs=1e-9)
        assert certify(inst, sol, kind="path", scenario_limit=39).passed
        assert len(sol.strategy.support) > 1  # mixed: its best response is an LP
        with pytest.raises(ScenarioLimitExceeded, match="s-t paths"):
            solve_rni_path(inst, scenario_limit=38)
        with pytest.raises(ScenarioLimitExceeded, match="s-t paths"):
            best_response_path(inst, sol.strategy, scenario_limit=38)
        with pytest.raises(ScenarioLimitExceeded, match="s-t paths"):
            certify(inst, sol, kind="path", scenario_limit=38)

    def test_witness_is_feasible_path_flow(self):
        inst = fig2b(12, 2)
        sol = solve_rni_path(inst)
        loads = sol.flow_witness.arc_loads()
        for aid, load in loads.items():
            assert float(load) <= float(inst.effective_capacity(aid)) + 1e-6


class TestGamma1:
    def test_fig2a_k3(self):
        inst = fig2a(3, 1)
        sol = solve_rni_gamma1(inst)
        assert sol.value == pytest.approx(1.5, abs=1e-7)
        assert sol.alpha[4] == pytest.approx(0.5, abs=1e-6)
        assert sol.alpha[5] == pytest.approx(0.5, abs=1e-6)
        res = gamma1_residuals(inst, sol)
        assert max(res.values()) <= 1e-7

    def test_single_arc(self):
        sol = solve_rni_gamma1(single_arc(5))
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.alpha[1] == pytest.approx(1.0)

    def test_two_parallel_unit_arcs_matches_grid_oracle(self):
        inst = Instance(2, 1, 2, (Arc(1, 2, Fraction(1)), Arc(1, 2, Fraction(1))), 1)
        sol = solve_rni_gamma1(inst)
        # oracle: sweep alpha over the 1-simplex; the best response to
        # (a, 1-a) routes each arc fully, paying (1-a) + a
        oracle = min(
            (1 - a) * 1 + a * 1 for a in [i / 100 for i in range(101)]
        )
        assert sol.value == pytest.approx(oracle, abs=1e-7) == pytest.approx(1.0)

    def test_gamma_mismatch(self):
        with pytest.raises(GammaMismatch):
            solve_rni_gamma1(fig2a(6, 2))

    def test_certificate(self):
        inst = fig2a(4, 1)
        sol = solve_rni_gamma1(inst)
        assert certify_gamma1(inst, sol).passed

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_both_game_solvers(self, seed):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=1, seed=400 + seed)
        g1 = solve_rni_gamma1(inst)
        arc = solve_rni(inst)
        path = solve_rni_path(inst)
        scale = 1 + abs(g1.value)
        assert abs(g1.value - arc.value) <= 1e-6 * scale
        assert abs(g1.value - path.value) <= 1e-6 * scale
        # the arc rows' duals are the flow side of the saddle
        assert validate_flow(inst, g1.witness).ok
        assert abs(float(adaptive_value(inst, g1.witness)) - g1.value) <= 1e-6 * scale
        assert certify_gamma1(inst, g1).passed


class TestBestResponses:
    def test_degenerate_alpha_equals_post_removal_max_flow(self):
        inst = fig2a(6, 2)
        mu = Scenario((1, 7))
        value, _ = best_response_arc(inst, MixedStrategy.degenerate(mu))
        removed = mu.removed_set
        expected, _ = max_flow(
            inst,
            {aid: 0 if aid in removed else inst.effective_capacity(aid)
             for aid in inst.arc_ids()},
        )
        assert value == pytest.approx(float(expected))

    def test_fig2a_k2_uniform_over_unbounded(self):
        inst = fig2a(2, 1)
        alpha = MixedStrategy(((Scenario((3,)), 0.5), (Scenario((4,)), 0.5)))
        value, flow = best_response_arc(inst, alpha)
        assert value == pytest.approx(1.0, abs=1e-7)
        assert expected_payoff(inst, alpha, flow) == pytest.approx(1.0, abs=1e-7)

    def test_certificate_replay_arc(self):
        inst = fig1(12, 2)
        sol = solve_rni(inst)
        value, _ = best_response_arc(inst, sol.strategy)
        assert value == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize(
        "case", [*range(120), "fig2a_100_3-solve_rni", "gamma1-random_6_9_7_1_401"]
    )
    def test_arc_matches_block_lp(self, case):
        inst, alpha = best_response_case(case)
        value, witness = best_response_arc(inst, alpha)
        oracle, _ = best_response_by_block_lp(inst, alpha)
        tol = 1e-9 * (1 + abs(value))
        assert abs(value - oracle) <= tol
        assert validate_flow(inst, witness).ok
        assert expected_payoff(inst, alpha, witness) >= value - tol

    def test_arc_certificate_lps_are_no_wider_than_the_master(self, monkeypatch):
        # the master is the arc flow plus one column per support scenario
        inst = fig2a(100, 3)
        sol = solve_rni(inst)
        widths = []

        class Recording(_Simplex):
            def solve(self):
                widths.append(self.problem.num_vars)
                return super().solve()

        monkeypatch.setattr(solvers, "_Simplex", Recording)
        assert certify(inst, sol, kind="arc").passed
        assert widths
        assert max(widths) <= inst.arc_count + len(sol.strategy.support) == 108

    def test_path_degenerate_uses_post_removal_graph(self):
        inst = fig2a(6, 2)
        mu = Scenario((7, 8))
        value, _ = best_response_path(inst, MixedStrategy.degenerate(mu))
        assert value == pytest.approx(6.0, abs=1e-7)  # one unbounded arc left

    def test_path_uniform_fig2a_k2(self):
        inst = fig2a(2, 1)
        alpha = MixedStrategy(((Scenario((3,)), 0.5), (Scenario((4,)), 0.5)))
        value, _ = best_response_path(inst, alpha)
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_certificate_replay_path(self):
        inst = fig1(12, 2)
        sol = solve_rni_path(inst)
        value, _ = best_response_path(inst, sol.strategy)
        assert value == pytest.approx(8.0, abs=1e-6)


class TestCertify:
    def test_pass_on_solver_output(self):
        inst = fig2a(6, 2)
        assert certify(inst, solve_rni(inst), kind="arc").passed
        assert certify(inst, solve_rni_path(inst), kind="path").passed

    @pytest.mark.parametrize(
        "solve, inst, kind, value",
        [
            # 276 scenarios and 1,024 cuts, both within their limits
            (solve_rni, random_instance(12, 24, 10, 2, 5), "arc", 2.0),
            # 2,024 scenarios, 80 paths
            (solve_rni_path, fig2a(20, 3), "path", 5.0),
            # 182,104 scenarios, over the limit; 400 paths
            (solve_rni_path, fig2a(100, 3), "path", 25.0),
        ],
        ids=[
            "rni-random_12_24_10_2_5",
            "rni_path-fig2a_20_3",
            "rni_path-fig2a_100_3",
        ],
    )
    def test_pass_on_larger_instances(self, solve, inst, kind, value):
        sol = solve(inst)
        assert sol.value == pytest.approx(value, abs=1e-6)
        assert certify(inst, sol, kind=kind).passed

    def test_perturbed_strategy_fails(self):
        inst = fig2a(6, 2)
        sol = solve_rni(inst)
        dominated = Scenario((1, 2))  # wastes removals on two unit arcs
        pairs = [(s, 0.8 * p) for s, p in sol.strategy.support]
        pairs.append((dominated, 0.2))
        worse = type(sol)(
            value=sol.value,
            strategy=MixedStrategy.normalized(pairs),
            flow_witness=sol.flow_witness,
        )
        report = certify(inst, worse, kind="arc")
        assert not report.passed
        assert report.adversary_gap > 0.1

    def test_infeasible_witness_fails(self):
        # fig2a(6,2): Z_RNI = 2; 2 on each unit arc is over capacity, and
        # both gaps of this wrong value 4 are 0
        inst = fig2a(6, 2)
        loads = {**dict.fromkeys(range(1, 7), 2), 7: 4, 8: 4, 9: 4}
        strategy = MixedStrategy.degenerate(Scenario((1, 2)))
        wrong = solvers.RniSolution(4.0, strategy, ArcFlow.from_values(inst, loads))
        report = certify(inst, wrong, kind="arc")
        assert report.flow_gap == report.adversary_gap == 0
        assert not report.passed

    @pytest.mark.parametrize(
        "removed, kind, witness",
        [
            ((7, 8, 9), "arc", ArcFlow({}, Fraction(0))),  # three arcs at gamma = 2
            ((7, 8, 9), "path", PathFlow(())),
            ((7, 99), "arc", ArcFlow({}, Fraction(0))),  # no arc 99
        ],
    )
    def test_scenario_not_a_gamma_set_raises(self, removed, kind, witness):
        strategy = MixedStrategy.degenerate(Scenario(removed))
        with pytest.raises(ValueError, match="scenario"):
            certify(fig2a(6, 2), solvers.RniSolution(0.0, strategy, witness), kind=kind)

    @pytest.mark.parametrize(
        "solve, kind", [(solve_rni, "path"), (solve_rni_path, "arc")]
    )
    def test_witness_of_the_other_model_raises(self, solve, kind):
        inst = fig2a(6, 2)
        with pytest.raises(ValueError, match="witness"):
            certify(inst, solve(inst), kind=kind)

    def test_unknown_kind_raises(self):
        inst = fig2a(6, 2)
        with pytest.raises(ValueError, match="kind"):
            certify(inst, solve_rni(inst), kind="both")

    def test_path_witness_through_an_unknown_arc_raises(self):
        strategy = MixedStrategy.degenerate(Scenario((7, 8)))
        for path in ((1, 99), (0, 7)):
            witness = PathFlow(((path, Fraction(1)),))
            solution = solvers.RniSolution(0.0, strategy, witness)
            with pytest.raises(ValueError, match="arc ids"):
                certify(fig2a(6, 2), solution, kind="path")

    def test_planted_over_capacity_witness_fails(self):
        # Z_NI = Z_LO = 2 against the pure removal of arc 3; 2 on each of
        # arcs 1 and 2 routes 4 less a largest amount of 2, so only the
        # feasibility check stands between it and a PASS
        inst = parallel_units()
        strategy = MixedStrategy.degenerate(Scenario((3,)))
        witnesses = {
            "arc": ArcFlow.from_values(inst, {1: 2, 2: 2}),
            "path": PathFlow((((1,), Fraction(2)), ((2,), Fraction(2)))),
        }
        for kind, witness in witnesses.items():
            report = certify(inst, solvers.RniSolution(2.0, strategy, witness), kind)
            assert report.flow_gap == report.adversary_gap == 0
            assert not report.passed

    def test_inflated_witness_value_fails(self):
        # one unit on arc 1 that claims 3: trusting the value field, 3 less
        # the largest amount would match the value 2
        inst = parallel_units()
        witness = ArcFlow({1: Fraction(1)}, Fraction(3))
        strategy = MixedStrategy.degenerate(Scenario((3,)))
        report = certify(inst, solvers.RniSolution(2.0, strategy, witness), "arc")
        assert [v.kind for v in validate_flow(inst, witness).violations] == ["value"]
        assert report.flow_gap == 2  # the exact check: removing arc 1 leaves 0
        assert not report.passed

    @pytest.mark.parametrize("seed", range(20))
    def test_removal_bound_never_exceeds_the_worst_payoff(self, seed):
        # arbitrary amounts, negative ones and unconserved nodes included
        rng = random.Random(seed)
        inst = random_instance(6, 10, 5, 1 + seed % 3, 600 + seed)
        values = {
            a: Fraction(rng.randint(-1, 6), rng.randint(1, 3)) for a in inst.arc_ids()
        }
        arc = ArcFlow.from_values(inst, values)
        assert solvers._removal_bound(inst, arc) <= adaptive_by_scenarios(inst, arc)
        paths = rng.sample(enumerate_paths(inst, 1000), 3)
        path = PathFlow(tuple((p, Fraction(rng.randint(-1, 4), 2)) for p in paths))
        bound = solvers._removal_bound(inst, path)
        assert bound <= worst_path_payoff_by_scenarios(inst, path)

    def test_degenerate_gamma_all_arcs(self):
        inst = chain([2, 3], gamma=2)
        for solve, kind in ((solve_rni, "arc"), (solve_rni_path, "path")):
            sol = solve(inst)
            report = certify(inst, sol, kind=kind)
            assert sol.value == pytest.approx(0.0, abs=1e-9)
            assert report.passed


class TestOrderingProperties:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_value_chain_and_ratio_bounds(self, seed, gamma):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=gamma, seed=500 + seed)
        ni = float(solve_ni(inst).value)
        rni = solve_rni(inst).value
        rni_path = solve_rni_path(inst).value
        tol = 1e-6 * (1 + ni)
        assert rni_path <= rni + tol
        assert rni <= ni + tol
        assert ni <= (gamma + 1) * rni + tol
        assert ni <= (gamma + 1) * rni_path + tol
        assert rni <= gamma * rni_path + tol

    def test_rni_witness_attains_value_adaptively(self):
        inst = fig2a(6, 2)
        sol = solve_rni(inst)
        assert float(adaptive_value(inst, sol.flow_witness)) == pytest.approx(
            sol.value, abs=1e-6
        )


LADDER = [(9, 18, 10, gamma, s) for gamma in (2, 3) for s in range(4)]
LADDER += [(12, 24, 10, 2, 5)]
FAMILIES = [
    (fig1, 12, 2),
    (fig2a, 6, 2),
    (fig2a, 20, 3),
    (fig2a, 100, 3),
    (fig2b, 12, 2),
    (fig2b, 24, 2),
    (fig2b, 48, 2),
]
CLOSURE_CASES = (
    [pytest.param(lambda i=i: property_corpus()[i], id=f"dag{i}") for i in range(200)]
    + [
        pytest.param(lambda spec=spec: random_instance(*spec), id=f"rung{spec}")
        for spec in LADDER
    ]
    + [
        pytest.param(lambda f=f, k=k, g=g: f(k, g), id=f"{f.__name__}({k},{g})")
        for f, k, g in FAMILIES
    ]
    + [pytest.param(lambda: fat_chain()[0], id="fat_chain")]
)


class TestClosedGame:
    """Where the LO model reaches Z_NI, Z_LO <= Z_RNI^Path <= Z_RNI <= Z_NI
    are all equal and the pure NI removal is optimal in both models."""

    @pytest.mark.parametrize("build", CLOSURE_CASES)
    def test_closes_exactly_when_lo_reaches_ni(self, build):
        inst = build()
        caps = capacities(inst)
        z_ni = adaptive_by_cuts(inst, ArcFlow.from_values(inst, caps))
        _, scenario = worst_removal(inst, caps)
        closing = solvers._closing_flow(inst, z_ni, scenario)
        assert (closing is not None) == (solve_lo(inst).value == z_ni)
        if closing is None:
            return
        arc, path = solve_rni(inst), solve_rni_path(inst)
        for sol, kind in ((arc, "arc"), (path, "path")):
            assert sol.value == float(z_ni)
            assert sol.strategy == MixedStrategy.degenerate(scenario)
            assert validate_flow(inst, sol.flow_witness).ok
            assert certify(inst, sol, kind=kind).passed
        # each witness holds Z_NI against every removal, and Z_NI is the
        # flow player's best response to the pure removal
        assert adaptive_by_cuts(inst, arc.flow_witness) == z_ni
        assert worst_path_payoff_by_scenarios(inst, path.flow_witness) == z_ni
        kept = {aid: c for aid, c in caps.items() if aid not in scenario.removed_set}
        assert fraction_min_cut(inst, kept).value == z_ni

    @pytest.mark.parametrize(
        "inst, z_rni, z_rni_path",
        [(fig1(12, 2), 10, 8), (fig2b(12, 2), 11, 6)],
        ids=["fig1", "fig2b"],
    )
    def test_open_games_take_the_loop(self, inst, z_rni, z_rni_path, monkeypatch):
        loops = []
        row_generation = solvers._row_generation
        monkeypatch.setattr(
            solvers,
            "_row_generation",
            lambda *args: loops.append(args) or row_generation(*args),
        )
        arc, path = solve_rni(inst), solve_rni_path(inst)
        assert len(loops) == 2
        assert solve_lo(inst).value < solve_ni(inst).value
        assert arc.value == pytest.approx(z_rni, abs=1e-6)
        assert path.value == pytest.approx(z_rni_path, abs=1e-6)

    def test_path_model_skips_the_closure_where_ni_is_refused(self):
        # a closed rung: 153 scenarios and 128 cuts, while the path model's
        # search fits a limit of 25 removals
        inst = random_instance(9, 18, 10, 2, 0)
        with pytest.raises(ScenarioLimitExceeded):
            solve_ni(inst, scenario_limit=100)
        sol = solve_rni_path(inst, scenario_limit=100)
        assert sol.value == pytest.approx(float(solve_ni(inst).value), abs=1e-6)
        assert certify(inst, sol, kind="path", scenario_limit=100).passed

    def test_pure_best_responses_need_no_lp(self, monkeypatch):
        inst = fig2a(6, 2)
        monkeypatch.setattr(solvers, "solve_lp", None)  # any LP would raise
        monkeypatch.setattr(solvers, "_Simplex", None)
        alpha = MixedStrategy.degenerate(Scenario((1, 7)))
        value, flow = best_response_arc(inst, alpha)  # 5 unit arcs are left
        assert value == 5.0 and flow.value == 5
        value, paths = best_response_path(inst, alpha)
        assert value == 5.0 and paths.value == 5
        assert all({1, 7}.isdisjoint(path) for path, _ in paths.entries)

    def test_certify_settles_a_closed_pass_without_enumerating(self):
        inst, _ = fat_chain()  # 27,720 scenarios and 8,192 cuts
        arc, path = solve_rni(inst), solve_rni_path(inst)
        # the polynomial checks pass where no enumeration is allowed
        assert certify(inst, arc, kind="arc", scenario_limit=1).passed
        assert certify(inst, path, kind="path", scenario_limit=1).passed


WARM_FAMILIES = [
    ("fig1", 12, 2), ("fig2a", 6, 2), ("fig2a", 20, 3), ("fig2a", 100, 3),
    ("fig2b", 12, 2), ("fig2b", 24, 2), ("fig2b", 48, 2),
]


def warm_case(case):
    if isinstance(case, int):
        return property_corpus()[case]
    family, k, gamma = case
    return {"fig1": fig1, "fig2a": fig2a, "fig2b": fig2b}[family](k, gamma)


@pytest.fixture
def solves(monkeypatch):
    """(master, its row count, pivots, solution) of every solve of a
    row-generation master, in order."""
    log = []

    class Recording(_Simplex):
        def solve(self):
            sol = super().solve()
            log.append((self.problem, len(self.problem.rows), self.iterations, sol))
            return sol

    monkeypatch.setattr(solvers, "_Simplex", Recording)
    return log


class TestWarmMaster:
    """The row generation's one master, re-optimized by the dual simplex
    each round, ends where a cold solve of its final rows does."""

    @pytest.mark.parametrize("case", [*WARM_FAMILIES, *range(50)], ids=str)
    def test_values_match_a_cold_solve_of_the_final_master(self, solves, case):
        inst = warm_case(case)
        # driven open: the row generation runs even where the game closes
        arc = solvers._rni_rows(inst, solvers.DEFAULT_SCENARIO_LIMIT)
        path = solvers._rni_path_rows(inst, solvers.DEFAULT_SCENARIO_LIMIT)
        best_response_arc(inst, arc.strategy)
        assert certify(inst, arc, kind="arc").passed
        assert certify(inst, path, kind="path").passed
        final = {id(master): (master, sol) for master, _, _, sol in solves}
        assert final
        for master, sol in final.values():
            cold = solve_lp(master)
            assert abs(sol.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))

    def test_warm_rounds_pivot_less_than_a_cold_solve(self, solves):
        solvers._rni_rows(fig2a(100, 3), solvers.DEFAULT_SCENARIO_LIMIT)
        (master, _, _, _), *warm = solves
        assert warm and all(problem is master for problem, _, _, _ in warm)
        cold = _Simplex(master)
        cold.solve()
        assert sum(pivots for _, _, pivots, _ in warm) < cold.iterations

    def test_rounds_add_at_most_gamma_plus_one_rows(self, solves):
        inst = fig2a(100, 3)
        solvers._rni_rows(inst, solvers.DEFAULT_SCENARIO_LIMIT)
        sizes = [len(inst.internal_nodes())] + [rows for _, rows, _, _ in solves]
        grown = [b - a for a, b in zip(sizes, sizes[1:])]
        assert grown and all(1 <= rows <= inst.gamma + 1 for rows in grown)
