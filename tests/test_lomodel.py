from dataclasses import replace
from fractions import Fraction

import pytest

from interdict import lomodel
from interdict.graph import Arc, Instance, max_flow
from interdict.instances import fig1, fig2a, fig2b, random_instance
from interdict.lomodel import (
    InvariantViolation,
    approx_report,
    lo_cuts,
    lo_value_at,
    path_model_factor,
    solve_lo,
)
from interdict.solvers import certify
from oracles import theta_sweep


def single_arc(cap=5):
    return Instance(2, 1, 2, (Arc(1, 2, Fraction(cap)),), 1)


def seeded(gamma, divisors, seed):
    """random_instance with arc k's capacity divided by
    divisors[k % len(divisors)]; (3, 7, 11) mixes the denominators."""
    inst = random_instance(nodes=6, arcs=10, cap_max=9, gamma=gamma, seed=seed)
    arcs = tuple(
        Arc(a.tail, a.head, a.capacity / divisors[k % len(divisors)])
        for k, a in enumerate(inst.arcs)
    )
    return Instance(inst.node_count, inst.source, inst.sink, arcs, gamma)


# (gamma, capacity divisors): the integer corpus keeps its plain ids; the
# "-mixed" inputs give lo_cuts' epsilon a denominator LCM D > 1.
GAMMAS = [pytest.param(g, (1,), id=str(g)) for g in (1, 2, 3)] + [
    pytest.param(g, (3, 7, 11), id=f"{g}-mixed") for g in (1, 2, 3)
]


class TestLoValueAt:
    def test_fig2a_theta_one(self):
        assert lo_value_at(fig2a(6, 2), 1) == 1  # 3*1 - 2*1

    def test_theta_zero_is_zero(self):
        for inst in (fig2a(6, 2), fig1(12, 2), single_arc()):
            assert lo_value_at(inst, 0) == 0

    def test_fig2a_theta_two(self):
        assert lo_value_at(fig2a(6, 2), 2) == 2  # min(6, 6) - 4

    def test_negative_theta_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lo_value_at(fig2a(6, 2), Fraction(-1, 2))

    def test_concavity_on_grid(self):
        inst = random_instance(nodes=6, arcs=10, cap_max=7, gamma=2, seed=9)
        thetas = [Fraction(i, 4) for i in range(0, 40)]
        values = [lo_value_at(inst, t) for t in thetas]
        for i in range(1, len(values) - 1):
            chord = (values[i - 1] + values[i + 1]) / 2
            assert values[i] >= chord


class TestSolveLo:
    def test_fig2a(self):
        sol = solve_lo(fig2a(6, 2))
        assert sol.value == 2
        assert sol.theta_star == 2
        assert sol.flow_value == 6

    def test_fig1(self):
        sol = solve_lo(fig1(12, 2))
        assert sol.value == 6
        assert sol.theta_star == 6
        assert sol.flow_value == 18

    def test_single_arc_maximal_theta(self):
        sol = solve_lo(single_arc(5))
        assert sol.value == 0
        assert sol.theta_star == 5

    def test_flow_respects_threshold(self):
        sol = solve_lo(fig1(12, 2))
        for aid, x in sol.flow.values.items():
            assert x <= sol.theta_star

    def test_theta_probe_strictly_decreases(self):
        # theta* is the largest optimum: any step beyond strictly loses
        for inst in (fig2a(6, 2), fig1(12, 2), single_arc(5)):
            sol = solve_lo(inst)
            eps = Fraction(1, 2 * inst.arc_count)
            assert lo_value_at(inst, sol.theta_star + eps) < sol.value

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("gamma, divisors", GAMMAS)
    def test_matches_theta_sweep_oracle(self, seed, gamma, divisors):
        inst = seeded(gamma, divisors, 700 + seed)
        sol = solve_lo(inst)
        best, best_theta = theta_sweep(inst)
        assert sol.value == best
        assert sol.theta_star == best_theta
        # the witness is the max flow under the capacities capped at theta*
        capped = {
            aid: min(inst.effective_capacity(aid), best_theta) for aid in inst.arc_ids()
        }
        assert sol.flow == max_flow(inst, capped)[1]


class TestLoCuts:
    def test_fig2a(self):
        inst = fig2a(6, 2)
        s_prime, s_dbl = lo_cuts(inst, solve_lo(inst))
        assert s_prime.s_side == frozenset({1, 2})
        assert len(s_prime.tight_at_or_below) == 3
        assert s_dbl.s_side == frozenset({1})
        assert len(s_dbl.strictly_below) == 0

    def test_single_arc(self):
        inst = single_arc(5)
        s_prime, s_dbl = lo_cuts(inst, solve_lo(inst))
        assert s_prime.s_side == s_dbl.s_side == frozenset({1})
        assert len(s_prime.tight_at_or_below) == 1
        assert len(s_dbl.strictly_below) == 0

    def test_fig1(self):
        inst = fig1(12, 2)
        s_prime, s_dbl = lo_cuts(inst, solve_lo(inst))
        assert s_prime.s_side == frozenset({1, 2})
        assert len(s_prime.tight_at_or_below) == 3
        assert s_dbl.s_side == frozenset({1})
        assert s_dbl.strictly_below == frozenset({13})  # only the 3K/2 arc

    def test_cut_capacities_match_flow_value(self):
        inst = fig2b(12, 2)
        sol = solve_lo(inst)
        s_prime, s_dbl = lo_cuts(inst, sol)
        assert s_prime.capacity_at_theta == sol.flow_value
        assert s_dbl.capacity_at_theta == sol.flow_value

    @pytest.mark.parametrize(
        "theta, flow_value, message",
        [
            # theta* = 2 with Val(x*) = 6: a stale value at theta = 1 (3)
            (1, 6, "not minimal"),
            # past theta*: the below-cut {s} has no arc at or above 3
            (3, 6, "below-cut has only 0 arcs"),
            # before theta*: the 3 unbounded arcs lie strictly above 1
            (1, 3, "above-cut has 3 arcs"),
        ],
        ids=["stale-flow-value", "theta-too-large", "theta-too-small"],
    )
    def test_wrong_theta_star_raises(self, theta, flow_value, message):
        inst = fig2a(6, 2)
        wrong = replace(
            solve_lo(inst), theta_star=Fraction(theta), flow_value=Fraction(flow_value)
        )
        with pytest.raises(InvariantViolation, match=message):
            lo_cuts(inst, wrong)

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("gamma, divisors", GAMMAS)
    def test_conditions_on_random_instances(self, seed, gamma, divisors):
        inst = seeded(gamma, divisors, 800 + seed)
        sol = solve_lo(inst)
        s_prime, s_dbl = lo_cuts(inst, sol)
        if sol.theta_star > 0:
            assert len(s_prime.tight_at_or_below) >= gamma
        assert len(s_dbl.strictly_below) < gamma


class TestPathModelFactor:
    def test_values(self):
        assert path_model_factor(1) == pytest.approx(1.0)
        assert path_model_factor(2) == pytest.approx(4 / 3)
        assert path_model_factor(3) == pytest.approx(1.5)
        assert path_model_factor(4) == pytest.approx(1.8)


class TestApproxReport:
    def test_fig1_values_and_tight_rows(self):
        report = approx_report(fig1(12, 2))
        assert report.z_ni == pytest.approx(11)
        assert report.z_rni == pytest.approx(10, abs=1e-6)
        assert report.z_rni_path == pytest.approx(8, abs=1e-6)
        assert report.z_lo == pytest.approx(6)
        rows = {bc.name: bc for bc in report.bounds}
        assert rows["Z_RNI/Z_RNI^Path"].lhs == pytest.approx(1.25, abs=1e-6)
        path_row = rows["Z_RNI^Path/Z_LO"]
        assert path_row.lhs == pytest.approx(4 / 3, abs=1e-6)
        assert path_row.verdict == "PASS" and path_row.tight
        assert all(bc.verdict != "FAIL" for bc in report.bounds)
        assert not report.partial

    def test_fig2a_maximal_flow_condition_active(self):
        report = approx_report(fig2a(6, 2))
        assert (report.z_ni, report.z_rni, report.z_rni_path, report.z_lo) == (
            pytest.approx(4),
            pytest.approx(2, abs=1e-6),
            pytest.approx(2, abs=1e-6),
            pytest.approx(2),
        )
        rows = {bc.name: bc for bc in report.bounds}
        maximal = rows["Z_RNI==Z_LO (x* maximal)"]
        assert maximal.verdict == "PASS"  # Val(x*) = 6 is the nominal max flow
        assert all(bc.verdict != "FAIL" for bc in report.bounds)

    def test_gamma_covers_all_arcs_reports_na(self):
        inst = Instance(
            3, 1, 3, (Arc(1, 2, Fraction(2)), Arc(2, 3, Fraction(2))), 2
        )
        report = approx_report(inst)
        assert report.z_ni == pytest.approx(0)
        assert report.z_rni == pytest.approx(0, abs=1e-9)
        assert report.z_lo == pytest.approx(0)
        rows = {bc.name: bc for bc in report.bounds}
        assert rows["Z_NI/Z_LO"].verdict == "NA"
        assert rows["Z_RNI/Z_RNI^Path"].verdict == "NA"
        assert all(bc.verdict != "FAIL" for bc in report.bounds)

    def test_partial_report_when_paths_outgrow_limit(self):
        inst = fig1(12, 2)
        report = approx_report(inst, path_limit=10)
        assert report.partial
        assert "rni_path" in report.skipped
        assert report.z_ni is not None and report.z_lo is not None
        rows = {bc.name: bc for bc in report.bounds}
        assert rows["Z_RNI^Path/Z_LO"].verdict == "NA"

    @pytest.mark.parametrize(
        "inst",
        [
            fig1(12, 2),
            fig2b(12, 2),
            random_instance(9, 18, 10, 2, 0),
            # theta* = 0: the search stops before its probe past the capacities
            Instance(3, 1, 3, (Arc(1, 2, Fraction(2)), Arc(2, 3, Fraction(2))), 2),
        ],
        ids=["fig1", "fig2b", "closed", "theta0"],
    )
    def test_nominal_max_flow_comes_from_the_search(self, inst, monkeypatch):
        nominal = float(max_flow(inst)[0])
        calls = []
        monkeypatch.setattr(
            lomodel, "max_flow", lambda *args: calls.append(args) or max_flow(*args)
        )
        report = approx_report(inst)
        assert report.nominal_max_flow == nominal
        assert len(calls) == (solve_lo(inst).theta_star == 0)

    def test_closed_game_needs_no_second_solve(self, monkeypatch):
        # Z_LO = Z_NI = 2: the report reads both RNI values off it
        inst = random_instance(9, 18, 10, 2, 0)
        for name in ("_rni_rows", "_rni_path_rows"):
            monkeypatch.setattr(lomodel, name, None)  # a call would raise
        report = approx_report(inst)
        assert report.z_lo == report.z_ni == report.z_rni == report.z_rni_path == 2
        assert report.rni.strategy == report.rni_path.strategy
        assert len(report.rni.strategy.support) == 1
        assert certify(inst, report.rni, kind="arc").passed
        assert certify(inst, report.rni_path, kind="path").passed
        assert all(bc.verdict != "FAIL" for bc in report.bounds)

    @pytest.mark.parametrize("seed", range(8))
    def test_no_fail_rows_on_random_instances(self, seed):
        inst = random_instance(nodes=6, arcs=9, cap_max=7, gamma=2, seed=900 + seed)
        report = approx_report(inst)
        assert all(bc.verdict != "FAIL" for bc in report.bounds)
