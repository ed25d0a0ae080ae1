import math
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import pytest

from interdict.game import DEFAULT_SCENARIO_LIMIT
from interdict.graph import (
    Arc,
    ArcFlow,
    Instance,
    PathFlow,
    PathLimitExceeded,
    decompose,
    enumerate_paths,
    iter_cuts,
    max_flow,
    min_cut,
    validate_flow,
)
from interdict.instances import fig1, fig2a, fig2b, random_instance
from interdict.lomodel import _cut_at, solve_lo
from interdict.solvers import _rni_rows
from oracles import fraction_min_cut


def single_arc(cap=5, gamma=1):
    return Instance(2, 1, 2, (Arc(1, 2, Fraction(cap)),), gamma)


def parallel_arcs(caps, gamma=1):
    return Instance(2, 1, 2, tuple(Arc(1, 2, Fraction(c)) for c in caps), gamma)


def cut_oracle(instance, capacities=None, theta=None):
    """Exhaustive min over all 2^(n-2) cuts, written independently of the
    library's residual-based min_cut."""
    best = None
    internal = [
        v for v in range(1, instance.node_count + 1)
        if v not in (instance.source, instance.sink)
    ]
    for mask in range(1 << len(internal)):
        s_side = {instance.source} | {
            v for i, v in enumerate(internal) if mask >> i & 1
        }
        total = Fraction(0)
        for aid in instance.arc_ids():
            arc = instance.arc(aid)
            if arc.tail in s_side and arc.head not in s_side:
                cap = (
                    Fraction(capacities[aid])
                    if capacities is not None
                    else instance.effective_capacity(aid)
                )
                if theta is not None:
                    cap = min(cap, Fraction(theta))
                total += cap
        best = total if best is None else min(best, total)
    return best


class TestInstance:
    def test_rejects_arc_into_source(self):
        with pytest.raises(ValueError, match="source"):
            Instance(3, 1, 3, (Arc(2, 1, Fraction(1)), Arc(1, 3, Fraction(1))), 1)

    def test_rejects_arc_out_of_sink(self):
        with pytest.raises(ValueError, match="sink"):
            Instance(3, 1, 3, (Arc(3, 2, Fraction(1)), Arc(1, 3, Fraction(1))), 1)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            Instance(2, 1, 2, (Arc(1, 2, Fraction(1)),), 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Arc(1, 2, Fraction(-1)),
            lambda: Instance(1, 1, 1, (), 1),
            lambda: Instance(2, 1, 1, (Arc(1, 2, Fraction(1)),), 1),
            lambda: Instance(2, 1, 3, (Arc(1, 2, Fraction(1)),), 1),
            lambda: Instance(2, 1, 2, (Arc(1, 3, Fraction(1)),), 1),
            lambda: enumerate_paths(fig2a(2, 1), limit=0),
        ],
        ids=[
            "negative-capacity", "one-node", "source-is-sink", "sink-out-of-range",
            "arc-endpoint-out-of-range", "path-limit-zero",
        ],
    )
    def test_invalid_input_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_big_m_exceeds_finite_total(self):
        inst = fig2a(6, 2)
        assert inst.big_m == 7  # 1 + six unit capacities


class TestMaxFlow:
    def test_fig2a_bottleneck(self):
        value, flow = max_flow(fig2a(6, 2))
        assert value == 6
        assert flow.value == 6

    def test_single_arc(self):
        value, _ = max_flow(single_arc(5))
        assert value == 5

    def test_fig1_value_matches_cut_enumeration(self):
        inst = fig1(12, 2)
        value, _ = max_flow(inst)
        assert value == cut_oracle(inst) == 30

    def test_capacity_override(self):
        inst = fig2a(2, 1)
        value, _ = max_flow(inst, {1: 1, 2: 1, 3: 1, 4: 0})
        assert value == 1

    def test_returned_flow_is_feasible(self):
        inst = fig1(12, 2)
        _, flow = max_flow(inst)
        assert validate_flow(inst, flow).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match_cut_oracle(self, seed):
        inst = random_instance(nodes=6, arcs=10, cap_max=9, gamma=2, seed=seed)
        value, flow = max_flow(inst)
        assert value == cut_oracle(inst)
        assert validate_flow(inst, flow).ok

    @pytest.mark.parametrize("theta", [Fraction(1, 2), 1, 3])
    def test_duality_under_capped_capacities(self, theta):
        inst = random_instance(nodes=7, arcs=12, cap_max=7, gamma=2, seed=77)
        value, _ = max_flow(
            inst,
            {aid: min(inst.effective_capacity(aid), Fraction(theta))
             for aid in inst.arc_ids()},
        )
        assert value == cut_oracle(inst, theta=theta)


class TestMinCut:
    # the theta cases read the cut through lomodel's evaluator, the one
    # place that caps at theta and fills the theta fields
    def test_fig2a_theta_two_prefers_source_side_minimal(self):
        report = _cut_at(fig2a(6, 2), Fraction(2), Fraction(2))
        assert report.s_side == frozenset({1})
        assert report.capacity_at_theta == 6
        assert report.tight_at_or_below == frozenset()
        assert report.strictly_below == frozenset()

    def test_single_arc_theta(self):
        report = _cut_at(single_arc(5), Fraction(3), Fraction(3))
        assert report.capacity_at_theta == 3
        assert report.tight_at_or_below == frozenset({1})
        assert report.strictly_below == frozenset({1})

    def test_parallel_arcs_theta_sets(self):
        report = _cut_at(parallel_arcs([1, 4]), Fraction(1), Fraction(1))
        assert report.capacity_at_theta == 2
        assert report.tight_at_or_below == frozenset({1, 2})
        assert report.strictly_below == frozenset({2})

    def test_cut_value_equals_max_flow(self):
        inst = random_instance(nodes=6, arcs=11, cap_max=8, gamma=2, seed=3)
        value, _ = max_flow(inst)
        report = min_cut(inst)
        assert report.capacity == value


class TestDecompose:
    def test_two_disjoint_unit_paths(self):
        inst = fig2a(2, 1)
        _, flow = max_flow(inst)
        pf = decompose(inst, flow)
        assert len(pf.entries) == 2
        assert all(amount == 1 for _, amount in pf.entries)
        assert pf.value == 2

    def test_zero_flow(self):
        inst = fig2a(2, 1)
        pf = decompose(inst, ArcFlow.from_values(inst, {}))
        assert pf.entries == ()

    def test_cycle_component_dropped(self):
        # s->a (2), a->t (2), plus a 2-cycle a<->b carrying one unit
        inst = Instance(
            4, 1, 4,
            (Arc(1, 2, Fraction(2)), Arc(2, 4, Fraction(2)),
             Arc(2, 3, Fraction(1)), Arc(3, 2, Fraction(1))),
            1,
        )
        flow = ArcFlow.from_values(inst, {1: 2, 2: 2, 3: 1, 4: 1})
        pf = decompose(inst, flow)
        assert pf.entries == (((1, 2), Fraction(2)),)

    @pytest.mark.parametrize("seed", range(8))
    def test_reaccumulation_bounds(self, seed):
        inst = random_instance(nodes=7, arcs=12, cap_max=9, gamma=2, seed=100 + seed)
        _, flow = max_flow(inst)
        pf = decompose(inst, flow)
        assert pf.value == flow.value
        assert len(pf.entries) <= inst.arc_count
        for aid, load in pf.arc_loads().items():
            assert load <= flow.get(aid)


class TestEnumeratePaths:
    def test_fig2a_k2(self):
        paths = enumerate_paths(fig2a(2, 1), limit=100)
        assert paths == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_single_arc(self):
        assert enumerate_paths(single_arc(), limit=10) == [(1,)]

    def test_fig1_count(self):
        assert len(enumerate_paths(fig1(12, 2), limit=100)) == 39

    def test_limit_enforced(self):
        with pytest.raises(PathLimitExceeded):
            enumerate_paths(fig1(12, 2), limit=38)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_simple_paths(self, seed):
        inst = random_instance(nodes=7, arcs=12, cap_max=5, gamma=1, seed=200 + seed)
        g = nx.MultiDiGraph()
        for aid in inst.arc_ids():
            arc = inst.arc(aid)
            g.add_edge(arc.tail, arc.head, key=aid)
        expected = sorted(
            tuple(key for _, _, key in path)
            for path in nx.all_simple_edge_paths(g, inst.source, inst.sink)
        )
        assert enumerate_paths(inst, limit=10000) == expected


class TestValidateFlow:
    def test_feasible_flow_empty_report(self):
        inst = fig2a(6, 2)
        _, flow = max_flow(inst)
        assert validate_flow(inst, flow).ok

    def test_capacity_violation_magnitude(self):
        inst = single_arc(5)
        flow = ArcFlow.from_values(inst, {1: 6})
        report = validate_flow(inst, flow)
        assert [v.kind for v in report.violations] == ["capacity"]
        assert report.violations[0].magnitude == pytest.approx(1.0)

    def test_conservation_violation(self):
        inst = fig2a(2, 1)
        flow = ArcFlow.from_values(inst, {1: 1})
        report = validate_flow(inst, flow)
        assert any(v.kind == "conservation" for v in report.violations)

    def test_path_flow_overload(self):
        inst = fig2a(2, 1)
        pf_over = decompose(inst, max_flow(inst)[1])
        entries = pf_over.entries + ((pf_over.entries[0][0], Fraction(1, 2)),)
        report = validate_flow(inst, type(pf_over)(entries=entries))
        kinds = [v.kind for v in report.violations]
        assert kinds == ["capacity"]
        assert report.violations[0].magnitude == pytest.approx(0.5)


    def test_value_other_than_the_sink_inflow(self):
        inst = fig2a(6, 2)
        flow = replace(max_flow(inst)[1], value=Fraction(1000))
        report = validate_flow(inst, flow)
        assert [v.kind for v in report.violations] == ["value"]
        assert report.violations[0].magnitude == pytest.approx(1000 - 6)

    @pytest.mark.parametrize(
        "flow",
        [
            ArcFlow({99: Fraction(5)}, Fraction(0)),
            ArcFlow({0: Fraction(1)}, Fraction(0)),
            PathFlow((((1, 99), Fraction(1)),)),
            PathFlow((((0, 7), Fraction(1)),)),  # id 0 would read arc m
        ],
        ids=["arc-99", "arc-0", "path-99", "path-0"],
    )
    def test_arc_id_outside_the_instance_raises(self, flow):
        with pytest.raises(ValueError, match="arc ids"):
            validate_flow(fig2a(6, 2), flow)


class TestCutHelpers:
    def test_iter_cuts_count(self):
        inst = random_instance(nodes=6, arcs=9, cap_max=4, gamma=1, seed=1)
        assert len(list(iter_cuts(inst))) == 2 ** 4


def reference_case(kind, seed):
    """An instance, capacities and theta of one kind of exact input."""
    inst = random_instance(5 + seed % 4, 12, 9, 1 + seed % 2, 300 + seed)
    if kind == "big_m" or (kind.startswith("theta") and seed % 2):
        arcs = tuple(
            replace(arc, capacity=None) if aid % 3 == 0 else arc
            for aid, arc in enumerate(inst.arcs, 1)
        )
        inst = replace(inst, arcs=arcs)
    if kind == "divided":
        caps = {a: inst.effective_capacity(a) / (3, 7, 11)[a % 3] for a in inst.arc_ids()}
        return inst, caps, None
    if kind == "lp_point":  # Fraction(float) amounts: 2^-52-scale denominators
        inst = (
            fig2a(5, 2), fig2a(7, 2), fig1(7, 2), fig1(9, 3), fig2b(7, 3),
            random_instance(8, 14, 7, 3, 417),
        )[seed]
        # the row-generation LP's point: solve_rni skips the LP on the last
        # instance, whose game closes at Z_LO = Z_NI
        caps = dict(_rni_rows(inst, DEFAULT_SCENARIO_LIMIT).flow_witness.values)
        assert max(c.denominator for c in caps.values()) > 2**40
        return inst, caps, None
    if kind == "big_m":
        return inst, None, None
    # solve_lo's probes at theta* -/+ lo_cuts' eps
    theta = solve_lo(inst).theta_star
    d = math.lcm(*(inst.effective_capacity(a).denominator for a in inst.arc_ids()))
    eps = Fraction(1, 2 * d * inst.arc_count**2)
    return inst, None, theta + eps if kind == "theta_plus" else max(theta - eps, 0)


class TestFractionReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "kind", ["divided", "lp_point", "big_m", "theta_minus", "theta_plus"]
    )
    def test_kernel_matches_fraction_edmonds_karp(self, kind, seed):
        inst, caps, theta = reference_case(kind, seed)
        ref = fraction_min_cut(inst, caps, theta)
        if theta is not None:
            caps = {a: min(inst.effective_capacity(a), theta) for a in inst.arc_ids()}
        value, flow = max_flow(inst, caps)
        report = min_cut(inst, caps) if theta is None else _cut_at(inst, theta, theta)
        assert value == flow.value == ref.value
        assert flow.values == ref.flows
        assert report.flow == flow
        assert report.s_side == ref.s_side
        assert report.crossing == ref.crossing
        assert report.capacity == ref.capacity
        amounts = [value, report.capacity, *flow.values.values()]
        if theta is not None:
            amounts.append(report.capacity_at_theta)
        assert all(type(amount) is Fraction for amount in amounts)
