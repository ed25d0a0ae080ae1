import itertools
import random

import numpy as np
import pytest

from interdict import linopt
from interdict.instances import fig1, fig2a
from interdict.linopt import (
    LpProblem,
    LpSolution,
    NumericalFailure,
    kkt_report,
    solve_lp,
)
from interdict.solvers import solve_rni, solve_rni_path


def vertex_oracle(problem):
    """Enumerate all basic points (intersections of n active constraints,
    counting bounds) and return the best feasible objective.  Exponential;
    only for tiny problems."""
    n = problem.num_vars
    planes = []  # (normal, offset) of candidate active hyperplanes
    for coeffs, rel, rhs in problem.rows:
        normal = np.zeros(n)
        for j, a in coeffs.items():
            normal[j] = a
        planes.append((normal, rhs))
    for j in range(n):
        if np.isfinite(problem.lower[j]):
            e = np.zeros(n)
            e[j] = 1.0
            planes.append((e, problem.lower[j]))
        if np.isfinite(problem.upper[j]):
            e = np.zeros(n)
            e[j] = 1.0
            planes.append((e, problem.upper[j]))

    def feasible(x):
        for coeffs, rel, rhs in problem.rows:
            act = sum(a * x[j] for j, a in coeffs.items())
            if rel == "<=" and act > rhs + 1e-7:
                return False
            if rel == ">=" and act < rhs - 1e-7:
                return False
            if rel == "=" and abs(act - rhs) > 1e-7:
                return False
        return np.all(x >= problem.lower - 1e-7) and np.all(
            x <= problem.upper + 1e-7
        )

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        if feasible(x):
            val = float(problem.objective @ x)
            if best is None:
                best = val
            elif problem.sense == "max":
                best = max(best, val)
            else:
                best = min(best, val)
    return best


def random_feasible_lp(rng, max_vars=20, max_rows=20):
    """Feasible bounded LP: bounded box plus rows satisfied by a random
    interior point."""
    n = rng.randint(1, max_vars)
    prob = LpProblem(n, sense=rng.choice(["max", "min"]))
    prob.set_objective({j: rng.randint(-5, 5) for j in range(n)})
    x0 = np.array([rng.uniform(0, 4) for _ in range(n)])
    for j in range(n):
        prob.set_bounds(j, 0, rng.randint(5, 9))
    for _ in range(rng.randint(1, max_rows)):
        coeffs = {
            j: rng.randint(-4, 4)
            for j in rng.sample(range(n), k=rng.randint(1, min(n, 5)))
        }
        act = sum(a * x0[j] for j, a in coeffs.items())
        rel = rng.choice(["<=", ">="])
        margin = rng.uniform(0.1, 3.0)
        rhs = act + margin if rel == "<=" else act - margin
        prob.add_row(coeffs, rel, rhs)
    return prob


BOUND_KINDS = ("fixed", "box", "lifted", "upper", "free")


def mixed_bounds_lp(rng):
    """Feasible bounded LP holding every bound kind: fixed, [0,u], [l,u]
    with l > 0, (-inf,u] and free, in a seeded order.  Rows around a random
    point keep the variables without a lower bound from running away."""
    kinds = list(BOUND_KINDS) + [rng.choice(BOUND_KINDS)]
    rng.shuffle(kinds)
    n = len(kinds)
    prob = LpProblem(n, sense=rng.choice(["max", "min"]))
    prob.set_objective({j: rng.choice([-3, -2, -1, 1, 2, 3]) for j in range(n)})
    x0 = np.zeros(n)
    for j, kind in enumerate(kinds):
        if kind == "fixed":
            x0[j] = rng.randint(-3, 3)
            prob.set_bounds(j, x0[j], x0[j])
        elif kind == "box":
            x0[j] = rng.uniform(0.5, 3)
            prob.set_bounds(j, 0, rng.randint(4, 6))
        elif kind == "lifted":
            lo = rng.randint(1, 3)
            x0[j] = lo + rng.uniform(0.5, 2)
            prob.set_bounds(j, lo, lo + rng.randint(3, 5))
        elif kind == "upper":
            up = rng.randint(-2, 4)
            x0[j] = up - rng.uniform(0.5, 2)
            prob.set_bounds(j, -np.inf, up)
            prob.add_row({j: 1}, ">=", x0[j] - rng.uniform(1, 4))
        else:
            x0[j] = rng.uniform(-3, 3)
            prob.set_bounds(j, -np.inf, np.inf)
            prob.add_row({j: 1}, ">=", x0[j] - rng.uniform(1, 4))
            prob.add_row({j: 1}, "<=", x0[j] + rng.uniform(1, 4))
    for _ in range(rng.randint(1, 3)):
        coeffs = {j: rng.choice([-2, -1, 1, 2]) for j in rng.sample(range(n), k=3)}
        act = sum(a * x0[j] for j, a in coeffs.items())
        rel = rng.choice(["<=", ">=", "="])
        margin = 0.0 if rel == "=" else rng.uniform(0.1, 2.0)
        prob.add_row(coeffs, rel, act + margin if rel == "<=" else act - margin)
    return prob


class TestBasics:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: LpProblem(1, sense="maximize"),
            lambda: LpProblem(0),
            lambda: LpProblem(1).set_bounds(0, 2, 1),
            lambda: LpProblem(1).add_row({0: 1}, "<", 1),
            lambda: LpProblem(1).add_row({1: 1}, "<=", 1),
        ],
        ids=["sense", "no-variables", "lower-over-upper", "relation", "column"],
    )
    def test_invalid_input_raises(self, build):
        with pytest.raises(ValueError):
            build()

    def test_box_maximum(self):
        prob = LpProblem(1)
        prob.set_objective({0: 1})
        prob.set_bounds(0, 0, 5)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(5)
        assert sol.objective == pytest.approx(5)

    def test_shared_row_dual_is_one(self):
        prob = LpProblem(2)
        prob.set_objective({0: 1, 1: 1})
        prob.add_row({0: 1, 1: 1}, "<=", 1)
        sol = solve_lp(prob)
        assert sol.objective == pytest.approx(1)
        assert sol.duals[0] == pytest.approx(1)

    def test_infeasible(self):
        prob = LpProblem(1, sense="min")
        prob.add_row({0: 1}, "<=", -1)
        assert solve_lp(prob).status == "infeasible"

    def test_unbounded(self):
        prob = LpProblem(1)
        prob.set_objective({0: 1})
        assert solve_lp(prob).status == "unbounded"

    def test_equality_row(self):
        prob = LpProblem(2, sense="min")
        prob.set_objective({0: 2, 1: 1})
        prob.add_row({0: 1, 1: 1}, "=", 3)
        prob.set_bounds(0, 0, 10)
        prob.set_bounds(1, 0, 10)
        sol = solve_lp(prob)
        assert sol.objective == pytest.approx(3)
        assert sol.x[1] == pytest.approx(3)

    def test_free_variable(self):
        prob = LpProblem(2, sense="min")
        prob.set_bounds(0, -np.inf, np.inf)
        prob.set_objective({0: 1})
        prob.add_row({0: 1, 1: 1}, ">=", -4)
        prob.set_bounds(1, 0, 1)
        sol = solve_lp(prob)
        assert sol.objective == pytest.approx(-5)

    def test_fixed_variable_substituted(self):
        prob = LpProblem(2)
        prob.set_objective({0: 1, 1: 3})
        prob.set_bounds(0, 2, 2)
        prob.add_row({0: 1, 1: 1}, "<=", 5)
        sol = solve_lp(prob)
        assert sol.x[0] == pytest.approx(2)
        assert sol.objective == pytest.approx(2 + 9)

    def test_all_variables_fixed(self):
        prob = LpProblem(2, sense="max")
        prob.set_objective({0: 3, 1: 2})
        prob.set_bounds(0, 1, 1)
        prob.set_bounds(1, 0, 0)
        prob.add_row({0: 1, 1: 1}, "<=", 5)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3)
        assert list(sol.x) == [1, 0]

    def test_iteration_cap_raises(self, monkeypatch):
        run_phase = linopt._run_phase

        def one_pivot(T, basis, m, cost_row, allowed, bland_after, max_iter, iters):
            return run_phase(T, basis, m, cost_row, allowed, bland_after, 1, iters)

        monkeypatch.setattr(linopt, "_run_phase", one_pivot)
        prob = LpProblem(6)
        prob.set_objective({j: 1 for j in range(6)})
        for j in range(6):
            prob.set_bounds(j, 0, 1)
        prob.add_row({j: 1 for j in range(6)}, "<=", 3)
        with pytest.raises(NumericalFailure, match="within 1 pivots"):
            solve_lp(prob)


class TestProperties:
    @pytest.mark.parametrize("seed", range(100))
    def test_random_lp_kkt_and_duality(self, seed):
        rng = random.Random(seed)
        prob = random_feasible_lp(rng)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        # independent re-check, not the solver's internal assertion
        x = np.asarray(sol.x)
        assert np.all(x >= prob.lower - 1e-7)
        assert np.all(x <= prob.upper + 1e-7)
        for i, (coeffs, rel, rhs) in enumerate(prob.rows):
            act = sum(a * x[j] for j, a in coeffs.items())
            if rel == "<=":
                assert act <= rhs + 1e-7
            else:
                assert act >= rhs - 1e-7
            assert abs(sol.duals[i] * (act - rhs)) <= 1e-6
        report = kkt_report(prob, sol)
        scale = 1.0 + abs(sol.objective)
        assert report["gap"] <= 1e-7 * scale
        assert report["dual_sign"] <= 1e-7
        assert report["stationarity"] <= 1e-7

    @pytest.mark.parametrize("seed", range(40))
    def test_small_lp_matches_vertex_enumeration(self, seed):
        rng = random.Random(10_000 + seed)
        prob = random_feasible_lp(rng, max_vars=5, max_rows=6)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        oracle = vertex_oracle(prob)
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-6)


class TestBoundKinds:
    @pytest.mark.parametrize("seed", range(30))
    def test_every_bound_kind_matches_vertex_enumeration(self, seed):
        prob = mixed_bounds_lp(random.Random(20_000 + seed))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(vertex_oracle(prob), abs=1e-6)
        x = np.asarray(sol.x)
        assert np.all(x >= prob.lower - 1e-9) and np.all(x <= prob.upper + 1e-9)
        fixed = prob.lower == prob.upper
        assert np.array_equal(x[fixed], prob.lower[fixed])
        report = kkt_report(prob, sol)
        assert max(report.values()) <= 1e-7 * (1.0 + abs(sol.objective))


class TestOptimalityRecheck:
    @staticmethod
    def problem():
        """max x0 + x1 with x0 in [0, 4], x1 >= 0, x0 + x1 <= 3, x0 >= 1:
        value 3."""
        prob = LpProblem(2)
        prob.set_objective({0: 1, 1: 1})
        prob.set_bounds(0, 0, 4)
        prob.add_row({0: 1, 1: 1}, "<=", 3)
        prob.add_row({0: 1}, ">=", 1)
        return prob

    def test_every_measure_sees_a_non_optimal_pair(self):
        # x = (2, 2) breaks the <= row by 1; y = (-1, 1) has the wrong sign
        # on both rows and is 1 on rows with slack 1; the reduced costs
        # r = c - A'y = (1, 2) are nonzero at interior points; the dual
        # objective is y.b + 1 * 4 + 2 * 2 = 6 against the primal 4
        bad = LpSolution("optimal", x=np.array([2.0, 2.0]),
                         duals=np.array([-1.0, 1.0]), objective=4.0)
        report = kkt_report(self.problem(), bad)
        assert report == {
            "primal": 1.0,
            "dual_sign": 1.0,
            "stationarity": 2.0,
            "complementary_slackness": 1.0,
            "gap": 2.0,
        }
        sol = solve_lp(self.problem())
        assert sol.objective == pytest.approx(3)
        assert max(kkt_report(self.problem(), sol).values()) <= 1e-9

    def test_perturbed_simplex_point_is_refused(self, monkeypatch):
        point = linopt._Simplex._point

        def perturbed(simplex):
            s, duals = point(simplex)
            return s + 0.25, duals

        monkeypatch.setattr(linopt._Simplex, "_point", perturbed)
        with pytest.raises(NumericalFailure, match="optimality re-check failed"):
            solve_lp(self.problem())


def warm_parts(prob, batches):
    """A copy of prob without its rows, then the rows added in the given
    number of batches, the tableau re-solved after each: yields (part,
    solution) per solve, the first cold and the rest warm."""
    part = LpProblem(prob.num_vars, sense=prob.sense)
    part.objective, part.lower, part.upper = prob.objective, prob.lower, prob.upper
    simplex = linopt._Simplex(part)
    size = -(-len(prob.rows) // batches)
    for start in range(0, len(prob.rows), size):
        for row in prob.rows[start : start + size]:
            part.add_row(*row)
        yield part, simplex.solve()


class TestWarmStart:
    """Rows appended to a solved tableau and re-optimized by the dual
    simplex give the cold solve's optimum, and each solve passes KKT."""

    @pytest.mark.parametrize("seed", range(40))
    def test_appended_rows_match_the_cold_solve(self, seed):
        rng = random.Random(30_000 + seed)
        prob = random_feasible_lp(rng)  # boxed, so every part is bounded
        for part, sol in warm_parts(prob, rng.randint(2, 4)):
            assert sol.status == "optimal"
            report = kkt_report(part, sol)
            assert max(report.values()) <= 1e-7 * (1.0 + abs(sol.objective))
        cold = solve_lp(prob)
        assert abs(sol.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))

    def test_one_row_at_a_time(self):
        prob = random_feasible_lp(random.Random(7), max_vars=12, max_rows=30)
        *_, (part, sol) = warm_parts(prob, len(prob.rows))
        assert max(kkt_report(part, sol).values()) <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.objective == pytest.approx(solve_lp(prob).objective, abs=1e-9)

    def test_appended_row_can_make_the_lp_infeasible(self):
        prob = TestOptimalityRecheck.problem()  # value 3, x0 + x1 <= 3
        simplex = linopt._Simplex(prob)
        assert simplex.solve().objective == pytest.approx(3)
        prob.add_row({0: 1, 1: 1}, ">=", 5)
        assert simplex.solve().status == "infeasible"
        assert solve_lp(prob).status == "infeasible"

    def test_equality_row_cannot_be_appended(self):
        prob = TestOptimalityRecheck.problem()
        simplex = linopt._Simplex(prob)
        simplex.solve()
        prob.add_row({0: 1}, "=", 2)
        with pytest.raises(ValueError, match="inequality"):
            simplex.solve()

    def test_solve_with_no_new_rows_keeps_the_optimum(self):
        prob = TestOptimalityRecheck.problem()
        simplex = linopt._Simplex(prob)
        first = simplex.solve()
        again = simplex.solve()
        assert simplex.iterations == 0
        assert np.array_equal(first.x, again.x)
        assert np.array_equal(first.duals, again.duals)
        fixed = LpProblem(1)  # no rows and no standard columns
        fixed.set_objective({0: 1})
        fixed.set_bounds(0, 2, 2)
        simplex = linopt._Simplex(fixed)
        assert simplex.solve().objective == simplex.solve().objective == 2


@pytest.fixture
def bland_only(monkeypatch):
    """Bland's rule from the first pivot instead of after the
    largest-coefficient ones: every phase, primal or dual, runs with
    bland_after = -1."""
    run_phase, dual_phase = linopt._run_phase, linopt._dual_phase

    def bland(T, basis, m, cost_row, allowed, bland_after, max_iter, iters):
        return run_phase(T, basis, m, cost_row, allowed, -1, max_iter, iters)

    def dual_bland(T, basis, m, allowed, bland_after, max_iter, iters):
        return dual_phase(T, basis, m, allowed, -1, max_iter, iters)

    monkeypatch.setattr(linopt, "_run_phase", bland)
    monkeypatch.setattr(linopt, "_dual_phase", dual_bland)


class TestBlandsRule:
    """The anti-cycling rule alone reaches the same certified optima."""

    @pytest.mark.parametrize("seed", range(40))
    def test_small_lp_matches_vertex_enumeration(self, bland_only, seed):
        prob = random_feasible_lp(random.Random(10_000 + seed), max_vars=5, max_rows=6)
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(vertex_oracle(prob), abs=1e-6)
        assert max(kkt_report(prob, sol).values()) <= 1e-7 * (1.0 + abs(sol.objective))

    @pytest.mark.parametrize("seed", range(30))
    def test_every_bound_kind_matches_vertex_enumeration(self, bland_only, seed):
        prob = mixed_bounds_lp(random.Random(20_000 + seed))
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(vertex_oracle(prob), abs=1e-6)
        assert max(kkt_report(prob, sol).values()) <= 1e-7 * (1.0 + abs(sol.objective))

    @pytest.mark.parametrize("seed", range(20))
    def test_warm_start_matches_the_cold_solve(self, bland_only, seed):
        rng = random.Random(30_000 + seed)
        prob = random_feasible_lp(rng)
        for part, sol in warm_parts(prob, rng.randint(2, 4)):
            assert max(kkt_report(part, sol).values()) <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.objective == pytest.approx(solve_lp(prob).objective, abs=1e-6)

    @pytest.mark.parametrize(
        "family, k, values",
        [(fig1, 12, (10.0, 8.0)), (fig2a, 6, (2.0, 2.0))],  # (Z_RNI, Z_RNI^Path)
    )
    def test_game_solvers_reach_the_closed_forms(self, bland_only, family, k, values):
        inst = family(k, 2)
        assert solve_rni(inst).value == pytest.approx(values[0], abs=1e-9)
        assert solve_rni_path(inst).value == pytest.approx(values[1], abs=1e-9)
