"""Dense linear-optimization kernel with primal and dual solutions.

A self-contained two-phase tableau simplex over numpy arrays; no external
LP solver.  Bland's rule takes over after a bounded number of
largest-coefficient pivots, so every solve either certifies a status
(optimal / infeasible / unbounded) or raises NumericalFailure.  Optimal
solutions are re-checked against the KKT conditions before being returned.

The tableau can outlive a solve (_Simplex): rows added to a solved problem
are appended to its optimal tableau, reduced against the basis with a
slack each, and the dual simplex (Chvatal, Linear Programming, 1983)
restores feasibility before the usual primal phase, so a cutting-plane
loop re-optimizes instead of starting over.  solve_lp is the cold start of
the same object: one pivot, one pair of iteration caps and one KKT
re-check serve both.  A pivot updates only the rows with a nonzero entry
in its column, in place.

The user's rows become one dense matrix (A, b, rel), and everything reads
it: the standard form, the KKT re-check and its scale.  Each variable maps
to nonnegative standard columns, x = shift + sum of sign_k * s_k: none
for a fixed variable, one for a variable with a finite bound (sign -1 and
shift = upper when only the upper bound is finite), two for a free one.
A variable bounded on both sides adds the row s_k <= upper - lower.  The
standard form is then A[:, src] * sign over the rows b - A @ shift, with
the bound rows below, so its shape is known before the tableau is built.

Row duals follow the sensitivity convention: ``duals[i]`` is the rate of
change of the optimal objective per unit increase of row i's right-hand
side.  For a maximization problem a binding ``<=`` row therefore carries a
nonnegative dual.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
CHECK_TOL = 1e-7

_RELATIONS = ("<=", "=", ">=")


class NumericalFailure(Exception):
    """The simplex could not certify any status within its iteration cap,
    or a computed optimum failed the KKT re-check."""


class LpProblem:
    """Builder for a dense LP: a linear objective, typed constraint rows,
    and per-variable bounds (either side may be infinite)."""

    def __init__(self, num_vars: int, sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = num_vars
        self.sense = sense
        self.objective = np.zeros(num_vars)
        self.lower = np.zeros(num_vars)
        self.upper = np.full(num_vars, np.inf)
        self.rows: list[tuple[dict[int, float], str, float]] = []

    def set_objective(self, coeffs) -> None:
        self.objective = np.zeros(self.num_vars)
        if isinstance(coeffs, dict):
            for j, a in coeffs.items():
                self.objective[j] = float(a)
        else:
            self.objective[:] = np.asarray(coeffs, dtype=float)

    def set_bounds(self, j: int, lower, upper) -> None:
        lo, up = float(lower), float(upper)
        if lo > up:
            raise ValueError(f"variable {j}: lower bound exceeds upper bound")
        self.lower[j] = lo
        self.upper[j] = up

    def add_row(self, coeffs: dict[int, float], rel: str, rhs) -> int:
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        clean = {}
        for j, a in coeffs.items():
            if not 0 <= j < self.num_vars:
                raise ValueError(f"column {j} out of range")
            a = float(a)
            if a:
                clean[int(j)] = a
        self.rows.append((clean, rel, float(rhs)))
        return len(self.rows) - 1


class LpSolution:
    def __init__(self, status: str, x=None, duals=None, objective=None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.duals = duals
        self.objective = objective

    def __repr__(self):
        return f"LpSolution(status={self.status!r}, objective={self.objective!r})"


def _matrix(problem: LpProblem, first: int = 0):
    """The user rows from index first on as one dense matrix: (A, b, rel)."""
    rows = problem.rows[first:]
    A = np.zeros((len(rows), problem.num_vars))
    b = np.empty(len(rows))
    rel = np.empty(len(rows), dtype="<U2")
    for i, (coeffs, r, rhs) in enumerate(rows):
        A[i, list(coeffs)] = list(coeffs.values())
        b[i] = rhs
        rel[i] = r
    return A, b, rel


def _columns(problem: LpProblem):
    """The column map of the module docstring as (shift, src, sign, boxed,
    span): x_j = shift_j + sum of sign_k * s_k over the k with src_k = j,
    and one row s_k <= span per boxed column k."""
    lo, up = problem.lower, problem.upper
    has_lo, has_up = np.isfinite(lo), np.isfinite(up)
    fixed = has_lo & (lo == up)
    free = ~has_lo & ~has_up
    width = np.where(fixed, 0, np.where(free, 2, 1))
    src = np.repeat(np.arange(problem.num_vars), width)
    first = np.cumsum(width) - width
    sign = np.ones(len(src))
    sign[first[~has_lo & has_up]] = -1.0
    sign[first[free] + 1] = -1.0
    shift = np.where(has_lo, lo, np.where(has_up, up, 0.0))
    boxed = np.nonzero(has_lo & has_up & ~fixed)[0]
    return shift, src, sign, first[boxed], up[boxed] - lo[boxed]


_BLOCK = 1 << 16  # tableau entries per block of a pivot's row update


def _pivot(T, basis, row, col):
    """Pivot in place on T[row, col].  Only the rows with a nonzero entry
    in the pivot column change; they are updated in blocks of at most
    _BLOCK entries, so no temporary the size of the tableau is made."""
    T[row] /= T[row, col]
    pivot_row = T[row]
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    step = max(1, _BLOCK // T.shape[1])
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        T[block] -= np.multiply.outer(T[block, col], pivot_row)
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_phase(T, basis, m, cost_row, allowed, bland_after, max_iter, iters):
    """Pivot until the given cost row is reduced-optimal.

    Returns (status, iters) where status is "optimal" or "unbounded".
    """
    if T.shape[1] == 1:  # every variable was constant-folded away
        return "optimal", iters
    while True:
        if iters > max_iter:
            raise NumericalFailure(
                f"no status certified within {max_iter} pivots"
            )
        bland = iters > bland_after
        r = T[cost_row, :-1]
        if bland:
            candidates = np.nonzero(allowed & (r < -PIVOT_TOL))[0]
            if not len(candidates):
                return "optimal", iters
            col = int(candidates[0])
        else:
            masked = np.where(allowed, r, np.inf)
            col = int(np.argmin(masked))
            if masked[col] >= -PIVOT_TOL:
                return "optimal", iters
        colv = T[:m, col]
        elig = colv > PIVOT_TOL
        if not elig.any():
            return "unbounded", iters
        rhs = np.maximum(T[:m, -1], 0.0)
        ratios = np.full(m, np.inf)
        ratios[elig] = rhs[elig] / colv[elig]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        if bland and len(ties) > 1:
            row = int(min(ties, key=lambda i: basis[i]))
        else:
            row = int(max(ties, key=lambda i: colv[i]))
        _pivot(T, basis, row, col)
        iters += 1


def _dual_phase(T, basis, m, allowed, bland_after, max_iter, iters):
    """Dual simplex on a tableau whose cost row m is reduced-optimal: pivot
    until the right-hand side is nonnegative, the entering column chosen by
    the ratio test on the reduced costs, so the cost row stays optimal.

    Returns (status, iters) where status is "feasible", or "infeasible"
    when a row with a negative right-hand side has no negative entry in
    an allowed column.
    """
    while True:
        if iters > max_iter:
            raise NumericalFailure(
                f"no status certified within {max_iter} pivots"
            )
        bland = iters > bland_after
        rhs = T[:m, -1]
        rows = np.flatnonzero(rhs < -PIVOT_TOL)
        if not len(rows):
            return "feasible", iters
        if bland:
            row = int(min(rows, key=lambda i: basis[i]))
        else:
            row = int(rows[np.argmin(rhs[rows])])
        rowv = T[row, :-1]
        elig = allowed & (rowv < -PIVOT_TOL)
        if not elig.any():
            return "infeasible", iters
        r = np.maximum(T[m, :-1], 0.0)
        ratios = np.full(len(r), np.inf)
        ratios[elig] = r[elig] / -rowv[elig]
        best = ratios.min()
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        if bland and len(ties) > 1:
            col = int(ties[0])
        else:
            col = int(max(ties, key=lambda j: -rowv[j]))
        _pivot(T, basis, row, col)
        iters += 1


class _Simplex:
    """One problem's simplex tableau, kept between solves.

    The first solve is the cold two-phase simplex.  Each later solve
    appends the problem's new rows, which must be inequalities, to the last
    optimal tableau: each row is reduced against the basis and gets its own
    slack column, basic, so the cost row stays optimal and only the new
    rows' right-hand sides may be negative.  The dual simplex
    (_dual_phase) restores them, then the primal phase runs as usual.
    After a solve that did not end optimal the next one is cold again.
    The objective and the bounds must not change between solves.

    The standard rows, A[:, src] * sign over b - A @ shift, then
    s_k <= span for each boxed column k, then the appended rows, are
    written straight into the tableau, so no second copy of A lives
    through the pivots.  ``iterations`` is the last solve's pivot count.
    """

    def __init__(self, problem: LpProblem):
        self.problem = problem
        self.status = None
        self.iterations = 0

    def solve(self) -> LpSolution:
        """Solve the problem with the rows it has now; see solve_lp.  A
        solve that raises leaves the next one cold."""
        warm, self.status = self.status == "optimal", None
        status = self._warm() if warm else self._cold()
        if status != "optimal":
            self.status = status
            return LpSolution(status=status)
        solution = self._checked(*self._point())
        self.status = status
        return solution

    def _caps(self):
        """(bland_after, max_iterations) for the tableau's current size."""
        size = len(self.basis) + self.T.shape[1] - 1
        return 2 * size + 200, 50 * size + 5000

    def _cold(self) -> str:
        problem = self.problem
        self.A, self.b, self.rel = A, b, rel = _matrix(problem)
        self.columns = shift, src, sign, boxed, span = _columns(problem)
        c = (-1.0 if problem.sense == "max" else 1.0) * problem.objective
        b = np.concatenate([b - A @ shift, span])
        rel = np.concatenate([rel, np.full(len(boxed), "<=")])
        m, n = len(b), len(src)
        flip = np.where(b < 0, -1.0, 1.0)
        ge = np.where(flip < 0, rel == "<=", rel == ">=")
        le = np.where(flip < 0, rel == ">=", rel == "<=")
        # per row: a slack (<=), a surplus then an artificial (>=), or an
        # artificial (=); ident is the row's +e_i column
        width = 1 + ge
        start = n + np.cumsum(width) - width
        ident = start + ge
        ntot = n + int(width.sum())
        rows = np.arange(m)
        T = np.zeros((m + 2, ntot + 1))
        np.multiply(A[:, src], sign, out=T[: len(A), :n])
        T[len(A) + np.arange(len(boxed)), boxed] = 1.0
        T[:m, :n] *= flip[:, None]
        T[:m, -1] = b * flip
        T[rows, ident] = 1.0
        T[rows[ge], start[ge]] = -1.0
        is_artificial = np.zeros(ntot, dtype=bool)
        is_artificial[ident[~le]] = True
        basis = ident.tolist()

        T[m, :n] = c[src] * sign  # phase-2 reduced costs (basic costs are 0)
        T[m + 1] -= T[:m][~le].sum(axis=0)
        T[m + 1, n:ntot][is_artificial[n:]] += 1.0

        self.T, self.basis, self.n = T, basis, n
        self.allowed = allowed = ~is_artificial
        self.flip, self.ident = flip[: len(A)], ident[: len(A)]
        bland_after, max_iterations = self._caps()
        iters = 0

        if not le.all():  # phase 1 drives the artificials out
            status, iters = _run_phase(
                T, basis, m, m + 1, allowed, bland_after, max_iterations, iters
            )
            self.iterations = iters
            if status == "unbounded":
                raise NumericalFailure("phase-1 objective diverged")
            # artificials may still be basic at level ~0; a positive phase-1
            # objective certifies infeasibility
            if -T[m + 1, -1] > CHECK_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
                return "infeasible"
            drop = []
            for i in range(m):
                if is_artificial[basis[i]]:
                    cands = np.nonzero(~is_artificial & (np.abs(T[i, :ntot]) > 1e-9))[0]
                    if len(cands):
                        _pivot(T, basis, i, int(cands[0]))
                        iters += 1
                    else:
                        drop.append(i)
            if drop:  # redundant rows, all user rows: their duals are 0
                self.T = T = np.delete(T, drop, axis=0)
                self.basis = basis = [basis[i] for i in np.delete(rows, drop)]
                self.ident[drop] = -1
                m = len(basis)

        status, iters = _run_phase(
            T, basis, m, m, allowed, bland_after, max_iterations, iters
        )
        self.iterations = iters
        return status

    def _warm(self) -> str:
        first = len(self.A)
        A, b, rel = _matrix(self.problem, first)
        if (rel == "=").any():
            raise ValueError("only inequality rows can be added to a solved LP")
        shift, src, sign = self.columns[:3]
        T, basis, n = self.T, self.basis, self.n
        m, k, ntot = len(basis), len(b), T.shape[1] - 1
        flip = np.where(rel == ">=", -1.0, 1.0)
        new = np.empty((k, ntot + 1))
        np.multiply(A[:, src], sign, out=new[:, :n])
        new[:, :n] *= flip[:, None]
        new[:, n:-1] = 0.0
        new[:, -1] = (b - A @ shift) * flip
        new -= new[:, basis] @ T[:m]  # reduced against the basis
        # one allocation per solve: the old rows, the new, then the cost row
        grown = np.zeros((m + k + 1, ntot + k + 1))
        grown[:m, :ntot] = T[:m, :-1]
        grown[m : m + k, :ntot] = new[:, :-1]
        grown[m + k, :ntot] = T[m, :-1]
        grown[: m + k, -1] = np.concatenate([T[:m, -1], new[:, -1]])
        grown[m + k, -1] = T[m, -1]
        slacks = ntot + np.arange(k)
        grown[m + np.arange(k), slacks] = 1.0
        self.T = T = grown
        basis.extend(slacks.tolist())
        self.allowed = np.concatenate([self.allowed, np.ones(k, dtype=bool)])
        self.A = np.concatenate([self.A, A])
        self.b = np.concatenate([self.b, b])
        self.rel = np.concatenate([self.rel, rel])
        self.flip = np.concatenate([self.flip, flip])
        self.ident = np.concatenate([self.ident, slacks])

        m += k
        bland_after, max_iterations = self._caps()
        status, iters = _dual_phase(
            T, basis, m, self.allowed, bland_after, max_iterations, 0
        )
        if status == "feasible":
            status, iters = _run_phase(
                T, basis, m, m, self.allowed, bland_after, max_iterations, iters
            )
        self.iterations = iters
        return status

    def _point(self):
        """The standard columns' values and the user rows' duals in the
        standard (minimization) sense."""
        T, basis, n = self.T, self.basis, self.n
        m = len(basis)
        s = np.zeros(n)
        basic = np.array(basis, dtype=int)
        structural = basic < n
        s[basic[structural]] = T[:m, -1][structural]
        y = np.zeros(len(self.ident))
        kept = self.ident >= 0
        y[kept] = self.flip[kept] * -T[m, self.ident[kept]]
        return s, y

    def _checked(self, s, y) -> LpSolution:
        """The solution of the standard point, re-checked against the KKT
        conditions of the user's rows."""
        problem = self.problem
        shift, src, sign = self.columns[:3]
        x = shift.copy()
        np.add.at(x, src, sign * s)
        duals = (-1.0 if problem.sense == "max" else 1.0) * y
        objective = float(problem.objective @ x)
        solution = LpSolution(status="optimal", x=x, duals=duals, objective=objective)
        tol = CHECK_TOL * _scale(problem, self.A, self.b)
        kkt = _kkt(problem, self.A, self.b, self.rel, solution)
        bad = {key: v for key, v in kkt.items() if v > tol}
        if bad:
            raise NumericalFailure(f"optimality re-check failed: {bad}")
        return solution


def _kkt(problem: LpProblem, A, b, rel, solution: LpSolution) -> dict[str, float]:
    x = np.asarray(solution.x, dtype=float)
    y = np.asarray(solution.duals, dtype=float)
    sense = 1.0 if problem.sense == "max" else -1.0
    lo, up = problem.lower, problem.upper
    le, ge = rel == "<=", rel == ">="
    resid = A @ x - b
    violation = np.where(le, resid, np.where(ge, -resid, np.abs(resid)))
    primal = max(violation.max(initial=0.0), (lo - x).max(), (x - up).max())
    signed = np.where(le, -sense * y, np.where(ge, sense * y, 0.0))
    dual_sign = signed.max(initial=0.0)
    cs = np.abs(y * resid).max(initial=0.0)
    # for max problems: interior => r = 0, at lower => r <= 0, at upper => r >= 0
    r = problem.objective - A.T @ y
    at_lo = np.isfinite(lo) & (x <= lo + 1e-7)
    at_up = np.isfinite(up) & (x >= up - 1e-7)
    bad = ((sense * r > 0) & ~at_up) | ((sense * r < 0) & ~at_lo)
    stationarity = np.abs(r[bad]).max(initial=0.0)
    bound = np.where(sense * r > 0, up, lo)
    dual_obj = y @ b + r @ np.where(np.isfinite(bound), bound, x)
    gap = abs(solution.objective - dual_obj)
    return {
        "primal": float(primal),
        "dual_sign": float(dual_sign),
        "stationarity": float(stationarity),
        "complementary_slackness": float(cs),
        "gap": float(gap),
    }


def kkt_report(problem: LpProblem, solution: LpSolution) -> dict[str, float]:
    """Absolute violation magnitudes of the optimality conditions:
    primal feasibility, dual sign feasibility, stationarity at bounds,
    complementary slackness, and the strong-duality gap."""
    return _kkt(problem, *_matrix(problem), solution)


def _scale(problem: LpProblem, A, b) -> float:
    finite = problem.upper[np.isfinite(problem.upper)]
    return max(
        1.0,
        np.abs(A).max(initial=0.0),
        np.abs(b).max(initial=0.0),
        np.abs(problem.objective).max(),
        np.abs(finite).max(initial=0.0),
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the problem, returning primal values, row duals, and status.

    Raises NumericalFailure if no status can be certified within the
    iteration cap or the optimum fails its KKT re-check; a wrong answer is
    never returned silently.  This is the cold start of _Simplex.
    """
    return _Simplex(problem).solve()
