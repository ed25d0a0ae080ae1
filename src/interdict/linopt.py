"""Dense linear-optimization kernel with primal and dual solutions.

A self-contained two-phase tableau simplex over numpy arrays; no external
LP solver.  Bland's rule takes over after a bounded number of
largest-coefficient pivots, so every solve either certifies a status
(optimal / infeasible / unbounded) or raises NumericalFailure.  Optimal
solutions are re-checked against the KKT conditions before being returned.

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


def _matrix(problem: LpProblem):
    """The user rows as one dense matrix: (A, b, rel)."""
    m = len(problem.rows)
    A = np.zeros((m, problem.num_vars))
    b = np.empty(m)
    rel = np.empty(m, dtype="<U2")
    for i, (coeffs, r, rhs) in enumerate(problem.rows):
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


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
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


def _solve_standard(A, b, rel, c, columns, max_iterations=None):
    """Two-phase simplex for min c.x subject to A x (rel) b and the bounds,
    over the nonnegative standard columns s that ``columns`` maps x to.

    The standard rows, A[:, src] * sign over b - A @ shift and then
    s_k <= span for each boxed column k, are written straight into the
    tableau, so no second copy of A lives through the pivots.
    Returns (status, s, duals_per_row).
    """
    shift, src, sign, boxed, span = columns
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
    b = b * flip
    T[:m, -1] = b
    T[rows, ident] = 1.0
    T[rows[ge], start[ge]] = -1.0
    is_artificial = np.zeros(ntot, dtype=bool)
    is_artificial[ident[~le]] = True
    basis = ident.tolist()

    T[m, :n] = c[src] * sign  # phase-2 reduced costs (basic costs are 0)
    T[m + 1] -= T[:m][~le].sum(axis=0)
    T[m + 1, n:ntot][is_artificial[n:]] += 1.0

    if max_iterations is None:
        max_iterations = 50 * (m + ntot) + 5000
    bland_after = 2 * (m + ntot) + 200
    allowed = ~is_artificial
    iters = 0
    keep = rows

    if not le.all():  # phase 1 drives the artificials out
        status, iters = _run_phase(
            T, basis, m, m + 1, allowed, bland_after, max_iterations, iters
        )
        if status == "unbounded":
            raise NumericalFailure("phase-1 objective diverged")
        # artificials may still be basic at level ~0; a positive phase-1
        # objective certifies infeasibility
        if -T[m + 1, -1] > CHECK_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return "infeasible", None, None
        drop = []
        for i in range(m):
            if is_artificial[basis[i]]:
                cands = np.nonzero(~is_artificial & (np.abs(T[i, :ntot]) > 1e-9))[0]
                if len(cands):
                    _pivot(T, basis, i, int(cands[0]))
                    iters += 1
                else:
                    drop.append(i)
        if drop:
            keep = np.delete(rows, drop)
            T = np.delete(T, drop, axis=0)
            basis = [basis[i] for i in keep]
            m = len(keep)

    status, iters = _run_phase(
        T, basis, m, m, allowed, bland_after, max_iterations, iters
    )
    if status == "unbounded":
        return "unbounded", None, None

    s = np.zeros(n)
    basic = np.array(basis, dtype=int)
    structural = basic < n
    s[basic[structural]] = T[:m, -1][structural]
    duals = np.zeros(len(rows))
    duals[keep] = flip[keep] * -T[m, ident[keep]]
    return "optimal", s, duals


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


def solve_lp(problem: LpProblem, max_iterations=None) -> LpSolution:
    """Solve the problem, returning primal values, row duals, and status.

    Raises NumericalFailure if no status can be certified within the
    iteration cap or the optimum fails its KKT re-check; a wrong answer is
    never returned silently.
    """
    A, b, rel = _matrix(problem)
    columns = _columns(problem)
    shift, src, sign = columns[:3]
    sense = -1.0 if problem.sense == "max" else 1.0
    status, s, y = _solve_standard(
        A, b, rel, sense * problem.objective, columns, max_iterations
    )
    if status != "optimal":
        return LpSolution(status=status)
    x = shift.copy()
    np.add.at(x, src, sign * s)
    duals = sense * y[: len(b)]
    objective = float(problem.objective @ x)
    solution = LpSolution(status="optimal", x=x, duals=duals, objective=objective)
    tol = CHECK_TOL * _scale(problem, A, b)
    bad = {k: v for k, v in _kkt(problem, A, b, rel, solution).items() if v > tol}
    if bad:
        raise NumericalFailure(f"optimality re-check failed: {bad}")
    return solution
