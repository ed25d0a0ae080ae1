"""Dense linear-optimization kernel with primal and dual solutions.

A self-contained two-phase tableau simplex over numpy arrays; no external
LP solver.  Bland's rule takes over after a bounded number of
largest-coefficient pivots, so every solve either certifies a status
(optimal / infeasible / unbounded) or raises NumericalFailure.  Optimal
solutions are re-checked against the KKT conditions before being returned.

Row duals follow the sensitivity convention: ``duals[i]`` is the rate of
change of the optimal objective per unit increase of row i's right-hand
side.  For a maximization problem a binding ``<=`` row therefore carries a
nonnegative dual.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
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


class _Standardized:
    """Internal min-LP over nonnegative variables plus the maps back."""

    def __init__(self):
        self.transforms = []  # per user var
        self.ncols = 0
        self.c = None
        self.rows = []  # (dense coeff dict, rel, rhs, user_row_index or None)
        self.sense_mult = 1.0


def _standardize(problem: LpProblem) -> _Standardized:
    std = _Standardized()
    std.sense_mult = -1.0 if problem.sense == "max" else 1.0
    bound_rows = []
    for j in range(problem.num_vars):
        lo, up = problem.lower[j], problem.upper[j]
        if np.isfinite(lo) and np.isfinite(up) and lo == up:
            std.transforms.append(("fixed", lo))
        elif np.isfinite(lo):
            col = std.ncols
            std.ncols += 1
            std.transforms.append(("shift", col, lo))
            if np.isfinite(up):
                bound_rows.append(({col: 1.0}, "<=", up - lo))
        elif np.isfinite(up):
            col = std.ncols
            std.ncols += 1
            std.transforms.append(("mirror", col, up))
        else:
            p, q = std.ncols, std.ncols + 1
            std.ncols += 2
            std.transforms.append(("split", p, q))

    def transform(coeffs):
        out: dict[int, float] = {}
        const = 0.0
        for j, a in coeffs.items():
            t = std.transforms[j]
            if t[0] == "fixed":
                const += a * t[1]
            elif t[0] == "shift":
                out[t[1]] = out.get(t[1], 0.0) + a
                const += a * t[2]
            elif t[0] == "mirror":
                out[t[1]] = out.get(t[1], 0.0) - a
                const += a * t[2]
            else:
                out[t[1]] = out.get(t[1], 0.0) + a
                out[t[2]] = out.get(t[2], 0.0) - a
        return out, const

    for idx, (coeffs, rel, rhs) in enumerate(problem.rows):
        cc, const = transform(coeffs)
        std.rows.append((cc, rel, rhs - const, idx))
    for cc, rel, rhs in bound_rows:
        std.rows.append((cc, rel, rhs, None))

    obj_cc, _ = transform({j: problem.objective[j] for j in range(problem.num_vars)})
    c = np.zeros(std.ncols)
    for col, a in obj_cc.items():
        c[col] = a
    std.c = std.sense_mult * c
    return std


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


def _solve_standard(std: _Standardized, max_iterations=None):
    """Two-phase simplex on the standardized rows.

    Returns (status, x_std, duals_per_std_row).
    """
    m = len(std.rows)
    n = std.ncols
    A = np.zeros((m, n))
    b = np.zeros(m)
    rel = []
    for i, (cc, r, rhs, _) in enumerate(std.rows):
        for col, a in cc.items():
            A[i, col] = a
        b[i] = rhs
        rel.append(r)
    flip = np.ones(m)
    for i in range(m):
        if b[i] < 0:
            A[i] *= -1.0
            b[i] *= -1.0
            flip[i] = -1.0
            rel[i] = {"<=": ">=", ">=": "<=", "=": "="}[rel[i]]

    slack_col = {}
    art_col = {}
    extra = []
    for i in range(m):
        if rel[i] == "<=":
            slack_col[i] = n + len(extra)
            extra.append((i, 1.0, False))
        elif rel[i] == ">=":
            extra.append((i, -1.0, False))
            art_col[i] = n + len(extra)
            extra.append((i, 1.0, True))
        else:
            art_col[i] = n + len(extra)
            extra.append((i, 1.0, True))
    ntot = n + len(extra)
    is_artificial = np.zeros(ntot, dtype=bool)
    T = np.zeros((m + 2, ntot + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    for k, (i, sign, art) in enumerate(extra):
        T[i, n + k] = sign
        is_artificial[n + k] = art

    basis = [-1] * m
    for i in range(m):
        basis[i] = art_col.get(i, slack_col.get(i))
    identity_col = list(basis)  # +e_i column per row, for dual extraction

    T[m, : len(std.c)] = std.c  # phase-2 reduced costs (basic costs are 0)
    have_art = [i for i in range(m) if i in art_col]
    for i in have_art:
        T[m + 1] -= T[i]
    T[m + 1, n:ntot][is_artificial[n:]] += 1.0

    if max_iterations is None:
        max_iterations = 50 * (m + ntot) + 5000
    bland_after = 2 * (m + ntot) + 200
    allowed = ~is_artificial
    iters = 0

    if have_art:
        status, iters = _run_phase(
            T, basis, m, m + 1, allowed, bland_after, max_iterations, iters
        )
        if status == "unbounded":
            raise NumericalFailure("phase-1 objective diverged")
        # artificials may still be basic at level ~0; a positive phase-1
        # objective certifies infeasibility
        if -T[m + 1, -1] > CHECK_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return "infeasible", None, None, None
        drop = []
        for i in range(m):
            if is_artificial[basis[i]]:
                pivot_col = -1
                row_vals = T[i, :ntot]
                cands = np.nonzero(~is_artificial & (np.abs(row_vals) > 1e-9))[0]
                if len(cands):
                    pivot_col = int(cands[0])
                if pivot_col >= 0:
                    _pivot(T, basis, i, pivot_col)
                    iters += 1
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in set(drop)]
            T = np.delete(T, drop, axis=0)
            basis = [basis[i] for i in keep]
            identity_col = [identity_col[i] for i in keep]
            flip = flip[keep]
            row_keep = keep
            m = len(keep)
        else:
            row_keep = list(range(m))
    else:
        row_keep = list(range(m))

    status, iters = _run_phase(
        T, basis, m, m, allowed, bland_after, max_iterations, iters
    )
    if status == "unbounded":
        return "unbounded", None, None, None

    x_std = np.zeros(std.ncols)
    for i in range(m):
        if basis[i] < std.ncols:
            x_std[basis[i]] = T[i, -1]
    duals_std = np.zeros(len(std.rows))
    for pos, orig_row in enumerate(row_keep):
        y_flipped = -T[len(basis), identity_col[pos]]
        duals_std[orig_row] = flip[pos] * y_flipped
    return "optimal", x_std, duals_std, iters


def kkt_report(problem: LpProblem, solution: LpSolution) -> dict[str, float]:
    """Absolute violation magnitudes of the optimality conditions:
    primal feasibility, dual sign feasibility, stationarity at bounds,
    complementary slackness, and the strong-duality gap."""
    x = np.asarray(solution.x, dtype=float)
    y = np.asarray(solution.duals, dtype=float)
    sense = 1.0 if problem.sense == "max" else -1.0
    primal = 0.0
    cs = 0.0
    dual_sign = 0.0
    r = problem.objective.copy()
    dual_obj = 0.0
    for i, (coeffs, rel, rhs) in enumerate(problem.rows):
        act = sum(a * x[j] for j, a in coeffs.items())
        if rel == "<=":
            primal = max(primal, act - rhs)
            dual_sign = max(dual_sign, -sense * y[i])
        elif rel == ">=":
            primal = max(primal, rhs - act)
            dual_sign = max(dual_sign, sense * y[i])
        else:
            primal = max(primal, abs(act - rhs))
        cs = max(cs, abs(y[i] * (act - rhs)))
        for j, a in coeffs.items():
            r[j] -= y[i] * a
        dual_obj += y[i] * rhs
    stationarity = 0.0
    for j in range(problem.num_vars):
        lo, up = problem.lower[j], problem.upper[j]
        primal = max(primal, lo - x[j], x[j] - up)
        rj = r[j]
        at_lo = np.isfinite(lo) and x[j] <= lo + 1e-7
        at_up = np.isfinite(up) and x[j] >= up - 1e-7
        # for max problems: interior => r = 0, at lower => r <= 0, at upper => r >= 0
        lo_ok = sense * rj <= 0 or at_up
        up_ok = sense * rj >= 0 or at_lo
        if not (lo_ok and up_ok):
            stationarity = max(stationarity, abs(rj))
        if sense * rj > 0:
            dual_obj += rj * (up if np.isfinite(up) else x[j])
            if not np.isfinite(up):
                stationarity = max(stationarity, abs(rj))
        elif sense * rj < 0:
            dual_obj += rj * (lo if np.isfinite(lo) else x[j])
            if not np.isfinite(lo):
                stationarity = max(stationarity, abs(rj))
    gap = abs(solution.objective - dual_obj)
    return {
        "primal": float(primal),
        "dual_sign": float(dual_sign),
        "stationarity": float(stationarity),
        "complementary_slackness": float(cs),
        "gap": float(gap),
    }


def _scale(problem: LpProblem) -> float:
    big = 1.0
    for coeffs, _, rhs in problem.rows:
        big = max(big, abs(rhs), *(abs(a) for a in coeffs.values()))
    if len(problem.objective):
        big = max(big, float(np.abs(problem.objective).max()))
    finite = problem.upper[np.isfinite(problem.upper)]
    if len(finite):
        big = max(big, float(np.abs(finite).max()))
    return big


def solve_lp(problem: LpProblem, max_iterations=None) -> LpSolution:
    """Solve the problem, returning primal values, row duals, and status.

    Raises NumericalFailure if no status can be certified within the
    iteration cap or the optimum fails its KKT re-check; a wrong answer is
    never returned silently.
    """
    std = _standardize(problem)
    status, x_std, duals_std, _ = _solve_standard(std, max_iterations)
    if status != "optimal":
        return LpSolution(status=status)
    x = np.zeros(problem.num_vars)
    for j, t in enumerate(std.transforms):
        if t[0] == "fixed":
            x[j] = t[1]
        elif t[0] == "shift":
            x[j] = t[2] + x_std[t[1]]
        elif t[0] == "mirror":
            x[j] = t[2] - x_std[t[1]]
        else:
            x[j] = x_std[t[1]] - x_std[t[2]]
    duals = np.zeros(len(problem.rows))
    for std_idx, (_, _, _, user_idx) in enumerate(std.rows):
        if user_idx is not None:
            duals[user_idx] = std.sense_mult * duals_std[std_idx]
    objective = float(problem.objective @ x)
    solution = LpSolution(status="optimal", x=x, duals=duals, objective=objective)
    report = kkt_report(problem, solution)
    tol = CHECK_TOL * _scale(problem)
    bad = {k: v for k, v in report.items() if v > tol}
    if bad:
        raise NumericalFailure(f"optimality re-check failed: {bad}")
    return solution
