"""Dense bounded-variable primal simplex with warm starting.

Sized for the small aggregation subproblems (tens of rows, up to a few
thousand columns).  Two-phase, big-M free; Dantzig pricing with a Bland
fallback after a run of degenerate pivots.  Every solve works on one
standard form, the structural columns then one slack per 'L' row; a cold
solve appends one artificial column per row.  The simplex loop solves
each basis it visits once and returns the point and duals of the last
one; the solution is certified and packed from those, with no further
solve.  A warm start is the status vector over the standard-form columns
of an optimal solve; it can restart a problem that differs only in
objective and/or variable bounds.  A solve that ends other than optimal
carries no point and no status vector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, LpFailure

BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
DEGEN_PIVOT_LIMIT = 1000
MAX_ITER_FACTOR = 50  # a phase stops after MAX_ITER_FACTOR * (rows + cols) pivots

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"


@dataclass
class LpProblem:
    """min obj.x  s.t.  A x (= or <=) rhs,  col_lb <= x <= col_ub."""

    obj: np.ndarray
    A: np.ndarray
    row_type: list  # 'E' or 'L' per row
    rhs: np.ndarray
    col_lb: np.ndarray
    col_ub: np.ndarray

    def __post_init__(self):
        self.obj = np.asarray(self.obj, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.col_lb = np.asarray(self.col_lb, dtype=float)
        self.col_ub = np.asarray(self.col_ub, dtype=float)
        if self.A.shape != (len(self.rhs), len(self.obj)):
            raise ContractViolation(
                "LP matrix has shape %s, expected (%d, %d)"
                % (self.A.shape, len(self.rhs), len(self.obj))
            )
        m, n = self.A.shape
        if not (len(self.col_lb) == len(self.col_ub) == n):
            raise ContractViolation("inconsistent LP column dimensions")
        if len(self.row_type) != m:
            raise ContractViolation("inconsistent LP row dimensions")
        if np.any(self.col_lb > self.col_ub):
            raise ContractViolation("LP has a column with lower > upper")

    @property
    def n_cols(self):
        return self.A.shape[1]

    @property
    def n_rows(self):
        return self.A.shape[0]


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals: np.ndarray = None
    objective: float = None
    col_status: np.ndarray = None  # per standard-form column, see _standard_form
    iterations: int = 0

    def warm_start(self):
        """The status vector that warm-starts ``solve_lp``; a copy."""
        return self.col_status.copy()


def _standard_form(problem):
    """(A, b, c, lb, ub): structural columns, then one slack per 'L' row."""
    m, n = problem.A.shape
    slack_rows = np.array(
        [i for i, t in enumerate(problem.row_type) if t == "L"], dtype=np.int64
    )
    ns = len(slack_rows)
    A = np.zeros((m, n + ns))
    A[:, :n] = problem.A
    A[slack_rows, n + np.arange(ns)] = 1.0
    c = np.concatenate([problem.obj, np.zeros(ns)])
    lb = np.concatenate([problem.col_lb, np.zeros(ns)])
    ub = np.concatenate([problem.col_ub, np.full(ns, np.inf)])
    return A, problem.rhs, c, lb, ub


def _nonbasic_values(status, lb, ub):
    x = np.zeros(len(status))
    at_lo = status == AT_LOWER
    at_up = status == AT_UPPER
    x[at_lo] = lb[at_lo]
    x[at_up] = ub[at_up]
    return x


def _basic_solve(A, B, b, lb, ub, basis, status):
    """Point with nonbasics at their bounds and B x_B = b - A x_N.

    ``B`` is ``A[:, basis]``; raises ``np.linalg.LinAlgError`` if singular.
    """
    x = _nonbasic_values(status, lb, ub)
    x[basis] = 0.0
    x[basis] = np.linalg.solve(B, b - A @ x)
    return x


def _default_status(lb, ub):
    status = np.full(len(lb), FREE, dtype=np.int64)
    status[np.isfinite(lb)] = AT_LOWER
    only_ub = ~np.isfinite(lb) & np.isfinite(ub)
    status[only_ub] = AT_UPPER
    return status


def ratio_test(w, xb, lb, ub, sdir, tcap):
    """Bounded-variable primal ratio test.

    ``xb`` moves along ``-sdir*w`` as the entering variable takes step
    ``t >= 0``; ``tcap`` bounds the step by the entering variable's own
    range.  Returns ``(t, leave, to_upper)`` where ``leave`` is the blocking
    basic position (-1 for a bound flip / unbounded step) and ``to_upper``
    tells which bound the leaving variable hits.
    """
    eps = 1e-10
    d = sdir * w
    t = tcap
    leave = -1
    to_upper = False
    with np.errstate(divide="ignore", invalid="ignore"):
        down = np.where(d > eps, (xb - lb) / d, np.inf)
        upr = np.where(d < -eps, (ub - xb) / (-d), np.inf)
    down = np.where(np.isfinite(lb), down, np.inf)
    upr = np.where(np.isfinite(ub), upr, np.inf)
    ratios = np.minimum(down, upr)
    if ratios.size:
        k = int(np.argmin(ratios))
        if ratios[k] < t:
            t = float(max(ratios[k], 0.0))
            leave = k
            to_upper = bool(upr[k] < down[k])
    return t, leave, to_upper


def _simplex_loop(A, b, c, lb, ub, basis, status, enterable, max_iter):
    """Primal iterations from a feasible basis; returns (code, iterations, x, y).

    code is OPTIMAL / UNBOUNDED / ITERATION_LIMIT.  For OPTIMAL and
    UNBOUNDED, x and y are the point and duals of the final basis, which is
    the one last solved; for ITERATION_LIMIT both are None.  basis and
    status are updated in place.
    """
    degen = 0
    bland = False
    it = 0
    while True:
        B = A[:, basis]
        try:
            x = _basic_solve(A, B, b, lb, ub, basis, status)
            y = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError:
            raise LpFailure("singular basis matrix")
        d = c - y @ A
        # objective decrease per unit step: down from an upper bound, up
        # from a lower bound, the better way for a free column
        viol = np.where(status == AT_UPPER, d, np.where(status == FREE, np.abs(d), -d))
        viol[~enterable] = 0.0
        viol[basis] = 0.0
        if bland:
            cand = np.flatnonzero(viol > OPT_TOL)
            if len(cand) == 0:
                return OPTIMAL, it, x, y
            j = int(cand[0])
        else:
            j = int(np.argmax(viol))
            if viol[j] <= OPT_TOL:
                return OPTIMAL, it, x, y
        if status[j] == AT_UPPER or (status[j] == FREE and d[j] > 0):
            sdir = -1.0
        else:
            sdir = 1.0
        w = np.linalg.solve(B, A[:, j])
        tcap = ub[j] - lb[j] if status[j] != FREE else np.inf
        t, leave, to_upper = ratio_test(
            w, x[basis], lb[basis], ub[basis], sdir, float(tcap)
        )
        if not np.isfinite(t):
            return UNBOUNDED, it, x, y
        if leave < 0:
            # entering variable flips to its opposite bound
            status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
        else:
            out = basis[leave]
            status[out] = AT_UPPER if to_upper else AT_LOWER
            basis[leave] = j
            status[j] = BASIC
        if t <= 1e-10:
            degen += 1
            if degen > DEGEN_PIVOT_LIMIT:
                bland = True
        else:
            degen = 0
        it += 1
        if it >= max_iter:
            return ITERATION_LIMIT, it, None, None


def _feas_scale(b):
    return 1.0 + np.abs(b).max(initial=0.0)


def _try_warm(A, b, lb, ub, warm):
    """(basis, status) from a prior status vector, or None if it does not fit.

    Rejects a vector of the wrong length, the wrong number of basics, a
    singular basis, or a basis that is not primal feasible for ``b``.
    """
    m, width = A.shape
    if warm.shape != (width,):
        return None
    status = warm.astype(np.int64)
    basis = np.flatnonzero(status == BASIC)
    if len(basis) != m:
        return None
    # nonbasic columns whose recorded bound no longer exists fall back to 0
    status[(status == AT_LOWER) & ~np.isfinite(lb)] = FREE
    lost_ub = (status == AT_UPPER) & ~np.isfinite(ub)
    status[lost_ub] = np.where(np.isfinite(lb[lost_ub]), AT_LOWER, FREE)
    try:
        xb = _basic_solve(A, A[:, basis], b, lb, ub, basis, status)[basis]
    except np.linalg.LinAlgError:
        return None
    tol = FEAS_TOL * _feas_scale(b)
    if np.max(lb[basis] - xb, initial=0.0) > tol or np.max(
        xb - ub[basis], initial=0.0
    ) > tol:
        return None
    return basis, status


def solve_lp(problem, warm=None):
    """Solve an LpProblem, optionally warm-started from a prior status vector.

    The warm start is used only if its basis is primal feasible for the new
    data; otherwise the solve silently falls back to a cold two-phase run.
    Only an optimal solution carries a point, duals and a status vector.
    """
    A, b, c, lb, ub = _standard_form(problem)
    m, width = A.shape
    max_iter = MAX_ITER_FACTOR * (problem.n_rows + problem.n_cols)

    start = None if warm is None else _try_warm(A, b, lb, ub, warm)
    if start is not None:
        basis, status = start
        enterable = np.ones(width, dtype=bool)
        code, it, x, y = _simplex_loop(A, b, c, lb, ub, basis, status, enterable, max_iter)
    else:
        # phase 1: artificial columns form the starting basis
        status = _default_status(lb, ub)
        r = b - A @ _nonbasic_values(status, lb, ub)
        A = np.hstack([A, np.diag(np.where(r >= 0, 1.0, -1.0))])
        lb = np.concatenate([lb, np.zeros(m)])
        ub = np.concatenate([ub, np.full(m, np.inf)])
        c1 = np.concatenate([np.zeros(width), np.ones(m)])
        status = np.concatenate([status, np.full(m, BASIC, dtype=np.int64)])
        basis = np.arange(width, width + m, dtype=np.int64)
        enterable = np.arange(width + m) < width
        code, it, x, _ = _simplex_loop(A, b, c1, lb, ub, basis, status, enterable, max_iter)
        if code == ITERATION_LIMIT:
            return LpSolution(status=ITERATION_LIMIT, iterations=it)
        if np.sum(np.abs(x[basis[basis >= width]])) > FEAS_TOL * _feas_scale(b) * 10:
            return LpSolution(status=INFEASIBLE, iterations=it)

        # phase 2: pin the artificials at zero (some may stay basic on
        # dependent rows), restore real costs
        lb[width:] = 0.0
        ub[width:] = 0.0
        c = np.concatenate([c, np.zeros(m)])
        code, it2, x, y = _simplex_loop(A, b, c, lb, ub, basis, status, enterable, max_iter)
        it += it2
    if code != OPTIMAL:
        return LpSolution(status=code, iterations=it)
    tol = FEAS_TOL * _feas_scale(b) * 10
    resid = np.abs(A @ x - b).max(initial=0.0)
    bound_viol = max(np.max(lb - x, initial=0.0), np.max(x - ub, initial=0.0))
    if resid > tol or bound_viol > tol:
        raise LpFailure("feasibility could not be certified", status=OPTIMAL)
    xs = x[: problem.n_cols]
    return LpSolution(
        status=OPTIMAL,
        x=xs,
        duals=y,
        objective=float(problem.obj @ xs),
        col_status=status[:width].copy(),
        iterations=it,
    )


def build_abs_value_lp(terms, extra_cost, lam_lb, lam_ub):
    """LP for  min  sum_t w_t |expr_t(lam)| + extra_cost . lam.

    Each term is a pair ``(weight, coef_vector)`` describing the linear
    expression ``coef_vector . lam`` with weight >= 0; the absolute value
    is split into mu+ - mu- with an equality row
    ``expr_t(lam) - mu+ + mu- = 0`` and cost ``w_t (mu+ + mu-)``.
    """
    if any(not isinstance(term, (tuple, list)) or len(term) != 2 for term in terms):
        raise ContractViolation("each absolute-value term must be a (weight, coef_vector) pair")
    lam_lb = np.asarray(lam_lb, dtype=float)
    lam_ub = np.asarray(lam_ub, dtype=float)
    k = len(lam_lb)
    nt = len(terms)
    w = np.array([weight for weight, _ in terms], dtype=float)
    if np.any(w < 0):
        raise ContractViolation("absolute-value weight must be nonnegative")
    t = np.arange(nt)
    A = np.zeros((nt, k + 2 * nt))
    A[:, :k] = np.array([coef for _, coef in terms], dtype=float).reshape(nt, k)
    A[t, k + 2 * t] = -1.0
    A[t, k + 2 * t + 1] = 1.0
    obj = np.zeros(k + 2 * nt)
    obj[:k] = extra_cost
    obj[k:] = np.repeat(w, 2)
    lb = np.concatenate([lam_lb, np.zeros(2 * nt)])
    ub = np.concatenate([lam_ub, np.full(2 * nt, np.inf)])
    return LpProblem(
        obj=obj,
        A=A,
        row_type=["E"] * nt,
        rhs=np.zeros(nt),
        col_lb=lb,
        col_ub=ub,
    )
