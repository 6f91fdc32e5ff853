"""Dense bounded-variable primal simplex with warm starting.

Sized for the small aggregation subproblems (tens of rows, up to a few
thousand columns).  Two-phase, big-M free; Dantzig pricing with a Bland
fallback after a run of degenerate pivots; a fixed column (lb == ub)
is never priced, since it cannot move.  Every solve works on one
standard form, the structural columns then one slack per 'L' row.  A
cold solve starts from a crash basis (Bixby 1992): a row takes the first
column whose only nonzero lies in it and whose value solving the row is
within bounds, and an artificial column, signed by the row's residual,
is appended only for each row left uncovered.  Phase 1 runs only when
there is one; it ends with the artificials pinned at zero, which keeps
them out of phase 2.  The point and the basis inverse travel with the
basis (the product form of the inverse, Dantzig & Orchard-Hays 1954):
the starting basis is factored once, and each pivot prices and computes
its entering column with products against the kept inverse, moves the
point by the step and updates the inverse by one rank-one eta step.
The inverse and the point are factored afresh every REFACTOR_EVERY
pivots and once more before OPTIMAL is returned, so the point and duals
the solution is certified and packed from come from a fresh
factorization of the final basis.  A solve first finds a feasible start
(an accepted warm basis, the crash basis when it covers every row, or
else phase 1's final basis, whose inverse phase 2 keeps) and then makes
one phase-2 run.  A warm start is the status vector over the
standard-form columns of an optimal solve; it can restart a problem that
differs only in objective and/or variable bounds.  A solve that ends
other than optimal carries no point and no status vector.
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
REFACTOR_EVERY = 64  # the basis inverse is factored afresh after this many pivots

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
        if any(t not in ("E", "L") for t in self.row_type):
            raise ContractViolation("LP row type must be 'E' or 'L'")
        if not all(np.isfinite(v).all() for v in (self.obj, self.A, self.rhs)):
            raise ContractViolation("LP has a non-finite cost, coefficient or right-hand side")
        lb, ub = self.col_lb, self.col_ub
        if not (np.all(lb < np.inf) and np.all(ub > -np.inf)):  # False on a NaN too
            raise ContractViolation("LP has a NaN bound, a +inf lower or a -inf upper bound")
        if np.any(lb > ub):
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


def _factor(A, b, lb, ub, basis, status):
    """(Binv, x): the inverse of ``A[:, basis]`` and the basis's point.

    The point has its nonbasics at their bounds and ``x_B = Binv (b - A x_N)``.
    Raises ``np.linalg.LinAlgError`` if the basis matrix is singular.
    """
    Binv = np.linalg.inv(A[:, basis])
    x = _nonbasic_values(status, lb, ub)  # basic columns read 0 here
    x[basis] = Binv @ (b - A @ x)
    return Binv, x


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
    pos = d > eps
    neg = d < -eps
    # an infinite bound gives an infinite ratio
    ratios = np.full(len(d), np.inf)
    ratios[pos] = (xb[pos] - lb[pos]) / d[pos]
    ratios[neg] = (ub[neg] - xb[neg]) / -d[neg]
    if ratios.size:
        k = int(np.argmin(ratios))
        if ratios[k] < tcap:
            return float(max(ratios[k], 0.0)), k, bool(neg[k])
    return tcap, -1, False


def _simplex_loop(A, b, c, lb, ub, basis, status, x, Binv, max_iter):
    """Primal iterations from a feasible basis; returns (code, iterations, x, y, Binv).

    x and Binv are the point and basis inverse of the starting basis, as
    ``_factor`` gives them.  code is OPTIMAL / UNBOUNDED / ITERATION_LIMIT.
    Each pivot prices with y = c_B Binv and w = Binv a_j, moves the point by
    the step, sets the leaving column exactly to its bound, and updates
    Binv by one eta step (the product form of the inverse).  Every
    REFACTOR_EVERY pivots, and before OPTIMAL is returned after any pivot,
    Binv and x are recomputed by ``_factor`` and the basis is priced again,
    so for OPTIMAL x, y and Binv come from a fresh factorization of the
    final basis.  For UNBOUNDED they are those of the last basis priced;
    for ITERATION_LIMIT all three are None.  A fixed column (lb == ub) is
    never priced: it cannot move.  basis and status are updated in place.
    """
    fixed = lb == ub
    degen = 0
    bland = False
    it = 0
    since = 0  # pivots since Binv and x were last factored
    try:
        while True:
            y = c[basis] @ Binv
            d = c - y @ A
            # objective decrease per unit step: down from an upper bound, up
            # from a lower bound, the better way for a free column
            viol = np.where(status == AT_UPPER, d, np.where(status == FREE, np.abs(d), -d))
            viol[fixed] = 0.0
            viol[basis] = 0.0
            # Bland takes the first violated column, Dantzig the most violated
            j = int(np.argmax(viol > OPT_TOL) if bland else np.argmax(viol))
            if viol[j] <= OPT_TOL:
                if since == 0:
                    return OPTIMAL, it, x, y, Binv
                Binv, x = _factor(A, b, lb, ub, basis, status)
                since = 0
                continue
            if status[j] == AT_UPPER or (status[j] == FREE and d[j] > 0):
                sdir = -1.0
            else:
                sdir = 1.0
            w = Binv @ A[:, j]
            tcap = ub[j] - lb[j] if status[j] != FREE else np.inf
            t, leave, to_upper = ratio_test(
                w, x[basis], lb[basis], ub[basis], sdir, float(tcap)
            )
            if not np.isfinite(t):
                return UNBOUNDED, it, x, y, Binv
            x[basis] -= sdir * t * w
            if leave < 0:
                # entering variable flips to its opposite bound
                status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
                x[j] = ub[j] if status[j] == AT_UPPER else lb[j]
            else:
                x[j] += sdir * t
                out = basis[leave]
                status[out] = AT_UPPER if to_upper else AT_LOWER
                x[out] = ub[out] if to_upper else lb[out]
                basis[leave] = j
                status[j] = BASIC
                # eta step: row ``leave`` is divided by the pivot, and w's
                # multiple of it is taken off every other row
                pivot_row = Binv[leave] / w[leave]
                Binv -= np.outer(w, pivot_row)
                Binv[leave] = pivot_row
            if t <= 1e-10:
                degen += 1
                if degen > DEGEN_PIVOT_LIMIT:
                    bland = True
            else:
                degen = 0
            it += 1
            since += 1
            if it >= max_iter:
                return ITERATION_LIMIT, it, None, None, None
            if since >= REFACTOR_EVERY:
                Binv, x = _factor(A, b, lb, ub, basis, status)
                since = 0
    except np.linalg.LinAlgError:
        raise LpFailure("singular basis matrix")


def _feas_scale(b):
    return 1.0 + np.abs(b).max(initial=0.0)


def _try_warm(A, b, lb, ub, warm):
    """(basis, status, Binv, x) from a prior status vector, or None if it does not fit.

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
        Binv, x = _factor(A, b, lb, ub, basis, status)
    except np.linalg.LinAlgError:
        return None
    xb = x[basis]
    tol = FEAS_TOL * _feas_scale(b)
    if np.max(lb[basis] - xb, initial=0.0) > tol or np.max(
        xb - ub[basis], initial=0.0
    ) > tol:
        return None
    return basis, status, Binv, x


def _crash(A, r, x0, lb, ub):
    """(rows, cols) of a crash basis (Bixby 1992): the columns that start basic.

    ``x0`` holds every column at its default bound and ``r`` is
    ``b - A x0``.  Row i takes the first column, in column order, whose
    only nonzero lies in row i and whose solving value ``x0_j + r_i / a_ij``
    lies within its bounds.  rows and cols are aligned, rows ascending.
    """
    nz = A != 0
    cols = np.flatnonzero(np.count_nonzero(nz, axis=0) == 1)
    rows = np.nonzero(nz[:, cols].T)[1]
    value = x0[cols] + r[rows] / A[rows, cols]
    ok = (value >= lb[cols]) & (value <= ub[cols])
    rows, first = np.unique(rows[ok], return_index=True)
    return rows, cols[ok][first]


def solve_lp(problem, warm=None):
    """Solve an LpProblem, optionally warm-started from a prior status vector.

    The warm start is used only if its basis is primal feasible for the new
    data; otherwise the solve silently runs cold: from the crash basis,
    with one artificial column per row the crash leaves uncovered, and
    phase 1 only when there is one.
    Only an optimal solution carries a point, duals and a status vector.
    """
    A, b, c, lb, ub = _standard_form(problem)
    m, width = A.shape
    max_iter = MAX_ITER_FACTOR * (problem.n_rows + problem.n_cols)

    it = 0
    start = None if warm is None else _try_warm(A, b, lb, ub, warm)
    if start is not None:
        basis, status, Binv, x = start
    else:
        # crash basis: one-nonzero columns take their rows, an artificial
        # signed by the row's residual takes each row left uncovered
        status = _default_status(lb, ub)
        x0 = _nonbasic_values(status, lb, ub)
        r = b - A @ x0
        rows, cols = _crash(A, r, x0, lb, ub)
        art_rows = np.setdiff1d(np.arange(m), rows)
        na = len(art_rows)
        A = np.hstack([A, np.diag(np.where(r >= 0, 1.0, -1.0))[:, art_rows]])
        lb = np.concatenate([lb, np.zeros(na)])
        ub = np.concatenate([ub, np.full(na, np.inf)])
        status = np.concatenate([status, np.full(na, BASIC)])
        status[cols] = BASIC
        basis = np.empty(m, dtype=np.int64)
        basis[rows] = cols
        basis[art_rows] = width + np.arange(na)
        Binv, x = _factor(A, b, lb, ub, basis, status)
        if na:
            c1 = np.concatenate([np.zeros(width), np.ones(na)])
            code, it, x, _, Binv = _simplex_loop(A, b, c1, lb, ub, basis, status, x, Binv,
                                                 max_iter)
            if code == ITERATION_LIMIT:
                return LpSolution(status=ITERATION_LIMIT, iterations=it)
            if np.sum(np.abs(x[basis[basis >= width]])) > FEAS_TOL * _feas_scale(b) * 10:
                return LpSolution(status=INFEASIBLE, iterations=it)
            # pin the artificials at zero (some may stay basic on dependent
            # rows), which keeps them out of phase 2's pricing; the basis
            # keeps its point and inverse, so phase 2 starts from phase 1's
            ub[width:] = 0.0
            c = np.concatenate([c, np.zeros(na)])

    # phase 2 from the feasible start
    code, it2, x, y, _ = _simplex_loop(A, b, c, lb, ub, basis, status, x, Binv, max_iter)
    it += it2
    if code != OPTIMAL:
        return LpSolution(status=code, iterations=it)
    tol = FEAS_TOL * _feas_scale(b) * 10
    resid = np.abs(A @ x - b).max(initial=0.0)
    bound_viol = max(np.max(lb - x, initial=0.0), np.max(x - ub, initial=0.0))
    if not (resid <= tol and bound_viol <= tol):  # a NaN fails too
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
