"""Dense bounded-variable simplex, dual then primal, with warm starting.

Sized for the lasso's small subproblems and for LP relaxations of a few
hundred rows.  Every solve works on one standard form, the structural
columns then one slack per 'L' row, and takes one path: a starting
basis, a bounded dual simplex run to a primal feasible basis, then one
primal run (Dantzig pricing; a fixed column, lb == ub, is never priced).
Both ratio tests give ratios within NO_PROGRESS of the least to the
lowest column index.  A run whose pivots return, with no progress in
between, to a basis it left has cycled, and goes on by Bland's rule
(Bland 1977).  The start is a warm start (below) on the same matrix, or
else a cold start: with each boxed column at the bound its cost favours
and every other at its default bound, one scan finds the columns whose
only nonzero lies in one row, and each row takes the first, in column
order, that passes

* the crash mask (Bixby 1992), if it covers every row: the column's
  value solving the row is within bounds; the basis is primal feasible;
* else the logical mask: the column has zero cost, and an 'E' row with
  none gets an appended column e_i fixed at [0, 0], as in HiGHS.  With
  every column boxed it prices dual feasible: the dual simplex as the
  cold solver (Bixby 2002).

Either basis is diagonal, so its inverse is its reciprocal diagonal, and
a cold solve calls LAPACK only when it refactors.

At a start that prices dual infeasible, the dual run shifts each such
column's cost by its reduced cost, for that run only (the cost
modification of Koberstein & Suhl 2007); a dual run that finds no
column to enter proves the problem infeasible.

The point and the basis inverse travel with the basis (the product form
of the inverse, Dantzig & Orchard-Hays 1954): each pivot computes its
entering column with a product against the kept inverse, and ``_pivot``,
the one place a column enters the basis, moves the point by the step and
updates the inverse by one rank-one eta step.  The primal loop prices
each pivot; the dual loop updates its reduced costs along each pivot
row.  The inverse and the point are factored afresh every REFACTOR_EVERY
pivots and once more before OPTIMAL is returned, so the solution is
certified and packed from a fresh factorization.

A warm start is what an optimal solve leaves behind: its standard-form
matrix, basis, status vector and basis inverse, and the 'E' rows whose
logical column it appends again.  It restarts a problem on the same
matrix (the same array, or an equal one) that differs in objective,
right-hand side and/or variable bounds, with no factorization; one on
another matrix is not tried.  One fallback rule: a warm solve in which
either run finds its basis singular or reaches the pivot cap is redone
cold, and a cold solve that finds its basis singular raises LpFailure.
A solve that ends other than optimal carries no point and no warm start.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, LpFailure

BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3

FEAS_TOL = 1e-7
OPT_TOL = 1e-7
MAX_ITER_FACTOR = 50  # each loop stops after MAX_ITER_FACTOR * (rows + cols) pivots
REFACTOR_EVERY = 64  # the basis inverse is factored afresh after this many pivots
PIVOT_TOL = 1e-10  # smaller entries of a pivot column or row are not pivoted on
NO_PROGRESS = 1e-10  # a pivot's step up to it makes no progress; ratios within it tie

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


class WarmStart(NamedTuple):
    """A basis and its inverse, read-only once made: an optimum as ``solve_lp``
    leaves it, or the crash or logical basis a cold solve starts from."""

    A: np.ndarray  # the standard-form matrix the basis belongs to
    basis: np.ndarray  # the column of each basis position
    status: np.ndarray  # per column of A widened by ``logicals``
    Binv: np.ndarray  # inverse of the widened A[:, basis], freshly factored or diagonal
    logicals: np.ndarray = np.zeros(0, dtype=np.int64)  # 'E' rows given a logical column


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    duals: np.ndarray = None
    objective: float = None
    col_status: np.ndarray = None  # per standard-form column, see _standard_form
    iterations: int = 0
    _warm: WarmStart = field(default=None, repr=False)

    def warm_start(self):
        """The WarmStart that restarts ``solve_lp`` from this optimum, or
        None, which solves cold, when the solve was not optimal."""
        return self._warm


def _standard_form(problem):
    """(A, b, c, lb, ub): structural columns, then one slack per 'L' row.

    Without 'L' rows these are the problem's own arrays, not copies.
    """
    if "L" not in problem.row_type:
        return problem.A, problem.rhs, problem.obj, problem.col_lb, problem.col_ub
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


def _widen(A, c, lb, ub, rows):
    """(A, c, lb, ub) with a logical column e_i, of zero cost and fixed at
    [0, 0], appended for each row i of ``rows``; the inputs if it is empty."""
    if len(rows) == 0:
        return A, c, lb, ub
    zeros = np.zeros(len(rows))
    return (np.hstack([A, np.eye(A.shape[0])[:, rows]]),
            *(np.concatenate([v, zeros]) for v in (c, lb, ub)))


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


def ratio_test(w, xb, lb, ub, sdir, tcap, cols):
    """Bounded-variable primal ratio test.

    ``xb`` moves along ``-sdir*w`` as the entering variable takes step
    ``t >= 0``; ``tcap`` bounds the step by the entering variable's own
    range.  Returns ``(t, leave, to_upper)`` where ``leave`` is the blocking
    basic position (-1 for a bound flip / unbounded step) and ``to_upper``
    tells which bound the leaving variable hits.  Of the positions whose
    ratios lie within NO_PROGRESS of the least, the one whose column in
    ``cols`` is lowest blocks, and ``t`` is its ratio.
    """
    d = sdir * w
    pos = d > PIVOT_TOL
    neg = d < -PIVOT_TOL
    # an infinite bound gives an infinite ratio
    ratios = np.full(len(d), np.inf)
    ratios[pos] = (xb[pos] - lb[pos]) / d[pos]
    ratios[neg] = (ub[neg] - xb[neg]) / -d[neg]
    least = ratios.min(initial=np.inf)
    if least < tcap:
        tied = np.flatnonzero(ratios <= least + NO_PROGRESS)
        k = int(tied[np.argmin(cols[tied])])
        return float(max(ratios[k], 0.0)), k, bool(neg[k])
    return tcap, -1, False


def _price(A, c, basis, status, Binv, fixed):
    """(y, d, viol): the duals, the reduced costs, and the objective decrease
    per unit step of each column that can move (0 for basic and fixed ones)."""
    y = c[basis] @ Binv
    d = c - y @ A
    # down from an upper bound, up from a lower bound, the better way for a
    # free column
    viol = np.where(status == AT_UPPER, d, np.where(status == FREE, np.abs(d), -d))
    viol[fixed] = 0.0
    viol[basis] = 0.0
    return y, d, viol


def _eta_update(Binv, w, r):
    """Binv after the column whose ``Binv`` image is ``w`` takes basis
    position ``r``, in place: row r is divided by the pivot, and w's
    multiple of it is taken off every other row."""
    pivot_row = Binv[r] / w[r]
    Binv -= np.outer(w, pivot_row)
    Binv[r] = pivot_row


def _pivot(basis, status, x, Binv, lb, ub, j, w, r, step, to_upper):
    """Column j, whose ``Binv`` image is ``w``, takes basis position r, in
    place: the point moves by ``step`` along j, the leaving column is set
    exactly to its upper bound if ``to_upper`` and else its lower one, and
    Binv takes one eta step.  The one place a column enters the basis."""
    x[basis] -= step * w
    x[j] += step
    out = basis[r]
    status[out] = AT_UPPER if to_upper else AT_LOWER
    x[out] = ub[out] if to_upper else lb[out]
    basis[r] = j
    status[j] = BASIC
    _eta_update(Binv, w, r)


def _cycled(seen, status, step):
    """Whether a pivot of ``step`` closed a cycle: it made no progress
    (step <= NO_PROGRESS) and left a ``status`` that ``seen`` holds, the statuses
    left by the no-progress pivots since the last pivot that made progress.
    Records the status; a pivot that makes progress empties ``seen``."""
    if step > NO_PROGRESS:
        seen.clear()
        return False
    key = status.tobytes()
    cycled = key in seen
    seen.add(key)
    return cycled


def _simplex_loop(A, b, c, lb, ub, basis, status, x, Binv, max_iter):
    """Primal iterations from a feasible basis; returns (code, x, Binv, pivots).

    x and Binv are the point and basis inverse of the starting basis, as
    ``_factor`` gives them.  code is OPTIMAL / UNBOUNDED / ITERATION_LIMIT.
    Each pivot prices with y = c_B Binv and w = Binv a_j, and ``_pivot``
    moves the point and updates Binv by one eta step (the product form of
    the inverse).  Every REFACTOR_EVERY pivots, and before OPTIMAL is
    returned after any pivot, Binv and x are recomputed by ``_factor`` and
    the basis is priced again, so for OPTIMAL x and Binv come from a fresh
    factorization of the final basis.  A fixed column (lb == ub) is never
    priced: it cannot move.  ``ratio_test`` gives tied ratios to the
    lowest column.  Once ``_cycled`` finds a pivot back at a status of its
    no-progress run, the lowest-index violated column enters, which with
    that tie rule is Bland's rule (Bland 1977, Math. Oper. Res. 2:103).
    basis and status are updated in place.  Raises
    ``np.linalg.LinAlgError`` if a factorization finds the basis singular.
    """
    fixed = lb == ub
    seen = set()
    bland = False
    it = 0
    since = 0  # pivots since Binv and x were last factored
    while True:
        _, d, viol = _price(A, c, basis, status, Binv, fixed)
        # Bland takes the first violated column, Dantzig the most violated
        j = int(np.argmax(viol > OPT_TOL) if bland else np.argmax(viol))
        if viol[j] <= OPT_TOL:
            if since == 0:
                return OPTIMAL, x, Binv, it
            Binv, x = _factor(A, b, lb, ub, basis, status)
            since = 0
            continue
        sdir = -1.0 if status[j] == AT_UPPER or (status[j] == FREE and d[j] > 0) else 1.0
        w = Binv @ A[:, j]
        tcap = ub[j] - lb[j] if status[j] != FREE else np.inf
        t, leave, to_upper = ratio_test(w, x[basis], lb[basis], ub[basis], sdir,
                                        float(tcap), basis)
        if not np.isfinite(t):
            return UNBOUNDED, x, Binv, it
        if leave < 0:
            # entering variable flips to its opposite bound
            x[basis] -= sdir * t * w
            status[j] = AT_UPPER if status[j] == AT_LOWER else AT_LOWER
            x[j] = ub[j] if status[j] == AT_UPPER else lb[j]
        else:
            _pivot(basis, status, x, Binv, lb, ub, j, w, leave, sdir * t, to_upper)
        bland = bland or _cycled(seen, status, t)
        it += 1
        since += 1
        if it >= max_iter:
            return ITERATION_LIMIT, x, Binv, it
        if since >= REFACTOR_EVERY:
            Binv, x = _factor(A, b, lb, ub, basis, status)
            since = 0


def _feas_scale(b):
    return 1.0 + np.abs(b).max(initial=0.0)


def _dual_loop(A, b, c, lb, ub, basis, status, x, Binv, max_iter):
    """Bounded dual simplex iterations to a primal feasible basis.

    Returns (code, x, Binv, pivots): code is OPTIMAL when the basis is
    primal feasible (optimal for the loop's costs), INFEASIBLE when no
    column can enter, a proof of infeasibility whatever the costs, and
    ITERATION_LIMIT after max_iter pivots.  x and Binv are the starting
    basis's point and inverse.  Each pivot takes the basic column farthest
    outside its bounds out, to the bound it violates, and the entering
    column by the dual ratio test: of the columns that can move the
    leaving one toward that bound, the first whose reduced cost reaches
    zero, the lowest of those whose ratios tie within NO_PROGRESS.  Once
    ``_cycled``, given the entering ratio as the step, finds a cycle, the
    infeasible basic column of lowest index leaves, which with that tie
    rule is Bland's rule.  The reduced costs are priced first and after each
    factorization, and in between updated along the pivot row,
    ``d -= (d_j / alpha_j) alpha``.  At the first pricing each column that
    prices dual infeasible gets ``c_j -= d_j`` for this loop only (cost
    modification: Koberstein & Suhl 2007, "Progress in the dual simplex
    method for large scale LP problems: practical dual phase 1
    algorithms", Comput. Optim. Appl. 37:49).  The pivot (``_pivot``),
    tolerances, refactor interval and fixed-column rule are those of
    ``_simplex_loop``; a basis that ends feasible after pivots is factored
    afresh.  basis and status are updated in place.  Raises LpFailure if
    the violation no column can reduce is not finite (a NaN point), and
    ``np.linalg.LinAlgError`` if a factorization finds the basis singular.
    """
    fixed = lb == ub
    tol = FEAS_TOL * _feas_scale(b)
    seen = set()
    bland = False
    it = 0
    since = 0  # pivots since Binv and x were last factored
    d = None  # reduced costs: priced before a pivot that follows a factorization
    while True:
        xb = x[basis]
        below = lb[basis] - xb
        infeas = np.maximum(below, xb - ub[basis])
        if infeas.max(initial=0.0) <= tol:
            if since == 0:
                return OPTIMAL, x, Binv, it
            Binv, x = _factor(A, b, lb, ub, basis, status)
            since = 0
            continue
        if d is None:
            _, d, viol = _price(A, c, basis, status, Binv, fixed)
            if it == 0:
                shift = viol > OPT_TOL
                c = np.where(shift, c - d, c)
                d[shift] = 0.0
        r = int(np.argmin(np.where(infeas <= tol, len(status), basis)) if bland
                else np.argmax(infeas))
        rise = below[r] > 0  # the leaving column rises to its lower bound
        alpha = Binv[r] @ A
        # a column at its lower bound can rise, at its upper bound fall, a
        # free one move either way; x_B[r] moves by -alpha_j per unit of x_j
        sdir = np.where(status == AT_UPPER, -1.0, 1.0)
        gain = np.where(status == FREE, np.abs(alpha), (-sdir if rise else sdir) * alpha)
        cand = np.flatnonzero((gain > PIVOT_TOL) & (status != BASIC) & ~fixed)
        if not len(cand):
            if not np.isfinite(infeas[r]):
                raise LpFailure("infeasibility could not be certified")
            return INFEASIBLE, x, Binv, it
        ratios = np.where(status[cand] == FREE, np.abs(d[cand]),
                          np.maximum(sdir[cand] * d[cand], 0.0)) / gain[cand]
        k = int(np.argmax(ratios <= ratios.min() + NO_PROGRESS))  # cand ascends
        j = int(cand[k])
        w = Binv @ A[:, j]
        out = basis[r]
        t = (x[out] - (lb[out] if rise else ub[out])) / w[r]
        _pivot(basis, status, x, Binv, lb, ub, j, w, r, t, not rise)
        d -= (d[j] / alpha[j]) * alpha
        d[j] = 0.0
        bland = bland or _cycled(seen, status, ratios[k])
        it += 1
        since += 1
        if it >= max_iter:
            return ITERATION_LIMIT, x, Binv, it
        if since >= REFACTOR_EVERY:
            Binv, x = _factor(A, b, lb, ub, basis, status)
            since = 0
            d = None


def _run(start, A, b, c, lb, ub, max_iter):
    """(code, basis, status, x, Binv, pivots): the one path from a start to
    an answer, ``_dual_loop`` from ``start`` and, if it ends feasible, one
    ``_simplex_loop`` run on the true costs; pivots counts both.

    A status the bounds no longer allow is repaired first, and the basic
    values come from the kept inverse; nothing is factored unless a loop
    pivots.  Raises ``np.linalg.LinAlgError`` when a factorization finds
    the basis singular.
    """
    basis = start.basis.copy()
    status = start.status.copy()
    # a status the bounds no longer allow takes the default one (choices in
    # status order: BASIC, AT_LOWER, AT_UPPER, FREE)
    default = _default_status(lb, ub)
    stale = ~np.choose(status, [True, np.isfinite(lb), np.isfinite(ub), default == FREE])
    status[stale] = default[stale]
    x = _nonbasic_values(status, lb, ub)
    x[basis] = start.Binv @ (b - A @ x)
    code, x, Binv, it = _dual_loop(A, b, c, lb, ub, basis, status, x, start.Binv.copy(),
                                   max_iter)
    if code == OPTIMAL:
        code, x, Binv, primal = _simplex_loop(A, b, c, lb, ub, basis, status, x, Binv,
                                              max_iter)
        it += primal
    return code, basis, status, x, Binv, it


def _cold_start(A, b, c, lb, ub):
    """A cold solve's crash or logical basis, as a WarmStart whose
    ``logicals`` are the 'E' rows that need an appended column.

    The module docstring gives the start values and the two masks.
    """
    m, width = A.shape
    status = _default_status(lb, ub)
    status[(c < 0) & (lb < ub) & np.isfinite(ub)] = AT_UPPER
    x0 = _nonbasic_values(status, lb, ub)
    nz = A != 0
    cols = np.flatnonzero(np.count_nonzero(nz, axis=0) == 1)
    rows = np.nonzero(nz[:, cols].T)[1]  # aligned with cols
    entry = A[rows, cols]
    value = x0[cols] + (b - A @ x0)[rows] / entry
    ok = (value >= lb[cols]) & (value <= ub[cols])
    covered, first = np.unique(rows[ok], return_index=True)
    if len(covered) < m:  # the crash leaves a row uncovered
        ok = c[cols] == 0
        covered, first = np.unique(rows[ok], return_index=True)
    basis = np.full(m, -1)
    basis[covered] = cols[ok][first]
    diag = np.ones(m)
    diag[covered] = entry[ok][first]
    missing = np.flatnonzero(basis < 0)  # 'E' rows: every 'L' row has a slack
    basis[missing] = width + np.arange(len(missing))
    status = np.concatenate([status, np.full(len(missing), BASIC)])
    status[basis] = BASIC
    return WarmStart(A, basis, status, np.diag(1.0 / diag), missing)


def solve_lp(problem, warm=None):
    """Solve an LpProblem, optionally warm-started from ``LpSolution.warm_start()``.

    Each start, a warm start on the same matrix and then the cold start,
    takes one path, ``_run``.  A warm solve in which either loop finds its
    basis singular or reaches the pivot cap is redone cold, exactly as with
    ``warm=None``; a warm start on another matrix is not tried.  A cold
    solve that finds its basis singular raises LpFailure.  Only an optimal
    solution carries a point, duals and a warm start.
    """
    std, b, *form = _standard_form(problem)  # form: c, lb, ub
    width = std.shape[1]
    max_iter = MAX_ITER_FACTOR * (problem.n_rows + problem.n_cols)

    same = warm is not None and (
        warm.A is std or (warm.A.shape == std.shape and np.array_equal(warm.A, std))
    )
    for start in ([warm] if same else []) + [None]:
        cold = start is None
        if cold:
            start = _cold_start(std, b, *form)
        A, c, lb, ub = _widen(std, *form, start.logicals)
        try:
            code, basis, status, x, Binv, it = _run(start, A, b, c, lb, ub, max_iter)
        except np.linalg.LinAlgError:
            if cold:
                raise LpFailure("singular basis matrix")
            continue
        if cold or code != ITERATION_LIMIT:
            break
    if code != OPTIMAL:
        return LpSolution(status=code, iterations=it)
    tol = FEAS_TOL * _feas_scale(b) * 10
    resid = np.abs(A @ x - b).max(initial=0.0)
    bound_viol = max(np.max(lb - x, initial=0.0), np.max(x - ub, initial=0.0))
    if not (resid <= tol and bound_viol <= tol):  # a NaN fails too
        raise LpFailure("feasibility could not be certified", status=OPTIMAL)
    xs = x[: problem.n_cols]
    col_status = status[:width].copy()
    return LpSolution(
        status=OPTIMAL,
        x=xs,
        duals=c[basis] @ Binv,  # the product _price forms
        objective=float(problem.obj @ xs),
        col_status=col_status,
        iterations=it,
        _warm=WarmStart(std, basis, status, Binv, start.logicals),
    )


def abs_value_matrix(coefs):
    """The rows ``coefs[t] . lam - mu+_t + mu-_t = 0`` of an absolute-value LP.

    Columns are lam, then mu+_t and mu-_t side by side for each row t.
    """
    coefs = np.asarray(coefs, dtype=float)
    nt, k = coefs.shape
    t = np.arange(nt)
    A = np.zeros((nt, k + 2 * nt))
    A[:, :k] = coefs
    A[t, k + 2 * t] = -1.0
    A[t, k + 2 * t + 1] = 1.0
    return A


def abs_value_lp(A, weights, extra_cost, lam_lb, lam_ub):
    """LP for  min  sum_t w_t |coefs[t] . lam| + extra_cost . lam  on
    ``A = abs_value_matrix(coefs)``, which the LP shares, not copies.

    Row t's absolute value is mu+_t + mu-_t, each with cost w_t >= 0.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ContractViolation("absolute-value weight must be nonnegative")
    nt = len(w)
    k = len(lam_lb)
    obj = np.zeros(k + 2 * nt)
    obj[:k] = extra_cost
    obj[k:] = np.repeat(w, 2)
    return LpProblem(
        obj=obj,
        A=A,
        row_type=["E"] * nt,
        rhs=np.zeros(nt),
        col_lb=np.concatenate([lam_lb, np.zeros(2 * nt)]),
        col_ub=np.concatenate([lam_ub, np.full(2 * nt, np.inf)]),
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
    coefs = np.array([coef for _, coef in terms], dtype=float).reshape(len(terms), len(lam_lb))
    return abs_value_lp(abs_value_matrix(coefs), [weight for weight, _ in terms],
                        extra_cost, lam_lb, lam_ub)
