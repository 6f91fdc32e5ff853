"""Sparsity-driven LP-based aggregation.

First solve: an L1 surrogate that trades weighted bad-column mass against
the slack of the aggregated base inequality.  While a bad column
survives, iterative reweighting re-solves a slack-free variant restricted
to the rows the first solve used, warm-started from the previous basis,
until none is left, the factors repeat (reweighting has converged, as in
Candes, Wakin & Boyd 2008; the repeat is dropped) or the round limit is
hit.  All solves run through one loop with one ``solve_lp`` call and one
failure path.

Every lasso LP of a context shares one matrix, ``ctx.lasso_matrix``; the
LPs differ only in costs and factor bounds.  A start row's first LP has
the same costs as the previous start row's and moves two factor lower
bounds, so it warm-starts from that row's first-solve basis, which the
context keeps (``ctx.lasso_start``), and ``solve_lp`` restores its
feasibility by the dual simplex.
"""

import numpy as np

from .aggregate import ZERO_TOL, make_result
from .errors import ContractViolation, LpFailure
from .lp import OPTIMAL, abs_value_lp, solve_lp

WEIGHT_CAP = 1e6  # stands in for infinite bound distances
LAM_CAP = 1e6  # upper bound on every aggregation factor
REWEIGHT_EPS = 1e-6  # eps in the reweighting w <- w / (eps + |a|)


def _capped_weights(ctx):
    return np.minimum(ctx.bad_weights, WEIGHT_CAP)


def build_lasso_lp(ctx, i0):
    """Factor-search LP: weighted |bad columns| plus aggregated slack."""
    n = len(ctx.useful_rows)
    lb = np.zeros(n)
    lb[ctx.block_rows([i0])] = 1.0
    ub = np.full(n, LAM_CAP)
    return abs_value_lp(ctx.lasso_matrix, _capped_weights(ctx), ctx.slacks[ctx.useful_rows],
                        lb, ub)


def build_reweighted_lp(ctx, active_rows, i0, w):
    """Reweighted LP over the active set: bad-column mass only, no slack cost.

    Keeps the full column layout of the lasso LP (inactive factors are
    pinned at zero through their bounds) so a prior basis stays valid.
    """
    if i0 not in active_rows:
        raise ContractViolation("starting row must be in the active set")
    n = len(ctx.useful_rows)
    lb = np.zeros(n)
    lb[ctx.block_rows([i0])] = 1.0
    ub = np.zeros(n)
    ub[ctx.block_rows(active_rows)] = LAM_CAP
    return abs_value_lp(ctx.lasso_matrix, w, np.zeros(n), lb, ub)


def reweight(w, a):
    """Per-column update w <- w/(eps+|a|); vanished columns get weight 0."""
    w = np.asarray(w, dtype=float)
    a = np.abs(np.asarray(a, dtype=float))
    return np.where(a > ZERO_TOL, w / (REWEIGHT_EPS + a), 0.0)


def lasso_aggregate(ctx, i0, maxaggr=6):
    """Run the LP-based aggregation from starting row ``i0``.

    Reweighted re-solves continue while a bad column is left in the aggregated
    row, at most ``maxaggr`` of them; one that repeats the factors before it
    ends the row and is not returned, so at most maxaggr+1 aggregations, no
    two consecutive ones equal, are returned.  The first solve warm-starts
    from ``ctx.lasso_start`` and each re-solve from the solve before it; a
    starting row that returns leaves its first solve's warm start in
    ``ctx.lasso_start``.  An LP failure aborts the starting row without
    emitting anything and leaves ``ctx.lasso_start`` as it was.
    """
    i0 = int(i0)
    rows = ctx.useful_rows.tolist()  # the LP's first columns are their factors
    prob = build_lasso_lp(ctx, i0)
    w = _capped_weights(ctx)
    warm = ctx.lasso_start
    results = []
    while True:
        sol = solve_lp(prob, warm=warm)
        if sol.status != OPTIMAL:
            raise LpFailure(
                "lasso LP solve %d for starting row %d ended with status %s"
                % (len(results) + 1, i0, sol.status),
                status=sol.status,
            )
        warm = sol.warm_start()
        if not results:
            first = warm
        res = make_result(ctx, dict(zip(rows, sol.x.tolist())), "lasso", i0)
        if results and res.factors == results[-1].factors:
            break  # a repeated vertex: the reweighting has converged
        results.append(res)
        if not res.residual_bad or len(results) > maxaggr:
            break
        w = reweight(w, res.alpha[ctx.bad_vars])
        prob = build_reweighted_lp(ctx, results[0].used_rows, i0, w)
    ctx.lasso_start = first
    return results
