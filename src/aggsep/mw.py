"""Greedy stepwise row aggregation (Marchand-Wolsey style).

Starting from one row, bad continuous variables are eliminated one at a
time by adding a scaled useful row; a candidate is rejected if it would
need a nonpositive factor or would reintroduce an already-eliminated bad
variable.  Every step is decided on the context's bad-column block.
Implied-bound rows are never aggregated: mw neither starts from nor adds one.
"""

import numpy as np

from .aggregate import ZERO_TOL, make_result
from .errors import ContractViolation


def elimination_factor(alpha_j, row_coef_j):
    """Factor lam > 0 with alpha_j + lam * row_coef_j == 0, or None.

    <=-rows may only enter with a positive factor, so a factor that comes
    out nonpositive disqualifies the candidate row.
    """
    if row_coef_j == 0.0:
        raise ContractViolation("candidate row has no coefficient on target")
    lam = -alpha_j / row_coef_j
    return lam if lam > 0.0 else None


def mw_aggregate(ctx, i0, maxaggr=6):
    """Run the stepwise heuristic from starting row ``i0``.

    Returns the emitted aggregations: the bare starting row first, then
    one per accepted elimination step, at most maxaggr of those.
    """
    block = ctx.bad_block
    rows = ctx.useful_rows
    (p0,) = ctx.block_rows([i0])
    if ctx.bound_row[p0]:
        raise ContractViolation("mw cannot start from implied-bound row %d" % i0)
    factors = {int(i0): 1.0}
    alpha = block[p0].copy()  # aggregated coefficients on the bad columns
    used = ctx.bound_row.copy()  # implied-bound rows count as used from the start
    used[p0] = True
    eliminated = []  # bad-column positions, in elimination order
    results = [make_result(ctx, factors, "mw", i0)]

    for q in range(block.shape[1]):
        if len(eliminated) >= maxaggr:
            break
        if abs(alpha[q]) <= ZERO_TOL:
            continue
        for p in np.flatnonzero(~used & (block[:, q] != 0.0)):
            lam = elimination_factor(alpha[q], block[p, q])
            if lam is None:
                continue
            alpha_new = alpha + lam * block[p]
            if any(abs(alpha_new[k]) > ZERO_TOL for k in eliminated):
                continue  # would reintroduce an eliminated bad variable
            alpha = alpha_new
            alpha[q] = 0.0
            factors[int(rows[p])] = lam
            used[p] = True
            eliminated.append(q)
            results.append(make_result(ctx, factors, "mw", i0,
                                       ctx.bad_vars[eliminated].tolist()))
            break
    return results
