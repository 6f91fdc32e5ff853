"""Separation preprocessing: bound choice, bad variables, useful rows, scores.

Freezes everything the aggregators need into one SeparationContext per point:
mw, lasso, bound substitution and the sparsity metrics all read the same
snapshot.  The one thing a context carries from one starting row to the next is
the lasso's last first-solve basis (``lasso_start``).  Each continuous
variable's bound at the point is decided here once (``substitution_bounds``);
the bad variables and the bound substitution both read that table.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .instance import detect_variable_bounds, make_point
from .lp import abs_value_matrix

MAX_BAD_VARS = 50  # bad variables kept, largest bound distance first
MAX_USEFUL_ROWS = 5000  # useful rows kept, highest score first


@dataclass
class SubstitutionBounds:
    """The bound each continuous variable is substituted by, at one point.

    Indexed by variable; entries of integer variables are unused.  A slack
    y_j >= 0 replaces x_j: x_j = l_j + y_j (lower), x_j = u_j - y_j
    (upper) or x_j = c + d z_k - y_j (implied, from x_j <= c + d z_k).
    Each slack's affine form is y_j = slack_const + int_coef x_k + slack_sign x_j.
    """

    upper: np.ndarray  # tightest simple or implied upper bound at the point
    usable: np.ndarray  # some bound is finite
    bound: np.ndarray  # l_j, u_j or c
    int_var: np.ndarray  # k of an implied bound, -1 otherwise
    int_coef: np.ndarray  # d of an implied bound, 0 otherwise
    slack_const: np.ndarray  # -l_j, u_j or c
    slack_sign: np.ndarray  # +1 for a lower bound, -1 otherwise
    slack_at_point: np.ndarray  # y_j at xbar


@dataclass
class SeparationContext:
    instance: object
    xbar: np.ndarray
    bounds: object  # VariableBounds: the instance's implied-bound rows
    substitution: SubstitutionBounds  # each continuous variable's bound at xbar
    bad_vars: np.ndarray  # variable indices, decreasing bound distance
    bad_weights: np.ndarray  # bound distances aligned with bad_vars
    useful_rows: np.ndarray  # row indices, decreasing score
    scores: np.ndarray  # aligned with useful_rows
    bound_row: np.ndarray  # bool, aligned with useful_rows: implied-bound rows
    slacks: np.ndarray  # clipped nonnegative slack per instance row
    lasso_start: object = None  # WarmStart of the last lasso start row's first solve

    @property
    def nothing_to_do(self):
        return len(self.bad_vars) == 0

    @cached_property
    def bad_block(self):
        """A[useful_rows, bad_vars]: every column an aggregator decides on."""
        return self.instance.matrix[np.ix_(self.useful_rows, self.bad_vars)]

    @cached_property
    def lasso_matrix(self):
        """The matrix every lasso LP of this context shares: one row per bad column."""
        return abs_value_matrix(self.bad_block.T)

    @cached_property
    def _block_pos(self):
        return {int(i): p for p, i in enumerate(self.useful_rows)}

    def block_rows(self, rows):
        """Positions in ``bad_block`` of instance rows that must be useful."""
        try:
            return [self._block_pos[i] for i in rows]
        except KeyError as exc:
            raise ContractViolation("row %s is not a useful row" % exc) from None


def substitution_bounds(instance, bounds, xbar):
    """Pick, for every continuous variable, the bound nearest ``xbar``.

    The tightest upper-type candidate is the simple upper bound or the
    smallest implied one at xbar (the first in row order of equal
    candidates); a finite lower bound wins when xbar sits closer to it.
    """
    lower = instance.lower
    best_val = np.where(np.isfinite(instance.upper), instance.upper, np.inf)
    # each variable's smallest implied candidate: a stable sort by variable,
    # then value, puts it (the first in row order of equal ones) first
    cand = bounds.const + bounds.coef * xbar[bounds.int_var]
    order = np.lexsort((cand, bounds.var))
    _, first = np.unique(bounds.var[order], return_index=True)
    pick = order[first]
    pick = pick[cand[pick] < best_val[bounds.var[pick]]]
    best = np.full(instance.n_vars, -1, dtype=np.int64)  # the winning bound entry
    best[bounds.var[pick]] = pick
    best_val[bounds.var[pick]] = cand[pick]

    has_upper = np.isfinite(best_val)
    use_lower = np.isfinite(lower) & (~has_upper | (xbar - lower < best_val - xbar))
    best[use_lower] = -1
    implied = best >= 0
    e = best[implied]
    bound = np.where(use_lower, lower, instance.upper)
    bound[implied] = bounds.const[e]
    int_var = np.full(instance.n_vars, -1, dtype=np.int64)
    int_var[implied] = bounds.int_var[e]
    int_coef = np.zeros(instance.n_vars)
    int_coef[implied] = bounds.coef[e]
    slack_const = np.where(use_lower, -lower, bound)
    slack_sign = np.where(use_lower, 1.0, -1.0)
    # y_j = const + ((0.0 + first term) + second term), summing the affine
    # form's x terms in order: x_k before x_j
    first = np.where(implied, int_coef * xbar[int_var], slack_sign * xbar)
    second = np.where(implied, slack_sign * xbar, 0.0)
    return SubstitutionBounds(
        upper=best_val,
        usable=has_upper | use_lower,
        bound=bound,
        int_var=int_var,
        int_coef=int_coef,
        slack_const=slack_const,
        slack_sign=slack_sign,
        slack_at_point=slack_const + ((0.0 + first) + second),
    )


def _row_means(values, members):
    """Mean of ``values`` over each row's ``members``, summed in column order.

    Rows without a member get 0.  Each row's member values are packed to
    the left of a zero-padded array, so the sequential sum runs over the
    longest row rather than over every column.
    """
    rows, cols = np.nonzero(members)
    count = np.bincount(rows, minlength=len(members))
    packed = np.zeros((len(members), count.max(initial=0) + 1))
    packed[rows, np.arange(len(rows)) - (np.cumsum(count) - count)[rows]] = values[cols]
    total = np.cumsum(packed, axis=1)[:, -1]
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def preprocess(instance, xbar, duals=None):
    """Build the frozen SeparationContext for one point to separate.

    A bad variable is a continuous one strictly below its tightest simple
    or implied upper bound at the (clipped) point; its weight is that
    distance, +inf without a finite upper bound.  A useful row has a bad
    column; it is scored by the equal-weight sum of five [0, 1]
    ingredients: dual pull, sparsity, tightness, the mean fractionality of
    its integers at the point and the mean of d/(1+d) over its continuous
    variables' distances d.  The useful rows include the implied-bound
    rows, which mw never uses.
    """
    bounds = detect_variable_bounds(instance)
    xbar = make_point(instance, xbar)
    n = instance.n_vars
    duals = np.zeros(instance.n_rows) if duals is None else np.asarray(duals, dtype=float)
    if duals.shape != (instance.n_rows,) or not np.all(np.isfinite(duals)):
        raise ContractViolation("duals need %d finite entries, got shape %s"
                                % (instance.n_rows, duals.shape))
    sub = substitution_bounds(instance, bounds, xbar)

    is_int = instance.integer_mask
    inside = np.clip(xbar, instance.lower, instance.upper)
    has_upper = ~is_int & np.isfinite(sub.upper)
    dist = np.full(n, np.inf)
    dist[has_upper] = np.maximum(sub.upper[has_upper] - inside[has_upper], 0.0)
    # largest distances first, ties by ascending index; +inf sorts first
    bad = np.flatnonzero(~is_int & (dist > 0))
    bad = bad[np.argsort(-dist[bad], kind="stable")][:MAX_BAD_VARS]

    A = instance.matrix
    raw_slack = instance.rhs - A @ xbar
    max_abs_dual = float(np.abs(duals).max(initial=0.0))
    useful = np.flatnonzero((A[:, bad] != 0).any(axis=1))
    nz = A[useful] != 0
    int_frac = xbar - np.floor(xbar)
    cont_frac = np.ones(n)
    cont_frac[has_upper] = dist[has_upper] / (1.0 + dist[has_upper])
    scores = np.abs(duals[useful]) / (1.0 + max_abs_dual)
    scores += 1.0 - nz.sum(axis=1) / n
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    scores += [math.exp(-s) for s in np.maximum(raw_slack[useful], 0.0).tolist()]
    scores += _row_means(int_frac, nz & is_int)
    scores += _row_means(cont_frac, nz & ~is_int)
    order = np.argsort(-scores, kind="stable")[:MAX_USEFUL_ROWS]
    useful = useful[order]

    return SeparationContext(
        instance=instance,
        xbar=xbar,
        bounds=bounds,
        substitution=sub,
        bad_vars=bad,
        bad_weights=dist[bad],
        useful_rows=useful,
        scores=scores[order],
        bound_row=np.isin(useful, bounds.rows),
        slacks=np.maximum(raw_slack, 0.0),
    )
