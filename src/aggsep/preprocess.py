"""Separation preprocessing: bound choice, bad variables, useful rows, scores.

Freezes everything the aggregators need into one SeparationContext per
point: mw, lasso, bound substitution and the sparsity metrics all read the
same snapshot.  Each continuous variable's bound at the point is decided
here once (``substitution_bounds``); the bad variables and the bound
substitution both read that table.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .instance import detect_variable_bounds

MAX_BAD_VARS = 50  # bad variables kept, largest bound distance first
MAX_USEFUL_ROWS = 5000  # useful rows kept, highest score first


@dataclass
class SubstitutionBounds:
    """The bound each continuous variable is substituted by, at one point.

    Indexed by variable; entries of integer variables are unused.  A slack
    y_j >= 0 replaces x_j: x_j = l_j + y_j ('lower'), x_j = u_j - y_j
    ('upper') or x_j = c + d z_k - y_j ('implied', from x_j <= c + d z_k).
    """

    upper: np.ndarray  # tightest simple or implied upper bound at the point
    usable: np.ndarray  # some bound is finite
    kind: np.ndarray  # 'lower' | 'upper' | 'implied'
    bound: np.ndarray  # l_j, u_j or c
    int_var: np.ndarray  # k of an implied bound, -1 otherwise
    int_coef: np.ndarray  # d of an implied bound, 0 otherwise
    slack_const: np.ndarray  # constant of y_j as an affine expression of x
    slack_at_point: np.ndarray  # y_j at xbar


@dataclass
class SeparationContext:
    instance: object
    xbar: np.ndarray
    bounds: object  # VariableBoundTable
    substitution: SubstitutionBounds  # each continuous variable's bound at xbar
    bad_vars: np.ndarray  # variable indices, decreasing bound distance
    bad_weights: np.ndarray  # bound distances aligned with bad_vars
    useful_rows: np.ndarray  # row indices, decreasing score
    scores: np.ndarray  # aligned with useful_rows
    bound_row: np.ndarray  # bool, aligned with useful_rows: implied-bound rows
    slacks: np.ndarray  # clipped nonnegative slack per instance row

    @property
    def nothing_to_do(self):
        return len(self.bad_vars) == 0

    @cached_property
    def bad_block(self):
        """A[useful_rows, bad_vars]: every column an aggregator decides on."""
        return self.instance.matrix[np.ix_(self.useful_rows, self.bad_vars)]

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
    smallest implied one at xbar (the first of equal candidates); a finite
    lower bound wins when xbar sits closer to it.
    """
    lower = instance.lower
    best_val = np.where(np.isfinite(instance.upper), instance.upper, np.inf)
    best = {}
    for j, entries in bounds.implied.items():
        for e in entries:
            cand = e.const + e.coef * xbar[e.int_var]
            if cand < best_val[j]:
                best_val[j] = cand
                best[j] = e
    has_upper = np.isfinite(best_val)
    use_lower = np.isfinite(lower) & (~has_upper | (xbar - lower < best_val - xbar))
    kind = np.where(use_lower, "lower", "upper").astype(object)
    bound = np.where(use_lower, lower, instance.upper)
    int_var = np.full(instance.n_vars, -1, dtype=np.int64)
    int_coef = np.zeros(instance.n_vars)
    for j, e in best.items():
        if not use_lower[j]:
            kind[j] = "implied"
            bound[j] = e.const
            int_var[j] = e.int_var
            int_coef[j] = e.coef
    implied = int_var >= 0
    slack_const = np.where(use_lower, -lower, bound)
    # y_j = const + ((0.0 + first term) + second term) at xbar: the order of
    # the sum of the affine terms of SlackTerm.coefs, starting from zero
    first = np.where(use_lower, xbar, np.where(implied, int_coef * xbar[int_var], -xbar))
    second = np.where(implied, -xbar, 0.0)
    return SubstitutionBounds(
        upper=best_val,
        usable=has_upper | use_lower,
        kind=kind,
        bound=bound,
        int_var=int_var,
        int_coef=int_coef,
        slack_const=slack_const,
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
    xbar = np.asarray(xbar, dtype=float)
    n = instance.n_vars
    if duals is None:
        duals = np.zeros(instance.n_rows)
    duals = np.asarray(duals, dtype=float)
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
        bound_row=np.isin(useful, list(bounds.bound_rows)),
        slacks=np.maximum(raw_slack, 0.0),
    )
