"""Separation preprocessing: bad variables, useful rows, scores.

Freezes everything the aggregators need into one SeparationContext per
point: mw, lasso and the sparsity metrics all read the same snapshot.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cmir import substitution_bounds
from .errors import ContractViolation
from .instance import detect_variable_bounds

@dataclass
class SeparationContext:
    instance: object
    xbar: np.ndarray
    bounds: object  # VariableBoundTable
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

    @cached_property
    def substitution(self):
        """Bound substitution's per-variable choice at xbar."""
        return substitution_bounds(self)


def bound_distance(j, xbar, bounds, instance):
    """Gap between x_j and its tightest simple or implied upper bound.

    Returns +inf when no finite candidate exists; never negative (the point
    is clipped into its simple bounds first).
    """
    var = instance.variables[j]
    xj = min(max(xbar[j], var.lower), var.upper)
    best = var.upper if math.isfinite(var.upper) else math.inf
    for e in bounds.entries(j):
        xk = xbar[e.int_var]
        vk = instance.variables[e.int_var]
        xk = min(max(xk, vk.lower), vk.upper)
        cand = e.const + e.coef * xk
        if cand < best:
            best = cand
    if not math.isfinite(best):
        return math.inf
    return max(best - xj, 0.0)


def row_score(row_coefs, dual, max_abs_dual, slack, xbar, instance, bd):
    """Equal-weight sum of five [0,1] ingredients.

    dual pull, sparsity, tightness, integer fractionality at the point, and
    a bound-distance analogue of fractionality for continuous variables.
    """
    n = instance.n_vars
    nz = np.flatnonzero(row_coefs)
    s = abs(dual) / (1.0 + max_abs_dual)
    s += 1.0 - len(nz) / n if n else 0.0
    s += math.exp(-max(slack, 0.0))
    int_fracs = []
    cont_fracs = []
    for j in nz:
        if instance.variables[j].is_integer:
            int_fracs.append(xbar[j] - math.floor(xbar[j]))
        else:
            b = bd[j]
            cont_fracs.append(1.0 if math.isinf(b) else b / (1.0 + b))
    if int_fracs:
        s += sum(int_fracs) / len(int_fracs)
    if cont_fracs:
        s += sum(cont_fracs) / len(cont_fracs)
    return s


def preprocess(instance, xbar, duals=None, max_bad_vars=50, max_useful_rows=5000):
    """Build the frozen SeparationContext for one point to separate.

    The useful rows include the implied-bound rows, which mw never uses.
    """
    bounds = detect_variable_bounds(instance)
    n = instance.n_vars
    m = instance.n_rows
    if duals is None:
        duals = np.zeros(m)
    duals = np.asarray(duals, dtype=float)

    bd = np.full(n, math.inf)
    for j in range(n):
        if not instance.variables[j].is_integer:
            bd[j] = bound_distance(j, xbar, bounds, instance)

    bad = [
        j for j in range(n)
        if not instance.variables[j].is_integer and bd[j] > 0
    ]
    # largest distances first, ties by ascending index; +inf sorts first
    bad.sort(key=lambda j: (-bd[j], j))
    bad = bad[:max_bad_vars]
    bad_set = set(bad)

    A = instance.matrix
    b = instance.rhs
    raw_slack = b - A @ xbar
    slacks = np.maximum(raw_slack, 0.0)
    max_abs_dual = float(np.abs(duals).max(initial=0.0))

    useful = [
        i for i, row in enumerate(instance.rows)
        if any(instance.var_index[v] in bad_set for v in row.coefficients)
    ]
    score_of = {
        i: row_score(A[i], duals[i], max_abs_dual, raw_slack[i], xbar, instance, bd)
        for i in useful
    }
    useful.sort(key=lambda i: (-score_of[i], i))
    useful = useful[:max_useful_rows]

    return SeparationContext(
        instance=instance,
        xbar=np.asarray(xbar, dtype=float),
        bounds=bounds,
        bad_vars=np.array(bad, dtype=np.int64),
        bad_weights=np.array([bd[j] for j in bad], dtype=float),
        useful_rows=np.array(useful, dtype=np.int64),
        scores=np.array([score_of[i] for i in useful], dtype=float),
        bound_row=np.array([i in bounds.bound_rows for i in useful], dtype=bool),
        slacks=slacks,
    )
