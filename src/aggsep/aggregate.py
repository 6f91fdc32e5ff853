"""Shared result type for row aggregation."""

from dataclasses import dataclass

import numpy as np

from .instance import ZERO_TOL


@dataclass
class AggregationResult:
    """One aggregated base inequality  alpha . x <= beta  =  lambda^T (Ax <= b)."""

    factors: dict  # row index -> factor > 0 (includes the starting row)
    alpha: np.ndarray  # dense coefficients over instance variables
    beta: float
    used_rows: tuple  # row indices with nonzero factor
    eliminated: tuple  # bad-variable indices projected out (MW only)
    residual_bad: tuple  # bad-variable indices still present in alpha
    algorithm: str  # 'mw' | 'lasso'
    starting_row: int

    def recompute(self, instance):
        """Re-derive (alpha, beta) from the stored factors."""
        return _combine(instance, self.factors)


def _combine(instance, factors):
    """lambda^T (A, b): the rows of ``factors`` added in its order."""
    A = instance.matrix
    b = instance.rhs
    alpha = np.zeros(instance.n_vars)
    beta = 0.0
    for i, lam in factors.items():
        alpha += lam * A[i]
        beta += lam * b[i]
    return alpha, beta


def make_result(ctx, factors, algorithm, starting_row, eliminated=()):
    """The aggregation of ``factors``: the starting row, and every other row
    with a factor above ZERO_TOL, added in row order."""
    used = {i: float(lam) for i, lam in sorted(factors.items())
            if not (lam <= ZERO_TOL and i != starting_row)}
    alpha, beta = _combine(ctx.instance, used)
    return AggregationResult(
        factors=used,
        alpha=alpha,
        beta=float(beta),
        used_rows=tuple(used),
        eliminated=tuple(eliminated),
        residual_bad=tuple(ctx.bad_vars[np.abs(alpha[ctx.bad_vars]) > ZERO_TOL].tolist()),
        algorithm=algorithm,
        starting_row=int(starting_row),
    )
