"""Bound substitution and c-MIR cut generation.

An aggregated base inequality is rewritten over shifted bounded integers z
and a single nonnegative slack aggregate s (the weighted sum of continuous
bound slacks), giving the mixed knapsack row sum a_j z_j <= b + s.  Cuts
are produced by complementing a subset U, scaling by delta and applying
the MIR rounding function, then mapped back to original variables.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregate import ZERO_TOL
from .errors import ContractViolation, DegenerateCutError
from .mpsio import CutRecord

FRACTIONAL_TOL = 1e-6
DEGENERATE_F_TOL = 1e-9
VIOLATION_THRESHOLD = 1e-4


@dataclass
class MixedKnapsackRow:
    """sum a_j z_j <= b + s  with  0 <= z_j <= u_j integer, s >= 0.

    s = sum slack_mult * y over the slacks of ``slack_vars``, each slack's
    affine form y_j(x) read from ``substitution`` (None without slacks).
    """

    a: np.ndarray
    u: np.ndarray
    b: float
    int_vars: tuple  # original variable index per knapsack position
    int_shift: np.ndarray  # lower bound subtracted per position
    slack_vars: np.ndarray  # substituted continuous variables, by index
    slack_mult: np.ndarray  # |alpha_j| per slack variable
    substitution: object  # SubstitutionBounds of the point
    zbar: np.ndarray
    sbar: float

    @property
    def q(self):
        return len(self.a)

    @property
    def fractional(self):
        """Mask of the positions whose point value is fractional."""
        fz = self.zbar - np.floor(self.zbar)
        return np.minimum(fz, 1.0 - fz) > FRACTIONAL_TOL


@dataclass
class CmirCut:
    partition_t: tuple  # knapsack positions
    partition_u: tuple
    delta: float
    beta: float
    f: float
    z_coefs: np.ndarray  # expanded coefficient per knapsack position
    rhs_knapsack: float  # constant right-hand side in (z, s) space
    s_coef: float  # 1 / (delta * (1 - f))
    coefficients: dict = field(default_factory=dict)  # original var idx -> coef
    rhs: float = 0.0  # mapped-back right-hand side
    violation: float = 0.0  # coefficients . xbar - rhs


def g_function(d, f):
    """MIR rounding function floor(d) + (frac(d) - f)^+ / (1 - f)."""
    if f >= 1.0:
        raise ContractViolation("g_function needs f < 1")
    fl = math.floor(d)
    fd = d - fl
    return fl + max(fd - f, 0.0) / (1.0 - f)


def g_values(d, f):
    """Vectorized ``g_function``.

    ``d`` and ``f`` broadcast against each other, so one call scores a
    (n_delta x q) array with one ``f`` per row.
    """
    d = np.asarray(d, dtype=np.float64)
    fl = np.floor(d)
    fd = d - fl
    return fl + np.maximum(fd - f, 0.0) / (1.0 - f)


def bound_substitute(aggregation, ctx):
    """Rewrite an aggregated inequality as a mixed knapsack row.

    Continuous variables are replaced by the bound ``preprocess`` picked
    for them at the point (``ctx.substitution``: simple upper, the best
    implied upper, or a finite lower bound when the point sits closer to
    it); integer variables are shifted to a zero lower bound.  Returns None
    when a needed bound is missing.
    """
    inst = ctx.instance
    sub = ctx.substitution
    alpha = aggregation.alpha
    nz = np.flatnonzero(np.abs(alpha) > ZERO_TOL)
    is_int = inst.integer_mask[nz]
    cont = nz[~is_int]
    if not sub.usable[cont].all():
        return None
    a_cont = alpha[cont]
    # integer coefficients: own entries and implied-bound migrations, added
    # in the order the row's positions are visited
    hit = is_int | (sub.int_var[nz] >= 0)
    target = np.where(is_int, nz, sub.int_var[nz])[hit]
    acc = np.bincount(target, np.where(is_int, alpha[nz], alpha[nz] * sub.int_coef[nz])[hit])
    int_vars = np.flatnonzero(np.abs(acc) > ZERO_TOL)
    a = acc[int_vars].astype(float)  # bincount of nothing is an int array
    lo = inst.lower[int_vars]
    hi = inst.upper[int_vars]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return None

    mult = np.abs(a_cont)
    moved = np.concatenate((a_cont * sub.bound[cont], a * lo))  # out of b, in this order
    return MixedKnapsackRow(
        a=a,
        u=np.round(hi - lo),
        b=_running_sum(float(aggregation.beta), -moved),
        int_vars=tuple(int_vars.tolist()),
        int_shift=lo,
        slack_vars=cont,
        slack_mult=mult,
        substitution=sub,
        zbar=ctx.xbar[int_vars] - lo,
        sbar=_running_sum(0.0, mult * sub.slack_at_point[cont]),
    )


def _running_sum(start, terms):
    """``start`` plus ``terms``, added left to right: the bytes of b, sbar,
    beta and the mapped-back right-hand side depend on this summation order."""
    total = float(start)
    for t in terms.tolist():
        total += t
    return total


def _score(k, U, deltas):
    """The cut of partition (T, U) at each scaling in ``deltas``, T being
    the positions not in U.

    Returns (beta, f, live, z, rhs, s_coef, violation), one entry (for z,
    one row of knapsack coefficients) per delta; ``live`` is False where f
    is within DEGENERATE_F_TOL of an integer, and those rows are not cuts.
    Each delta's entries are computed in one fixed order, whichever deltas
    come with it: rhs adds floor(beta), then -g_j u_j over U in U's order,
    and the violation in knapsack space is one dot product of the row with
    zbar (a matrix-vector product would sum in another order), less rhs,
    less s_coef * sbar.
    """
    U = np.asarray(U, dtype=np.intp)
    beta = (k.b - _running_sum(0.0, k.a[U] * k.u[U])) / deltas
    floor_beta = np.floor(beta)
    f = beta - floor_beta
    live = ~(np.minimum(f, 1.0 - f) < DEGENERATE_F_TOL)
    sign = np.ones(k.q)
    sign[U] = -1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # f == 1 is not live
        z = sign * g_values(sign * k.a / deltas[:, None], f[:, None])
        s_coef = 1.0 / (deltas * (1.0 - f))
    # one column per delta: floor(beta), then one row per U position
    rhs = np.cumsum(np.concatenate((floor_beta[None], (z[:, U] * k.u[U]).T)), axis=0)[-1]
    violation = np.array([row @ k.zbar for row in z]) - rhs - s_coef * k.sbar
    return beta, f, live, z, rhs, s_coef, violation


def cmir_inequality(k, T, U, delta):
    """Build the rounding cut for partition (T, U) and scaling delta.

    Raises DegenerateCutError when the rounded fraction is within
    tolerance of an integer (the cut collapses to the scaled base row).
    """
    if delta <= 0:
        raise ContractViolation("delta must be positive")
    T = tuple(int(j) for j in T)
    U = tuple(int(j) for j in U)
    if not np.array_equal(np.sort(np.array(T + U, dtype=np.int64)), np.arange(k.q)):
        raise ContractViolation("(T, U) must partition the knapsack positions")
    beta, f, live, z, rhs, s_coef, violation = _score(k, U, np.array([delta], dtype=float))
    if not live[0]:
        raise DegenerateCutError("fraction %r is numerically integral" % float(f[0]))
    cut = CmirCut(
        partition_t=T,
        partition_u=U,
        delta=float(delta),
        beta=float(beta[0]),
        f=float(f[0]),
        z_coefs=z[0],
        rhs_knapsack=float(rhs[0]),
        s_coef=float(s_coef[0]),
        violation=float(violation[0]),
    )
    _map_back(cut, k)
    return cut


def _map_back(cut, k):
    """Express the knapsack-space cut over the original variables.

    s_coef * s = sum(scale_j * y_j) with y_j = const_j + d_j x_k + sign_j x_j:
    the constants join the right-hand side and the x terms move to the left
    with a minus sign.  Both sums run over the integer positions first,
    then the slacks in order (an implied slack's x_k before its x_j).
    """
    on = cut.z_coefs != 0.0
    z = cut.z_coefs[on]
    var = [np.asarray(k.int_vars, dtype=np.int64)[on]]
    coef = [z]
    rhs_terms = [z * k.int_shift[on]]
    if len(k.slack_vars):
        sub, j = k.substitution, k.slack_vars
        scale = cut.s_coef * k.slack_mult
        implied = sub.int_var[j] >= 0
        var += [sub.int_var[j][implied], j]
        coef += [-(scale * sub.int_coef[j])[implied], -(scale * sub.slack_sign[j])]
        rhs_terms.append(scale * sub.slack_const[j])
    # np.bincount adds in visiting order: per variable, the order above
    acc = np.bincount(np.concatenate(var), np.concatenate(coef))
    keys = np.flatnonzero(np.abs(acc) > ZERO_TOL)
    cut.coefficients = dict(zip(keys.tolist(), acc[keys].tolist()))
    cut.rhs = _running_sum(cut.rhs_knapsack, np.concatenate(rhs_terms))


def proximity_partition(k):
    """U collects positions whose point value is nearer the upper bound."""
    near_upper = k.zbar > k.u - k.zbar
    return (tuple(np.flatnonzero(~near_upper).tolist()),
            tuple(np.flatnonzero(near_upper).tolist()))


def delta_candidates(k):
    """{1} and |a_j| of fractional positions, each with its /2 and /4.

    A float array in that order, each value at its first occurrence.
    """
    base = np.concatenate(([1.0], np.abs(k.a[k.fractional])))
    cands = (base[:, None] / np.array([1.0, 2.0, 4.0])).ravel()
    return np.array(list(dict.fromkeys(cands[cands > 0].tolist())))


def select_partition_and_delta(k):
    """Most violated cut over the candidate deltas, or None below
    ``VIOLATION_THRESHOLD``.

    ``_score`` rates every delta at once; the first maximum of the
    violation over the live deltas wins, and only a winner above the
    threshold is built: ``_score`` gives a delta the same bits alone as
    in a batch, so its scored violation is the built cut's.
    """
    if k.q == 0:
        return None
    T, U = proximity_partition(k)
    deltas = delta_candidates(k)
    _, _, live, _, _, _, violation = _score(k, U, deltas)
    if not live.any():
        return None
    best = np.flatnonzero(live)[np.argmax(violation[live])]
    if not violation[best] > VIOLATION_THRESHOLD:
        return None
    return cmir_inequality(k, T, U, deltas[best])


def separate_on_aggregation(aggregation, ctx, cut_name):
    """bound substitution -> (T, U, delta) search -> CutRecord, or None."""
    k = bound_substitute(aggregation, ctx)
    if k is None or not k.fractional.any():
        return None
    cut = select_partition_and_delta(k)
    if cut is None:
        return None
    inst = ctx.instance
    coefficients = {
        inst.variables[j].name: cut.coefficients[j]
        for j in sorted(cut.coefficients)
    }
    rows = inst.rows
    return CutRecord(
        name=cut_name,
        coefficients=coefficients,
        rhs=cut.rhs,
        violation=cut.violation,
        algorithm=aggregation.algorithm,
        starting_row=rows[aggregation.starting_row].name,
        used_rows=[(rows[i].name, aggregation.factors[i]) for i in aggregation.used_rows],
        partition_t=[inst.variables[k.int_vars[j]].name for j in cut.partition_t],
        partition_u=[inst.variables[k.int_vars[j]].name for j in cut.partition_u],
        delta=cut.delta,
    )

