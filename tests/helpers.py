"""Shared test helpers: brute-force oracles and random-problem generators."""

import itertools
import math
import os
from types import SimpleNamespace

import numpy as np

from aggsep.aggregate import ZERO_TOL
from aggsep.cmir import (
    DEFAULT_VIOLATION_THRESHOLD,
    DEGENERATE_F_TOL,
    FRACTIONAL_TOL,
    MixedKnapsackRow,
    SlackTerm,
    g_function,
)
from aggsep.lp import LpProblem

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_DIR = os.path.join(DATA_DIR, "corpus")
EXAMPLE1_MPS = os.path.join(DATA_DIR, "example1.mps")


def corpus_paths():
    out = []
    for fn in sorted(os.listdir(CORPUS_DIR)):
        if fn.endswith(".mps"):
            out.append(
                (os.path.join(CORPUS_DIR, fn), os.path.join(CORPUS_DIR, fn[:-4] + ".sol"))
            )
    return out


def enumerate_bfs_optimum(problem, tol=1e-7):
    """Minimum objective over all basic solutions of the slack-augmented LP.

    Independent of the simplex implementation: enumerates every basis
    (column subset) combined with every assignment of the nonbasic columns
    to one of their finite bounds, keeps primal-feasible points, and takes
    the best objective.  Returns None when no basic feasible point exists.
    """
    A = problem.A
    m = A.shape[0]
    slack_rows = [i for i, t in enumerate(problem.row_type) if t == "L"]
    ns = len(slack_rows)
    Aa = np.zeros((m, problem.n_cols + ns))
    Aa[:, : problem.n_cols] = A
    for k, i in enumerate(slack_rows):
        Aa[i, problem.n_cols + k] = 1.0
    c = np.concatenate([problem.obj, np.zeros(ns)])
    lb = np.concatenate([problem.col_lb, np.zeros(ns)])
    ub = np.concatenate([problem.col_ub, np.full(ns, np.inf)])
    n = Aa.shape[1]
    best = None
    for basis in itertools.combinations(range(n), m):
        B = Aa[:, basis]
        if m and abs(np.linalg.det(B)) < 1e-10:
            continue
        nb = [j for j in range(n) if j not in basis]
        choices = []
        for j in nb:
            opts = []
            if np.isfinite(lb[j]):
                opts.append(lb[j])
            if np.isfinite(ub[j]) and ub[j] != lb[j]:
                opts.append(ub[j])
            if not opts:
                opts.append(0.0)
            choices.append(opts)
        for vals in itertools.product(*choices):
            x = np.zeros(n)
            x[list(nb)] = vals
            xb = np.linalg.solve(B, problem.rhs - Aa @ x) if m else np.zeros(0)
            x[list(basis)] = xb
            if np.any(x < lb - tol) or np.any(x > ub + tol):
                continue
            obj = float(c @ x)
            if best is None or obj < best:
                best = obj
    return best


def random_lp(rng, max_rows=6, max_cols=6):
    """Small random bounded LP, mixing equality and <= rows.

    The slack-augmented matrix is kept at full row rank so that every
    vertex is a basic solution the enumeration oracle can see.
    """
    while True:
        m = int(rng.integers(1, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        row_type = [("E" if rng.random() < 0.3 else "L") for _ in range(m)]
        ns = sum(1 for t in row_type if t == "L")
        Aa = np.zeros((m, n + ns))
        Aa[:, :n] = A
        k = n
        for i, t in enumerate(row_type):
            if t == "L":
                Aa[i, k] = 1.0
                k += 1
        if np.linalg.matrix_rank(Aa) == m:
            break
    x0 = rng.uniform(0.0, 2.0, size=n)
    rhs = A @ x0
    for i, t in enumerate(row_type):
        if t == "L":
            rhs[i] += rng.uniform(0.0, 2.0)
    lb = np.zeros(n)
    ub = np.where(rng.random(n) < 0.7, rng.uniform(2.0, 5.0, size=n), np.inf)
    obj = rng.integers(-4, 5, size=n).astype(float)
    # keep the problem bounded below: no negative cost on an unbounded column
    obj[~np.isfinite(ub)] = np.abs(obj[~np.isfinite(ub)])
    return LpProblem(obj=obj, A=A, row_type=row_type, rhs=rhs, col_lb=lb, col_ub=ub)


def random_knapsack_row(rng, max_q=6, max_u=5):
    """Random mixed knapsack row with a point inside the box."""
    q = int(rng.integers(1, max_q + 1))
    a = np.round(rng.uniform(-5.0, 5.0, size=q), 3)
    a[np.abs(a) < 0.1] = 1.0
    u = rng.integers(1, max_u + 1, size=q).astype(float)
    b = float(np.round(rng.uniform(-10.0, 10.0), 3))
    zbar = rng.uniform(0.0, 1.0, size=q) * u
    sbar = max(0.0, float(a @ zbar - b))
    return MixedKnapsackRow(
        a=a,
        u=u,
        b=b,
        int_vars=tuple(range(q)),
        int_shift=np.zeros(q),
        slack_terms=(),
        zbar=zbar,
        sbar=sbar,
    )


def reference_select(k, violation_threshold=DEFAULT_VIOLATION_THRESHOLD):
    """The scalar per-delta c-MIR search that the array search replaced.

    Proximity partition, then every delta candidate in order, each cut built
    with scalar ``g_function`` calls; the first strict maximum of the
    knapsack-space violation wins.  Returns the fields of the chosen cut in
    knapsack space, or None.
    """
    if k.q == 0:
        return None
    U = tuple(j for j in range(k.q) if k.zbar[j] > k.u[j] - k.zbar[j])
    T = tuple(j for j in range(k.q) if j not in U)
    base = [1.0]
    for j in range(k.q):
        fz = k.zbar[j] - math.floor(k.zbar[j])
        if min(fz, 1.0 - fz) > FRACTIONAL_TOL:
            base.append(abs(k.a[j]))
    deltas = []
    for d in base:
        for dd in (d, d / 2.0, d / 4.0):
            if dd > 0 and dd not in deltas:
                deltas.append(dd)
    best = None
    for delta in deltas:
        beta = (k.b - sum(k.a[j] * k.u[j] for j in U)) / delta
        f = beta - math.floor(beta)
        if min(f, 1.0 - f) < DEGENERATE_F_TOL:
            continue
        z_coefs = np.zeros(k.q)
        rhs = math.floor(beta)
        for j in T:
            z_coefs[j] = g_function(k.a[j] / delta, f)
        for j in U:
            g = g_function(-k.a[j] / delta, f)
            z_coefs[j] = -g
            rhs -= g * k.u[j]
        s_coef = float(1.0 / (delta * (1.0 - f)))
        rhs = float(rhs)
        violation = float(z_coefs @ k.zbar - rhs - s_coef * k.sbar)
        if best is None or violation > best.violation:
            best = SimpleNamespace(
                partition_t=T, partition_u=U, delta=float(delta), z_coefs=z_coefs,
                rhs_knapsack=rhs, s_coef=s_coef, violation=violation,
            )
    if best is not None and best.violation > violation_threshold:
        return best
    return None


def reference_bound_substitute(aggregation, ctx):
    """The per-variable bound substitution loop that the array code replaced."""
    inst = ctx.instance
    xbar = ctx.xbar
    alpha = aggregation.alpha
    b = aggregation.beta
    int_coef = {}
    slack_terms = []
    for j in np.flatnonzero(np.abs(alpha) > ZERO_TOL):
        j = int(j)
        var = inst.variables[j]
        if var.is_integer:
            int_coef[j] = int_coef.get(j, 0.0) + alpha[j]
            continue
        aj = alpha[j]
        best_val = var.upper if math.isfinite(var.upper) else math.inf
        best = None
        for e in ctx.bounds.entries(j):
            cand = e.const + e.coef * xbar[e.int_var]
            if cand < best_val:
                best_val = cand
                best = e
        has_upper = math.isfinite(best_val)
        use_lower = math.isfinite(var.lower) and (
            not has_upper or xbar[j] - var.lower < best_val - xbar[j]
        )
        if not has_upper and not use_lower:
            return None
        if use_lower:
            b -= aj * var.lower
            slack_terms.append(SlackTerm(j, abs(aj), -var.lower, {j: 1.0}, "lower"))
        elif best is None:
            b -= aj * var.upper
            slack_terms.append(SlackTerm(j, abs(aj), var.upper, {j: -1.0}, "upper"))
        else:
            b -= aj * best.const
            int_coef[best.int_var] = int_coef.get(best.int_var, 0.0) + aj * best.coef
            slack_terms.append(SlackTerm(
                j, abs(aj), best.const, {best.int_var: best.coef, j: -1.0}, "implied"))
    int_vars, a, u, shift, zbar = [], [], [], [], []
    for j in sorted(int_coef):
        coef = int_coef[j]
        if abs(coef) <= ZERO_TOL:
            continue
        var = inst.variables[j]
        if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
            return None
        int_vars.append(j)
        a.append(coef)
        u.append(round(var.upper - var.lower))
        shift.append(var.lower)
        zbar.append(xbar[j] - var.lower)
        b -= coef * var.lower
    sbar = 0.0
    for t in slack_terms:
        y = t.const + sum(c * xbar[k] for k, c in t.coefs.items())
        sbar += t.mult * y
    return MixedKnapsackRow(
        a=np.array(a, dtype=float),
        u=np.array(u, dtype=float),
        b=float(b),
        int_vars=tuple(int_vars),
        int_shift=np.array(shift, dtype=float),
        slack_terms=tuple(slack_terms),
        zbar=np.array(zbar, dtype=float),
        sbar=float(sbar),
    )
