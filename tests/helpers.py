"""Shared test helpers: brute-force oracles, scalar reference implementations
of array code, and random-problem generators."""

import itertools
import math
import os
from types import SimpleNamespace

import numpy as np

from aggsep.aggregate import ZERO_TOL
from aggsep.cmir import (
    DEGENERATE_F_TOL,
    FRACTIONAL_TOL,
    MixedKnapsackRow,
    VIOLATION_THRESHOLD,
    g_function,
)
from aggsep.lp import LpProblem

ORACLE_BOX_LIMIT = 10 ** 6

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_DIR = os.path.join(DATA_DIR, "corpus")
EXAMPLE1_MPS = os.path.join(DATA_DIR, "example1.mps")


class OracleRefusedError(Exception):
    """Brute-force oracle precondition violated (enumeration box too large)."""


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


def planted_lp(rng, k=20, n_loose=40, n_cont=70, n_int=80, n_chain=10):
    """Dense LP relaxation of a planted instance, all rows <=, x in [0, ub].

    The construction of ``tools/gen_corpus.py`` at ~60 x 150: every
    continuous column has a and -lam_p a / lam_q in two of the k planted
    rows, integer columns touch 1-3 planted rows, and each loose row has
    2-4 nonzeros and some slack at the interior point xbar.  The last
    ``n_chain`` loose rows are replaced by x_a - x_b <= 0, whose slacks
    start basic at zero, so the simplex makes degenerate pivots.
    """
    n = n_cont + n_int
    lam = rng.integers(1, 4, size=k).astype(float)
    A = np.zeros((k + n_loose, n))
    cont = np.arange(n_cont)
    p = rng.integers(0, k, size=n_cont)
    q = (p + rng.integers(1, k, size=n_cont)) % k
    a = rng.integers(1, 4, size=n_cont) * rng.choice([-1.0, 1.0], size=n_cont)
    A[p, cont] = a
    A[q, cont] = -lam[p] * a / lam[q]
    for j in range(n_cont, n):
        nz = rng.choice(k, size=int(rng.integers(1, 4)), replace=False)
        A[nz, j] = rng.integers(-3, 4, size=len(nz))
    for i in range(k, k + n_loose):
        nz = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
        A[i, nz] = rng.integers(-3, 4, size=len(nz))
        if not A[i].any():
            A[i, nz[0]] = 1.0
    ub = np.concatenate([rng.integers(4, 13, size=n_cont),
                         rng.integers(2, 6, size=n_int)]).astype(float)
    xbar = rng.uniform(0.2, 0.6, size=n) * ub
    rhs = A @ xbar
    rhs[k:] += rng.uniform(0.5, 2.0, size=n_loose)  # planted rows stay tight
    for i in range(k + n_loose - n_chain, k + n_loose):
        a, b = rng.choice(n, size=2, replace=False)
        A[i] = 0.0
        A[i, a], A[i, b] = 1.0, -1.0
        rhs[i] = 0.0
    obj = rng.integers(-5, 6, size=n).astype(float)
    return LpProblem(obj=obj, A=A, row_type=["L"] * (k + n_loose), rhs=rhs,
                     col_lb=np.zeros(n), col_ub=ub)


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
        slack_vars=np.zeros(0, dtype=np.int64),
        slack_mult=np.zeros(0),
        substitution=None,
        zbar=zbar,
        sbar=sbar,
    )


def reference_select(k, violation_threshold=VIOLATION_THRESHOLD):
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
    """The per-variable bound substitution loop that the array code replaced.

    Returns the knapsack row's fields; ``slack_forms`` holds each slack's
    affine form ``y = const + sum(c * x_i for i, c in terms)`` as
    ``(kind, const, terms)``.
    """
    inst = ctx.instance
    bounds = ctx.bounds
    xbar = ctx.xbar
    alpha = aggregation.alpha
    b = aggregation.beta
    int_coef = {}
    slack_vars, slack_mult, slack_forms = [], [], []
    for j in np.flatnonzero(np.abs(alpha) > ZERO_TOL):
        j = int(j)
        var = inst.variables[j]
        if var.is_integer:
            int_coef[j] = int_coef.get(j, 0.0) + alpha[j]
            continue
        aj = alpha[j]
        best_val = var.upper if math.isfinite(var.upper) else math.inf
        best = None
        for e in np.flatnonzero(bounds.var == j):
            cand = bounds.const[e] + bounds.coef[e] * xbar[bounds.int_var[e]]
            if cand < best_val:
                best_val = cand
                best = e
        has_upper = math.isfinite(best_val)
        use_lower = math.isfinite(var.lower) and (
            not has_upper or xbar[j] - var.lower < best_val - xbar[j]
        )
        if not has_upper and not use_lower:
            return None
        slack_vars.append(j)
        slack_mult.append(abs(aj))
        if use_lower:
            b -= aj * var.lower
            slack_forms.append(("lower", -var.lower, [(j, 1.0)]))
        elif best is None:
            b -= aj * var.upper
            slack_forms.append(("upper", var.upper, [(j, -1.0)]))
        else:
            k, const, coef = int(bounds.int_var[best]), bounds.const[best], bounds.coef[best]
            b -= aj * const
            int_coef[k] = int_coef.get(k, 0.0) + aj * coef
            slack_forms.append(("implied", const, [(k, coef), (j, -1.0)]))
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
    for mult, (_, const, terms) in zip(slack_mult, slack_forms):
        y = const + sum(c * xbar[i] for i, c in terms)
        sbar += mult * y
    return SimpleNamespace(
        a=np.array(a, dtype=float),
        u=np.array(u, dtype=float),
        b=float(b),
        int_vars=tuple(int_vars),
        int_shift=np.array(shift, dtype=float),
        slack_vars=np.array(slack_vars, dtype=np.int64),
        slack_mult=np.array(slack_mult, dtype=float),
        slack_forms=slack_forms,
        zbar=np.array(zbar, dtype=float),
        sbar=float(sbar),
    )


def substitution_kind(sub, j):
    """'lower', 'upper' or 'implied': the bound variable j is substituted by."""
    if sub.slack_sign[j] > 0:
        return "lower"
    return "implied" if sub.int_var[j] >= 0 else "upper"


def reference_map_back(cut, ref):
    """The per-term dict loop that the array map-back replaced.

    ``ref`` is a ``reference_bound_substitute`` result; returns the cut's
    (coefficients, rhs) over the original variables.
    """
    coefs = {}
    rhs = cut.rhs_knapsack
    for pos, j in enumerate(ref.int_vars):
        c = cut.z_coefs[pos]
        if c != 0.0:
            coefs[j] = coefs.get(j, 0.0) + c
            rhs += c * ref.int_shift[pos]
    for mult, (_, const, terms) in zip(ref.slack_mult, ref.slack_forms):
        scale = cut.s_coef * mult
        rhs += scale * const
        for i, c in terms:
            coefs[i] = coefs.get(i, 0.0) - scale * c
    return {j: v for j, v in coefs.items() if abs(v) > ZERO_TOL}, float(rhs)


def row_slack(row, point, instance):
    """``rhs - coefficients . point`` for one row."""
    idx = instance.var_index
    acc = 0.0
    for var, val in row.coefficients.items():
        acc += val * point[idx[var]]
    return row.rhs - acc


def max_box_violation(a, u, b, zcoef, rhs, scoef):
    """Maximum cut violation over the integer box ``0 <= z <= u``.

    For each integer point the minimal feasible slack of the base row
    ``a.z <= b + s`` is ``s = max(0, a.z - b)``; the cut reads
    ``zcoef.z <= rhs + scoef*s``.  Returns the largest ``zcoef.z - rhs -
    scoef*s`` over the box.
    """
    q = len(a)
    if q == 0:
        s = max(0.0, -b)
        return -rhs - scoef * s
    shape = tuple(int(ui) + 1 for ui in u)
    grid = np.indices(shape, dtype=np.float64).reshape(q, -1)
    act = a @ grid
    s = np.maximum(act - b, 0.0)
    lhs = zcoef @ grid
    return float(np.max(lhs - rhs - scoef * s))


def validate_cut_bruteforce(cut, k, tol=1e-7):
    """Exhaustively check the cut over the integer box of the knapsack row.

    For each z the minimum feasible slack is max(0, a.z - b); the cut must
    hold at every such (z, s).
    """
    box = 1.0
    for u in k.u:
        box *= u + 1
    if box > ORACLE_BOX_LIMIT:
        raise OracleRefusedError("enumeration box of size %g refused" % box)
    viol = max_box_violation(
        np.ascontiguousarray(k.a, dtype=np.float64),
        np.ascontiguousarray(k.u, dtype=np.int64),
        float(k.b),
        np.ascontiguousarray(cut.z_coefs, dtype=np.float64),
        float(cut.rhs_knapsack),
        float(cut.s_coef),
    )
    return viol <= tol


def reference_variable_bounds(instance):
    """The per-row detection loop that the array detection replaced:
    ``(row, var, int_var, const, coef)`` per implied-bound row, a row with
    two nonzeros (an entry of 0.0 is none)."""
    idx = instance.var_index
    out = []
    for i, row in enumerate(instance.rows):
        items = sorted(((v, c) for v, c in row.coefficients.items() if c != 0),
                       key=lambda kv: idx[kv[0]])
        if len(items) != 2:
            continue
        cont = [(v, c) for v, c in items if not instance.variables[idx[v]].is_integer and c > 0]
        ints = [(v, c) for v, c in items if instance.variables[idx[v]].is_integer]
        if len(cont) == 1 and len(ints) == 1:
            (cv, a), (iv, c) = cont[0], ints[0]
            out.append((i, idx[cv], idx[iv], row.rhs / a, -c / a))
    return out


def bound_distance(j, xbar, bounds, instance):
    """Gap between x_j and its tightest simple or implied upper bound.

    The per-variable loop that ``preprocess`` replaced.  Returns +inf when
    no finite candidate exists; never negative (the point is clipped into
    its simple bounds first).  Unlike ``preprocess``, it also clips the
    integer partner of an implied bound into that variable's bounds.
    """
    var = instance.variables[j]
    xj = min(max(xbar[j], var.lower), var.upper)
    best = var.upper if math.isfinite(var.upper) else math.inf
    for e in np.flatnonzero(bounds.var == j):
        vk = instance.variables[bounds.int_var[e]]
        xk = min(max(xbar[bounds.int_var[e]], vk.lower), vk.upper)
        cand = bounds.const[e] + bounds.coef[e] * xk
        if cand < best:
            best = cand
    if not math.isfinite(best):
        return math.inf
    return max(best - xj, 0.0)


def row_score(row_coefs, dual, max_abs_dual, slack, xbar, instance, bd):
    """Equal-weight sum of five [0,1] ingredients; the per-row loop that
    ``preprocess`` replaced.

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


def reference_preprocess(instance, xbar, duals, max_bad_vars=50, max_useful_rows=5000):
    """The per-variable and per-row loops ``preprocess`` replaced, built on
    ``bound_distance`` and ``row_score``; returns the context's arrays."""
    bounds = instance.variable_bounds
    n = instance.n_vars
    bd = np.full(n, math.inf)
    for j in range(n):
        if not instance.variables[j].is_integer:
            bd[j] = bound_distance(j, xbar, bounds, instance)
    bad = [j for j in range(n) if not instance.variables[j].is_integer and bd[j] > 0]
    bad.sort(key=lambda j: (-bd[j], j))
    bad = bad[:max_bad_vars]
    bad_set = set(bad)
    A = instance.matrix
    raw_slack = instance.rhs - A @ xbar
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
    return SimpleNamespace(
        bad_vars=np.array(bad, dtype=np.int64),
        bad_weights=np.array([bd[j] for j in bad], dtype=float),
        useful_rows=np.array(useful, dtype=np.int64),
        scores=np.array([score_of[i] for i in useful], dtype=float),
        bound_row=np.array([i in set(bounds.rows.tolist()) for i in useful], dtype=bool),
    )
