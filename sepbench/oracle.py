"""Reference checks that do not depend on ``aggsep``.

Nothing here imports ``aggsep``.  The checks take plain data: the
generator's arrays (``gen.Planted``), the serialized cut text a round wrote,
and factors and coefficients copied out of a round's aggregations.

* ``relaxation_objective``: the LP-relaxation optimum from scipy's HiGHS.
* ``aggregation_error``: how far an aggregated row is from
  ``lam^T (A x <= b)`` recomputed from its factors.
* ``cut_verdict``: whether some point of the cut's own relaxation (the
  aggregated row, the variable-bound rows, the variable bounds and
  integrality) violates the cut.  A cut is called invalid only after the
  witness point the MILP solver returns has been re-checked here.

scipy is imported lazily so that the timed rounds never pay for it.
"""

import json

import numpy as np

VALID = "valid"
INVALID = "invalid"
UNCHECKED = "unchecked"

# A witness may break a row by the solver's feasibility tolerance, and a
# valid cut by that much times its coefficient ratio, so CUT_TOL sits well
# above ROW_TOL.  The defect this benchmark exposes violates cuts by O(1).
ROW_TOL = 1e-7  # relative feasibility tolerance for re-checking a witness
CUT_TOL = 1e-4  # relative violation a witness needs before a cut is invalid
INT_TOL = 1e-6
MILP_TIME_LIMIT = 10.0


def relaxation_objective(p):
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    A = csr_matrix((p.data, p.indices, p.indptr), shape=(p.n_rows, p.n_vars))
    res = linprog(p.obj, A_ub=A, b_ub=p.rhs,
                  bounds=list(zip(p.lower, p.upper)), method="highs")
    if res.status != 0:
        raise RuntimeError("reference LP ended with status %d: %s" % (res.status, res.message))
    return float(res.fun)


def relaxation_agrees(objective, reference):
    return abs(objective - reference) <= 1e-6 * (1.0 + abs(reference))


def aggregation_error(p, factors, alpha, beta):
    """Scaled max deviation of (alpha, beta) from sum_i lam_i (A_i, b_i).

    ``factors`` maps row names to multipliers and ``alpha`` holds the
    coefficients in the generator's variable order.  A negative factor
    gives ``inf``.
    """
    rows = p.row_index
    ref_alpha = np.zeros(p.n_vars)
    ref_beta = 0.0
    mass = 1.0
    for r, lam in factors.items():
        if not lam >= 0.0:
            return float("inf")
        i = rows[r]
        a = p.row(i)
        ref_alpha += lam * a
        ref_beta += lam * p.rhs[i]
        mass += lam * (np.abs(a).max(initial=0.0) + abs(p.rhs[i]))
    dev = max(float(np.abs(np.asarray(alpha) - ref_alpha).max(initial=0.0)), abs(beta - ref_beta))
    return dev / mass


def bound_rows(p):
    """Rows ``a x_j + c z_k <= d`` with ``a > 0`` on a continuous ``x_j``."""
    out = []
    for i in np.flatnonzero(np.diff(p.indptr) == 2):
        lo = p.indptr[i]
        cols, vals = p.indices[lo:lo + 2], p.data[lo:lo + 2]
        cont = [v > 0 for j, v in zip(cols, vals) if not p.is_int[j]]
        if cont == [True] and p.is_int[cols].sum() == 1:
            out.append(int(i))
    return out


def parse_cut_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def cut_verdict(p, cut, bound_row_idx, time_limit=MILP_TIME_LIMIT):
    """VALID, INVALID or UNCHECKED for one serialized cut, and its witness violation.

    Maximises the cut's left-hand side over its relaxation, restricted to
    points that violate the cut by at least the tolerance.  Infeasible means
    valid.  A returned point counts as a violation only if it satisfies the
    rows, bounds and integrality here and violates the cut by more than the
    tolerance.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    col = {v: j for j, v in enumerate(p.var_names)}
    n = len(p.var_names)
    c = np.zeros(n)
    for v, coef in cut["coefficients"].items():
        c[col[v]] = coef
    rhs = float(cut["rhs"])
    factors = {u["row"]: u["factor"] for u in cut["provenance"]["used_rows"]}
    alpha = np.zeros(n)
    beta = 0.0
    rows = p.row_index
    for r, lam in factors.items():
        alpha += lam * p.row(rows[r])
        beta += lam * p.rhs[rows[r]]
    M = np.vstack([alpha[None, :]] + [p.row(i)[None, :] for i in bound_row_idx]
                  + [c[None, :]])
    lo = np.full(M.shape[0], -np.inf)
    hi = np.concatenate([[beta], p.rhs[bound_row_idx], [np.inf]])
    cut_tol = CUT_TOL * (1.0 + abs(rhs))
    lo[-1] = rhs + cut_tol
    res = milp(-c, constraints=LinearConstraint(M, lo, hi),
               integrality=p.is_int.astype(int), bounds=Bounds(p.lower, p.upper),
               options={"time_limit": time_limit})
    if res.status == 2:  # infeasible: no point violates the cut
        return VALID, 0.0
    if res.x is None:
        return UNCHECKED, 0.0
    x = recheck_point(p, res.x, M[:-1], hi[:-1])
    if x is None:
        return UNCHECKED, 0.0
    viol = float(c @ x - rhs)
    if viol > cut_tol:
        return INVALID, viol
    return UNCHECKED, viol


def recheck_point(p, x, M, hi):
    """Rounded witness if it satisfies integrality, bounds and ``M x <= hi``."""
    x = np.array(x, dtype=float)
    xi = np.round(x[p.is_int])
    if np.abs(xi - x[p.is_int]).max(initial=0.0) > INT_TOL:
        return None
    x[p.is_int] = xi
    scale = 1.0 + np.abs(p.upper).max(initial=0.0)
    if np.any(x < p.lower - ROW_TOL * scale) or np.any(x > p.upper + ROW_TOL * scale):
        return None
    x = np.clip(x, p.lower, p.upper)
    act = M @ x
    tol = ROW_TOL * (1.0 + np.abs(hi) + np.abs(M) @ np.abs(x))
    if np.any(act > hi + tol):
        return None
    return x


def self_test():
    """The oracle must flag ``z + 2x <= 0`` and accept ``z - 2x <= 0``.

    Both are stated for the row ``z - x <= 0.5`` with ``x`` in [0, 10]
    continuous and ``z`` in {0..3}.  The first cut removes the feasible
    point (x, z) = (0.5, 1); the second is the correct MIR cut of the row.
    Returns a list of failure messages (empty when the oracle works).
    """
    import gen

    p = gen.make_planted("selftest", np.array([0, 0]), np.array([0, 1]),
                         np.array([-1.0, 1.0]), 1, [0.5], [10.0, 3.0],
                         np.array([False, True]), np.zeros(2), [0.2, 0.7])

    def cut(cx):  # variables are named x1 (= x) and z1 (= z), the row c1
        return {"coefficients": {"x1": cx, "z1": 1.0}, "rhs": 0.0,
                "provenance": {"used_rows": [{"row": "c1", "factor": 1.0}]}}

    failures = []
    verdict, viol = cut_verdict(p, cut(2.0), bound_rows(p))
    if verdict != INVALID:
        failures.append("z + 2x <= 0 judged %s" % verdict)
    verdict, _ = cut_verdict(p, cut(-2.0), bound_rows(p))
    if verdict != VALID:
        failures.append("z - 2x <= 0 judged %s" % verdict)
    if aggregation_error(p, {"c1": 2.0}, [-2.0, 2.0], 1.0) > 1e-12:
        failures.append("exact aggregation rejected")
    if aggregation_error(p, {"c1": -1.0}, [1.0, -1.0], -0.5) != float("inf"):
        failures.append("negative factor accepted")
    return failures
