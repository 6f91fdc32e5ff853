"""Generate the small bundled MILP corpus under tests/data/corpus/.

Each instance embeds a planted nonnegative row combination that cancels
every continuous column, so a good aggregation exists; whether the greedy
stepwise search finds it varies.  A matching .sol point is emitted per
instance: tight on the planted rows, fractional on the integers, and
strictly inside the continuous bounds (so those variables are bad).

Run from the repository root:  python3 tools/gen_corpus.py
"""

import os

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "tests", "data", "corpus")
# the candidates of the seeded stream, counted from 1, that the corpus holds:
# those the original filter kept, which ran both algorithms on every useful
# row and kept a candidate whose lasso ratio was at most its mw ratio.  The
# corpus is selected by that rule, so its lasso-versus-mw sparsity is not
# evidence about unselected instances.
KEPT = (2, 4, 5, 6, 7, 8, 9, 12, 13, 14, 16, 20)


def render_mps(name, n_cont, n_int, A, rhs, ub_cont, ub_int, obj):
    cols = ["x%d" % (j + 1) for j in range(n_cont)] + [
        "z%d" % (j + 1) for j in range(n_int)
    ]
    lines = ["NAME %s" % name, "ROWS", " N obj"]
    for i in range(A.shape[0]):
        lines.append(" L c%d" % (i + 1))
    lines.append("COLUMNS")
    for j, col in enumerate(cols):
        if j == n_cont:
            lines.append(" MI1 'MARKER' 'INTORG'")
        if obj[j]:
            lines.append(" %s obj %r" % (col, float(obj[j])))
        for i in range(A.shape[0]):
            if A[i, j]:
                lines.append(" %s c%d %r" % (col, i + 1, float(A[i, j])))
    if n_int:
        lines.append(" MI2 'MARKER' 'INTEND'")
    lines.append("RHS")
    for i, b in enumerate(rhs):
        lines.append(" rhs c%d %r" % (i + 1, float(b)))
    lines.append("BOUNDS")
    for j in range(n_cont):
        lines.append(" UP bnd x%d %r" % (j + 1, float(ub_cont[j])))
    for j in range(n_int):
        lines.append(" UI bnd z%d %d" % (j + 1, int(ub_int[j])))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def render_sol(xbar, n_cont):
    lines = []
    for j, v in enumerate(xbar):
        name = "x%d" % (j + 1) if j < n_cont else "z%d" % (j + 1 - n_cont)
        lines.append("%s %r" % (name, float(v)))
    return "\n".join(lines) + "\n"


def candidate(rng, idx):
    n_cont = int(rng.integers(2, 5))
    n_int = int(rng.integers(2, 5))
    n = n_cont + n_int
    k = 3  # planted rows
    lam = rng.integers(1, 4, size=k).astype(float)

    A = np.zeros((k, n))
    for j in range(n_cont):
        p, q = rng.choice(k, size=2, replace=False)
        a = float(rng.integers(1, 4)) * rng.choice([-1.0, 1.0])
        A[p, j] = a
        A[q, j] = -lam[p] * a / lam[q]
    for j in range(n_cont, n):
        nz = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        A[nz, j] = rng.integers(-3, 4, size=len(nz))

    n_loose = int(rng.integers(1, 4))
    L = np.zeros((n_loose, n))
    for i in range(n_loose):
        nz = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
        L[i, nz] = rng.integers(-3, 4, size=len(nz))
        if not L[i].any():
            L[i, nz[0]] = 1.0
    A = np.vstack([A, L])

    ub_cont = rng.integers(4, 13, size=n_cont).astype(float)
    ub_int = rng.integers(2, 6, size=n_int)
    xbar = np.empty(n)
    xbar[:n_cont] = rng.uniform(0.2, 0.6, size=n_cont) * ub_cont
    xbar[n_cont:] = rng.integers(0, ub_int) + rng.choice(
        [0.25, 0.5, 0.75], size=n_int
    )
    xbar[n_cont:] = np.minimum(xbar[n_cont:], ub_int.astype(float))

    rhs = A @ xbar
    rhs[k:] += rng.uniform(0.5, 2.0, size=n_loose)  # planted rows stay tight
    obj = rng.integers(-5, 6, size=n).astype(float)
    name = "corpus%02d" % idx
    return (
        render_mps(name, n_cont, n_int, A, rhs, ub_cont, ub_int, obj),
        render_sol(xbar, n_cont),
    )


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    rng = np.random.default_rng(20240817)
    kept = 0
    for tried in range(1, KEPT[-1] + 1):
        mps_text, sol_text = candidate(rng, kept + 1)  # every candidate draws from rng
        if tried not in KEPT:
            continue
        kept += 1
        name = "corpus%02d" % kept
        with open(os.path.join(OUT_DIR, name + ".mps"), "w") as fh:
            fh.write(mps_text)
        with open(os.path.join(OUT_DIR, name + ".sol"), "w") as fh:
            fh.write(sol_text)
    print("wrote %d instances, candidates %s" % (kept, ", ".join(map(str, KEPT))))


if __name__ == "__main__":
    main()
