"""Planted MILP instances for the separation benchmark (numpy only).

The construction follows ``tools/gen_corpus.py``, scaled up and with no
outcome filter: every drawn instance is kept.  A nonnegative combination
``lam`` of the ``k`` planted rows cancels every continuous column (each
continuous column sits in exactly two planted rows with opposite signs
under ``lam``), so a perfect aggregation exists.  Loose rows with a few
nonzeros are added on top.  The returned point is tight on the planted
rows, fractional on the integers and strictly inside the continuous
bounds, so every continuous variable is a bad variable there.

Matrices are built and kept sparse (CSR), so the generator adds little to
the process's peak memory next to what ``aggsep`` itself allocates.  The
generator never imports ``aggsep``: the reference checks in ``oracle.py``
use the arrays returned here, not the parsed instance.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class Shape:
    n_cont: int
    n_int: int
    k: int  # planted rows
    n_loose: int  # loose rows, each with 2..loose_nnz_max nonzeros
    int_rows_max: int  # planted rows an integer column may touch
    int_density: float  # share of integer columns that touch a planted row
    loose_nnz_max: int = 4


@dataclass
class Planted:
    """One instance as CSR arrays (all rows <=), with its MPS and solution text."""

    name: str
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    is_int: np.ndarray
    obj: np.ndarray
    xbar: np.ndarray
    row_names: list
    var_names: list
    mps: str
    sol: str

    @property
    def n_rows(self):
        return len(self.rhs)

    @property
    def n_vars(self):
        return len(self.obj)

    def row(self, i):
        out = np.zeros(self.n_vars)
        lo, hi = self.indptr[i], self.indptr[i + 1]
        out[self.indices[lo:hi]] = self.data[lo:hi]
        return out

    @cached_property
    def row_index(self):
        return {r: i for i, r in enumerate(self.row_names)}


def make_planted(name, rows, cols, vals, n_rows, rhs, upper, is_int, obj, xbar):
    """Planted instance from COO entries; integer columns must come last."""
    keep = vals != 0
    rows, cols, vals = rows[keep], cols[keep], vals[keep].astype(float)
    n = len(obj)
    n_cont = int(np.sum(~is_int))
    var_names = ["x%d" % (j + 1) for j in range(n_cont)] + [
        "z%d" % (j + 1) for j in range(n - n_cont)
    ]
    row_names = ["c%d" % (i + 1) for i in range(n_rows)]
    by_row = np.lexsort((cols, rows))
    indptr = np.searchsorted(rows[by_row], np.arange(n_rows + 1))
    by_col = np.lexsort((rows, cols))
    return Planted(
        name=name,
        indptr=indptr,
        indices=cols[by_row],
        data=vals[by_row],
        rhs=np.asarray(rhs, dtype=float),
        lower=np.zeros(n),
        upper=np.asarray(upper, dtype=float),
        is_int=np.asarray(is_int, dtype=bool),
        obj=np.asarray(obj, dtype=float),
        xbar=np.asarray(xbar, dtype=float),
        row_names=row_names,
        var_names=var_names,
        mps=render_mps(name, rows[by_col], cols[by_col], vals[by_col], rhs, upper, obj,
                       var_names, row_names, n_cont),
        sol="".join("%s %r\n" % (v, float(x)) for v, x in zip(var_names, xbar)),
    )


def _distinct_picks(rng, n_sets, n_items, size):
    """(n_sets x size) item indices, distinct within each row."""
    picks = rng.integers(0, n_items, size=(n_sets, size))
    while True:
        s = np.sort(picks, axis=1)
        dup = np.flatnonzero((s[:, 1:] == s[:, :-1]).any(axis=1))
        if not len(dup):
            return picks
        picks[dup] = rng.integers(0, n_items, size=(len(dup), size))


def draw(rng, shape, name):
    n_cont, n_int, k = shape.n_cont, shape.n_int, shape.k
    n = n_cont + n_int
    lam = rng.integers(1, 4, size=k).astype(float)
    rows, cols, vals = [], [], []

    # each continuous column: a in planted row p, -lam_p a / lam_q in row q
    cont = np.arange(n_cont)
    p = rng.integers(0, k, size=n_cont)
    q = (p + rng.integers(1, k, size=n_cont)) % k
    a = rng.integers(1, 4, size=n_cont) * rng.choice([-1.0, 1.0], size=n_cont)
    rows += [p, q]
    cols += [cont, cont]
    vals += [a, -lam[p] * a / lam[q]]

    ints = n_cont + np.flatnonzero(rng.random(n_int) < shape.int_density)
    picks = _distinct_picks(rng, len(ints), k, shape.int_rows_max)
    used = np.arange(shape.int_rows_max) < rng.integers(
        1, shape.int_rows_max + 1, size=len(ints))[:, None]
    rows.append(picks[used])
    cols.append(np.broadcast_to(ints[:, None], picks.shape)[used])
    vals.append(rng.integers(-3, 4, size=picks.shape)[used].astype(float))

    m = shape.loose_nnz_max
    picks = _distinct_picks(rng, shape.n_loose, n, m)
    used = np.arange(m) < rng.integers(2, m + 1, size=shape.n_loose)[:, None]
    v = rng.integers(-3, 4, size=picks.shape).astype(float) * used
    v[~v.any(axis=1), 0] = 1.0  # no empty loose row
    used |= v != 0
    rows.append(np.broadcast_to(k + np.arange(shape.n_loose)[:, None], picks.shape)[used])
    cols.append(picks[used])
    vals.append(v[used])

    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    n_rows = k + shape.n_loose

    ub_cont = rng.integers(4, 13, size=n_cont).astype(float)
    ub_int = rng.integers(2, 6, size=n_int)
    xbar = np.empty(n)
    xbar[:n_cont] = rng.uniform(0.2, 0.6, size=n_cont) * ub_cont
    xbar[n_cont:] = rng.integers(0, ub_int) + rng.choice([0.25, 0.5, 0.75], size=n_int)
    xbar[n_cont:] = np.minimum(xbar[n_cont:], ub_int.astype(float))

    rhs = np.bincount(rows, weights=vals * xbar[cols], minlength=n_rows)
    rhs[k:] += rng.uniform(0.5, 2.0, size=shape.n_loose)  # planted rows stay tight
    obj = rng.integers(-5, 6, size=n).astype(float)
    return make_planted(name, rows, cols, vals, n_rows, rhs,
                        np.concatenate([ub_cont, ub_int.astype(float)]),
                        np.arange(n) >= n_cont, obj, xbar)


def render_mps(name, rows, cols, vals, rhs, upper, obj, var_names, row_names, n_cont):
    """Free MPS text; the entries must be ordered by column."""
    lines = ["NAME %s" % name, "ROWS", " N obj"]
    lines.extend(" L %s" % r for r in row_names)
    lines.append("COLUMNS")
    n = len(var_names)
    starts = np.searchsorted(cols, np.arange(n + 1))
    for j, col in enumerate(var_names):
        if j == n_cont:
            lines.append(" MI1 'MARKER' 'INTORG'")
        lo, hi = starts[j], starts[j + 1]
        if obj[j] or lo == hi:  # a column with no entry must still be declared
            lines.append(" %s obj %r" % (col, float(obj[j])))
        lines.extend(" %s %s %r" % (col, row_names[i], float(v))
                     for i, v in zip(rows[lo:hi], vals[lo:hi]))
    if n > n_cont:
        lines.append(" MI2 'MARKER' 'INTEND'")
    lines.append("RHS")
    lines.extend(" rhs %s %r" % (r, float(b)) for r, b in zip(row_names, rhs))
    lines.append("BOUNDS")
    for j in range(n_cont):
        lines.append(" UP bnd %s %r" % (var_names[j], float(upper[j])))
    for j in range(n_cont, n):
        lines.append(" UI bnd %s %d" % (var_names[j], int(upper[j])))
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def pool(seed, shape, count, prefix):
    """``count`` instances drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return [draw(rng, shape, "%s%02d" % (prefix, i + 1)) for i in range(count)]
