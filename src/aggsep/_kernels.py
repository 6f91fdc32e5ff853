"""Numeric hot loops in numpy: MIR rounding, box enumeration, ratio test."""

import numpy as np

__all__ = [
    "g_values",
    "max_box_violation",
    "ratio_test",
]


def g_values(d, f):
    """Vectorized MIR rounding function ``floor(d) + (frac(d)-f)^+ / (1-f)``.

    ``d`` and ``f`` broadcast against each other, so one call scores a
    (n_delta x q) array with one ``f`` per row.
    """
    d = np.asarray(d, dtype=np.float64)
    fl = np.floor(d)
    fd = d - fl
    return fl + np.maximum(fd - f, 0.0) / (1.0 - f)


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


def ratio_test(w, xb, lb, ub, sdir, tcap):
    """Bounded-variable primal ratio test.

    ``xb`` moves along ``-sdir*w`` as the entering variable takes step
    ``t >= 0``; ``tcap`` bounds the step by the entering variable's own
    range.  Returns ``(t, leave, to_upper)`` where ``leave`` is the blocking
    basic position (-1 for a bound flip / unbounded step) and ``to_upper``
    tells which bound the leaving variable hits.
    """
    eps = 1e-10
    d = sdir * w
    t = tcap
    leave = -1
    to_upper = False
    with np.errstate(divide="ignore", invalid="ignore"):
        down = np.where(d > eps, (xb - lb) / d, np.inf)
        upr = np.where(d < -eps, (ub - xb) / (-d), np.inf)
    down = np.where(np.isfinite(lb), down, np.inf)
    upr = np.where(np.isfinite(ub), upr, np.inf)
    ratios = np.minimum(down, upr)
    if ratios.size:
        k = int(np.argmin(ratios))
        if ratios[k] < t:
            t = float(max(ratios[k], 0.0))
            leave = k
            to_upper = bool(upr[k] < down[k])
    return t, leave, to_upper
