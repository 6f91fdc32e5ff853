import itertools

import numpy as np
import pytest

from aggsep.cmir import g_function, g_values
from aggsep.lp import ratio_test

from helpers import max_box_violation, random_knapsack_row


def _box_violation_reference(a, u, b, zcoef, rhs, scoef):
    best = -np.inf
    for z in itertools.product(*[range(int(ui) + 1) for ui in u]):
        z = np.array(z, dtype=float)
        s = max(0.0, float(a @ z - b))
        best = max(best, float(zcoef @ z - rhs - scoef * s))
    return best


def test_g_values_matches_scalar_g():
    rng = np.random.default_rng(0)
    d = rng.uniform(-6, 6, size=200)
    f = 0.37
    got = g_values(d, f)
    expect = np.array([g_function(x, f) for x in d])
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_max_box_violation_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(25):
        k = random_knapsack_row(rng, max_q=4, max_u=3)
        zcoef = rng.uniform(-3, 3, size=k.q)
        rhs = float(rng.uniform(-5, 5))
        scoef = float(rng.uniform(0.1, 3.0))
        got = max_box_violation(
            np.ascontiguousarray(k.a), k.u.astype(np.int64), float(k.b),
            np.ascontiguousarray(zcoef), rhs, scoef,
        )
        expect = _box_violation_reference(k.a, k.u, k.b, zcoef, rhs, scoef)
        assert got == pytest.approx(expect, abs=1e-12)


def test_ratio_test_blocking_variable():
    # basic values move along -w; first bound hit wins
    w = np.array([1.0, -1.0])
    xb = np.array([2.0, 1.0])
    lb = np.array([0.0, 0.0])
    ub = np.array([np.inf, 3.0])
    t, leave, to_upper = ratio_test(w, xb, lb, ub, 1.0, np.inf, np.arange(2))
    assert t == pytest.approx(2.0)
    assert leave == 0 and not to_upper


def test_ratio_test_bound_flip_cap():
    w = np.array([0.0])
    xb = np.array([1.0])
    lb = np.array([0.0])
    ub = np.array([np.inf])
    t, leave, _ = ratio_test(w, xb, lb, ub, 1.0, 4.0, np.arange(1))
    assert t == pytest.approx(4.0)
    assert leave == -1



def _ratio_test_reference(w, xb, lb, ub, sdir, tcap, cols):
    """Scalar ratio test: if the smallest ratio beats tcap, the position of
    lowest column among the ratios within 1e-10 of it blocks."""
    blocks = []  # (ratio, position, to_upper)
    for k in range(len(w)):
        d = sdir * w[k]
        if d > 1e-10 and np.isfinite(lb[k]):
            blocks.append(((xb[k] - lb[k]) / d, k, False))
        elif d < -1e-10 and np.isfinite(ub[k]):
            blocks.append(((ub[k] - xb[k]) / -d, k, True))
    best = min((r for r, _, _ in blocks), default=np.inf)
    if best < tcap:
        r, leave, to_upper = min((b for b in blocks if b[0] <= best + 1e-10),
                                 key=lambda b: cols[b[1]])
        return max(r, 0.0), leave, to_upper
    return tcap, -1, False


def test_ratio_test_matches_scalar_loop():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(400):
        m = int(rng.integers(1, 8))
        w = rng.normal(size=m) * rng.choice([0.0, 1e-12, 1.0], size=m, p=[0.15, 0.1, 0.75])
        lb = np.where(rng.random(m) < 0.3, -np.inf, rng.uniform(-3, 0, size=m))
        ub = np.where(rng.random(m) < 0.3, np.inf, rng.uniform(0, 3, size=m))
        # basic values inside their bounds, now and then a little outside
        xb = np.clip(rng.uniform(-4, 4, size=m), lb, ub) + rng.choice(
            [0.0, -1e-9, 1e-9], size=m, p=[0.8, 0.1, 0.1])
        # now and then two positions tie exactly, for the lower column to take
        pair = rng.choice(m, size=2, replace=False) if m > 1 and rng.random() < 0.3 else []
        for v in (w, xb, lb, ub):
            v[pair[1:]] = v[pair[:1]]
        sdir = float(rng.choice([-1.0, 1.0]))
        tcap = float(rng.choice([np.inf, rng.uniform(0, 4)]))
        cols = rng.permutation(3 * m)[:m]
        got = ratio_test(w, xb, lb, ub, sdir, tcap, cols)
        assert got == _ratio_test_reference(w, xb, lb, ub, sdir, tcap, cols)
        t, leave, to_upper = got
        seen.add("upper" if to_upper else "lower" if leave >= 0 else
                 "unbounded" if t == np.inf else "flip")
        if leave in pair:
            seen.add("tie")
    assert seen == {"upper", "lower", "flip", "unbounded", "tie"}
