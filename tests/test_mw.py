import numpy as np
import pytest

from aggsep.errors import ContractViolation
from aggsep.instance import CONTINUOUS, INTEGER, MilpInstance, Row, Variable
from aggsep.mw import elimination_factor, mw_aggregate
from aggsep.preprocess import preprocess


def test_elimination_factor_example_row_pair(example1):
    A = example1.matrix
    alpha = A[0].copy()
    lam = elimination_factor(alpha[1], A[1, 1])  # eliminate x2 with row 2
    assert lam == pytest.approx(3.0)
    alpha_new = alpha + lam * A[1]
    assert alpha_new == pytest.approx([7.0 / 3.0, 0.0, -14.0 / 3.0, 3.0])


def test_elimination_factor_sign_rule():
    assert elimination_factor(1.0, 2.0) is None  # would need lam = -1/2
    assert elimination_factor(-2.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(ContractViolation):
        elimination_factor(1.0, 0.0)


def test_mw_example1_always_leaves_bad_columns(example1_ctx):
    for i0 in (0, 1, 2):
        results = mw_aggregate(example1_ctx, i0)
        assert results, "starting row must emit at least the bare row"
        for res in results:
            assert len(res.residual_bad) >= 1


def test_mw_no_bad_vars_emits_bare_row_only():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 5.0)],
        [Row("r", {"x": 1.0}, 5.0)],
    )
    ctx = preprocess(inst, np.array([1.0]))
    # x is bad here (bd 4), so restrict to the bare-row case by hand:
    ctx.bad_vars = np.array([], dtype=np.int64)
    ctx.bad_weights = np.array([])
    results = mw_aggregate(ctx, 0)
    assert len(results) == 1
    assert results[0].factors == {0: 1.0}
    assert results[0].eliminated == ()


def _two_row_instance():
    # x continuous below its bound is the single bad variable; row r2 has
    # the opposite sign on x so exactly one elimination step exists (three
    # nonzeros per row keep r1 out of the implied-bound pattern)
    variables = [
        Variable("x", CONTINUOUS, 0.0, 10.0),
        Variable("z", INTEGER, 0.0, 5.0),
        Variable("w", INTEGER, 0.0, 5.0),
    ]
    rows = [
        Row("r1", {"x": 1.0, "z": 1.0, "w": 1.0}, 6.0),
        Row("r2", {"x": -0.5, "z": 1.0}, 4.0),
    ]
    return MilpInstance("t", variables, rows)


_POINT = np.array([2.0, 1.5, 0.5])


def test_mw_single_elimination_step():
    inst = _two_row_instance()
    ctx = preprocess(inst, _POINT)
    results = mw_aggregate(ctx, 0)
    assert len(results) == 2
    final = results[-1]
    assert final.eliminated == (0,)
    assert final.factors == {0: 1.0, 1: pytest.approx(2.0)}
    # alpha = r1 + 2*r2 = (0, 3, 1), beta = 6 + 8
    assert final.alpha == pytest.approx([0.0, 3.0, 1.0])
    assert final.beta == pytest.approx(14.0)
    assert final.residual_bad == ()


def test_mw_starting_row_must_be_useful(example1_ctx):
    with pytest.raises(ContractViolation):
        mw_aggregate(example1_ctx, 99)


def test_mw_invariants_on_example1(example1, example1_ctx):
    for i0 in (0, 1, 2):
        results = mw_aggregate(example1_ctx, i0, maxaggr=6)
        assert len(results) <= 7
        prev_elim = 0
        for res in results:
            assert all(lam > 0 for lam in res.factors.values())
            assert res.factors[i0] >= 1.0
            alpha, beta = res.recompute(example1)
            assert np.max(np.abs(alpha - res.alpha)) <= 1e-9
            assert abs(beta - res.beta) <= 1e-9
            assert len(res.eliminated) in (prev_elim, prev_elim + 1)
            prev_elim = len(res.eliminated)
            for j in res.eliminated:
                assert abs(res.alpha[j]) <= 1e-9


def test_mw_respects_maxaggr():
    inst = _two_row_instance()
    ctx = preprocess(inst, _POINT)
    results = mw_aggregate(ctx, 0, maxaggr=0)
    assert len(results) == 1  # only the bare starting row
