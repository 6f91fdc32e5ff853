import math

import numpy as np
import pytest

from aggsep.errors import ContractViolation
from aggsep.harness import POLICY_ALL, POLICY_NAMED, RunConfig, run_separation
from aggsep.instance import (
    CONTINUOUS,
    INTEGER,
    MilpInstance,
    Row,
    Variable,
    detect_variable_bounds,
)
from aggsep.lasso import build_lasso_lp, lasso_aggregate
from aggsep.mw import mw_aggregate
from aggsep.preprocess import bound_distance, preprocess, row_score


def _inst(variables, rows):
    return MilpInstance("t", variables, rows)


def test_bound_distance_simple_upper():
    inst = _inst([Variable("x", CONTINUOUS, 0.0, 5.0)], [])
    table = detect_variable_bounds(inst)
    assert bound_distance(0, np.array([3.0]), table, inst) == 2.0


def test_bound_distance_min_over_candidates():
    inst = _inst(
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("z", INTEGER, 0.0, 10.0)],
        [Row("b", {"x": 1.0, "z": -1.0}, 2.0)],
    )
    table = detect_variable_bounds(inst)
    # implied bound x <= 2 + z; at z = 3 the implied candidate is 5 < 10
    assert bound_distance(0, np.array([4.0, 3.0]), table, inst) == pytest.approx(1.0)


def test_bound_distance_at_bound_and_unbounded():
    inst = _inst([Variable("x", CONTINUOUS, 0.0, 5.0)], [])
    table = detect_variable_bounds(inst)
    assert bound_distance(0, np.array([5.0]), table, inst) == 0.0
    free = _inst([Variable("x", CONTINUOUS, 0.0, math.inf)], [])
    assert bound_distance(0, np.array([1.0]), detect_variable_bounds(free), free) == math.inf


def test_bound_distance_clamps_infeasible_point():
    inst = _inst([Variable("x", CONTINUOUS, 0.0, 5.0)], [])
    table = detect_variable_bounds(inst)
    assert bound_distance(0, np.array([7.0]), table, inst) == 0.0


def _score_inst():
    return _inst(
        [Variable("x", CONTINUOUS, 0.0, 4.0), Variable("z", INTEGER, 0.0, 4.0)],
        [],
    )


def test_row_score_components():
    inst = _score_inst()
    bd = np.array([2.0, math.inf])
    # dense row, zero dual, zero slack, no integer vars in the row
    s = row_score(np.array([1.0, 0.0]), 0.0, 0.0, 0.0, np.zeros(2), inst, bd)
    # components: 0 (dual) + 0.5 (half-dense) + 1 (slack 0) + bd addend 2/3
    assert s == pytest.approx(0.0 + 0.5 + 1.0 + 2.0 / 3.0)


def test_row_score_slack_monotone():
    inst = _score_inst()
    bd = np.array([2.0, math.inf])
    coefs = np.array([1.0, 1.0])
    tight = row_score(coefs, 0.0, 0.0, 0.0, np.zeros(2), inst, bd)
    loose = row_score(coefs, 0.0, 0.0, 10.0, np.zeros(2), inst, bd)
    assert tight > loose


def test_row_score_integer_fractionality():
    inst = _score_inst()
    bd = np.array([2.0, math.inf])
    coefs = np.array([0.0, 1.0])
    frac = row_score(coefs, 0.0, 0.0, 1.0, np.array([0.0, 0.5]), inst, bd)
    integral = row_score(coefs, 0.0, 0.0, 1.0, np.array([0.0, 0.0]), inst, bd)
    assert frac - integral == pytest.approx(0.5)


def test_preprocess_example1(example1, example1_point):
    ctx = preprocess(example1, example1_point)
    names = [example1.variables[j].name for j in ctx.bad_vars]
    assert sorted(names) == ["x2", "x3"]
    assert sorted(int(i) for i in ctx.useful_rows) == [0, 1, 2]
    assert np.all(ctx.bad_weights == 10.0)


def test_preprocess_no_bad_vars():
    inst = _inst(
        [Variable("x", CONTINUOUS, 0.0, 5.0)], [Row("r", {"x": 1.0}, 5.0)]
    )
    ctx = preprocess(inst, np.array([5.0]))
    assert ctx.nothing_to_do
    assert len(ctx.useful_rows) == 0


def test_preprocess_truncates_to_largest_distances():
    n = 8
    variables = [Variable("x%d" % j, CONTINUOUS, 0.0, float(j + 1)) for j in range(n)]
    rows = [Row("r", {"x%d" % j: 1.0 for j in range(n)}, 100.0)]
    inst = _inst(variables, rows)
    ctx = preprocess(inst, np.zeros(n), max_bad_vars=3)
    # distances are 1..8; the three largest are x7, x6, x5
    assert [int(j) for j in ctx.bad_vars] == [7, 6, 5]
    assert list(ctx.bad_weights) == [8.0, 7.0, 6.0]


@pytest.mark.parametrize("n_x", [1.0, -1.0])
def test_bound_rows_are_useful_for_lasso_only(n_x):
    # with n_x = -1, mw could eliminate x from n by adding b; only the
    # bound-row mask keeps it out
    variables = [
        Variable("x", CONTINUOUS, 0.0, 10.0),
        Variable("y", CONTINUOUS, 0.0, 1.0),
        Variable("z", INTEGER, 0.0, 3.0),
    ]
    rows = [
        Row("b", {"x": 1.0, "z": -1.0}, 0.0),  # implied bound row
        Row("n", {"x": n_x, "y": 1.0, "z": 1.0}, 5.0),  # normal (3 nonzeros)
    ]
    inst = _inst(variables, rows)
    point = np.array([0.5, 1.0, 2.0])
    ctx = preprocess(inst, point)
    assert sorted(int(i) for i in ctx.useful_rows) == [0, 1]
    assert ctx.bound_row.tolist() == [int(i) == 0 for i in ctx.useful_rows]

    for res in mw_aggregate(ctx, 1):
        assert res.used_rows == (1,)
    with pytest.raises(ContractViolation):
        mw_aggregate(ctx, 0)
    run = run_separation(inst, point, RunConfig(algorithm="mw", start_policy=POLICY_ALL))
    assert [a.used_rows for a in run.aggregations["mw"]] == [(1,)]
    run = run_separation(inst, point, RunConfig(algorithm="mw", start_policy=POLICY_NAMED,
                                                start_names=("b",)))
    assert run.aggregations["mw"] == []

    (t_b,) = ctx.block_rows([0])
    assert build_lasso_lp(ctx, 1).col_ub[t_b] > 0.0
    assert all(0 in res.used_rows for res in lasso_aggregate(ctx, 0))


def test_preprocess_orders_and_coverage(example1, example1_point):
    ctx = preprocess(example1, example1_point)
    assert all(
        ctx.bad_weights[t] >= ctx.bad_weights[t + 1]
        for t in range(len(ctx.bad_weights) - 1)
    )
    assert all(
        ctx.scores[t] >= ctx.scores[t + 1] for t in range(len(ctx.scores) - 1)
    )
    A = example1.matrix
    bad = set(int(j) for j in ctx.bad_vars)
    for i in ctx.useful_rows:
        assert any(A[int(i), j] != 0.0 for j in bad)


def test_preprocess_slacks_clipped():
    inst = _inst(
        [Variable("x", CONTINUOUS, 0.0, 5.0)], [Row("r", {"x": 1.0}, 1.0)]
    )
    ctx = preprocess(inst, np.array([3.0]))
    assert ctx.slacks[0] == 0.0
