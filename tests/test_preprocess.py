import importlib
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
from aggsep.mpsio import parse_mps_file, parse_solution_file
from aggsep.mw import mw_aggregate
from aggsep.preprocess import preprocess

from helpers import (
    bound_distance,
    corpus_paths,
    reference_preprocess,
    row_score,
    substitution_kind,
)

# the package's ``preprocess`` attribute is the function, not this module
PREPROCESS = importlib.import_module("aggsep.preprocess")


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
    assert preprocess(_inst([], [Row("r", {}, 1.0)]), np.zeros(0)).nothing_to_do


@pytest.mark.parametrize("point, duals", [
    ([0.5], None),  # too short
    ([0.5, 1.0, 2.0], None),  # too long
    ([math.nan, 1.0], None),
    ([math.inf, 1.0], None),
    ([0.5, 1.0], [1.0, 2.0]),  # too long
    ([0.5, 1.0], [[1.0]]),  # wrong shape
    ([0.5, 1.0], [math.nan]),
], ids=["short-point", "long-point", "nan-point", "inf-point", "long-duals",
        "2d-duals", "nan-duals"])
def test_preprocess_checks_point_and_duals(point, duals):
    inst = _inst(
        [Variable("x", CONTINUOUS, 0.0, 5.0), Variable("z", INTEGER, 0.0, 3.0)],
        [Row("r", {"x": 1.0, "z": 1.0}, 4.0)],
    )
    with pytest.raises(ContractViolation):
        preprocess(inst, np.array(point), duals)


def test_equal_implied_candidates_first_row_wins():
    # x <= z1, x <= z2 and x <= 2 z3 - 3, all 2 at the point; then z2 drops
    variables = [Variable("x", CONTINUOUS, 0.0, 10.0)]
    variables += [Variable("z%d" % k, INTEGER, 0.0, 5.0) for k in (1, 2, 3)]
    rows = [Row("b1", {"x": 1.0, "z1": -1.0}, 0.0),
            Row("b2", {"z2": -1.0, "x": 1.0}, 0.0),
            Row("b3", {"x": 2.0, "z3": -4.0}, -6.0)]
    for order, z2, want, upper in [
        ([0, 1, 2], 2.0, 1, 2.0),
        ([1, 0, 2], 2.0, 2, 2.0),
        ([2, 1, 0], 2.0, 3, 2.0),
        ([0, 1, 2], 1.0, 2, 1.0),
    ]:
        inst = _inst(variables, [rows[i] for i in order])
        sub = preprocess(inst, np.array([1.5, 2.0, z2, 2.5])).substitution
        assert (substitution_kind(sub, 0), sub.int_var[0], sub.upper[0]) == (
            "implied", want, upper)


def test_preprocess_truncates_to_largest_distances(monkeypatch):
    n = 8
    variables = [Variable("x%d" % j, CONTINUOUS, 0.0, float(j + 1)) for j in range(n)]
    rows = [Row("r", {"x%d" % j: 1.0 for j in range(n)}, 100.0)]
    inst = _inst(variables, rows)
    monkeypatch.setattr(PREPROCESS, "MAX_BAD_VARS", 3)
    ctx = preprocess(inst, np.zeros(n))
    # distances are 1..8; the three largest are x7, x6, x5
    assert [int(j) for j in ctx.bad_vars] == [7, 6, 5]
    assert list(ctx.bad_weights) == [8.0, 7.0, 6.0]


def test_useful_rows_cap_keeps_the_highest_scores(monkeypatch):
    mps, sol = corpus_paths()[0]
    inst = parse_mps_file(mps)
    point = parse_solution_file(sol, inst)
    uncapped = preprocess(inst, point).useful_rows.tolist()
    assert len(uncapped) > 2
    monkeypatch.setattr(PREPROCESS, "MAX_USEFUL_ROWS", 2)
    assert preprocess(inst, point).useful_rows.tolist() == uncapped[:2]
    cut_off = inst.rows[uncapped[2]].name
    run = run_separation(inst, point, RunConfig(algorithm="lasso", start_policy=POLICY_NAMED,
                                                start_names=(cut_off,)))
    assert run.aggregations["lasso"] == []
    assert run.diagnostics == [
        "lasso: starting row %s dropped: not a useful row "
        "(no kept bad column, or past preprocess.MAX_USEFUL_ROWS)" % cut_off]


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


CONTEXT_ARRAYS = ("bad_vars", "bad_weights", "useful_rows", "scores", "bound_row")


def _random_instance(rng, n_cont=30, n_int=20, n_rows=40, n_bound_rows=10):
    """Dense-ish rows, so that scores sum many terms, plus implied-bound rows."""
    variables = [Variable("x%d" % j, CONTINUOUS, 0.0, float(rng.choice([4.0, math.inf])))
                 for j in range(n_cont)]
    variables += [Variable("z%d" % j, INTEGER, 0.0, 5.0) for j in range(n_int)]
    names = [v.name for v in variables]
    rows = []
    for i in range(n_rows):
        cols = np.flatnonzero(rng.random(len(names)) < 0.5)
        rows.append(Row("r%d" % i, {names[j]: float(rng.normal()) for j in cols},
                        float(rng.uniform(0.0, 20.0))))
    for i in range(n_bound_rows):
        j, k = int(rng.integers(n_cont)), n_cont + int(rng.integers(n_int))
        rows.append(Row("b%d" % i, {names[j]: 1.0, names[k]: -float(rng.uniform(1, 3))},
                        float(rng.uniform(0.0, 2.0))))
    return MilpInstance("random", variables, rows)


def test_context_arrays_match_scalar_references():
    rng = np.random.default_rng(7)
    cases = [(parse_mps_file(mps), sol) for mps, sol in corpus_paths()]
    cases += [(_random_instance(rng), None) for _ in range(3)]
    checked = 0
    for inst, sol in cases:
        hi = np.where(np.isfinite(inst.upper), inst.upper, inst.lower + 10.0)
        points = [parse_solution_file(sol, inst)] if sol else []
        points += [rng.uniform(inst.lower, hi) for _ in range(3)]  # inside the box
        for point in points:
            for duals in (np.zeros(inst.n_rows), rng.normal(size=inst.n_rows)):
                ctx = preprocess(inst, point, duals)
                ref = reference_preprocess(inst, point, duals)
                for name in CONTEXT_ARRAYS:
                    got, want = getattr(ctx, name), getattr(ref, name)
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), (mps, name)
                checked += len(ctx.bad_vars) > 0
    assert checked > 0


def test_implied_bound_partner_is_not_clipped():
    # x <= z with z in [0, 3]; at z = 5 the implied bound reads 5, not 3
    inst = _inst(
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("z", INTEGER, 0.0, 3.0)],
        [Row("b", {"x": 1.0, "z": -1.0}, 0.0)],
    )
    point = np.array([4.5, 5.0])
    ctx = preprocess(inst, point)
    assert ctx.substitution.upper[0] == 5.0
    assert substitution_kind(ctx.substitution, 0) == "implied"
    assert ctx.bad_weights.tolist() == [0.5]
    # the scalar reference clipped z into [0, 3] first, so x was not bad
    assert bound_distance(0, point, detect_variable_bounds(inst), inst) == 0.0


def test_bad_weight_clips_the_point_into_its_simple_bounds():
    inst = _inst([Variable("x", CONTINUOUS, 0.0, 5.0)], [Row("r", {"x": 1.0}, 5.0)])
    assert preprocess(inst, np.array([-3.0])).bad_weights.tolist() == [5.0]
    assert preprocess(inst, np.array([7.0])).nothing_to_do
