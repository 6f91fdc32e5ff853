import numpy as np
import pytest

from aggsep import lasso, lp
from aggsep.errors import ContractViolation, LpFailure
from aggsep.harness import POLICY_ALL, RunConfig, run_separation
from aggsep.instance import CONTINUOUS, INTEGER, MilpInstance, Row, Variable
from aggsep.lasso import (
    build_lasso_lp,
    build_reweighted_lp,
    lasso_aggregate,
    reweight,
)
from aggsep.lp import ITERATION_LIMIT, OPTIMAL, LpSolution, solve_lp
from aggsep.mpsio import parse_mps_file, parse_solution_file
from aggsep.mw import mw_aggregate
from aggsep.preprocess import preprocess

from helpers import corpus_paths


def test_reweight_formula():
    out = reweight(np.array([2.0]), np.array([0.5]))
    assert out[0] == pytest.approx(2.0 / 0.500001)


def test_reweight_vanished_column_gets_zero():
    out = reweight(np.array([3.0]), np.array([0.0]))
    assert out[0] == 0.0


def test_reweight_zero_weight_stays_zero():
    out = reweight(np.array([0.0]), np.array([1.5]))
    assert out[0] == 0.0


def test_build_lasso_lp_shape(example1_ctx):
    prob = build_lasso_lp(example1_ctx, 0)
    nrows = len(example1_ctx.useful_rows)
    nbad = len(example1_ctx.bad_vars)
    # one equality row per bad column; factors, then mu+ and mu- per column
    assert prob.A.shape == (nbad, nrows + 2 * nbad)
    assert prob.row_type == ["E"] * nbad
    t0 = example1_ctx.useful_rows.tolist().index(0)
    assert prob.col_lb[t0] == 1.0
    # slacks at the origin are all 1, so every factor carries slack cost 1
    assert np.all(prob.obj[:nrows] == 1.0)


def test_build_lasso_lp_requires_useful_row(example1_ctx):
    with pytest.raises(ContractViolation):
        build_lasso_lp(example1_ctx, 99)


def test_lasso_lp_optimum_on_example1(example1_ctx):
    # with bound-distance weights 10 the elimination (1,1,2) beats paying
    # the weighted bad-column mass of any sparser factor choice
    for i0 in (0, 1):
        prob = build_lasso_lp(example1_ctx, i0)
        sol = solve_lp(prob)
        assert sol.status == OPTIMAL
        rows = example1_ctx.useful_rows.tolist()
        lam = np.array([sol.x[rows.index(i)] for i in range(3)])
        assert lam / lam[0] == pytest.approx([1.0, 1.0, 2.0], abs=1e-7)


def test_build_reweighted_lp_pins_inactive_rows(example1_ctx):
    w = np.zeros(len(example1_ctx.bad_vars))
    prob = build_reweighted_lp(example1_ctx, [0, 2], 0, w)
    rows = example1_ctx.useful_rows.tolist()
    nrows = len(rows)
    assert np.all(prob.obj[:nrows] == 0.0)  # no slack cost
    t1 = rows.index(1)
    assert prob.col_ub[t1] == 0.0  # inactive row pinned
    assert prob.col_ub[rows.index(2)] > 0.0
    with pytest.raises(ContractViolation):
        build_reweighted_lp(example1_ctx, [1, 2], 0, w)


def test_lasso_example1_zero_residual_all_starts(example1, example1_ctx):
    for i0 in (0, 1, 2):
        results = lasso_aggregate(example1_ctx, i0)
        assert len(results) == 1  # density 0 on the first solve
        res = results[0]
        assert res.residual_bad == ()
        lam = np.array([res.factors.get(i, 0.0) for i in range(3)])
        assert lam / lam[0] == pytest.approx([1.0, 1.0, 2.0], abs=1e-6)
        # the aggregated inequality is proportional to x1 + x4 <= 4
        scale = res.alpha[0]
        assert res.alpha / scale == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-9)
        assert res.beta / scale == pytest.approx(4.0)


def test_lasso_no_bad_vars_single_aggregation():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 5.0)],
        [Row("r", {"x": 1.0}, 5.0)],
    )
    ctx = preprocess(inst, np.array([1.0]))
    ctx.bad_vars = np.array([], dtype=np.int64)
    ctx.bad_weights = np.array([])
    results = lasso_aggregate(ctx, 0)
    assert len(results) == 1
    assert results[0].factors == {0: 1.0}


def _stuck_instance():
    # single row, single bad column: no nonnegative combination can cancel it
    variables = [
        Variable("x", CONTINUOUS, 0.0, 10.0),
        Variable("z", INTEGER, 0.0, 5.0),
    ]
    rows = [Row("r1", {"x": 1.0, "z": 1.0}, 6.0)]
    return MilpInstance("t", variables, rows)


def test_lasso_stuck_instance_stops_at_the_repeated_vertex(monkeypatch):
    # the re-solve returns the first solve's factors: it is dropped, and the
    # starting row ends well before maxaggr
    solves = []

    def solve(prob, warm=None):
        solves.append(warm)
        return solve_lp(prob, warm=warm)

    monkeypatch.setattr(lasso, "solve_lp", solve)
    ctx = preprocess(_stuck_instance(), np.array([2.0, 1.5]))
    results = lasso_aggregate(ctx, 0, maxaggr=3)
    assert len(solves) == 2
    assert len(results) == 1
    assert results[0].residual_bad == (0,)


@pytest.mark.parametrize("failing", [0, 1], ids=["first-solve", "first-re-solve"])
def test_lasso_lp_failure_emits_nothing(monkeypatch, failing):
    inst = _stuck_instance()
    point = np.array([2.0, 1.5])
    warms = []

    def solve(prob, warm=None):
        warms.append(warm)
        if len(warms) == failing + 1:
            return LpSolution(status=ITERATION_LIMIT, iterations=7)
        return solve_lp(prob, warm=warm)

    monkeypatch.setattr(lasso, "solve_lp", solve)
    with pytest.raises(LpFailure) as exc:
        lasso_aggregate(preprocess(inst, point), 0, maxaggr=3)
    assert exc.value.status == ITERATION_LIMIT
    assert "solve %d " % (failing + 1) in str(exc.value)
    assert len(warms) == failing + 1
    assert (warms[-1] is None) == (failing == 0)  # re-solves are warm-started

    warms.clear()
    res = run_separation(inst, point, RunConfig(algorithm="lasso", start_policy=POLICY_ALL))
    assert res.aggregations["lasso"] == [] and res.cuts == []
    assert res.metrics["lasso"].empty
    assert len(res.diagnostics) == 1 and ITERATION_LIMIT in res.diagnostics[0]


def test_lasso_invariants_support_and_bounds(example1, example1_ctx):
    for i0 in (0, 1, 2):
        results = lasso_aggregate(example1_ctx, i0)
        support = None
        for res in results:
            assert all(lam >= 0 for lam in res.factors.values())
            assert res.factors[i0] >= 1.0 - 1e-9
            alpha, beta = res.recompute(example1)
            assert np.max(np.abs(alpha - res.alpha)) <= 1e-9
            assert abs(beta - res.beta) <= 1e-9
            cur = set(res.used_rows)
            if support is not None:
                assert cur <= support
            support = cur


def test_lasso_objective_beats_trivial_and_mw(example1, example1_ctx):
    # LP optimality: the lasso objective is no worse than lam = e_{i0}
    # and no worse than any MW-produced factor vector
    A = example1.matrix
    bad = example1_ctx.bad_vars
    w = example1_ctx.bad_weights

    def objective(factors):
        lam = np.zeros(example1.n_rows)
        for i, v in factors.items():
            lam[i] = v
        alpha = lam @ A
        return float(w @ np.abs(alpha[bad]) + example1_ctx.slacks @ lam)

    for i0 in (0, 1, 2):
        sol = solve_lp(build_lasso_lp(example1_ctx, i0))
        assert sol.status == OPTIMAL
        assert sol.objective <= objective({i0: 1.0}) + 1e-7
        for res in mw_aggregate(example1_ctx, i0):
            assert sol.objective <= objective(res.factors) + 1e-7


def test_cold_lasso_solves_on_corpus_make_one_primal_run(monkeypatch):
    # each context solves at most one lasso LP cold, its first, and that
    # solve makes one primal run (every lasso LP row is crashed); every later
    # one, a re-solve or the next start row's first solve, restarts from a
    # kept basis
    starts = []
    loops = []
    cold = []
    solves = []
    real_cold_start = lp._cold_start
    real_loop = lp._simplex_loop

    def counting_cold_start(*args):
        starts.append(1)
        return real_cold_start(*args)

    def counting_loop(*args):
        loops.append(1)
        return real_loop(*args)

    def solve(prob, warm=None):
        before = (len(starts), len(loops))
        sol = solve_lp(prob, warm=warm)
        if len(starts) > before[0]:
            cold.append((len(solves[-1]), len(loops) - before[1]))
        solves[-1].append(warm)
        return sol

    monkeypatch.setattr(lp, "_cold_start", counting_cold_start)
    monkeypatch.setattr(lp, "_simplex_loop", counting_loop)
    monkeypatch.setattr(lasso, "solve_lp", solve)
    per_context = []
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        cold.clear()
        solves.append([])
        run_separation(inst, parse_solution_file(sol, inst),
                       RunConfig(algorithm="lasso", start_policy=POLICY_ALL))
        per_context.append(list(cold))
    assert all(c == [(0, 1)] for c in per_context)  # the first solve, one loop
    assert sum(len(s) for s in solves) > 2 * len(solves)


def test_first_solve_starts_from_the_previous_start_row(example1_ctx, monkeypatch):
    ctx = example1_ctx
    assert ctx.lasso_start is None
    pending = []
    offered = []  # the warm start offered to each first solve
    real_build = lasso.build_lasso_lp

    def build(ctx, i0):
        pending.append(i0)
        return real_build(ctx, i0)

    def solve(prob, warm=None):
        if pending:
            pending.pop()
            offered.append(warm)
        return solve_lp(prob, warm=warm)

    monkeypatch.setattr(lasso, "build_lasso_lp", build)
    monkeypatch.setattr(lasso, "solve_lp", solve)
    kept = []
    for i0 in (0, 1, 2):
        results = lasso_aggregate(ctx, i0)
        kept.append(ctx.lasso_start)
        lam = np.array([results[-1].factors.get(i, 0.0) for i in range(3)])
        assert lam / lam[0] == pytest.approx([1.0, 1.0, 2.0], abs=1e-6)
    assert offered[0] is None and all(a is b for a, b in zip(offered[1:], kept[:2]))
    assert len(offered) == 3
    assert all(isinstance(k, lp.WarmStart) and k.A is ctx.lasso_matrix for k in kept)


@pytest.mark.parametrize("failing", [0, 1], ids=["first-solve", "first-re-solve"])
def test_failed_start_row_keeps_the_hand_off(monkeypatch, failing):
    inst = _stuck_instance()
    ctx = preprocess(inst, np.array([2.0, 1.5]))
    lasso_aggregate(ctx, 0, maxaggr=1)
    kept = ctx.lasso_start
    assert kept is not None
    calls = []

    def solve(prob, warm=None):
        calls.append(warm)
        if len(calls) == failing + 1:
            return LpSolution(status=ITERATION_LIMIT, iterations=7)
        return solve_lp(prob, warm=warm)

    monkeypatch.setattr(lasso, "solve_lp", solve)
    with pytest.raises(LpFailure):
        lasso_aggregate(ctx, 0, maxaggr=3)
    assert calls[0] is kept
    assert ctx.lasso_start is kept
