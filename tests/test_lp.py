import os

import numpy as np
import pytest

from aggsep import lp
from aggsep.errors import ContractViolation, LpFailure
from aggsep.harness import (
    POLICY_ALL,
    RunConfig,
    instance_lp,
    run_separation,
    solve_relaxation,
)
from aggsep.lasso import reweight
from aggsep.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    build_abs_value_lp,
    solve_lp,
)
from aggsep.mpsio import parse_mps_file, parse_solution_file

from helpers import DATA_DIR, corpus_paths, enumerate_bfs_optimum, planted_lp, random_lp


def test_single_bound_active():
    prob = LpProblem(
        obj=[-1.0], A=np.zeros((1, 1)), row_type=["L"], rhs=[0.0],
        col_lb=[0.0], col_ub=[3.0],
    )
    prob.A[0, 0] = 1.0
    prob.rhs[0] = 3.0
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.0)
    assert sol.objective == pytest.approx(-3.0)


def test_zero_objective_unbounded_feasible_set():
    prob = LpProblem(
        obj=[0.0], A=np.zeros((0, 1)), row_type=[], rhs=[],
        col_lb=[0.0], col_ub=[np.inf],
    )
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0)


def test_equality_vertex():
    prob = LpProblem(
        obj=[1.0, 1.0], A=[[1.0, 2.0]], row_type=["E"], rhs=[2.0],
        col_lb=[0.0, 0.0], col_ub=[np.inf, np.inf],
    )
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    # basic feasible candidates are (2,0) with cost 2 and (0,1) with cost 1
    assert sol.objective == pytest.approx(1.0)
    assert sol.x == pytest.approx([0.0, 1.0])


def test_infeasible_detected():
    prob = LpProblem(
        obj=[0.0], A=[[1.0], [-1.0]], row_type=["L", "L"], rhs=[0.0, -1.0],
        col_lb=[0.0], col_ub=[np.inf],
    )
    assert solve_lp(prob).status == INFEASIBLE


def test_unbounded_detected():
    prob = LpProblem(
        obj=[-1.0], A=np.zeros((0, 1)), row_type=[], rhs=[],
        col_lb=[0.0], col_ub=[np.inf],
    )
    assert solve_lp(prob).status == UNBOUNDED


def test_iteration_limit_status(monkeypatch):
    rng = np.random.default_rng(5)
    prob = random_lp(rng)
    monkeypatch.setattr(lp, "MAX_ITER_FACTOR", 0)
    assert solve_lp(prob).status == ITERATION_LIMIT


def test_matches_bruteforce_oracle_sample():
    rng = np.random.default_rng(42)
    for _ in range(40):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        oracle = enumerate_bfs_optimum(prob)
        if oracle is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_warm_start_objective_change():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status != OPTIMAL:
            continue
        new_obj = rng.integers(-4, 5, size=prob.n_cols).astype(float)
        prob2 = LpProblem(
            obj=new_obj, A=prob.A, row_type=prob.row_type, rhs=prob.rhs,
            col_lb=prob.col_lb, col_ub=prob.col_ub,
        )
        warm = solve_lp(prob2, warm=sol.warm_start())
        cold = solve_lp(prob2)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        checked += 1


@pytest.mark.parametrize("case", ["lower-bound-gone", "free-column-bounded"])
def test_warm_start_with_changed_bounds_matches_cold(case):
    # a nonbasic status the new bounds no longer allow restarts at the
    # column's default bound: x0, at its lower bound 0 in the sibling, has
    # only the upper bound -5 now, so it restarts there, not at 0; x0, free
    # (nonbasic at 0) in the sibling, gains [2, 3], so it restarts at 2
    inf = np.inf
    if case == "lower-bound-gone":
        A, was, sib = [[1.0, 1.0]], lp.AT_LOWER, ([1.0, 1.0], [0.0, 0.0], [10.0, 10.0])
        cost, lb, ub = [-1.0, 1.0], [-inf, 0.0], [-5.0, 10.0]
    else:
        A, was, sib = [[0.0, 1.0]], lp.FREE, ([0.0, 0.0], [-inf, 0.0], [inf, inf])
        cost, lb, ub = [1.0, 1.0], [2.0, 0.0], [3.0, inf]
    sib_cost, sib_lb, sib_ub = sib
    start = solve_lp(_lp(sib_cost, A, ["L"], [4.0], sib_lb, sib_ub)).warm_start()
    assert start.status[0] == was
    prob = _lp(cost, A, ["L"], [4.0], lb, ub)
    warm, cold = solve_lp(prob, warm=start), solve_lp(prob)
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert warm.x == pytest.approx(cold.x, abs=1e-12)


def test_primal_feasibility_at_optimum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        prob = random_lp(rng)
        sol = solve_lp(prob)
        if sol.status != OPTIMAL:
            continue
        x = sol.x
        assert np.all(x >= prob.col_lb - 1e-7)
        assert np.all(x <= prob.col_ub + 1e-7)
        res = prob.A @ x - prob.rhs
        for i, t in enumerate(prob.row_type):
            if t == "E":
                assert abs(res[i]) <= 1e-6
            else:
                assert res[i] <= 1e-6


def test_abs_lp_single_term():
    # min |lam1 - lam2| + lam1 with lam1 >= 1: the only optimum is (1, 1)
    prob = build_abs_value_lp([(1.0, [1.0, -1.0])], [1.0, 0.0], [1.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.x[:2] == pytest.approx([1.0, 1.0])


def test_abs_lp_no_terms_cost_only():
    prob = build_abs_value_lp([], [1.0, 1.0], [0.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0)
    assert sol.x == pytest.approx([0.0, 0.0])


def test_abs_lp_negative_weight_rejected():
    with pytest.raises(ContractViolation):
        build_abs_value_lp([(-1.0, [1.0])], [0.0], [0.0], [1.0])


@pytest.mark.parametrize(
    "term", [(1.0, [1.0, -1.0], 0.5), (1.0,), 1.0], ids=["triple", "single", "scalar"]
)
def test_abs_lp_term_must_be_a_pair(term):
    with pytest.raises(ContractViolation):
        build_abs_value_lp([term], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0])


def test_abs_lp_two_term_shape_and_zero_optimum():
    # weighted |lam1 - lam2/3 - lam3/3| and |-2 lam1/3 - 4 lam2/3 + lam3|
    # with lam >= 0 and lam_1 >= 1; (1, 1, 2) reaches objective 0
    terms = [
        (2.0, [1.0, -1.0 / 3.0, -1.0 / 3.0]),
        (5.0, [-2.0 / 3.0, -4.0 / 3.0, 1.0]),
    ]
    lb = [1.0, 0.0, 0.0]
    prob = build_abs_value_lp(terms, [0.0, 0.0, 0.0], lb, [1e6] * 3)
    assert prob.n_cols == 3 + 4
    assert prob.n_rows == 2
    assert prob.row_type == ["E", "E"]
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    lam = sol.x[:3]
    assert lam / lam[0] == pytest.approx([1.0, 1.0, 2.0], abs=1e-7)


def test_abs_lp_split_complementarity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        nt = int(rng.integers(1, 4))
        terms = [
            (float(rng.uniform(0.1, 3.0)), rng.integers(-3, 4, size=k).astype(float))
            for _ in range(nt)
        ]
        cost = rng.uniform(0.0, 1.0, size=k)
        prob = build_abs_value_lp(terms, cost, np.zeros(k), np.full(k, 10.0))
        sol = solve_lp(prob)
        assert sol.status == OPTIMAL
        mu = sol.x[k:]
        for t in range(nt):
            assert min(mu[2 * t], mu[2 * t + 1]) <= 1e-9


def test_matrix_shape_must_match_rows_and_columns():
    # a 2x3 matrix for a 3-row, 2-column LP has the right size, wrong shape
    with pytest.raises(ContractViolation):
        LpProblem(
            obj=[1.0, 1.0], A=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            row_type=["L", "L", "L"], rhs=[1.0, 1.0, 1.0],
            col_lb=[0.0, 0.0], col_ub=[np.inf, np.inf],
        )
    with pytest.raises(ContractViolation):
        LpProblem(
            obj=[1.0, 1.0], A=[1.0, 2.0], row_type=["L"], rhs=[1.0],
            col_lb=[0.0, 0.0], col_ub=[np.inf, np.inf],
        )


def _one_column(**change):
    """min -x  s.t.  x <= 1,  0 <= x <= 2, with ``change`` applied."""
    data = dict(obj=[-1.0], A=[[1.0]], row_type=["L"], rhs=[1.0], col_lb=[0.0], col_ub=[2.0])
    data.update(change)
    return LpProblem(**data)


@pytest.mark.parametrize(
    "change",
    [
        {"rhs": [np.nan]},
        {"obj": [np.nan]},
        {"A": [[np.nan]]},
        {"col_ub": [np.nan]},
        {"col_lb": [np.inf], "col_ub": [np.inf]},
        {"col_lb": [-np.inf], "col_ub": [-np.inf]},
        {"row_type": ["G"]},
    ],
    ids=["nan-rhs", "nan-obj", "nan-A", "nan-upper", "fixed-at-+inf", "fixed-at--inf",
         "unknown-row-type"],
)
def test_non_finite_data_rejected(change):
    with pytest.raises(ContractViolation):
        _one_column(**change)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_nan_point_is_not_certified(warm):
    # a NaN written past the contract check makes every residual NaN,
    # which the feasibility certificate must refuse; the dual loop, which
    # meets it first, must not read it as a proof of infeasibility
    prob = _one_column()
    start = solve_lp(prob).warm_start() if warm else None
    prob.rhs[0] = np.nan
    with pytest.raises(LpFailure):
        solve_lp(prob, warm=start)


@pytest.mark.parametrize(
    "A, row_type, rhs, obj, want_x, want_obj",
    [
        # duplicate equality rows
        ([[1.0, 1.0], [1.0, 1.0]], ["E", "E"], [2.0, 2.0], [1.0, 2.0],
         [2.0, 0.0], 2.0),
        # a scaled duplicate next to an inequality row
        ([[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]], ["E", "E", "L"], [2.0, 4.0, 1.5],
         [-1.0, -2.0], [0.0, 2.0], -4.0),
    ],
)
def test_dependent_equality_rows(A, row_type, rhs, obj, want_x, want_obj):
    # a row the crash leaves uncovered keeps its appended logical, fixed at
    # [0, 0], basic to the end; a warm restart appends it again
    prob = LpProblem(
        obj=obj, A=A, row_type=row_type, rhs=rhs,
        col_lb=[0.0, 0.0], col_ub=[np.inf, np.inf],
    )
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx(want_x, abs=1e-9)
    assert sol.objective == pytest.approx(want_obj, abs=1e-9)
    assert np.all(sol.x >= prob.col_lb - 1e-9)
    res = prob.A @ sol.x - prob.rhs
    for i, t in enumerate(prob.row_type):
        if t == "E":
            assert abs(res[i]) <= 1e-9
        else:
            assert res[i] <= 1e-9
    warm = solve_lp(prob, warm=sol.warm_start())
    assert warm.status == OPTIMAL
    assert warm.objective == pytest.approx(want_obj, abs=1e-9)


def test_optimum_with_basic_logical_restarts_warm():
    # x0 + x1 = 2 and 2x0 + 2x1 = 4: the second row's logical stays basic
    # at the optimum, and the warm start appends it again, so the re-solve
    # makes no pivot; with a changed cost it ends where a cold solve does
    inf = np.inf
    prob = _lp([1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["E", "E"], [2.0, 4.0],
               [0.0, 0.0], [1.5, inf])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.iterations > 0
    start = sol.warm_start()
    assert start is not None and start.basis.max() >= prob.n_cols
    again = solve_lp(prob, warm=start)
    assert (again.status, again.iterations) == (OPTIMAL, 0)
    assert again.x.tolist() == sol.x.tolist()
    changed = _lp([2.0, 1.0], prob.A, prob.row_type, prob.rhs, prob.col_lb, prob.col_ub)
    warm, cold = solve_lp(changed, warm=start), solve_lp(changed)
    assert warm.status == cold.status == OPTIMAL
    assert warm.x == pytest.approx(cold.x, abs=1e-12)


def _highs(prob):
    """(status, objective) of ``prob`` from scipy's HiGHS."""
    from scipy.optimize import linprog

    eq = np.array([t == "E" for t in prob.row_type], dtype=bool)
    res = linprog(
        prob.obj, A_ub=prob.A[~eq], b_ub=prob.rhs[~eq], A_eq=prob.A[eq], b_eq=prob.rhs[eq],
        bounds=[(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                for lo, hi in zip(prob.col_lb, prob.col_ub)],
        method="highs",
    )
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.message), res.fun


def _lp(obj, A, row_type, rhs, lb, ub):
    return LpProblem(obj=obj, A=A, row_type=row_type, rhs=rhs, col_lb=lb, col_ub=ub)


def _cross_check_cases():
    """(name, problem, sibling): the sibling has the problem's shape, and
    its optimal basis is the warm start offered to the problem."""
    inf = np.inf
    rng = np.random.default_rng(31)
    cases = []
    for i in range(30):
        prob = random_lp(rng)
        sib = _lp(rng.integers(-4, 5, size=prob.n_cols).astype(float), prob.A,
                  prob.row_type, prob.rhs, prob.col_lb, prob.col_ub)
        sib.obj[~np.isfinite(sib.col_ub)] = np.abs(sib.obj[~np.isfinite(sib.col_ub)])
        cases.append(("random-%d" % i, prob, sib))
    # four rows meet at the optimum (1, 1) of a 2-column LP
    A = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, -1.0]]
    degenerate = _lp([-1.0, -1.0], A, ["L"] * 4, [2.0, 1.0, 1.0, 0.0], [0.0, 0.0], [inf, inf])
    cases.append(("degenerate", degenerate,
                  _lp([1.0, -1.0], A, ["L"] * 4, [2.0, 1.0, 1.0, 0.0], [0.0, 0.0], [inf, inf])))
    A = [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]]
    dependent = _lp([-1.0, -2.0], A, ["E", "E", "L"], [2.0, 4.0, 1.5], [0.0, 0.0], [inf, inf])
    cases.append(("dependent-equalities", dependent,
                  _lp([1.0, 0.0], A, ["E", "E", "L"], [2.0, 4.0, 1.5], [0.0, 0.0], [inf, inf])))
    # x0 + x1 <= 1 and x0 + x1 = 3; the sibling's right-hand side is feasible
    A = [[1.0, 1.0], [1.0, 1.0]]
    cases.append(("infeasible",
                  _lp([1.0, 1.0], A, ["L", "E"], [1.0, 3.0], [0.0, 0.0], [inf, inf]),
                  _lp([1.0, 1.0], A, ["L", "E"], [3.0, 1.0], [0.0, 0.0], [inf, inf])))
    # x1 may grow without bound along x0 - x1 <= 1
    A = [[1.0, -1.0]]
    cases.append(("unbounded",
                  _lp([0.0, -1.0], A, ["L"], [1.0], [0.0, 0.0], [2.0, inf]),
                  _lp([0.0, 1.0], A, ["L"], [1.0], [0.0, 0.0], [2.0, inf])))
    # 60 x 150, all 'L' and boxed: a cold solve starts from the slack basis
    # and the dual loop; a warm one takes more than 2 * REFACTOR_EVERY
    # primal pivots, so the basis inverse is updated and factored afresh
    # more than once within a run
    rng = np.random.default_rng(0)
    prob = planted_lp(rng)
    cases.append(("planted-60x150", prob,
                  _lp(rng.integers(-5, 6, size=prob.n_cols).astype(float), prob.A,
                      prob.row_type, prob.rhs, prob.col_lb, prob.col_ub)))
    # the same construction with its 20 planted rows as equalities, which no
    # slack covers: a cold solve appends a fixed logical for each, and a warm
    # one takes more than 2 * REFACTOR_EVERY pivots
    rng = np.random.default_rng(3)
    prob = planted_lp(rng)
    row_type = ["E"] * 20 + ["L"] * (prob.n_rows - 20)
    cases.append(("planted-eq-60x150",
                  _lp(prob.obj, prob.A, row_type, prob.rhs, prob.col_lb, prob.col_ub),
                  _lp(rng.integers(-5, 6, size=prob.n_cols).astype(float), prob.A,
                      row_type, prob.rhs, prob.col_lb, prob.col_ub)))
    return cases


def _check_against_highs(warm):
    """Every cross-check case, cold or warm-started from its sibling's
    optimal basis, ends like HiGHS: same status, same optimum, feasible."""
    statuses = set()
    for name, prob, sib in _cross_check_cases():
        start = None
        if warm:
            first = solve_lp(sib)
            assert first.status == OPTIMAL, name
            start = first.warm_start()
        sol = solve_lp(prob, warm=start)
        status, objective = _highs(prob)
        assert sol.status == status, name
        statuses.add(status)
        if status != OPTIMAL:
            continue
        assert abs(sol.objective - objective) <= 1e-6 * (1.0 + abs(objective)), name
        x = sol.x
        assert np.all(x >= prob.col_lb - 1e-7) and np.all(x <= prob.col_ub + 1e-7), name
        res = prob.A @ x - prob.rhs
        eq = np.array([t == "E" for t in prob.row_type], dtype=bool)
        assert np.all(np.abs(res[eq]) <= 1e-6) and np.all(res[~eq] <= 1e-6), name
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_solve_lp_matches_highs(warm):
    pytest.importorskip("scipy")
    _check_against_highs(warm)


# Beale's (1955) and Kuhn's LPs, (A, b, c) of min c.x s.t. A x <= b, x >= 0:
# from the slack basis Dantzig's rule, with ties broken by basis position,
# returns to a basis it left without progress.  With ties broken by the
# lowest column, as lp does, Beale's LP and its dual still cycle, and
# Kuhn's LP does not
BEALE = ([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
         [0.0, 0.0, 1.0], [-0.75, 20.0, -0.5, 6.0])
KUHN = ([[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0], [2.0, 3.0, -1.0, -12.0]],
        [0.0, 0.0, 2.0], [-2.0, -3.0, 1.0, 12.0])
CYCLING_OPTIMA = {"beale": (-1.25, [1.0, 0.0, 1.0, 0.0]), "kuhn": (-2.0, [2.0, 0.0, 2.0, 0.0]),
                  "beale-dual": (1.25, None)}


def _cycling_case(name):
    """(problem, sibling) for a name of CYCLING_OPTIMA.  Beale's dual is
    min b.u s.t. -A^T u <= c, u >= 0.  The sibling has nonnegative costs
    (the dual: right-hand side), so its optimum is the slack basis."""
    A, b, c = BEALE if name.startswith("beale") else KUHN
    if name == "beale-dual":
        A, b, c = -np.array(A).T, c, b
    A, b, c = (np.array(v, dtype=float) for v in (A, b, c))

    def lp_of(c, b):  # min c.x  s.t.  A x <= b, x >= 0
        return _lp(c, A, ["L"] * len(b), b, np.zeros(len(c)), np.full(len(c), np.inf))

    sib = lp_of(c, np.abs(b)) if name == "beale-dual" else lp_of(np.abs(c), b)
    return lp_of(c, b), sib


def _cycle_checks(monkeypatch):
    """The answer of each ``_cycled`` call, appended as the loops make them."""
    checks = []
    real_check = lp._cycled

    def recording(*args):
        checks.append(real_check(*args))
        return checks[-1]

    monkeypatch.setattr(lp, "_cycled", recording)
    return checks


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", list(CYCLING_OPTIMA))
def test_classic_cycling_lps_solve(name, warm, monkeypatch):
    # the loop that cycles reports it once and goes on by Bland's rule to
    # the closed-form optimum: the primal loop on Beale's LP (the dual loop
    # makes no pivot), the dual loop on Beale's dual (the primal loop makes
    # none); Kuhn's LP reaches it by the primal loop with no cycle reported
    prob, sib = _cycling_case(name)
    start = solve_lp(sib).warm_start() if warm else None
    checks = _cycle_checks(monkeypatch)
    runs = _recording_runs(monkeypatch)
    sol = solve_lp(prob, warm=start)
    objective, x = CYCLING_OPTIMA[name]
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(objective, abs=1e-12)
    if x is not None:
        assert sol.x == pytest.approx(x, abs=1e-12)
    assert sum(checks) == (0 if name == "kuhn" else 1)
    assert runs == ([sol.iterations] if name == "beale-dual" else [0])


def _block_diagonal(a, b):
    """The LP of a's rows and columns, then b's, with nothing coupling them."""
    A = np.zeros((a.n_rows + b.n_rows, a.n_cols + b.n_cols))
    A[:a.n_rows, :a.n_cols] = a.A
    A[a.n_rows:, a.n_cols:] = b.A
    return _lp(np.concatenate([a.obj, b.obj]), A, a.row_type + b.row_type,
               np.concatenate([a.rhs, b.rhs]), np.concatenate([a.col_lb, b.col_lb]),
               np.concatenate([a.col_ub, b.col_ub]))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bland_fallback_matches_highs(warm, monkeypatch):
    # Beale's and Kuhn's LPs each beside a 60 x 150 planted LP, the
    # sibling's costs nonnegative: every solve ends at HiGHS's optimum with
    # the small block at its closed-form optimum; those with Beale's LP
    # report a cycle and go on by Bland's rule, those with Kuhn's report none
    pytest.importorskip("scipy")
    checks = _cycle_checks(monkeypatch)
    for name in ("beale", "kuhn"):
        small, small_sib = _cycling_case(name)
        for seed in range(3):
            planted = planted_lp(np.random.default_rng(seed))
            prob = _block_diagonal(small, planted)
            sib = _block_diagonal(small_sib, _lp(np.abs(planted.obj), planted.A,
                                                 planted.row_type, planted.rhs,
                                                 planted.col_lb, planted.col_ub))
            start = solve_lp(sib).warm_start() if warm else None
            checks.clear()
            sol = solve_lp(prob, warm=start)
            status, objective = _highs(prob)
            assert sol.status == status == OPTIMAL, (name, seed)
            assert (sum(checks) >= 1) == (name == "beale"), (name, seed)
            assert abs(sol.objective - objective) <= 1e-6 * (1.0 + abs(objective)), (name, seed)
            assert sol.x[:4] == pytest.approx(CYCLING_OPTIMA[name][1], abs=1e-9), (name, seed)
            x = sol.x
            assert np.all(x >= -1e-7) and np.all(x <= prob.col_ub + 1e-7), (name, seed)
            assert np.all(prob.A @ x - prob.rhs <= 1e-6), (name, seed)


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_bland_ratio_tie_leaves_lowest_column(bland, monkeypatch):
    # min -x2 - 3 x3  s.t.  x1 + x2 <= 1, x0 + x2 <= 1, x3 + x4 <= 1,
    # x3 + x5 <= 5, x >= 0: the crash basis puts x1 in basis position 0 and
    # x0 in position 1.  The primal loop's first pivot brings x3 in, its
    # second x2, for which x1 and x0 tie in the ratio test.  Dantzig's rule
    # and Bland's alike take the lower column out (x0), not the first
    # position (x1).
    if bland:
        monkeypatch.setattr(lp, "_cycled", lambda seen, status, step: True)
    A = np.array([[0, 1, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0],
                  [0, 0, 0, 1, 0, 1]], dtype=float)
    sol = solve_lp(_lp([0.0, 0.0, -1.0, -3.0, 0.0, 0.0], A, ["L"] * 4, [1.0, 1.0, 1.0, 5.0],
                       np.zeros(6), np.full(6, np.inf)))
    assert sol.status == OPTIMAL and sol.iterations == 2
    assert sol.objective == pytest.approx(-4.0)
    assert sol.col_status[0] == lp.AT_LOWER
    assert sol.col_status[1] == lp.BASIC


@pytest.mark.parametrize("bland", [False, True], ids=["dantzig", "bland"])
def test_bland_dual_ratio_tie_enters_lowest_column(bland, monkeypatch):
    # min (1 + 5e-11) x2 + x3 + x4  s.t.  x0 - x4 = -2, x1 - x2 - x3 = -1,
    # x2 + x3 + x4 + x5 = 10, x >= 0, from the logical basis {x0, x1, x5}:
    # the dual loop's first pivot brings x4 in, its second x2 or x3, whose
    # ratios differ by 5e-11.  Dantzig's rule and Bland's alike take the
    # lower column (x2), not the least ratio (x3).
    if bland:
        monkeypatch.setattr(lp, "_cycled", lambda seen, status, step: True)
    A = np.array([[1, 0, 0, 0, -1, 0], [0, 1, -1, -1, 0, 0], [0, 0, 1, 1, 1, 1]], dtype=float)
    sol = solve_lp(_lp([0.0, 0.0, 1.0 + 5e-11, 1.0, 1.0, 0.0], A, ["E"] * 3, [-2.0, -1.0, 10.0],
                       np.zeros(6), np.full(6, np.inf)))
    assert sol.status == OPTIMAL and sol.iterations == 2
    assert sol.objective == pytest.approx(3.0)
    assert sol.col_status[2] == lp.BASIC
    assert sol.col_status[3] == lp.AT_LOWER


def test_corpus_solves_never_cycle(monkeypatch):
    # no no-progress run of the corpus's lasso LPs or relaxations returns
    # to a basis, so Bland's rule never turns on and every pivot is
    # Dantzig's: the condition under which the output bytes cannot move
    checks = _cycle_checks(monkeypatch)
    config = RunConfig(algorithm="both", start_policy=POLICY_ALL)
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        run_separation(inst, parse_solution_file(sol, inst), config)
        solve_relaxation(inst)
    assert len(checks) > 0 and not any(checks)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_optimal_solve_carries_no_point(warm):
    cases = {name: (prob, sib) for name, prob, sib in _cross_check_cases()}
    prob, sib = cases["unbounded"]
    sol = solve_lp(prob, warm=solve_lp(sib).warm_start() if warm else None)
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.duals is None and sol.objective is None
    assert sol.col_status is None


def _rejected_start(kind):
    """A problem and a warm start left on another matrix, which cannot restart it."""
    if kind == "singular-basis":
        # columns 0 and 1 are parallel here, not in the sibling whose optimal
        # basis holds both: the two matrices have the same shape
        prob = _lp([1.0, 1.0, 1.0], [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]], ["E", "E"],
                   [2.0, 5.0], [0.0] * 3, [np.inf] * 3)
        sib = _lp([1.0, 1.0, 10.0], [[1.0, 2.0, 0.0], [2.0, 1.0, 1.0]], ["E", "E"],
                  [3.0, 3.0], [0.0] * 3, [np.inf] * 3)
        # both 'E' rows start from an appended logical, which the optimum
        # leaves nonbasic and its warm start names
        start = solve_lp(sib).warm_start()
        assert sorted(start.basis.tolist()) == [0, 1] and start.logicals.tolist() == [0, 1]
        assert start.status.tolist()[:3] == [lp.BASIC, lp.BASIC, lp.AT_LOWER]
        return prob, start
    A = [[1.0, 2.0], [3.0, 1.0]]
    prob = _lp([-1.0, -1.0], A, ["L", "L"], [4.0, 6.0], [0.0, 0.0], [np.inf, np.inf])
    # the sibling has one structural column fewer or one more
    width = 1 if kind == "short" else 3
    sib = _lp([-1.0] * width, np.hstack([A, [[1.0], [1.0]]])[:, :width], ["L", "L"],
              [4.0, 6.0], [0.0] * width, [np.inf] * width)
    return prob, solve_lp(sib).warm_start()


@pytest.mark.parametrize("kind", ["short", "long", "singular-basis"])
def test_rejected_warm_start_falls_back_to_cold(kind):
    prob, start = _rejected_start(kind)
    assert start is not None
    cold = solve_lp(prob)
    warm = solve_lp(prob, warm=start)
    assert cold.status == OPTIMAL
    assert (warm.status, warm.objective, warm.iterations) == (
        cold.status, cold.objective, cold.iterations
    )


def _counting_linalg(monkeypatch):
    """The np.linalg.inv and np.linalg.solve calls made, appended as they run."""
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    return calls


def test_accepted_warm_basis_is_solved_once(monkeypatch):
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6: restarting from its own
    # optimum takes 0 pivots, so the point and duals come from the kept
    # inverse, and nothing is factored or solved
    prob = _lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], ["L", "L"], [4.0, 6.0],
               [0.0, 0.0], [np.inf, np.inf])
    start = solve_lp(prob).warm_start()
    calls = _counting_linalg(monkeypatch)
    sol = solve_lp(prob, warm=start)
    assert (sol.status, sol.iterations) == (OPTIMAL, 0)
    assert sol.objective == pytest.approx(-2.8)
    assert calls == []


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_duals_price_the_final_basis(warm):
    # reduced costs d = c - A^T y over the standard-form columns, the
    # structurals and then the slack e_i of each 'L' row, agree with the
    # status of each column at the optimum
    checked = 0
    for name, prob, sib in _cross_check_cases():
        sol = solve_lp(prob, warm=solve_lp(sib).warm_start() if warm else None)
        if sol.status != OPTIMAL:
            continue
        slack_rows = [i for i, t in enumerate(prob.row_type) if t == "L"]
        d = np.concatenate([prob.obj - prob.A.T @ sol.duals, -sol.duals[slack_rows]])
        st = sol.col_status
        assert len(d) == len(st), name
        tol = lp.OPT_TOL
        assert np.all(np.abs(d[(st == lp.BASIC) | (st == lp.FREE)]) <= tol), name
        assert np.all(d[st == lp.AT_LOWER] >= -tol), name
        assert np.all(d[st == lp.AT_UPPER] <= tol), name
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_refactor_interval_does_not_change_the_answer(warm, monkeypatch):
    # REFACTOR_EVERY = 1 factors every new basis; 10**9 carries one inverse
    # through the whole run by eta updates and factors it again only before
    # returning OPTIMAL; all three end with the same status, optimum and
    # final basis, as ties within NO_PROGRESS go to the lowest column
    # whatever the rounding of the ratios.  No cold solve of the
    # cross-check cases takes more than 2 * REFACTOR_EVERY pivots, so the
    # cold runs add a 240 x 600 planted LP that does
    every = lp.REFACTOR_EVERY
    cases = _cross_check_cases()
    if not warm:
        cases.append(("planted-240x600",
                      planted_lp(np.random.default_rng(0), **RELAX_SHAPES["240x600"]), None))
    for name, prob, sib in cases:
        sols = []
        for refactor in (every, 1, 10 ** 9):
            monkeypatch.setattr(lp, "REFACTOR_EVERY", refactor)
            sols.append(solve_lp(prob, warm=solve_lp(sib).warm_start() if warm else None))
        if name == "planted-240x600" or (warm and name.startswith("planted")):
            assert sols[0].iterations > 2 * every, name
        default, each, never = sols
        assert each.status == never.status == default.status, name
        if each.status == OPTIMAL:
            tol = 1e-6 * (1.0 + abs(each.objective))
            assert abs(each.objective - never.objective) <= tol, name
            assert np.array_equal(each.col_status, default.col_status), name
            assert np.array_equal(never.col_status, default.col_status), name


@pytest.mark.parametrize("refactor", [1, 10 ** 9], ids=["every-pivot", "before-optimal"])
def test_optimum_comes_from_a_fresh_factorization(refactor, monkeypatch):
    # REFACTOR_EVERY = 1 factors every new basis; with 10**9 the inverse is
    # only updated pivot by pivot, yet either way the point returned is the
    # one _factor computed for the final basis; the cold start's diagonal
    # inverse is not factored
    monkeypatch.setattr(lp, "REFACTOR_EVERY", refactor)
    points = []
    real_factor = lp._factor

    def recording_factor(*args):
        Binv, x = real_factor(*args)
        points.append(x.copy())
        return Binv, x

    monkeypatch.setattr(lp, "_factor", recording_factor)
    prob = {name: p for name, p, _ in _cross_check_cases()}["planted-60x150"]
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.iterations > 0
    assert np.array_equal(sol.x, points[-1][: prob.n_cols])
    if refactor == 1:
        assert len(points) >= sol.iterations


def _hand_offs(seed, sequences=30):
    """(problem, warm start) of each step of lasso-shaped LP sequences.

    Every LP of a sequence shares one matrix, ``abs_value_matrix(B)``, and
    its costs; a step moves the lam >= 1 bound to the next row, and its
    warm start is the previous step's optimum (None for the first step).
    """
    rng = np.random.default_rng(seed)
    for _ in range(sequences):
        k = int(rng.integers(3, 10))
        nt = int(rng.integers(2, 8))
        B = rng.integers(-3, 4, size=(nt, k)).astype(float) * (rng.random((nt, k)) < 0.6)
        A = lp.abs_value_matrix(B)
        w = rng.uniform(0.1, 3.0, size=nt)
        cost = rng.uniform(0.0, 1.0, size=k) * (rng.random(k) < 0.8)
        warm = None
        for i0 in rng.permutation(k):
            lb = np.zeros(k)
            lb[i0] = 1.0
            prob = lp.abs_value_lp(A, w, cost, lb, np.full(k, 1e6))
            yield prob, warm
            warm = solve_lp(prob, warm=warm).warm_start()


def _recording_runs(monkeypatch, cap=None, loop="_dual_loop"):
    """The pivots of each run of ``loop``, ``_dual_loop`` or ``_simplex_loop``,
    that ends optimal (None for one that ends otherwise or raises), appended
    as they end; ``cap[0]``, when set, replaces the pivot cap of the next
    run only."""
    runs = []
    real_loop = getattr(lp, loop)

    def recording(*args):
        if cap is not None and cap[0] is not None:
            args = args[:-1] + (cap[0],)
            cap[0] = None
        try:
            out = real_loop(*args)
        except np.linalg.LinAlgError:
            runs.append(None)
            raise
        runs.append(out[3] if out[0] == OPTIMAL else None)
        return out

    monkeypatch.setattr(lp, loop, recording)
    return runs


def test_hand_off_across_start_rows_matches_cold_and_highs(monkeypatch):
    # the previous step's optimal basis stays dual feasible, so a step that
    # starts primal infeasible is restored by the dual loop and never falls
    # back to a cold solve; a step whose basis does not change factors nothing
    pytest.importorskip("scipy")
    runs = _recording_runs(monkeypatch)
    calls = _counting_linalg(monkeypatch)
    points = []
    real_factor = lp._factor

    def recording_factor(*args):
        Binv, x = real_factor(*args)
        points.append(x)
        return Binv, x

    monkeypatch.setattr(lp, "_factor", recording_factor)
    restored = unchanged = 0
    for i, (prob, warm) in enumerate(_hand_offs(23)):
        assert lp._standard_form(prob)[0] is prob.A, i  # no copy of the shared matrix
        runs.clear()
        calls.clear()
        sol = solve_lp(prob, warm=warm)
        assert sol.status == OPTIMAL, i
        if warm is not None:
            assert runs and None not in runs, i
            if runs[0] > 0:  # the optimum comes from a fresh factorization
                assert np.array_equal(sol.x, points[-1][: prob.n_cols]), i
                restored += 1
            if sol.iterations == 0:
                assert calls == [], i
                unchanged += 1
        cold = solve_lp(prob)
        status, objective = _highs(prob)
        assert cold.status == status == OPTIMAL, i
        for value in (sol.objective, cold.objective):
            assert abs(value - objective) <= 1e-6 * (1.0 + abs(objective)), i
        assert np.all(sol.x >= prob.col_lb - 1e-7) and np.all(sol.x <= prob.col_ub + 1e-7), i
        assert np.all(np.abs(prob.A @ sol.x - prob.rhs) <= 1e-6), i
    assert restored > 0 and unchanged > 0


def _same_answer(a, b):
    return (a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations) and (
        np.array_equal(a.x, b.x) and np.array_equal(a.col_status, b.col_status))


def test_dual_loop_past_its_cap_solves_cold(monkeypatch):
    # with the dual loop's cap at 1 pivot, every hand-off that needs one
    # gives up and is solved exactly as without a warm start, whose dual
    # loop makes no pivot from the crash basis
    cap = [None]
    runs = _recording_runs(monkeypatch, cap)
    forced = 0
    for i, (prob, warm) in enumerate(_hand_offs(29)):
        if warm is None:
            continue
        runs.clear()
        solve_lp(prob, warm=warm)
        if not runs[0]:
            continue  # feasible at once: the cap is never reached
        cap[0] = 1
        capped = solve_lp(prob, warm=warm)
        assert runs[1:] == [None, 0], i
        assert _same_answer(capped, solve_lp(prob)), i
        forced += 1
    assert forced > 0


def test_start_neither_primal_nor_dual_feasible_is_restored(monkeypatch):
    # a hand-off whose factor costs change too: where the kept basis then
    # is neither primal nor dual feasible, the dual loop shifts the costs
    # that price wrong and restores feasibility, and the primal loop ends
    # at HiGHS's optimum, with no cold solve
    pytest.importorskip("scipy")
    runs = _recording_runs(monkeypatch)
    rng = np.random.default_rng(37)
    restored = 0
    for i, (prob, warm) in enumerate(_hand_offs(29)):
        if warm is None:
            continue
        k = prob.n_cols - 2 * prob.n_rows
        obj = prob.obj.copy()
        obj[:k] = rng.uniform(0.0, 1.0, size=k)
        changed = _lp(obj, prob.A, prob.row_type, prob.rhs, prob.col_lb, prob.col_ub)
        A, b, c, lb, ub = lp._standard_form(changed)
        x = lp._nonbasic_values(warm.status, lb, ub)
        x[warm.basis] = warm.Binv @ (b - A @ x)
        _, _, viol = lp._price(A, c, warm.basis, warm.status, warm.Binv, lb == ub)
        runs.clear()
        sol = solve_lp(changed, warm=warm)
        if np.all((x >= lb - lp.FEAS_TOL) & (x <= ub + lp.FEAS_TOL)) or viol.max() <= lp.OPT_TOL:
            continue
        assert len(runs) == 1 and runs[0] > 0, i
        status, objective = _highs(changed)
        assert sol.status == status == OPTIMAL, i
        assert abs(sol.objective - objective) <= 1e-6 * (1.0 + abs(objective)), i
        restored += 1
    assert restored > 0


def test_singular_warm_basis_falls_back_to_cold(monkeypatch):
    # a factorization in the dual loop that finds the basis singular (forced
    # by REFACTOR_EVERY = 1 and a _factor that raises once) drops the warm
    # start, and the solve is exactly the cold one, whose dual loop makes no
    # pivot from the crash basis
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    runs = _recording_runs(monkeypatch)
    real_factor = lp._factor
    checked = 0
    for i, (prob, warm) in enumerate(_hand_offs(31)):
        if warm is None:
            continue
        runs.clear()
        if not solve_lp(prob, warm=warm).iterations or not runs[0]:
            continue
        cold = solve_lp(prob)
        raised = []

        def singular_once(*args):
            if not raised:
                raised.append(1)
                raise np.linalg.LinAlgError("singular matrix")
            return real_factor(*args)

        monkeypatch.setattr(lp, "_factor", singular_once)
        runs.clear()
        sol = solve_lp(prob, warm=warm)
        monkeypatch.setattr(lp, "_factor", real_factor)
        assert raised and runs == [None, 0], i
        assert _same_answer(sol, cold), i
        checked += 1
    assert checked > 0


def _warm_primal_cases():
    """(name, problem, warm start) of the cross-check cases whose warm solve
    ends optimal after a primal run that pivots."""
    for name, prob, sib in _cross_check_cases():
        warm = solve_lp(sib).warm_start()
        sol = solve_lp(prob, warm=warm)
        if sol.status == OPTIMAL and sol.iterations > 0:
            yield name, prob, warm


def test_singular_warm_primal_run_falls_back_to_cold(monkeypatch):
    # a factorization in a warm solve's primal run that finds the basis
    # singular (forced by REFACTOR_EVERY = 1 and a _factor that, once armed,
    # raises at its next call inside that run) drops the warm start as one
    # in its dual run does, and the solve is exactly the cold one
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    real_factor = lp._factor
    real_loop = lp._simplex_loop
    primal, armed = [], []

    def singular_once(*args):
        if primal and armed:
            armed.clear()
            raise np.linalg.LinAlgError("singular matrix")
        return real_factor(*args)

    def marking_loop(*args):
        primal.append(1)
        try:
            return real_loop(*args)
        finally:
            primal.pop()

    monkeypatch.setattr(lp, "_factor", singular_once)
    monkeypatch.setattr(lp, "_simplex_loop", marking_loop)
    runs = _recording_runs(monkeypatch, loop="_simplex_loop")
    checked = 0
    for name, prob, warm in _warm_primal_cases():
        cold = solve_lp(prob)
        runs.clear()
        armed.append(1)
        sol = solve_lp(prob, warm=warm)
        assert not armed and runs[0] is None and len(runs) == 2, name
        assert _same_answer(sol, cold), name
        checked += 1
    assert checked > 0


def test_warm_primal_run_past_its_cap_solves_cold(monkeypatch):
    # with a warm solve's primal run capped at 1 pivot, every one that
    # pivots gives up as a dual run past its cap does, and the solve is
    # exactly the cold one, whose primal run is not capped
    cap = [None]
    runs = _recording_runs(monkeypatch, cap, loop="_simplex_loop")
    checked = 0
    for name, prob, warm in _warm_primal_cases():
        runs.clear()
        solve_lp(prob, warm=warm)
        if not runs[0]:
            continue  # the warm dual run made every pivot
        cold = solve_lp(prob)
        runs.clear()
        cap[0] = 1
        capped = solve_lp(prob, warm=warm)
        assert runs[0] is None and len(runs) == 2, name
        assert _same_answer(capped, cold), name
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("refactor, pivots", [(1, 1), (10 ** 9, 2)],
                         ids=["interval", "before-optimal"])
def test_singular_refactor_raises_lp_failure(refactor, pivots, monkeypatch):
    # max x + y  s.t.  x + 2y <= 4, 3x + y <= 6 starts cold from its slack
    # basis, which is primal feasible: the dual loop makes no pivot, and the
    # primal run's first factorization, at the refactor interval (after
    # 1 pivot) or before OPTIMAL is returned (after 2), finds the basis
    # singular (forced by a _factor that raises); a cold solve has no start
    # to fall back to, so the solve fails
    monkeypatch.setattr(lp, "REFACTOR_EVERY", refactor)
    runs = _recording_runs(monkeypatch)
    made = []
    real_pivot = lp._pivot

    def counting_pivot(*args):
        made.append(1)
        return real_pivot(*args)

    def singular(*args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(lp, "_pivot", counting_pivot)
    monkeypatch.setattr(lp, "_factor", singular)
    prob = _lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], ["L", "L"], [4.0, 6.0],
               [0.0, 0.0], [np.inf, np.inf])
    with pytest.raises(LpFailure, match="singular basis matrix"):
        solve_lp(prob)
    assert runs == [0] and len(made) == pivots


def test_singular_refactor_in_a_cold_dual_loop_raises_lp_failure(monkeypatch):
    # a cold start has no start to fall back to: a factorization in its
    # dual loop that finds the basis singular (forced by REFACTOR_EVERY = 1
    # and a _factor that raises on its second call) fails the solve
    monkeypatch.setattr(lp, "REFACTOR_EVERY", 1)
    real_factor = lp._factor
    calls = []

    def singular_after_start(*args):
        calls.append(1)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("singular matrix")
        return real_factor(*args)

    monkeypatch.setattr(lp, "_factor", singular_after_start)
    prob = {name: p for name, p, _ in _cross_check_cases()}["planted-60x150"]
    with pytest.raises(LpFailure, match="singular basis matrix"):
        solve_lp(prob)
    assert len(calls) == 2


def _start_values(c, lb, ub):
    """Each column's cold-start value, one column at a time: a boxed column
    at the bound its cost favours, every other at its default bound."""
    x0 = np.zeros(len(c))
    for j in range(len(c)):
        if np.isfinite(lb[j]) and np.isfinite(ub[j]) and lb[j] < ub[j] and c[j] < 0:
            x0[j] = ub[j]
        elif np.isfinite(lb[j]):
            x0[j] = lb[j]
        elif np.isfinite(ub[j]):
            x0[j] = ub[j]
    return x0


def _reference_start(A, b, c, lb, ub):
    """(mask, basis, logicals) of the cold-start rule, row by row: each row
    takes the first column, in column order, whose only nonzero lies in it
    and whose value solving the row is within bounds, if those cover every
    row ('crash'); else the first such column of zero cost, and an uncovered
    row gets the next appended logical ('logical')."""
    m, n = A.shape
    x0 = _start_values(c, lb, ub)
    r = b - A @ x0

    def first(i, passes):
        for j in range(n):
            if A[i, j] != 0 and np.count_nonzero(A[:, j]) == 1 and passes(i, j):
                return j
        return None

    crash = [first(i, lambda i, j: lb[j] <= x0[j] + r[i] / A[i, j] <= ub[j])
             for i in range(m)]
    if None not in crash:
        return "crash", crash, []
    basis = [first(i, lambda i, j: c[j] == 0) for i in range(m)]
    logicals = [i for i in range(m) if basis[i] is None]
    for k, i in enumerate(logicals):
        basis[i] = n + k
    return "logical", basis, logicals


def _check_cold_start(A, b, c, lb, ub):
    """(mask, logicals) of the reference, after checking ``_cold_start``
    against it: the same basis and logicals, each basic column BASIC, and as
    its inverse the reciprocal diagonal of the widened basis matrix."""
    mask, basis, logicals = _reference_start(A, b, c, lb, ub)
    start = lp._cold_start(A, b, c, lb, ub)
    assert start.basis.tolist() == basis and start.logicals.tolist() == logicals
    B = np.hstack([A, np.eye(A.shape[0])[:, logicals]])[:, basis]
    assert np.array_equal(B, np.diag(np.diag(B)))
    assert np.array_equal(start.Binv, np.diag(1.0 / np.diag(B)))
    assert np.flatnonzero(start.status == lp.BASIC).tolist() == sorted(basis)
    return mask, logicals


def test_cold_start_takes_first_in_bounds_one_nonzero_column():
    inf = np.inf
    # row 0: columns 0 and 1 both solve it within their bounds, column 0 wins;
    # row 1: column 2 would have to reach 3 > its upper bound 1, so the later
    # column 5 solves it at 1.5; row 2: the free column 4 solves it at -0.5;
    # column 3 has two nonzeros and is never taken
    A = np.array([
        [1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0, 0.0, 2.0],
        [0.0, 0.0, 0.0, 1.0, 4.0, 0.0],
    ])
    b = np.array([4.0, 3.0, -2.0])
    lb = np.array([0.0, 0.0, 0.0, -inf, -inf, 0.0])
    ub = np.array([5.0, 5.0, 1.0, inf, inf, inf])
    start = lp._cold_start(A, b, np.ones(6), lb, ub)
    assert start.basis.tolist() == [0, 5, 4] and len(start.logicals) == 0
    assert np.array_equal(start.Binv, np.diag([1.0, 0.5, 0.25]))
    # without column 5 the crash leaves row 1 uncovered: the logical basis
    # takes the zero-cost columns 0 and 4, and row 1 gets a logical
    A, lb, ub = A[:, :5], lb[:5], ub[:5]
    start = lp._cold_start(A, b, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), lb, ub)
    assert start.basis.tolist() == [0, 5, 4] and start.logicals.tolist() == [1]
    assert np.array_equal(start.Binv, np.diag([1.0, 1.0, 0.25]))
    assert start.status.tolist() == [lp.BASIC, lp.AT_LOWER, lp.AT_LOWER, lp.FREE,
                                     lp.BASIC, lp.BASIC]


def test_cold_start_of_zero_row_matrix_is_empty():
    start = lp._cold_start(np.zeros((0, 3)), np.zeros(0), np.zeros(3), np.zeros(3),
                           np.full(3, np.inf))
    assert len(start.basis) == 0 and len(start.logicals) == 0
    assert start.Binv.shape == (0, 0)
    assert start.status.tolist() == [lp.AT_LOWER] * 3


def test_cold_start_matches_the_row_by_row_rule():
    # random 'E' and 'L' LPs, thinned so that one-nonzero columns are
    # common, with free, boxed and fixed columns and zero, negative and
    # positive costs, and a 0-row LP: every start is the reference's, and
    # each mask and an appended logical occur
    rng = np.random.default_rng(41)
    masks = {"crash": 0, "logical": 0}
    appended = 0
    for i in range(300):
        prob = random_lp(rng)
        m, n = prob.A.shape
        A = prob.A * (rng.random((m, n)) < 0.4)
        kind = rng.integers(0, 4, size=n)  # as drawn, free, boxed, fixed
        lb = np.where(kind == 1, -np.inf, prob.col_lb)
        ub = np.where(kind == 1, np.inf, np.where(kind == 2, 3.0, prob.col_ub))
        ub = np.where(kind == 3, lb, ub)
        obj = prob.obj * (rng.random(n) < 0.6)
        std = lp._standard_form(_lp(obj, A, prob.row_type, prob.rhs, lb, ub))
        mask, logicals = _check_cold_start(*std)
        masks[mask] += 1
        assert all(prob.row_type[r] == "E" for r in logicals), i
        appended += len(logicals) > 0
    assert min(masks.values()) > 0 and appended > 0
    assert _check_cold_start(np.zeros((0, 2)), np.zeros(0), np.array([-1.0, 0.0]),
                             np.array([0.0, -np.inf]), np.array([1.0, np.inf]))[0] == "crash"


def test_cold_start_traffic_on_corpus(monkeypatch):
    # measured traffic: no corpus relaxation's crash covers every row, so
    # each starts from the logical basis; example1's and beale's 3 rows are
    # each crashed (there the two masks pick the same slacks and zero-cost
    # columns); every cold lasso LP is crashed, each absolute-value row by a
    # mu column, where the logical mask would append a logical per row
    for mps, _ in corpus_paths():
        std = lp._standard_form(instance_lp(parse_mps_file(mps)))
        assert _check_cold_start(*std)[0] == "logical", mps
    for name in ("example1.mps", "beale.mps"):
        std = lp._standard_form(instance_lp(parse_mps_file(os.path.join(DATA_DIR, name))))
        assert std[0].shape[0] == 3
        assert _check_cold_start(*std)[0] == "crash", name
    starts = []
    real_cold_start = lp._cold_start

    def recording(*args):
        starts.append(args)
        return real_cold_start(*args)

    monkeypatch.setattr(lp, "_cold_start", recording)
    config = RunConfig(algorithm="lasso", start_policy=POLICY_ALL)
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        run_separation(inst, parse_solution_file(sol, inst), config)
    monkeypatch.setattr(lp, "_cold_start", real_cold_start)
    assert len(starts) == len(corpus_paths())
    for args in starts:
        assert _check_cold_start(*args)[0] == "crash"


def _lasso_draw(rng):
    """An abs-value LP shaped like the lasso LP, and its reweighted sibling
    built from the first LP's optimum as ``lasso_aggregate`` builds it."""
    k = int(rng.integers(2, 9))
    nt = int(rng.integers(1, 7))
    B = rng.integers(-3, 4, size=(nt, k)).astype(float) * (rng.random((nt, k)) < 0.6)
    w = rng.uniform(0.0, 3.0, size=nt)
    i0 = int(rng.integers(k))
    lb = np.zeros(k)
    lb[i0] = 1.0
    ub = np.where(rng.random(k) < 0.3, 0.0, 1e6)
    ub[i0] = 1e6
    cost = rng.uniform(0.0, 1.0, size=k) * (rng.random(k) < 0.8)
    prob = build_abs_value_lp(list(zip(w, B)), cost, lb, ub)

    def reweighted(x):
        lam = x[:k]
        ub2 = np.where(lam > 1e-9, 1e6, 0.0)
        ub2[i0] = 1e6
        return build_abs_value_lp(list(zip(reweight(w, B @ lam), B)), np.zeros(k), lb, ub2)

    return prob, reweighted


def _loop_widths(monkeypatch):
    """The column count of each ``_simplex_loop`` call, appended as it runs."""
    widths = []
    real_loop = lp._simplex_loop

    def recording_loop(A, *args):
        widths.append(A.shape[1])
        return real_loop(A, *args)

    monkeypatch.setattr(lp, "_simplex_loop", recording_loop)
    return widths


def test_lasso_shaped_lps_match_highs_from_the_crash_basis(monkeypatch):
    # every row of B lam - mu+ + mu- = 0 is crashed by a one-nonzero column,
    # so a cold solve appends no logical and makes one primal run;
    # some lam are pinned at [0, 0], and a priced fixed column would cost a
    # zero-length bound flip, a ratio test with tcap 0
    pytest.importorskip("scipy")
    widths = _loop_widths(monkeypatch)
    tcaps = []
    real_ratio_test = lp.ratio_test

    def recording_ratio_test(*args):
        tcaps.append(args[5])
        return real_ratio_test(*args)

    monkeypatch.setattr(lp, "ratio_test", recording_ratio_test)
    rng = np.random.default_rng(17)
    pinned = 0
    for i in range(40):
        prob, reweighted = _lasso_draw(rng)
        widths.clear()
        first = solve_lp(prob)
        assert widths == [prob.n_cols], i
        sib = reweighted(first.x)
        pinned += int(np.sum(sib.col_lb == sib.col_ub))
        tcaps.clear()
        second = solve_lp(sib, warm=first.warm_start())
        assert 0.0 not in tcaps, i
        for sol, p in ((first, prob), (second, sib)):
            status, objective = _highs(p)
            assert sol.status == status == OPTIMAL, i
            assert abs(sol.objective - objective) <= 1e-6 * (1.0 + abs(objective)), i
            assert np.all(sol.x >= p.col_lb - 1e-7) and np.all(sol.x <= p.col_ub + 1e-7), i
            assert np.all(np.abs(p.A @ sol.x - p.rhs) <= 1e-6), i
    assert pinned > 0


def test_fixed_column_never_enters():
    # max x0 + 10 x1  s.t.  x0 + x1 <= 4, x1 fixed at 0: the crash basis
    # (x0 basic at 4) is optimal, and x1 keeps its lower bound
    prob = _lp([-1.0, -10.0], [[1.0, 1.0]], ["L"], [4.0], [0.0, 0.0], [np.inf, 0.0])
    sol = solve_lp(prob)
    assert (sol.status, sol.iterations) == (OPTIMAL, 0)
    assert sol.x == pytest.approx([4.0, 0.0])
    assert sol.col_status[1] == lp.AT_LOWER


def test_dual_infeasible_start_takes_a_cost_shift(monkeypatch):
    # min -x0 + 3 x1  s.t.  -x0 - x1 <= -1, x0 - x1 <= 0, x >= 0: the slack
    # basis is neither primal feasible (row 0's slack would be -1) nor dual
    # feasible (x0 is unbounded above, with cost -1); the dual loop shifts
    # x0's cost to 0, for its own run only, and pivots to a feasible basis,
    # then the primal loop reaches the optimum on the true costs: one run
    # of each, on 2 structurals and 2 slacks with no appended column
    widths = _loop_widths(monkeypatch)
    runs = _recording_runs(monkeypatch)
    prob = _lp([-1.0, 3.0], [[-1.0, -1.0], [1.0, -1.0]], ["L", "L"], [-1.0, 0.0],
               [0.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(prob)
    assert len(runs) == 1 and runs[0] > 0
    assert widths == [4]
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([0.5, 0.5])
    assert sol.objective == pytest.approx(1.0)
    assert len(sol.col_status) == 4
    A, b, c, lb, ub = lp._standard_form(prob)
    cost = c.copy()
    status = np.array([lp.AT_LOWER, lp.AT_LOWER, lp.BASIC, lp.BASIC])
    code = lp._dual_loop(A, b, c, lb, ub, np.array([2, 3]), status,
                         np.array([0.0, 0.0, -1.0, 0.0]), np.eye(2), 100)[0]
    assert code == OPTIMAL and np.array_equal(c, cost)


def test_uncovered_equality_rows_get_one_fixed_logical_each(monkeypatch):
    # rows 0 and 1 are equalities no one-nonzero column covers; row 2's is
    # the zero-cost x3, row 3's its slack: the start appends a logical e_i
    # fixed at [0, 0] for rows 0 and 1 only, the one primal run sees
    # 4 structurals, 1 slack and 2 logicals, and the solution reports the
    # structurals and the slack
    pytest.importorskip("scipy")
    widths = _loop_widths(monkeypatch)
    A = [[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
         [1.0, 0.0, 1.0, 0.0]]
    prob = _lp([1.0, 2.0, 3.0, 0.0], A, ["E", "E", "E", "L"], [2.0, 0.0, 5.0, 3.0],
               [0.0] * 4, [np.inf] * 3 + [10.0])
    sol = solve_lp(prob)
    assert widths == [4 + 1 + 2]
    assert sol.status == OPTIMAL and len(sol.col_status) == 4 + 1
    assert sol.x == pytest.approx([1.0, 1.0, 0.0, 5.0])
    status, objective = _highs(prob)
    assert status == OPTIMAL and sol.objective == pytest.approx(objective)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_every_solve_makes_one_primal_run(warm, monkeypatch):
    # warm, crash and logical starts share one path, a dual loop and then
    # one primal run on the true costs; a dual loop that proves the problem
    # infeasible ends the solve before any primal run
    widths = _loop_widths(monkeypatch)
    for name, prob, sib in _cross_check_cases():
        start = solve_lp(sib).warm_start() if warm else None
        widths.clear()
        sol = solve_lp(prob, warm=start)
        assert len(widths) == (0 if sol.status == INFEASIBLE else 1), name


RELAX_SHAPES = {
    "60x150": {},
    "120x300": dict(k=50, n_loose=70, n_cont=140, n_int=160),
    "240x600": dict(k=100, n_loose=140, n_cont=280, n_int=320),
}


@pytest.mark.parametrize("shape", list(RELAX_SHAPES))
def test_boxed_all_l_lps_solve_cold_by_the_dual_loop(shape, monkeypatch):
    # every column is boxed, so the slack basis, with each column at the
    # bound its cost favours, prices dual feasible: a cold solve appends no
    # column, the dual loop pivots to the optimum, and the
    # optimum and duals are HiGHS's (the duals, which a degenerate optimum
    # leaves unpinned, by their dual bound)
    pytest.importorskip("scipy")
    widths = _loop_widths(monkeypatch)
    runs = _recording_runs(monkeypatch)
    for seed in range(2):
        prob = planted_lp(np.random.default_rng(seed), **RELAX_SHAPES[shape])
        widths.clear()
        runs.clear()
        sol = solve_lp(prob)
        status, objective = _highs(prob)
        assert sol.status == status == OPTIMAL, seed
        assert widths == [prob.n_cols + prob.n_rows], seed
        # the dual loop keeps the basis dual feasible, so its feasible basis
        # is optimal and the primal loop makes no pivot
        assert len(runs) == 1 and runs[0] == sol.iterations > 0, seed
        tol = 1e-6 * (1.0 + abs(objective))
        assert abs(sol.objective - objective) <= tol, seed
        y = sol.duals
        d = prob.obj - prob.A.T @ y
        bound = prob.rhs @ y + np.minimum(prob.col_lb * d, prob.col_ub * d).sum()
        assert np.all(y <= lp.OPT_TOL) and abs(bound - objective) <= tol, seed


def _degenerate_lp(seed):
    """60 x 150, all 'L', rows 0-39 with right-hand side 0: integer entries
    in [-3, 3] at half density, columns in [0, 1..4], costs in [-5, 5]."""
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, size=(60, 150)).astype(float) * (rng.random((60, 150)) < 0.5)
    rhs = np.concatenate([np.zeros(40), rng.uniform(1.0, 10.0, size=20)])
    ub = rng.integers(1, 5, size=150).astype(float)
    obj = rng.integers(-5, 6, size=150).astype(float)
    return _lp(obj, A, ["L"] * 60, rhs, np.zeros(150), ub)


def test_degenerate_boxed_family_matches_highs(monkeypatch):
    # x = 0 is a degenerate vertex of every row with right-hand side 0; each
    # cold solve is restored by the dual loop alone and ends at HiGHS's optimum
    pytest.importorskip("scipy")
    runs = _recording_runs(monkeypatch)
    for seed in range(40):
        prob = _degenerate_lp(seed)
        runs.clear()
        sol = solve_lp(prob)
        status, objective = _highs(prob)
        assert sol.status == status == OPTIMAL, seed
        assert len(runs) == 1 and runs[0] == sol.iterations > 0, seed
        assert abs(sol.objective - objective) <= 1e-6 * (1.0 + abs(objective)), seed
        x = sol.x
        assert np.all(x >= -1e-7) and np.all(x <= prob.col_ub + 1e-7), seed
        assert np.all(prob.A @ x - prob.rhs <= 1e-6), seed
