import numpy as np
import pytest

from aggsep import lp
from aggsep.errors import ContractViolation
from aggsep.lp import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    build_abs_value_lp,
    solve_lp,
)

from helpers import enumerate_bfs_optimum, random_lp


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
    # one artificial column stays basic at zero through phase 2
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


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_bland_fallback_matches_highs(warm, monkeypatch):
    # the first degenerate pivot switches every later pick to Bland's rule
    pytest.importorskip("scipy")
    monkeypatch.setattr(lp, "DEGEN_PIVOT_LIMIT", 0)
    _check_against_highs(warm)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_optimal_solve_carries_no_point(warm):
    cases = {name: (prob, sib) for name, prob, sib in _cross_check_cases()}
    prob, sib = cases["unbounded"]
    sol = solve_lp(prob, warm=solve_lp(sib).warm_start() if warm else None)
    assert sol.status == UNBOUNDED
    assert sol.x is None and sol.duals is None and sol.objective is None
    assert sol.col_status is None


def _rejected_start(kind):
    """A problem and a status vector that cannot warm-start it."""
    if kind == "singular-basis":
        # columns 0 and 1 of the rows [1, 2, 0] and [2, 4, 1] are parallel
        prob = _lp([1.0, 1.0, 1.0], [[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]], ["E", "E"],
                   [2.0, 5.0], [0.0] * 3, [np.inf] * 3)
        return prob, np.array([lp.BASIC, lp.BASIC, lp.AT_LOWER])
    prob = _lp([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], ["L", "L"], [4.0, 6.0],
               [0.0, 0.0], [np.inf, np.inf])
    status = solve_lp(prob).warm_start()
    return prob, status[:-1] if kind == "short" else np.append(status, lp.AT_LOWER)


@pytest.mark.parametrize("kind", ["short", "long", "singular-basis"])
def test_rejected_warm_start_falls_back_to_cold(kind):
    prob, start = _rejected_start(kind)
    cold = solve_lp(prob)
    warm = solve_lp(prob, warm=start)
    assert cold.status == OPTIMAL
    assert (warm.status, warm.objective, warm.iterations) == (
        cold.status, cold.objective, cold.iterations
    )
