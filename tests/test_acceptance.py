"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines on passing runs too).
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from aggsep.cli import EXIT_OK, main
from aggsep.cmir import (
    cmir_inequality,
    delta_candidates,
    g_function,
    proximity_partition,
)
from aggsep.errors import DegenerateCutError
from aggsep.harness import POLICY_ALL, RunConfig, run_separation, sparsity_metrics
from aggsep.lasso import lasso_aggregate
from aggsep.lp import OPTIMAL, LpProblem, build_abs_value_lp, solve_lp
from aggsep.mpsio import parse_mps_file, parse_solution_file
from aggsep.mw import mw_aggregate
from aggsep.preprocess import preprocess

from helpers import (
    EXAMPLE1_MPS,
    corpus_paths,
    enumerate_bfs_optimum,
    random_knapsack_row,
    random_lp,
    validate_cut_bruteforce,
)


@contextlib.contextmanager
def criterion(number, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        print("criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))


def _example1_contexts():
    inst = parse_mps_file(EXAMPLE1_MPS)
    x0 = np.zeros(inst.n_vars)
    ctx = preprocess(inst, x0)
    return inst, ctx, ctx  # lasso's and mw's: one context serves both


def test_criterion_1_example1_regression():
    with criterion(1, "Example-1 regression"):
        t0 = time.perf_counter()
        inst, unified, normal = _example1_contexts()
        for i0 in (0, 1, 2):
            results = lasso_aggregate(unified, i0)
            res = results[-1]
            assert len(res.residual_bad) == 0
            lam = np.array([res.factors.get(i, 0.0) for i in range(3)])
            assert np.max(np.abs(lam / lam[0] - np.array([1.0, 1.0, 2.0]))) <= 1e-6
        for i0 in (0, 1, 2):
            for res in mw_aggregate(normal, i0):
                assert len(res.residual_bad) >= 1
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_weight_robustness():
    with criterion(2, "weight robustness"):
        inst, unified, _ = _example1_contexts()
        A = inst.matrix
        rows = [0, 1, 2]
        bad = [int(j) for j in unified.bad_vars]
        rng = np.random.default_rng(20240817)
        lb = np.array([1.0, 0.0, 0.0])  # lam_1 >= 1
        ub = np.full(3, 1e6)
        for _ in range(100):
            w = rng.uniform(0.0, 10.0, size=len(bad))
            w[w == 0.0] = 1.0  # strictly positive
            terms = [(float(wj), A[rows, j].astype(float)) for wj, j in zip(w, bad)]
            prob = build_abs_value_lp(terms, np.zeros(3), lb, ub)
            sol = solve_lp(prob)
            assert sol.status == OPTIMAL
            assert abs(sol.objective) <= 1e-7
            lam = sol.x[:3]
            assert np.max(np.abs(lam / lam[0] - np.array([1.0, 1.0, 2.0]))) <= 1e-6


def test_criterion_3_cmir_validity():
    with criterion(3, "c-MIR validity on random knapsack rows"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        n_cuts = 0
        for _ in range(1000):
            k = random_knapsack_row(rng, max_q=6, max_u=5)
            T_prox, U_prox = proximity_partition(k)
            policies = [(T_prox, U_prox), (tuple(range(k.q)), ())]
            for T, U in policies:
                for delta in delta_candidates(k):
                    try:
                        cut = cmir_inequality(k, T, U, delta)
                    except DegenerateCutError:
                        continue
                    assert validate_cut_bruteforce(cut, k, tol=1e-7), (
                        "invalid cut: a=%r u=%r b=%r T=%r U=%r delta=%r"
                        % (k.a, k.u, k.b, T, U, delta)
                    )
                    n_cuts += 1
        assert n_cuts > 1000
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_mir_specialization():
    with criterion(4, "MIR specialization"):
        rng = np.random.default_rng(11)
        done = 0
        while done < 100:
            k = random_knapsack_row(rng)
            f = k.b - math.floor(k.b)
            if min(f, 1.0 - f) < 1e-6:
                continue
            cut = cmir_inequality(k, tuple(range(k.q)), (), 1.0)
            direct = np.array(
                [
                    math.floor(aj)
                    + max((aj - math.floor(aj)) - f, 0.0) / (1.0 - f)
                    for aj in k.a
                ]
            )
            assert np.max(np.abs(cut.z_coefs - direct)) <= 1e-12
            assert abs(cut.rhs_knapsack - math.floor(k.b)) <= 1e-12
            assert abs(cut.s_coef - 1.0 / (1.0 - f)) <= 1e-12
            done += 1


def test_criterion_5_lp_oracle_equivalence():
    with criterion(5, "LP oracle equivalence"):
        rng = np.random.default_rng(13)
        for trial in range(200):
            prob = random_lp(rng)
            sol = solve_lp(prob)
            oracle = enumerate_bfs_optimum(prob)
            if oracle is None:
                assert sol.status != OPTIMAL
                continue
            assert sol.status == OPTIMAL
            assert abs(sol.objective - oracle) <= 1e-7 * (1.0 + abs(oracle))
            if trial % 4 == 0:
                new_obj = rng.integers(-4, 5, size=prob.n_cols).astype(float)
                prob2 = LpProblem(
                    obj=new_obj, A=prob.A, row_type=prob.row_type, rhs=prob.rhs,
                    col_lb=prob.col_lb, col_ub=prob.col_ub,
                )
                warm = solve_lp(prob2, warm=sol.warm_start())
                cold = solve_lp(prob2)
                assert warm.status == cold.status
                if cold.status == OPTIMAL:
                    assert abs(warm.objective - cold.objective) <= 1e-7 * (
                        1.0 + abs(cold.objective)
                    )


def _corpus_runs():
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        point = parse_solution_file(sol, inst)
        res = run_separation(inst, point, RunConfig(start_policy=POLICY_ALL))
        yield inst, point, res


def test_criterion_6_aggregation_soundness():
    with criterion(6, "aggregation soundness on the corpus"):
        n_aggs = 0
        for inst, point, res in _corpus_runs():
            for algo, aggs in res.aggregations.items():
                by_start = {}
                for agg in aggs:
                    assert all(lam >= 0.0 for lam in agg.factors.values())
                    assert agg.factors[agg.starting_row] >= 1.0 - 1e-9
                    alpha, beta = agg.recompute(inst)
                    assert np.max(np.abs(alpha - agg.alpha)) <= 1e-9
                    assert abs(beta - agg.beta) <= 1e-9
                    n_aggs += 1
                    if algo == "mw":
                        by_start.setdefault(agg.starting_row, []).append(agg)
                for seq in by_start.values():
                    eliminated = set()
                    for agg in seq:
                        eliminated |= set(agg.eliminated)
                        for j in eliminated:
                            assert abs(agg.alpha[j]) <= 1e-9
        assert n_aggs > 0


def test_criterion_7_directional_sparsity():
    with criterion(7, "directional sparsity on the corpus"):
        pool = {"mw": ([], []), "lasso": ([], [])}
        assert len(corpus_paths()) >= 10
        for inst, point, res in _corpus_runs():
            ctx = preprocess(inst, point)
            for algo in ("mw", "lasso"):
                m = res.metrics[algo]
                # reported ratio identity: exactly mean bad / mean total
                if not m.empty and m.total_bad_cols > 0:
                    assert m.ratio == m.bad_cols / m.total_bad_cols
                redo = sparsity_metrics(res.aggregations[algo], ctx)
                assert redo == m
                A = inst.matrix
                bad = set(int(j) for j in ctx.bad_vars)
                for agg in res.aggregations[algo]:
                    pool[algo][0].append(len(agg.residual_bad))
                    touched = set()
                    for i in agg.used_rows:
                        touched |= {j for j in bad if A[i, j] != 0.0}
                    pool[algo][1].append(len(touched))
        ratios = {}
        for algo, (res_c, tot_c) in pool.items():
            assert res_c, "no aggregations for %s" % algo
            ratios[algo] = float(np.mean(res_c)) / float(np.mean(tot_c))
        assert ratios["lasso"] <= ratios["mw"], (
            "pooled lasso ratio %.4f exceeds mw ratio %.4f"
            % (ratios["lasso"], ratios["mw"])
        )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "compare determinism"):
        mps, sol = corpus_paths()[0]
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / ("report_%s" % tag)
            cuts = tmp_path / ("cuts_%s" % tag)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([
                    "compare", "--instance", mps, "--solution", sol,
                    "--report", str(report), "--out", str(cuts),
                    "--start-rows", "all",
                ])
            assert code == EXIT_OK
            outputs.append((report.read_bytes(), cuts.read_bytes()))
        assert outputs[0] == outputs[1]


def test_criterion_9_g_function_grid():
    with criterion(9, "G-function grid properties"):
        rng = np.random.default_rng(17)
        d = rng.uniform(-20.0, 20.0, size=100)
        f = rng.uniform(1e-3, 1.0 - 1e-3, size=100)
        n = 0
        for fi in f:
            for di in d:
                g = g_function(di, fi)
                assert abs(g_function(di + 1.0, fi) - (g + 1.0)) <= 1e-12
                assert g <= di + 1e-12
                n += 1
        assert n == 10**4
