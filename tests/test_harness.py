import collections
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import aggsep.harness
import aggsep.lasso
from aggsep.aggregate import AggregationResult
from aggsep.errors import ContractViolation, LpFailure
from aggsep.harness import (
    POLICY_ALL,
    POLICY_NAMED,
    POLICY_TOP,
    RunConfig,
    format_metrics,
    instance_lp,
    run_separation,
    solve_relaxation,
    sparsity_metrics,
)
from aggsep.instance import CONTINUOUS, INTEGER, MilpInstance, Row, Variable
from aggsep.lp import ITERATION_LIMIT, LpSolution
from aggsep.mpsio import cut_to_dict, parse_mps_file, parse_solution_file, write_cuts
from aggsep.preprocess import preprocess

from helpers import corpus_paths


def _agg(residual, used):
    return AggregationResult(
        factors={i: 1.0 for i in used}, alpha=None, beta=0.0,
        used_rows=tuple(used), eliminated=(), residual_bad=tuple(residual),
        algorithm="mw", starting_row=used[0],
    )


def test_sparsity_metrics_arithmetic(example1, example1_ctx):
    # aggregation 1 uses all three rows (touches x2 and x3), aggregation 2
    # uses row 3 only (touches both as well)
    aggs = [_agg((1,), (0, 1, 2)), _agg((), (2, 0))]
    m = sparsity_metrics(aggs, example1_ctx)
    assert m.bad_cols == pytest.approx(0.5)
    assert m.total_bad_cols == pytest.approx(2.0)
    assert m.ratio == pytest.approx(0.25)
    assert m.used_rows == pytest.approx(2.5)
    assert m.n_aggregations == 2
    assert not m.empty


def test_sparsity_metrics_table_consistency():
    # the ratio is always mean bad-cols over mean total-bad-cols
    assert 2.45 / 4.72 == pytest.approx(0.52, abs=0.005)
    assert 0.37 / 1.87 == pytest.approx(0.20, abs=0.005)


def test_sparsity_metrics_empty_and_undefined(example1_ctx):
    m = sparsity_metrics([], example1_ctx)
    assert m.empty and m.ratio is None and m.n_aggregations == 0

    inst = MilpInstance(
        "t", [Variable("x", CONTINUOUS, 0.0, 5.0)], [Row("r", {"x": 1.0}, 9.0)]
    )
    ctx = preprocess(inst, np.array([1.0]))
    ctx.bad_vars = np.array([], dtype=np.int64)
    m = sparsity_metrics([_agg((), (0,))], ctx)
    assert m.ratio is None
    assert m.total_bad_cols == 0.0


@pytest.mark.parametrize("field, value", [("start_k", -2), ("start_k", 0), ("maxaggr", -1)])
def test_run_config_rejects_out_of_range_fields(field, value):
    # a negative start_k would slice rows[:start_k] from the end, and 0
    # would start from no row; a negative maxaggr would run as 0
    with pytest.raises(ContractViolation, match=field):
        RunConfig(algorithm="mw", start_policy=POLICY_TOP, **{field: value})


@pytest.mark.parametrize("field, fields", [
    ("algorithm", dict(algorithm="greedy")),
    ("start_policy", dict(start_policy="bogus")),
    ("start_names", dict(start_policy=POLICY_NAMED)),
    ("start_names", dict(start_names=("nosuchrow",))),
    ("start_names", dict(start_policy=POLICY_ALL, start_names=("c1",))),
], ids=["unknown-algorithm", "unknown-policy", "named-without-names", "names-under-top",
        "names-under-all"])
def test_run_config_rejects_unknown_or_inconsistent_fields(field, fields):
    # each used to run with no diagnostic: an unknown policy until a starting
    # row was asked for (never, on an instance with no bad variables), named
    # with no names from no row, and names under another policy were ignored
    with pytest.raises(ContractViolation, match=field):
        RunConfig(**fields)


def test_run_separation_example1(example1, example1_point):
    res = run_separation(
        example1, example1_point, RunConfig(start_policy=POLICY_ALL)
    )
    assert res.metrics["lasso"].bad_cols == pytest.approx(0.0)
    assert res.metrics["mw"].bad_cols >= 1.0
    assert not any(m.empty for m in res.metrics.values())


def test_run_separation_nothing_to_do():
    inst = MilpInstance(
        "t", [Variable("x", CONTINUOUS, 0.0, 5.0)], [Row("r", {"x": 1.0}, 9.0)]
    )
    res = run_separation(inst, np.array([5.0]))
    assert res.diagnostics == [
        "%s: nothing to do (no bad variables)" % algo for algo in ("mw", "lasso")
    ]
    assert res.cuts == []
    assert all(m.empty for m in res.metrics.values())


def test_run_separation_deterministic(example1):
    point = np.array([0.5, 1.0, 1.0, 0.7])
    out = []
    for _ in range(2):
        res = run_separation(example1, point, RunConfig(start_policy=POLICY_ALL))
        buf = io.StringIO()
        write_cuts(res.cuts, buf)
        out.append((buf.getvalue(), format_metrics(res.metrics)))
    assert out[0] == out[1]


def test_run_separation_skips_used_starting_rows(example1, example1_point):
    res = run_separation(
        example1, example1_point, RunConfig(algorithm="lasso", start_policy=POLICY_ALL)
    )
    # the first lasso aggregation uses all three rows, so rows 2 and 3 are
    # never tried as starting rows afterwards
    starts = {a.starting_row for a in res.aggregations["lasso"]}
    assert len(starts) == 1


def test_run_separation_named_policy(example1, example1_point):
    res = run_separation(
        example1,
        example1_point,
        RunConfig(algorithm="mw", start_policy=POLICY_NAMED, start_names=("r2",)),
    )
    assert {a.starting_row for a in res.aggregations["mw"]} == {1}


def _dropped_start_instance():
    variables = [
        Variable("x", CONTINUOUS, 0.0, 10.0),
        Variable("y", CONTINUOUS, 0.0, 1.0),
        Variable("z", INTEGER, 0.0, 3.0),
    ]
    rows = [
        Row("b", {"x": 1.0, "z": -1.0}, 0.0),  # implied-bound row
        Row("n", {"x": -1.0, "y": 1.0, "z": 1.0}, 5.0),
        Row("i", {"z": 1.0}, 3.0),  # integer column only: never useful
    ]
    return MilpInstance("t", variables, rows), np.array([0.5, 1.0, 2.0])


def test_named_implied_bound_row_dropped_for_mw_is_reported():
    inst, point = _dropped_start_instance()
    res = run_separation(inst, point, RunConfig(algorithm="mw", start_policy=POLICY_NAMED,
                                                start_names=("b",)))
    assert res.aggregations["mw"] == []
    assert res.diagnostics == [
        "mw: starting row b dropped: an implied-bound row, which mw never aggregates"]


def test_named_row_without_bad_column_is_reported_per_algorithm():
    inst, point = _dropped_start_instance()
    res = run_separation(inst, point, RunConfig(algorithm="both", start_policy=POLICY_NAMED,
                                                start_names=("i", "n")))
    assert [a.starting_row for a in res.aggregations["mw"]] == [1]
    assert {a.starting_row for a in res.aggregations["lasso"]} == {1}
    assert [d for d in res.diagnostics if "dropped" in d] == [
        "%s: starting row i dropped: not a useful row "
        "(no kept bad column, or past preprocess.MAX_USEFUL_ROWS)" % algo
        for algo in ("mw", "lasso")
    ]


def test_run_separation_preprocesses_once(example1, example1_point, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return preprocess(*args, **kwargs)

    monkeypatch.setattr(aggsep.harness, "preprocess", counting)
    res = run_separation(example1, example1_point, RunConfig(algorithm="both"))
    assert set(res.aggregations) == {"mw", "lasso"}
    assert len(calls) == 1


def test_run_separation_metrics_match_recomputation(example1, example1_point):
    res = run_separation(
        example1, example1_point, RunConfig(start_policy=POLICY_ALL)
    )
    ctx = preprocess(example1, example1_point)
    redo = sparsity_metrics(res.aggregations["lasso"], ctx)
    assert redo == res.metrics["lasso"]


def test_solve_relaxation_simple():
    inst = MilpInstance(
        "t", [Variable("x", CONTINUOUS, 0.0, 1.0, objective=-1.0)],
        [Row("r", {"x": 1.0}, 1.0)],
    )
    point, duals = solve_relaxation(inst)
    assert point[0] == pytest.approx(1.0)


def test_solve_relaxation_vertex_for_zero_objective(example1):
    point, _ = solve_relaxation(example1)
    A = example1.matrix
    assert np.all(A @ point <= example1.rhs + 1e-7)
    assert np.all(point >= example1.lower - 1e-9)
    assert np.all(point <= example1.upper + 1e-9)


def test_solve_relaxation_infeasible():
    inst = MilpInstance(
        "t", [Variable("x", CONTINUOUS, 0.0, np.inf)],
        [Row("r1", {"x": 1.0}, 0.0), Row("r2", {"x": -1.0}, -1.0)],
    )
    with pytest.raises(LpFailure):
        solve_relaxation(inst)


def test_instance_lp_shape(example1):
    prob = instance_lp(example1)
    assert prob.n_rows == example1.n_rows
    assert prob.n_cols == example1.n_vars
    assert prob.row_type == ["L"] * 3


def test_format_metrics_stable(example1, example1_point):
    res = run_separation(example1, example1_point)
    text = format_metrics(res.metrics)
    assert text.index("algorithm lasso") < text.index("algorithm mw")
    assert "ratio" in text


def test_corpus_loads_and_produces_aggregations():
    paths = corpus_paths()
    assert len(paths) >= 10
    for mps, sol in paths[:3]:
        inst = parse_mps_file(mps)
        point = parse_solution_file(sol, inst)
        res = run_separation(inst, point, RunConfig(start_policy=POLICY_ALL))
        assert res.aggregations["mw"] or res.aggregations["lasso"]


def test_separates_exactly_the_recorded_aggregations(monkeypatch):
    # one row, one bad column: mw emits the bare row; lasso's first solve
    # leaves the column and its reweighted re-solve hits the iteration
    # limit, so that starting row fails and nothing of it may be separated
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("z", INTEGER, 0.0, 5.0),
         Variable("w", INTEGER, 0.0, 5.0)],
        [Row("r1", {"x": 1.0, "z": 1.0, "w": 1.0}, 6.0)],
    )
    solve_lp = aggsep.lasso.solve_lp
    separate = aggsep.harness.separate_on_aggregation
    separated = []

    def cold_only(prob, warm=None):
        return solve_lp(prob) if warm is None else LpSolution(status=ITERATION_LIMIT)

    def counting(agg, *args, **kwargs):
        separated.append(agg)
        return separate(agg, *args, **kwargs)

    monkeypatch.setattr(aggsep.lasso, "solve_lp", cold_only)
    monkeypatch.setattr(aggsep.harness, "separate_on_aggregation", counting)
    res = run_separation(inst, np.array([2.0, 1.5, 0.5]),
                         RunConfig(start_policy=POLICY_ALL))
    assert res.aggregations["lasso"] == []
    assert any("lasso: starting row r1 skipped" in d for d in res.diagnostics)
    recorded = res.aggregations["mw"] + res.aggregations["lasso"]
    assert len(separated) == len(recorded) == 1
    assert separated[0] is recorded[0]


def _repeating_instance():
    """One row whose bad column x no other row can cancel: the reweighted
    lasso re-solve returns the first solve's factors, and the row's cut
    z + w - x <= 1 is violated by 0.5 at the point."""
    inst = MilpInstance(
        "repeat",
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("z", INTEGER, 0.0, 3.0),
         Variable("w", INTEGER, 0.0, 3.0)],
        [Row("r1", {"x": -1.0, "z": 2.0, "w": 2.0}, 3.0)],
    )
    return inst, np.array([0.0, 0.75, 0.75])


def _corpus_cases():
    cases = []
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        cases.append((inst, parse_solution_file(sol, inst)))
    return cases


def test_no_repeated_lasso_aggregation_and_each_is_separated_once(monkeypatch):
    separate = aggsep.harness.separate_on_aggregation
    separated = []

    def counting(agg, *args, **kwargs):
        cut = separate(agg, *args, **kwargs)
        separated.append((agg, cut))
        return cut

    monkeypatch.setattr(aggsep.harness, "separate_on_aggregation", counting)

    def lasso_aggregations(inst, point):
        separated.clear()
        res = run_separation(inst, point, RunConfig(start_policy=POLICY_ALL))
        emitted = res.aggregations["mw"] + res.aggregations["lasso"]
        assert len(separated) == len(emitted)
        assert all(got is want for (got, _), want in zip(separated, emitted))
        cuts = [cut for _, cut in separated if cut is not None]
        assert len(res.cuts) == len(cuts)
        assert all(got is want for got, want in zip(res.cuts, cuts))
        lasso = res.aggregations["lasso"]
        for prev, agg in zip(lasso, lasso[1:]):
            assert (agg.starting_row, agg.factors) != (prev.starting_row, prev.factors)
        return lasso

    assert len(lasso_aggregations(*_repeating_instance())) == 1
    longest = 0  # the most lasso aggregations of one corpus starting row
    for case in _corpus_cases():
        per_row = collections.Counter(agg.starting_row for agg in lasso_aggregations(*case))
        longest = max([longest, *per_row.values()])
    assert longest >= 2  # a rule that stopped after every first solve gives 1


def _corpus_runs():
    for inst, point in _corpus_cases():
        yield run_separation(inst, point, RunConfig(algorithm="both", start_policy=POLICY_ALL))


# sha256[:16] of the corpus's write_cuts + format_metrics texts, and its cut
# count.  A change that alters these bytes on purpose updates both and says why.
CORPUS_DIGEST = ("732497ee28c3f912", 26)


def test_corpus_output_bytes_pinned():
    text, n_cuts = "", 0
    for res in _corpus_runs():
        buf = io.StringIO()
        write_cuts(res.cuts, buf)
        text += buf.getvalue() + format_metrics(res.metrics)
        n_cuts += len(res.cuts)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], n_cuts) == CORPUS_DIGEST


# The corpus's distinct cuts, as the corpus-distinct line of
# tools/output_digest.py: per instance, the cut records without their names,
# first occurrences only, one a line, and a blank line after the instance;
# sha256[:16] and the count.  Dropping or renaming repeated cuts keeps it;
# any other change to what is cut does not.
CORPUS_DISTINCT_DIGEST = ("8a12adb0f7fbfb47", 26)


def test_corpus_distinct_cuts_pinned():
    text, n_cuts = "", 0
    for res in _corpus_runs():
        records = []
        for cut in res.cuts:
            record = cut_to_dict(cut)
            del record["name"]
            records.append(json.dumps(record))
        distinct = list(dict.fromkeys(records))
        text += "".join(r + "\n" for r in distinct) + "\n"
        n_cuts += len(distinct)
    assert (hashlib.sha256(text.encode()).hexdigest()[:16], n_cuts) == CORPUS_DISTINCT_DIGEST


# The lines of tools/output_digest.py (name, sha256[:16], count) that hold at
# 1 and 2 BLAS threads: planted-point's and wide-sparse's output bytes and
# distinct cuts, and relax-point's relaxation objectives and final bases.
# relax-point's cut lines follow the relaxation point, whose last bits can
# move with the thread count, and are not pinned.
WORKLOAD_DIGESTS = {
    "planted-point": ("fb9623d6efd4c73d", 9),
    "planted-point-distinct": ("16dda067eafd91fd", 9),
    "relax-point-objective": ("8b3e330e91e42212", 12),
    "relax-point-basis": ("97272874d629bf7b", 12),
    "wide-sparse": ("9cd1acee8ace91f0", 9),
    "wide-sparse-distinct": ("a98904b6d3847f32", 9),
}


def test_workload_output_bytes_pinned():
    # in a subprocess: the tool holds BLAS at one thread, which only acts
    # before numpy is first imported
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    out = subprocess.run([sys.executable, os.path.join(root, "tools", "output_digest.py")],
                         cwd=root, capture_output=True, text=True, check=True).stdout
    lines = {name: (digest, int(n)) for name, digest, n in map(str.split, out.splitlines())}
    assert {name: lines.get(name) for name in WORKLOAD_DIGESTS} == WORKLOAD_DIGESTS
