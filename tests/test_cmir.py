import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aggsep import cmir
from aggsep.aggregate import AggregationResult
from aggsep.cmir import (
    MixedKnapsackRow,
    bound_substitute,
    cmir_inequality,
    delta_candidates,
    g_function,
    proximity_partition,
    select_partition_and_delta,
    separate_on_aggregation,
)
from aggsep.errors import ContractViolation, DegenerateCutError
from aggsep.instance import CONTINUOUS, INTEGER, MilpInstance, Row, Variable
from aggsep.mpsio import parse_mps_file, parse_solution
from aggsep.preprocess import preprocess

from helpers import (
    OracleRefusedError,
    corpus_paths,
    random_knapsack_row,
    reference_bound_substitute,
    reference_map_back,
    reference_select,
    substitution_kind,
    validate_cut_bruteforce,
)


def _knap(a, u, b, zbar=None, sbar=0.0):
    a = np.asarray(a, dtype=float)
    u = np.asarray(u, dtype=float)
    if zbar is None:
        zbar = np.zeros(len(a))
    return MixedKnapsackRow(
        a=a, u=u, b=float(b), int_vars=tuple(range(len(a))),
        int_shift=np.zeros(len(a)), slack_vars=np.zeros(0, dtype=np.int64),
        slack_mult=np.zeros(0), substitution=None,
        zbar=np.asarray(zbar, dtype=float), sbar=float(sbar),
    )


def test_g_function_values():
    assert g_function(3.0, 0.4) == 3.0
    assert g_function(2.5, 0.7) == 2.0
    assert g_function(2.9, 0.7) == pytest.approx(2.0 + 0.2 / 0.3)
    with pytest.raises(ContractViolation):
        g_function(1.0, 1.0)


def test_g_function_grid_properties():
    rng = np.random.default_rng(0)
    d = rng.uniform(-10, 10, size=100)
    f = rng.uniform(0.01, 0.99, size=100)
    for fi in f:
        for di in d:
            g = g_function(di, fi)
            assert g <= di + 1e-12
            assert g_function(di + 1.0, fi) == pytest.approx(g + 1.0, abs=1e-12)
            assert g_function(di + 0.5, fi) >= g - 1e-12  # nondecreasing


def test_cmir_t_partition_derived():
    k = _knap([2.5], [3], 3.7, zbar=[1.6])
    cut = cmir_inequality(k, (0,), (), 1.0)
    assert cut.beta == pytest.approx(3.7)
    assert cut.f == pytest.approx(0.7)
    assert cut.z_coefs == pytest.approx([2.0])
    assert cut.rhs_knapsack == pytest.approx(3.0)
    assert cut.s_coef == pytest.approx(1.0 / 0.3)
    assert validate_cut_bruteforce(cut, k)
    assert cut.violation == pytest.approx(0.2, abs=1e-12)


def test_cmir_u_partition_derived():
    k = _knap([2.5], [3], 3.7, zbar=[1.6])
    cut = cmir_inequality(k, (), (0,), 1.0)
    assert cut.beta == pytest.approx(-3.8)
    assert cut.f == pytest.approx(0.2)
    # G(-2.5) = -2.625; cut -2.625 (3 - z) <= -4 + s / 0.8
    assert cut.z_coefs == pytest.approx([2.625])
    assert cut.rhs_knapsack == pytest.approx(3.875)
    assert cut.s_coef == pytest.approx(1.25)
    assert validate_cut_bruteforce(cut, k)
    assert cut.violation == pytest.approx(0.325, abs=1e-12)


def test_cmir_degenerate_f_rejected():
    k = _knap([1.0], [3], 2.0)
    with pytest.raises(DegenerateCutError):
        cmir_inequality(k, (0,), (), 1.0)


def test_cmir_partition_validated():
    k = _knap([1.0, 1.0], [2, 2], 2.5)
    with pytest.raises(ContractViolation):
        cmir_inequality(k, (0,), (), 1.0)  # position 1 unassigned
    with pytest.raises(ContractViolation):
        cmir_inequality(k, (0, 1), (1,), 1.0)
    with pytest.raises(ContractViolation):
        cmir_inequality(k, (0, 1), (), 0.0)


def _mir_closed_form(a, u, b):
    f = b - math.floor(b)
    coefs = np.array(
        [math.floor(aj) + max((aj - math.floor(aj)) - f, 0.0) / (1.0 - f) for aj in a]
    )
    return coefs, math.floor(b), 1.0 / (1.0 - f)


def test_mir_specialization_matches_closed_form():
    rng = np.random.default_rng(3)
    done = 0
    while done < 100:
        k = random_knapsack_row(rng)
        f = k.b - math.floor(k.b)
        if min(f, 1.0 - f) < 1e-6:
            continue
        cut = cmir_inequality(k, tuple(range(k.q)), (), 1.0)
        coefs, rhs, scoef = _mir_closed_form(k.a, k.u, k.b)
        assert np.max(np.abs(cut.z_coefs - coefs)) <= 1e-12
        assert abs(cut.rhs_knapsack - rhs) <= 1e-12
        assert abs(cut.s_coef - scoef) <= 1e-12
        done += 1


def test_proximity_partition():
    k = _knap([1.0, 1.0, 1.0], [3, 3, 2], 4.5, zbar=[1.0, 2.0, 2.0])
    T, U = proximity_partition(k)
    assert T == (0,)  # 1.0 closer to 0; 1.5 tie also goes to T
    assert U == (1, 2)  # 2.0 of 3 closer to upper; 2.0 at upper bound
    k2 = _knap([1.0], [3], 2.0, zbar=[1.5])
    assert proximity_partition(k2) == ((0,), ())  # equidistant -> T


def test_delta_candidates():
    k = _knap([2.5, 3.0], [3, 3], 3.7, zbar=[1.6, 2.0])
    cands = delta_candidates(k)
    assert cands[0] == 1.0
    assert set(cands) == {1.0, 0.5, 0.25, 2.5, 1.25, 0.625}
    # |a| = 2, 1 and 0.5 repeat 1, 1/2 and 1/4; 3 sits at an integer
    k = _knap([2.0, -1.0, 0.5, 3.0], [3, 3, 3, 3], 3.7, zbar=[0.5, 1.5, 0.25, 1.0])
    assert delta_candidates(k).tolist() == [1.0, 0.5, 0.25, 2.0, 0.125]


def test_delta_candidates_keep_first_occurrence_order():
    rng = np.random.default_rng(3)
    repeated = 0
    for _ in range(200):
        k = random_knapsack_row(rng, max_q=12)
        k.a = np.round(k.a)  # small integers, so that many |a_j|/2^i coincide
        k.a[k.a == 0] = 1.0
        ref = []
        for v in [1.0] + np.abs(k.a[k.fractional]).tolist():
            for d in (v, v / 2.0, v / 4.0):
                if d not in ref:
                    ref.append(d)
        got = delta_candidates(k)
        assert got.dtype == np.float64 and got.tolist() == ref
        repeated += 3 * (1 + int(k.fractional.sum())) - len(ref)
    assert repeated > 200


def test_running_sum_adds_left_to_right():
    # 0 + 1e16 + 1 rounds back to 1e16, so the sum is 0, not the exact 1
    terms = np.array([1e16, 1.0, -1e16])
    assert cmir._running_sum(0.0, terms) == 0.0 != math.fsum(terms)
    rng = np.random.default_rng(11)
    for n in range(60):
        start = float(rng.normal() * 10.0 ** rng.integers(-3, 17))
        terms = rng.normal(size=n % 20) * 10.0 ** rng.integers(-3, 17, size=n % 20)
        expected = start
        for t in terms.tolist():
            expected += t
        assert cmir._running_sum(start, terms).hex() == expected.hex()


def test_select_partition_and_delta_derived():
    k = _knap([2.5], [3], 3.7, zbar=[1.6])
    cut = select_partition_and_delta(k)
    # zbar = 1.6 > u - zbar = 1.4, so the position is complemented; the
    # violation search then prefers delta = |a|/10 scaling
    assert cut.partition_u == (0,)
    assert cut.delta == pytest.approx(0.25)
    assert cut.z_coefs == pytest.approx([10.0])
    assert cut.rhs_knapsack == pytest.approx(14.0)
    assert cut.violation == pytest.approx(2.0)
    assert validate_cut_bruteforce(cut, k)


def test_select_no_fractionality_no_cut():
    k = _knap([2.0], [3], 2.0, zbar=[1.0], sbar=5.0)
    assert select_partition_and_delta(k) is None


def test_select_tie_keeps_the_earlier_delta():
    # the candidates are 1, 1/2, 1/4, 4, 2; delta = 4 and delta = 2 give
    # different cuts with the same violation, and the earlier one wins
    k = _knap([4.0, 2.0], [2, 3], 7.5, zbar=[1.25, 0.75])
    assert delta_candidates(k).tolist() == [1.0, 0.5, 0.25, 4.0, 2.0]
    tied = [cmir_inequality(k, (1,), (0,), delta) for delta in (4.0, 2.0)]
    assert tied[0].violation == tied[1].violation == 0.25
    assert tied[0].z_coefs.tolist() != tied[1].z_coefs.tolist()
    cut = select_partition_and_delta(k)
    assert cut.delta == reference_select(k).delta == 4.0
    assert cut.z_coefs.tobytes() == tied[0].z_coefs.tobytes()


def _equivalence_row(rng, case):
    """A random row; cases 1-3 give integral points, all-degenerate and near-zero f."""
    k = random_knapsack_row(rng, max_q=120, max_u=5)
    if case == 1:  # no fractional position: only delta in {1, 1/2, 1/4}
        k.zbar = np.round(k.zbar)
        k.sbar = max(0.0, float(k.a @ k.zbar - k.b))
    elif case == 2:  # unit coefficients and integral b: every delta degenerate
        k.a = np.where(k.a < 0, -1.0, 1.0)
        k.b = float(np.round(k.b))
    elif case == 3:  # integral coefficients: some deltas degenerate, some not
        k.a = np.round(k.a)
        k.a[k.a == 0] = 2.0
        k.b = float(np.round(k.b))
    return k


def test_select_matches_reference_loop(monkeypatch):
    rng = np.random.default_rng(17)
    outcomes = {"cut": 0, "below_threshold": 0, "all_degenerate": 0}
    for i in range(240):
        k = _equivalence_row(rng, i % 4)
        # threshold -inf exposes the best cut even when it is not violated
        ref = reference_select(k, -np.inf)
        with monkeypatch.context() as m:
            m.setattr(cmir, "VIOLATION_THRESHOLD", -np.inf)
            got = select_partition_and_delta(k)
        assert (got is None) == (ref is None), i
        if ref is None:
            outcomes["all_degenerate"] += 1
            continue
        assert got.delta == ref.delta, i
        assert got.partition_t == ref.partition_t
        assert got.partition_u == ref.partition_u
        assert got.z_coefs.tobytes() == ref.z_coefs.tobytes(), i
        assert got.rhs_knapsack == ref.rhs_knapsack, i
        assert got.s_coef == ref.s_coef, i
        assert got.violation == ref.violation, i
        cut = select_partition_and_delta(k)
        assert (cut is None) == (ref.violation <= 1e-4), i
        outcomes["below_threshold" if cut is None else "cut"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def test_select_builds_only_the_cut_it_returns(monkeypatch):
    """The search calls cmir_inequality once when it returns a cut, and
    never for a winner below the threshold or when every delta is degenerate."""
    built = []

    def counting(*args):
        cut = cmir_inequality(*args)
        built.append(cut)
        return cut

    monkeypatch.setattr(cmir, "cmir_inequality", counting)
    rng = np.random.default_rng(17)
    outcomes = {"cut": 0, "below_threshold": 0, "all_degenerate": 0}
    for i in range(240):
        k = _equivalence_row(rng, i % 4)
        ref = reference_select(k, -np.inf)
        del built[:]
        cut = select_partition_and_delta(k)
        if cut is None:
            assert built == [], i
            outcomes["all_degenerate" if ref is None else "below_threshold"] += 1
        else:
            assert built == [cut], i
            assert cut.violation > cmir.VIOLATION_THRESHOLD
            outcomes["cut"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def _corpus_knapsack_rows(monkeypatch):
    """Every knapsack row the c-MIR search sees in a corpus separation."""
    from aggsep.harness import POLICY_ALL, RunConfig, run_separation

    rows = []
    search = cmir.select_partition_and_delta

    def recording(k):
        rows.append(k)
        return search(k)

    with monkeypatch.context() as m:
        m.setattr(cmir, "select_partition_and_delta", recording)
        for mps, sol in corpus_paths():
            inst = parse_mps_file(mps)
            with open(sol) as fh:
                point = parse_solution(fh, inst)
            run_separation(inst, point, RunConfig(algorithm="both", start_policy=POLICY_ALL))
    return rows


def test_score_entries_do_not_depend_on_the_batch(monkeypatch):
    """Each delta's _score entries are the same bits alone as in the batch
    of all candidates: the search's skip of a below-threshold winner, and
    the violation of the cut it builds, rest on this."""
    rng = np.random.default_rng(29)
    rows = [_equivalence_row(rng, i % 4) for i in range(160)]
    corpus = _corpus_knapsack_rows(monkeypatch)
    assert len(corpus) >= 20
    rows += corpus
    rows.append(_knap([4.0, 2.0], [2, 3], 7.5, zbar=[1.25, 0.75]))  # the tie case
    names = ("beta", "f", "live", "z", "rhs", "s_coef", "violation")
    checked = 0
    for r, k in enumerate(rows):
        _, U = proximity_partition(k)
        deltas = delta_candidates(k)
        batch = cmir._score(k, U, deltas)
        for i in range(len(deltas)):
            alone = cmir._score(k, U, deltas[i:i + 1])
            for name, many, one in zip(names, batch, alone):
                assert many[i:i + 1].tobytes() == one.tobytes(), (r, i, name)
            checked += 1
    assert checked >= 1000, checked


def test_bound_substitute_simple_upper():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 4.0), Variable("z", INTEGER, 0.0, 3.0)],
        [Row("r", {"x": 2.0, "z": 3.0}, 10.0)],
    )
    ctx = preprocess(inst, np.array([3.5, 0.5]))
    agg = AggregationResult(
        factors={0: 1.0}, alpha=inst.matrix[0].copy(), beta=10.0,
        used_rows=(0,), eliminated=(), residual_bad=(0,),
        algorithm="mw", starting_row=0,
    )
    k = bound_substitute(agg, ctx)
    # xbar = 3.5 sits nearest the upper bound: x = 4 - y gives
    # 3z <= 2 + s with s = 2y
    assert k.a == pytest.approx([3.0])
    assert k.b == pytest.approx(2.0)
    assert k.slack_vars.tolist() == [0]
    assert k.slack_mult.tolist() == [2.0]
    assert substitution_kind(k.substitution, 0) == "upper"
    assert k.sbar == pytest.approx(2.0 * (4.0 - 3.5))


def test_bound_substitute_implied_bound():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 100.0), Variable("z", INTEGER, 0.0, 3.0)],
        [
            Row("b", {"x": 1.0, "z": -3.0}, 0.0),
            Row("r", {"x": 1.0, "z": 1.0}, 5.0),
        ],
    )
    ctx = preprocess(inst, np.array([1.0, 0.5]))
    agg = AggregationResult(
        factors={1: 1.0}, alpha=inst.matrix[1].copy(), beta=5.0,
        used_rows=(1,), eliminated=(), residual_bad=(0,),
        algorithm="mw", starting_row=1,
    )
    k = bound_substitute(agg, ctx)
    # x <= 0 + 3z substitutes x = 3z - y: coefficient 3 migrates onto z
    assert k.int_vars == (1,)
    assert k.a == pytest.approx([4.0])  # 1 (own) + 3 (migrated)
    sub = k.substitution
    assert k.slack_vars.tolist() == [0] and substitution_kind(sub, 0) == "implied"
    # y = 0 + 3z - x
    assert (sub.slack_const[0], sub.int_var[0], sub.int_coef[0], sub.slack_sign[0]) == (
        0.0, 1, 3.0, -1.0)


def test_bound_substitute_lower_bound_branch():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, 0.0, 100.0), Variable("z", INTEGER, 0.0, 3.0)],
        [Row("r", {"x": 1.0, "z": 1.0}, 5.0)],
    )
    ctx = preprocess(inst, np.array([1.0, 0.5]))
    agg = AggregationResult(
        factors={0: 1.0}, alpha=inst.matrix[0].copy(), beta=5.0,
        used_rows=(0,), eliminated=(), residual_bad=(0,),
        algorithm="mw", starting_row=0,
    )
    k = bound_substitute(agg, ctx)
    # xbar = 1 is far closer to the lower bound 0 than to the upper 100
    assert substitution_kind(k.substitution, k.slack_vars[0]) == "lower"
    assert k.a == pytest.approx([1.0])
    assert k.b == pytest.approx(5.0)


def test_bound_substitute_missing_bound_returns_none():
    inst = MilpInstance(
        "t",
        [Variable("x", CONTINUOUS, -math.inf, math.inf),
         Variable("y", CONTINUOUS, 0.0, 1.0),
         Variable("z", INTEGER, 0.0, 3.0)],
        [Row("r", {"x": 1.0, "y": 1.0, "z": 1.0}, 5.0)],
    )
    ctx = preprocess(inst, np.array([1.0, 0.5, 0.5]))
    agg = AggregationResult(
        factors={0: 1.0}, alpha=inst.matrix[0].copy(), beta=5.0,
        used_rows=(0,), eliminated=(), residual_bad=(0,),
        algorithm="mw", starting_row=0,
    )
    assert bound_substitute(agg, ctx) is None
    # an integer variable without a finite upper bound cannot be shifted
    inst = MilpInstance(
        "t",
        [Variable("y", CONTINUOUS, 0.0, 1.0), Variable("z", INTEGER, 0.0, math.inf)],
        [Row("r", {"y": 1.0, "z": 1.0}, 5.0)],
    )
    ctx = preprocess(inst, np.array([0.5, 0.5]))
    agg.alpha = inst.matrix[0].copy()
    assert bound_substitute(agg, ctx) is None


def _assert_substitution_matches_reference(agg, ctx, kinds):
    """bound_substitute and the map-back of the row's first cut equal the
    reference loops bit for bit; returns the cut, or None."""
    got = bound_substitute(agg, ctx)
    ref = reference_bound_substitute(agg, ctx)
    assert (got is None) == (ref is None)
    if ref is None:
        return None
    for name in ("a", "u", "int_shift", "zbar"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert (got.b, got.sbar, got.int_vars) == (ref.b, ref.sbar, ref.int_vars)
    for name in ("slack_vars", "slack_mult"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    sub = got.substitution
    for j, (kind, const, terms) in zip(got.slack_vars.tolist(), ref.slack_forms):
        form = [(j, sub.slack_sign[j])]
        if sub.int_var[j] >= 0:
            form.insert(0, (int(sub.int_var[j]), sub.int_coef[j]))
        assert (substitution_kind(sub, j), sub.slack_const[j], form) == (kind, const, terms)
        kinds[kind] += 1
    cut = _first_cut(got)
    if cut is not None:
        coefs, rhs = reference_map_back(cut, ref)
        assert list(cut.coefficients) == sorted(coefs)
        assert (np.array(list(cut.coefficients.values())).tobytes()
                == np.array([coefs[j] for j in sorted(coefs)]).tobytes())
        assert cut.rhs == rhs
    return cut


def test_bound_substitute_matches_reference_loop():
    """Array bound substitution equals the per-variable loop, bit for bit,
    and so does the map-back of a cut built on its row.

    Aggregations are random nonnegative combinations of one to three corpus
    rows, at the corpus point and at random points of the box, on each
    corpus instance and on a copy with lower integer bounds.
    """
    from types import SimpleNamespace

    rng = np.random.default_rng(23)
    kinds = {"lower": 0, "upper": 0, "implied": 0}
    mapped = 0
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        with open(sol) as fh:
            points = [parse_solution(fh, inst)]
        lo = np.where(np.isfinite(inst.lower), inst.lower, -5.0)
        hi = np.where(np.isfinite(inst.upper), inst.upper, lo + 10.0)
        points += [rng.uniform(lo, hi) for _ in range(3)]
        # the same rows with the integer lower bounds moved down by 2, so
        # that the knapsack's shifts and the cut's integer terms are nonzero
        lowered = MilpInstance(inst.name, [
            Variable(v.name, v.kind, v.lower - 2.0 * v.is_integer, v.upper, v.objective)
            for v in inst.variables], inst.rows)
        for model, point in [(m, p) for m in (inst, lowered) for p in points]:
            ctx = preprocess(model, point)
            for _ in range(30):
                rows = rng.choice(inst.n_rows, size=int(rng.integers(1, 4)), replace=False)
                lam = rng.uniform(0.1, 3.0, size=len(rows))
                agg = SimpleNamespace(alpha=lam @ inst.matrix[rows],
                                      beta=float(lam @ inst.rhs[rows]))
                mapped += _assert_substitution_matches_reference(agg, ctx, kinds) is not None
    assert min(kinds.values()) > 0, kinds
    assert mapped > 0


def test_implied_bound_migrations_summing_to_zero_match_reference_loop():
    """Several implied-bound migrations onto one integer z that cancel.

    x1 <= z, x2 <= -z and x3 <= z move alpha_x1, -alpha_x2 and
    alpha_x3 onto z, after z's own entry.  Where they cancel, z leaves the
    knapsack, and with positive alphas the map-back's z terms -s*alpha_x1,
    +s*alpha_x2 and -s*alpha_x3 (s the cut's slack scale) cancel too.
    With 1e16 entries only the row's own order gives 0: z's own 1 is
    absorbed by 1e16 before -1e16 cancels it (adding the 1 last keeps 1).
    """
    from types import SimpleNamespace

    inst = MilpInstance("migrate", [
        Variable("z", INTEGER, 0.0, 3.0), Variable("w", INTEGER, 0.0, 3.0),
        Variable("x1", CONTINUOUS, 0.0, 100.0), Variable("x2", CONTINUOUS, -100.0, 100.0),
        Variable("x3", CONTINUOUS, 0.0, 100.0),
    ], [
        Row("b1", {"x1": 1.0, "z": -1.0}, 0.0),
        Row("b2", {"x2": 1.0, "z": 1.0}, 0.0),
        Row("b3", {"x3": 1.0, "z": -1.0}, 0.0),
    ])
    ctx = preprocess(inst, np.array([0.5, 1.5, 0.45, -0.55, 0.4]))
    assert ctx.substitution.int_var[2:].tolist() == [0, 0, 0]  # all three implied
    kinds = {"lower": 0, "upper": 0, "implied": 0}
    for alpha in ([0.0, 1.0, 1.0, 1.0, 0.0],  # 1 - 1 = 0
                  [0.0, 1.0, 1.0, 2.0, 1.0],  # 1 - 2 + 1 = 0
                  [1.0, 1.0, 1e16, 1e16, 0.0],  # (1 + 1e16) - 1e16 = 0
                  [1.0, 1.0, 1e16, 2e16, 1e16]):  # ((1 + 1e16) - 2e16) + 1e16 = 0
        agg = SimpleNamespace(alpha=np.array(alpha), beta=3.5)
        cut = _assert_substitution_matches_reference(agg, ctx, kinds)
        assert bound_substitute(agg, ctx).int_vars == (1,)  # z cancelled, w left
        assert cut is not None and 0 not in cut.coefficients
    assert kinds["implied"] >= 10


def _first_cut(k):
    """The proximity-partition cut of the first non-degenerate delta, or None."""
    if k.q == 0:
        return None
    T, U = proximity_partition(k)
    for delta in delta_candidates(k):
        try:
            return cmir_inequality(k, T, U, delta)
        except DegenerateCutError:
            continue
    return None


def test_validate_oracle_rejects_corrupted_cut():
    k = _knap([2.5], [3], 3.7, zbar=[1.6])
    cut = cmir_inequality(k, (), (0,), 1.0)
    assert validate_cut_bruteforce(cut, k)
    cut.rhs_knapsack -= 1.0
    # at z = 2 the corrupted cut reads 5.25 <= 2.875 + 1.25 * 1.3
    assert not validate_cut_bruteforce(cut, k)


def test_validate_oracle_accepts_base_row_as_cut():
    # the degenerate f = 0 case reduces to the scaled base row, which is
    # trivially valid; feed it to the oracle directly
    k = _knap([2.0, 1.0], [3, 3], 4.0)
    from aggsep.cmir import CmirCut

    cut = CmirCut(
        partition_t=(0, 1), partition_u=(), delta=1.0, beta=4.0, f=0.0,
        z_coefs=np.array([2.0, 1.0]), rhs_knapsack=4.0, s_coef=1.0,
    )
    assert validate_cut_bruteforce(cut, k)


def test_validate_oracle_box_limit():
    k = _knap([1.0] * 6, [100] * 6, 3.5)
    cut = cmir_inequality(k, tuple(range(6)), (), 1.0)
    with pytest.raises(OracleRefusedError):
        validate_cut_bruteforce(cut, k)


def test_violation_consistency_mapped_back(example1, example1_ctx):
    from aggsep.lasso import lasso_aggregate

    # drive a full separation at a fractional interior point
    point = np.array([0.5, 1.0, 1.0, 0.7])
    ctx = preprocess(example1, point)
    if ctx.nothing_to_do:
        pytest.skip("no bad variables at this point")
    for i0 in ctx.useful_rows:
        for agg in lasso_aggregate(ctx, int(i0)):
            k = bound_substitute(agg, ctx)
            if k is None or k.q == 0:
                continue
            cut = select_partition_and_delta(k)
            if cut is None:
                continue
            coefs = np.zeros(example1.n_vars)
            for j, c in cut.coefficients.items():
                coefs[j] = c
            assert float(coefs @ point) - cut.rhs == pytest.approx(
                cut.violation, abs=1e-9
            )


def test_violation_in_original_space_on_corpus():
    """Each corpus cut, read over the original variables, has its reported violation.

    The continuous coefficients come from the slack terms of bound
    substitution, so a cut with one checks the sign of that map-back.
    """
    from aggsep.harness import POLICY_ALL, RunConfig, run_separation

    n_cuts = n_continuous = 0
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        with open(sol) as fh:
            point = parse_solution(fh, inst)
        result = run_separation(inst, point, RunConfig(algorithm="both", start_policy=POLICY_ALL))
        for cut in result.cuts:
            cols = [inst.var_index[v] for v in cut.coefficients]
            lhs = float(np.array(list(cut.coefficients.values())) @ point[cols])
            assert abs(lhs - cut.rhs - cut.violation) <= 1e-9 * (1.0 + abs(cut.rhs)), cut.name
            n_cuts += 1
            n_continuous += any(not inst.variables[j].is_integer for j in cols)
    assert n_cuts > 0
    assert n_continuous >= 1


def test_separate_on_aggregation_empty_cases(example1_ctx):
    agg = AggregationResult(
        factors={0: 1.0}, alpha=example1_ctx.instance.matrix[0].copy(), beta=1.0,
        used_rows=(0,), eliminated=(), residual_bad=(1, 2),
        algorithm="mw", starting_row=0,
    )
    # at xbar = 0 every integer variable is integral: no cut attempted
    assert separate_on_aggregation(agg, example1_ctx, "mw_1") is None


def test_random_cuts_all_valid():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(60):
        k = random_knapsack_row(rng, max_q=4, max_u=4)
        T, U = proximity_partition(k)
        for delta in delta_candidates(k):
            try:
                cut = cmir_inequality(k, T, U, delta)
            except DegenerateCutError:
                continue
            assert validate_cut_bruteforce(cut, k), (
                "invalid cut for a=%r u=%r b=%r delta=%r" % (k.a, k.u, k.b, delta)
            )
            checked += 1
    assert checked > 50


CORPUS_RULED_OUT = 68  # corpus aggregations _cannot_cut rules out
CORPUS_AGGREGATIONS = 112


def _rule_is_sound(agg, ctx):
    """Whether ``_cannot_cut`` rules the aggregation out; where it does, no
    live delta candidate of the proximity partition, of U empty or of U
    every position scores above the threshold."""
    if not cmir._cannot_cut(agg, ctx):
        return False
    k = bound_substitute(agg, ctx)
    if k is not None and k.q:
        deltas = delta_candidates(k)
        for U in (proximity_partition(k)[1], (), tuple(range(k.q))):
            _, _, live, _, _, _, violation = cmir._score(k, U, deltas)
            over = live & (violation > cmir.VIOLATION_THRESHOLD)
            assert not over.any(), (U, deltas[over], violation[over])
    return True


def test_cannot_cut_is_sound_on_corpus_aggregations():
    """Every corpus aggregation, both algorithms, every useful start row at
    the bundled point: the rule never rules out a cut, and it rules out a
    pinned number of aggregations (a rule that never fires fails here)."""
    from aggsep.harness import POLICY_ALL, RunConfig, run_separation

    fired = total = 0
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        with open(sol) as fh:
            point = parse_solution(fh, inst)
        ctx = preprocess(inst, point)
        result = run_separation(inst, point, RunConfig(algorithm="both", start_policy=POLICY_ALL))
        for aggs in result.aggregations.values():
            for agg in aggs:
                fired += _rule_is_sound(agg, ctx)
                total += 1
    assert (fired, total) == (CORPUS_RULED_OUT, CORPUS_AGGREGATIONS)


def test_cannot_cut_is_sound_on_random_combinations():
    """Seeded lambda >= 0 over one to three corpus rows, at the bundled point,
    at points inside the box and at points up to 2 outside it, so that both
    bounds and rows are violated at some of them."""
    rng = np.random.default_rng(41)
    fired = outside = violated = 0
    for mps, sol in corpus_paths():
        inst = parse_mps_file(mps)
        with open(sol) as fh:
            points = [parse_solution(fh, inst)]
        lo = np.where(np.isfinite(inst.lower), inst.lower, -5.0)
        hi = np.where(np.isfinite(inst.upper), inst.upper, lo + 10.0)
        points += [rng.uniform(lo, hi) for _ in range(2)]
        points += [rng.uniform(lo - 2.0, hi + 2.0) for _ in range(2)]
        for point in points:
            ctx = preprocess(inst, point)
            for _ in range(40):
                rows = rng.choice(inst.n_rows, size=int(rng.integers(1, 4)), replace=False)
                lam = rng.uniform(0.1, 3.0, size=len(rows))
                agg = AggregationResult(
                    factors=dict(zip(rows.tolist(), lam.tolist())), alpha=lam @ inst.matrix[rows],
                    beta=float(lam @ inst.rhs[rows]), used_rows=tuple(rows.tolist()),
                    eliminated=(), residual_bad=(), algorithm="mw", starting_row=int(rows[0]),
                )
                hit = _rule_is_sound(agg, ctx)
                fired += hit
                outside += hit and bool(np.any((point < inst.lower) | (point > inst.upper)))
                violated += hit and agg.beta < agg.alpha @ point
    assert fired > 0 and outside > 0 and violated > 0, (fired, outside, violated)


@st.composite
def _implied_bound_rows(draw):
    """A small instance whose continuous variables have implied bounds
    x_j <= c_j + d_j z_k, a drawn row over all its variables and a point
    near those bounds, some of it outside the box."""
    q = draw(st.integers(1, 3))
    nc = draw(st.integers(1, 3))
    coef = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0])
    ints = [Variable("z%d" % i, INTEGER, float(draw(st.integers(-2, 1))),
                     float(draw(st.integers(2, 5)))) for i in range(q)]
    conts = [Variable("x%d" % j, CONTINUOUS, 0.0, 100.0) for j in range(nc)]
    zbar = [draw(st.floats(v.lower - 0.5, v.upper + 0.5)) for v in ints]
    rows, xbar = [], []
    for j in range(nc):
        k = draw(st.integers(0, q - 1))
        d = draw(st.sampled_from([1.0, 2.0, 4.0]))
        c = draw(st.sampled_from([0.0, 1.0, 3.0]))
        rows.append(Row("vb%d" % j, {"x%d" % j: 1.0, "z%d" % k: -d}, c))  # x_j <= c + d z_k
        xbar.append(c + d * zbar[k] - draw(st.floats(-0.5, 3.0)))
    inst = MilpInstance("h", ints + conts, rows)
    point = np.array(zbar + xbar)
    alpha = np.array([draw(coef) for _ in range(q + nc)])
    beta = float(alpha @ point) + draw(st.floats(-1.0, 8.0))
    return inst, point, alpha, beta


@given(_implied_bound_rows())
@settings(max_examples=300, deadline=None)
def test_cannot_cut_is_sound_on_drawn_rows_with_implied_bounds(case):
    inst, point, alpha, beta = case
    agg = AggregationResult(
        factors={}, alpha=alpha, beta=beta, used_rows=(), eliminated=(),
        residual_bad=(), algorithm="mw", starting_row=0,
    )
    _rule_is_sound(agg, preprocess(inst, point))


# Each guard of ``_cannot_cut``, failing alone: the others hold and
# sigma + sbar >= D, yet the search emits a cut, so a rule without that
# guard would skip it.  (variables, row, point, sigma, sbar, D)
GUARD_CASES = {
    # the point lies below its integer's lower bound
    "zbar-below-lower": ([Variable("z", INTEGER, 0.0, 3.0)], {"z": -0.5}, 1.8, [-1.4],
                         1.1, 0.0, 1.0),
    # the point lies above its integer's upper bound
    "zbar-above-upper": ([Variable("z", INTEGER, 0.0, 2.0)], {"z": -0.5}, -1.3, [5.4],
                         1.4, 0.0, 1.0),
    # the row is violated at the point: sigma < 0
    "sigma-negative": ([Variable("z", INTEGER, 0.0, 3.0), Variable("y", CONTINUOUS, 0.0, 10.0)],
                       {"z": 1.0, "y": -2.0}, -1.2, [1.8, 1.2], -0.6, 2.4, 1.0),
    # y lies below its lower bound 0, so its slack is negative: sbar < 0
    "sbar-negative": ([Variable("z", INTEGER, 0.0, 10.0), Variable("y", CONTINUOUS, 0.0, 100.0)],
                      {"z": 1.0, "y": -1.0}, 3.9, [0.5, -1.0], 2.4, -1.0, 1.0),
}


@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_each_cannot_cut_guard_is_needed(case):
    variables, coefs, beta, point, sigma, sbar, D = GUARD_CASES[case]
    inst = MilpInstance("g", variables, [Row("r", coefs, beta)])
    ctx = preprocess(inst, np.array(point))
    agg = AggregationResult(
        factors={0: 1.0}, alpha=inst.matrix[0].copy(), beta=beta, used_rows=(0,),
        eliminated=(), residual_bad=(), algorithm="mw", starting_row=0,
    )
    k = bound_substitute(agg, ctx)
    assert k.b + k.sbar - k.a @ k.zbar == pytest.approx(sigma)
    assert k.sbar == pytest.approx(sbar)
    assert max(1.0, np.abs(k.a).max()) == D and sigma + sbar >= D
    inside = bool(np.all((k.zbar >= 0) & (k.zbar <= k.u)))
    assert (inside, sigma >= 0, sbar >= 0).count(False) == 1
    assert not cmir._cannot_cut(agg, ctx)
    cut = separate_on_aggregation(agg, ctx, "c")
    assert cut is not None and cut.violation > cmir.VIOLATION_THRESHOLD
