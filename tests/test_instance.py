import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aggsep.errors import MalformedInstanceError, MpsParseError
from aggsep.instance import (
    CONTINUOUS,
    INTEGER,
    MilpInstance,
    Row,
    Variable,
    detect_variable_bounds,
)
from aggsep.mpsio import parse_mps, parse_mps_file

from helpers import corpus_paths, reference_variable_bounds, row_slack


def _one_row(sense, coefs, rhs):
    """The <= rows parse_mps makes of a single MPS row `r`."""
    cols = "".join(" %s r %r\n" % (v, c) for v, c in coefs.items())
    text = "ROWS\n N obj\n %s r\nCOLUMNS\n%sRHS\n rhs r %r\n" % (sense, cols, rhs)
    return parse_mps(io.StringIO(text)).rows


def test_normalize_geq_negated():
    rows = _one_row("G", {"x1": 1.0, "x2": 1.0}, 3.0)
    assert len(rows) == 1
    assert rows[0].coefficients == {"x1": -1.0, "x2": -1.0}
    assert rows[0].rhs == -3.0
    assert rows[0].name == "r"


def test_normalize_equality_split():
    rows = _one_row("E", {"x1": 1.0}, 2.0)
    assert len(rows) == 2
    pos, neg = rows
    assert pos.coefficients == {"x1": 1.0} and pos.rhs == 2.0
    assert neg.coefficients == {"x1": -1.0} and neg.rhs == -2.0
    assert pos.name == "r" and neg.name == "r_neg"


def test_normalize_leq_passthrough():
    coefs = {"x1": 1.0 / 3.0, "x2": 1.0, "x3": -2.0 / 3.0}
    rows = _one_row("L", coefs, 1.0)
    assert rows[0].coefficients == coefs
    assert list(rows[0].coefficients) == list(coefs)
    assert rows[0].rhs == 1.0


def test_normalize_drops_zeros_and_rejects_nonfinite():
    rows = _one_row("L", {"x1": 1.0, "x2": 1e-12}, 1.0)
    assert "x2" not in rows[0].coefficients
    with pytest.raises(MpsParseError):
        _one_row("L", {"x1": math.inf}, 1.0)
    with pytest.raises(MpsParseError):
        _one_row("L", {"x1": 1.0}, math.nan)


def test_normalize_equality_halves_are_exact_negations():
    coefs = {"a": 1.25, "b": -0.5, "c": 3.0}
    pos, neg = _one_row("E", coefs, 0.75)
    for v in coefs:
        assert neg.coefficients[v] == -pos.coefficients[v]
    assert neg.rhs == -pos.rhs


def _inst(rows, kinds):
    variables = [Variable("v%d" % i, kind) for i, kind in enumerate(kinds)]
    return MilpInstance("t", variables, rows)


def test_detect_bounds_two_nonzero_pattern():
    inst = _inst(
        [Row("b", {"v0": 1.0, "v1": -3.0}, 0.0)], [CONTINUOUS, INTEGER]
    )
    table = detect_variable_bounds(inst)
    assert (table.rows.tolist(), table.var.tolist(), table.int_var.tolist()) == ([0], [0], [1])
    assert table.const.tolist() == [0.0] and table.coef.tolist() == [3.0]
    assert inst.rows[0].coefficients == {"v0": 1.0, "v1": -3.0}  # not rewritten


def test_detect_bounds_needs_integer_partner():
    inst = _inst(
        [Row("b", {"v0": 1.0, "v1": -3.0}, 0.0)], [CONTINUOUS, CONTINUOUS]
    )
    table = detect_variable_bounds(inst)
    assert len(table.rows) == len(table.var) == 0


def test_detect_bounds_needs_exactly_two_nonzeros():
    inst = _inst(
        [Row("b", {"v0": 1.0, "v1": 1.0, "v2": -1.0}, 1.0)],
        [CONTINUOUS, INTEGER, INTEGER],
    )
    assert len(detect_variable_bounds(inst).rows) == 0


def test_detect_bounds_idempotent():
    inst = _inst(
        [Row("b", {"v0": 2.0, "v1": -1.0}, 4.0)], [CONTINUOUS, INTEGER]
    )
    t1 = detect_variable_bounds(inst)
    t2 = detect_variable_bounds(inst)
    assert t2 is t1  # found once per instance
    assert (t1.var.tolist(), t1.int_var.tolist(), t1.const.tolist(), t1.coef.tolist()) == (
        [0], [1], [2.0], [0.5])


def test_detect_bounds_counts_nonzeros_not_entries():
    # an entry of 0.0 is no nonzero: x <= 10 z with an explicit zero on y is
    # an implied-bound row, and x <= 4 with an explicit zero on z is not
    inst = MilpInstance(
        "t", [Variable("x"), Variable("z", INTEGER), Variable("y")],
        [Row("b", {"x": 1.0, "z": -10.0, "y": 0.0}, 0.0), Row("u", {"x": 1.0, "z": 0.0}, 4.0)],
    )
    table = detect_variable_bounds(inst)
    assert (table.rows.tolist(), table.var.tolist(), table.int_var.tolist()) == ([0], [0], [1])
    assert table.const.tolist() == [0.0] and table.coef.tolist() == [10.0]
    got = list(zip(table.rows.tolist(), table.var.tolist(), table.int_var.tolist(),
                   table.const.tolist(), table.coef.tolist()))
    assert got == reference_variable_bounds(inst)


def test_detect_bounds_matches_row_loop():
    """Two-entry rows in every mix of kinds, signs and entry order."""
    rng = np.random.default_rng(3)
    cases = [parse_mps_file(mps) for mps, _ in corpus_paths()]
    for _ in range(20):
        kinds = [CONTINUOUS if rng.random() < 0.5 else INTEGER for _ in range(6)]
        rows = []
        for i in range(30):
            cols = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
            rows.append(Row("r%d" % i, {"v%d" % j: float(rng.choice([-2.0, -0.5, 1.0, 3.0]))
                                        for j in cols}, float(rng.uniform(-2, 2))))
        cases.append(_inst(rows, kinds))
    found = 0
    for inst in cases:
        t = detect_variable_bounds(inst)
        got = list(zip(t.rows.tolist(), t.var.tolist(), t.int_var.tolist(),
                       t.const.tolist(), t.coef.tolist()))
        assert got == reference_variable_bounds(inst)
        assert t.rows.dtype == t.var.dtype == t.int_var.dtype == np.int64
        found += len(got)
    assert found > 20


def test_row_slack_examples():
    inst = _inst(
        [Row("r1", {"v0": 1.0}, 4.0), Row("r2", {"v0": 1.0, "v1": 1.0}, 5.0)],
        [CONTINUOUS, CONTINUOUS],
    )
    assert row_slack(inst.rows[0], np.array([4.0, 0.0]), inst) == 0.0
    assert row_slack(inst.rows[1], np.array([1.0, 1.0]), inst) == 3.0


def test_row_slack_example1_at_origin(example1):
    x0 = np.zeros(example1.n_vars)
    for row in example1.rows:
        assert row_slack(row, x0, example1) == 1.0


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.floats(-5, 5),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
)
def test_equality_halves_have_opposite_slack(coefs, rhs, point):
    text = "ROWS\n E r\nCOLUMNS\n v0 r %r\n v1 r %r\nRHS\n rhs r %r\n" % (*coefs, rhs)
    inst = parse_mps(io.StringIO(text))
    pos, neg = inst.rows
    x = np.array(point)
    assert row_slack(pos, x, inst) == pytest.approx(-row_slack(neg, x, inst), abs=1e-12)


def test_duplicate_names_rejected():
    with pytest.raises(MalformedInstanceError):
        MilpInstance("t", [Variable("x"), Variable("x")], [])
    with pytest.raises(MalformedInstanceError):
        MilpInstance(
            "t", [Variable("x")], [Row("r", {"x": 1.0}, 0.0), Row("r", {"x": 1.0}, 1.0)]
        )
    with pytest.raises(MalformedInstanceError):
        MilpInstance("t", [Variable("x")], [Row("r", {"y": 1.0}, 0.0)])


@pytest.mark.parametrize("coef, rhs", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                                       (1.0, -math.inf), (1.0, math.nan)])
def test_instance_rejects_nonfinite_row_data(coef, rhs):
    with pytest.raises(MalformedInstanceError):
        MilpInstance("t", [Variable("x")], [Row("r", {"x": coef}, rhs)])


@pytest.mark.parametrize("lower, upper", [(math.inf, math.inf), (-math.inf, -math.inf),
                                          (math.nan, 1.0), (0.0, math.nan)])
def test_variable_rejects_bounds_outside_the_reals(lower, upper):
    with pytest.raises(MalformedInstanceError):
        Variable("x", lower=lower, upper=upper)


@pytest.mark.parametrize("lower, upper", [(0.5, 2.5), (0.5, 2.0), (0.0, 2.5),
                                          (-math.inf, 2.5), (-1.5, math.inf)])
def test_integer_variable_rejects_fractional_bounds(lower, upper):
    with pytest.raises(MalformedInstanceError):
        Variable("z", INTEGER, lower, upper)
    Variable("x", CONTINUOUS, lower, upper)  # a continuous one may have them


def test_fractional_integer_bound_would_give_an_invalid_cut():
    # x in [0, 4], z in [0.5, 2.5] integer, x + 2z <= 4.6 and -x <= 0:
    # bound substitution shifted z by 0.5 as if z - 0.5 were an integer,
    # and at (0, 1.6) the round emitted z <= 1.5, which cuts off (0, 2)
    with pytest.raises(MalformedInstanceError, match="fractional"):
        MilpInstance("t", [Variable("x", CONTINUOUS, 0.0, 4.0), Variable("z", INTEGER, 0.5, 2.5)],
                     [Row("r1", {"x": 1.0, "z": 2.0}, 4.6), Row("r2", {"x": -1.0}, 0.0)])


@pytest.mark.parametrize("objective", [math.nan, math.inf, -math.inf])
def test_variable_rejects_nonfinite_objective(objective):
    with pytest.raises(MalformedInstanceError):
        Variable("x", objective=objective)


def test_matrix_and_bounds_arrays(example1):
    A = example1.matrix
    assert A.shape == (3, 4)
    assert A[0, 0] == pytest.approx(1.0 / 3.0)
    assert A[1, 2] == pytest.approx(-4.0 / 3.0)
    assert list(example1.integer_mask) == [True, False, False, True]
    assert example1.upper.tolist() == [10.0, 10.0, 10.0, 10.0]
