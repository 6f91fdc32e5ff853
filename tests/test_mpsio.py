import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aggsep.errors import MpsParseError, SolutionParseError
from aggsep.mpsio import (
    CutRecord,
    parse_mps,
    parse_solution,
    write_cuts,
    write_solution,
)

TINY = """NAME tiny
ROWS
 N obj
 L c1
COLUMNS
 x c1 1.0
 MARKER1 'MARKER' 'INTORG'
 y c1 1.0
 MARKER2 'MARKER' 'INTEND'
RHS
 rhs c1 1.0
BOUNDS
 UP bnd x 1.0
 UP bnd y 1.0
"""


def test_parse_tiny_instance():
    inst = parse_mps(io.StringIO(TINY))
    assert inst.name == "tiny"
    assert [v.name for v in inst.variables] == ["x", "y"]
    assert [v.is_integer for v in inst.variables] == [False, True]
    assert len(inst.rows) == 1
    assert inst.rows[0].coefficients == {"x": 1.0, "y": 1.0}
    assert inst.rows[0].rhs == 1.0
    assert inst.upper.tolist() == [1.0, 1.0]


def test_parse_geq_row_normalized():
    text = "ROWS\n N obj\n G c1\nCOLUMNS\n x c1 1.0\nRHS\n rhs c1 2.0\n"
    inst = parse_mps(io.StringIO(text))
    assert inst.rows[0].coefficients == {"x": -1.0}
    assert inst.rows[0].rhs == -2.0


def test_parse_example1_matches_expected_coefficients(example1):
    A = example1.matrix
    expect = np.array(
        [
            [1.0 / 3.0, 1.0, -2.0 / 3.0, 0.0],
            [2.0 / 3.0, -1.0 / 3.0, -4.0 / 3.0, 1.0],
            [0.0, -1.0 / 3.0, 1.0, 0.0],
        ]
    )
    assert np.allclose(A, expect, atol=1e-15)
    assert example1.rhs.tolist() == [1.0, 1.0, 1.0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(MpsParseError):
        parse_mps(io.StringIO("COLUMNS\n x c1 1.0\n"))  # missing ROWS
    with pytest.raises(MpsParseError):
        parse_mps(io.StringIO("ROWS\n L c1\n"))  # missing COLUMNS
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO("ROWS\n L c1\n L c1\nCOLUMNS\n x c1 1.0\n"))
    assert exc.value.line == 3
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO("ROWS\n L c1\nCOLUMNS\n x nosuch 1.0\n"))
    assert exc.value.line == 4


_OBJ_TEXT = "ROWS\n N obj\n L c1\nCOLUMNS\n x obj 1.0 c1 1.0\n"


@pytest.mark.parametrize("header, sign", [
    ("", 1.0),
    ("OBJSENSE MAX\n", -1.0),
    ("OBJSENSE maximize\n", -1.0),
    ("OBJSENSE\n    MAX\n", -1.0),
    ("OBJSENSE\n MAXIMIZE\n", -1.0),
    ("OBJSENSE MIN\n", 1.0),
    ("OBJSENSE\n MINIMIZE\n", 1.0),
], ids=["absent", "max-header", "maximize-header", "max-next", "maximize-next",
        "min-header", "minimize-next"])
def test_parse_objsense(header, sign):
    inst = parse_mps(io.StringIO(header + _OBJ_TEXT))
    assert inst.objective.tolist() == [sign]


@pytest.mark.parametrize("header", [
    "OBJSENSE MAXX\n", "OBJSENSE\n FOO\n", "OBJSENSE\n MAX MIN\n",
], ids=["maxx-header", "foo-next", "two-tokens-next"])
def test_parse_objsense_rejects_unknown(header):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO(header + _OBJ_TEXT))
    assert exc.value.line == header.count("\n")


def test_parse_ranges_expand_to_pairs():
    text = (
        "ROWS\n N obj\n L c1\nCOLUMNS\n x c1 1.0\nRHS\n rhs c1 5.0\n"
        "RANGES\n rng c1 2.0\n"
    )
    inst = parse_mps(io.StringIO(text))
    assert len(inst.rows) == 2
    # 3 <= x <= 5 expands to {x <= 5, -x <= -3}
    assert inst.rows[0].rhs == 5.0
    assert inst.rows[1].coefficients == {"x": -1.0}
    assert inst.rows[1].rhs == -3.0


def test_parse_integer_bounds_rounded():
    text = (
        "ROWS\n N obj\n L c1\nCOLUMNS\n x c1 1.0\nRHS\n rhs c1 5.0\n"
        "BOUNDS\n UI bnd x 3.7\n"
    )
    inst = parse_mps(io.StringIO(text))
    assert inst.variables[0].is_integer
    assert inst.variables[0].upper == 3.0


_BOUNDS_HEAD = "ROWS\n N obj\n L c1\nCOLUMNS\n x c1 1.0\n y c1 1.0\nRHS\n rhs c1 5.0\nBOUNDS\n"


@pytest.mark.parametrize("bounds, line", [
    (" XX bnd x 3\n", 10),  # unknown type, rejected at its own line
    (" UP bnd x -1\n", 10),  # below the default lower bound 0
    (" LO bnd x 4\n UP bnd y 2\n UP bnd x 3\n", 12),  # the column's last line
    (" LI bnd x 0.5\n UI bnd x 0.7\n", 11),  # empty once rounded to integers
    (" UP bnd x nan\n", 10),
    (" LO bnd x inf\n", 10),  # a lower bound of +inf
    (" FX bnd x inf\n", 10),
    (" FX bnd x -inf\n", 10),  # an upper bound of -inf
    (" UP bnd x 3\n UP bnd y -inf\n", 11),
])
def test_parse_bounds_errors_carry_line(bounds, line):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO(_BOUNDS_HEAD + bounds))
    assert exc.value.line == line


_VALUE_HEAD = "ROWS\n N obj\n L c1\nCOLUMNS\n"


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("body, line", [
    (" x c1 {}\n", 5),
    (" x obj {} c1 1.0\n", 5),
    (" x c1 1.0\nRHS\n rhs c1 {}\n", 7),
    (" x c1 1.0\nRHS\n rhs c1 1.0\n rhs obj {}\n", 8),
    (" x c1 1.0\nRHS\n rhs c1 1.0\nRANGES\n rng c1 {}\n", 9),
], ids=["coefficient", "objective", "rhs", "objective-rhs", "range"])
def test_parse_nonfinite_values_carry_line(body, line, bad):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO(_VALUE_HEAD + body.format(bad)))
    assert exc.value.line == line


@pytest.mark.parametrize("body, line", [
    (" x c1 1e308\n x c1 1e308\n", 6),
    (" x obj -1e308 c1 1.0\n x obj -1e308\n", 6),
], ids=["constraint", "objective"])
def test_parse_overflowing_coefficient_sum_carries_line(body, line):
    with pytest.raises(MpsParseError) as exc:
        parse_mps(io.StringIO(_VALUE_HEAD + body))
    assert exc.value.line == line


@pytest.mark.parametrize("rows, ranges, line", [
    (" E r\n L r_neg\n", "", 3),
    (" L r_neg\n E r\n", "", 3),
    (" G r\n L r_lo\n", "RANGES\n rng r 2.0\n", 9),
    (" L r_lo\n G r\n", "RANGES\n rng r 2.0\n", 9),
], ids=["equality-first", "equality-second", "ranged-first", "ranged-second"])
def test_parse_side_named_like_a_row_carries_line(rows, ranges, line):
    text = "ROWS\n%sCOLUMNS\n x r 1.0 %s 1.0\nRHS\n rhs r 1.0\n%s" % (
        rows, "r_neg" if "r_neg" in rows else "r_lo", ranges)
    with pytest.raises(MpsParseError, match="side of row r") as exc:
        parse_mps(io.StringIO(text))
    assert exc.value.line == line
    # a free row of that name is not a <= row, so nothing clashes
    parse_mps(io.StringIO(text.replace(" L r_", " N r_")))


# Models of up to 4 columns x0.. and 4 rows r0.., rendered as MPS text.  A
# row is (sense, rhs, range or None, one coefficient or None per column);
# coefficients include explicit zeros, and ranges have both signs.
_VALUES = st.one_of(st.floats(-100, 100), st.sampled_from([0.0, -0.0, 1e-12, -5e-10]))
_NONFINITE = ("inf", "-inf", "nan", "1e400")


@st.composite
def _models(draw):
    n_cols = draw(st.integers(1, 4))
    row = st.tuples(
        st.sampled_from("LGE"),
        st.floats(-50, 50),
        st.one_of(st.none(), st.floats(-10, 10)),
        st.lists(st.one_of(st.none(), _VALUES), min_size=n_cols, max_size=n_cols),
    )
    rows = draw(st.lists(row, min_size=1, max_size=4))
    objective = draw(st.lists(_VALUES, min_size=n_cols, max_size=n_cols))
    split = draw(st.integers(0, n_cols - 1))  # this column's entries take two lines
    poison = draw(st.one_of(st.none(), st.tuples(st.integers(0, 99),
                                                 st.sampled_from(_NONFINITE))))
    return objective, rows, split, poison


def _render(objective, rows, split):
    """Token lines of the model's MPS text, the headers marked by a leading
    None, and the (line, token) position of every value."""
    lines = [[None, "ROWS"], ["N", "obj"]]
    lines += [[sense, "r%d" % i] for i, (sense, _, _, _) in enumerate(rows)]
    lines.append([None, "COLUMNS"])
    for j, obj in enumerate(objective):
        entries = [("obj", obj)] + [("r%d" % i, coefs[j])
                                    for i, (_, _, _, coefs) in enumerate(rows)
                                    if coefs[j] is not None]
        cut = (len(entries) + 1) // 2 if j == split else len(entries)
        for part in (entries[:cut], entries[cut:]):
            if part:
                lines.append(["x%d" % j] + [t for r, v in part for t in (r, repr(v))])
    lines.append([None, "RHS"])
    lines += [["rhs", "r%d" % i, repr(rhs)] for i, (_, rhs, _, _) in enumerate(rows)]
    ranged = [(i, rng) for i, (_, _, rng, _) in enumerate(rows) if rng is not None]
    if ranged:
        lines.append([None, "RANGES"])
        lines += [["rng", "r%d" % i, repr(rng)] for i, rng in ranged]
    values = [(k, t) for k, toks in enumerate(lines) if toks[0] is not None
              for t in range(2, len(toks), 2)]
    return lines, values


def _text(lines):
    return "".join((toks[1] if toks[0] is None else " " + " ".join(toks)) + "\n"
                   for toks in lines)


def _expected_rows(rows):
    """The <= rows of the model: (name, [(column, coefficient)], rhs)."""
    out = []
    for i, (sense, rhs, rng, coefs) in enumerate(rows):
        name = "r%d" % i
        pos = [("x%d" % j, v) for j, v in enumerate(coefs) if v is not None and abs(v) >= 1e-9]
        neg = [(col, -v) for col, v in pos]  # so r_neg is exactly -r
        if rng is not None:
            lo, hi = {"L": (rhs - abs(rng), rhs), "G": (rhs, rhs + abs(rng)),
                      "E": (rhs, rhs + rng) if rng >= 0 else (rhs + rng, rhs)}[sense]
            out += [(name, pos, hi), (name + "_lo", neg, -lo)]
        elif sense == "L":
            out.append((name, pos, rhs))
        elif sense == "G":
            out.append((name, neg, -rhs))
        else:
            out += [(name, pos, rhs), (name + "_neg", neg, -rhs)]
    return out


@given(_models())
def test_parse_rows_match_their_mps_text(model):
    objective, rows, split, poison = model
    lines, values = _render(objective, rows, split)
    if poison is not None:
        (k, t), bad = values[poison[0] % len(values)], poison[1]
        lines[k][t] = bad
        with pytest.raises(MpsParseError) as exc:
            parse_mps(io.StringIO(_text(lines)))
        assert exc.value.line == k + 1
        return
    inst = parse_mps(io.StringIO(_text(lines)))
    got = [(r.name, list(r.coefficients.items()), r.rhs) for r in inst.rows]
    assert got == _expected_rows(rows)
    assert inst.objective.tolist() == objective


def test_parse_infinite_bounds_on_their_own_side():
    inst = parse_mps(io.StringIO(_BOUNDS_HEAD + " LO bnd x -inf\n UP bnd y inf\n"))
    assert inst.lower.tolist() == [-math.inf, 0.0]
    assert inst.upper.tolist() == [math.inf, math.inf]


def test_parse_deterministic():
    a = parse_mps(io.StringIO(TINY))
    b = parse_mps(io.StringIO(TINY))
    assert np.array_equal(a.matrix, b.matrix)
    assert [v.name for v in a.variables] == [v.name for v in b.variables]


def test_parse_solution_basic(example1):
    point = parse_solution(io.StringIO("x1 0.5\nx2 1.0\n"), example1)
    assert point.tolist() == [0.5, 1.0, 0.0, 0.0]


def test_parse_solution_empty_defaults_to_zero(example1):
    assert parse_solution(io.StringIO(""), example1).tolist() == [0.0] * 4


def test_parse_solution_comments(example1):
    point = parse_solution(io.StringIO("x1 0.5 # at bound\n# whole line\n"), example1)
    assert point.tolist() == [0.5, 0.0, 0.0, 0.0]


def test_parse_solution_errors(example1):
    with pytest.raises(SolutionParseError):
        parse_solution(io.StringIO("nosuch 1.0\n"), example1)
    with pytest.raises(SolutionParseError):
        parse_solution(io.StringIO("x1 abc\n"), example1)
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(SolutionParseError) as exc:
            parse_solution(io.StringIO("x1 0.5\nx2 %s\n" % value), example1)
        assert exc.value.line == 2
    with pytest.raises(SolutionParseError, match="duplicate variable x1") as exc:
        parse_solution(io.StringIO("x1 1.0\nx2 0.0\nx1 0.5\n"), example1)
    assert exc.value.line == 3


def test_solution_roundtrip(example1):
    point = np.array([0.1, 1.0 / 3.0, 2.5, 0.0])
    buf = io.StringIO()
    write_solution(point, example1, buf)
    back = parse_solution(io.StringIO(buf.getvalue()), example1)
    assert np.max(np.abs(back - point)) <= 1e-15


def _cut(name="c1", violation=0.2):
    return CutRecord(
        name=name,
        coefficients={"x1": 2.0, "x4": 1.0},
        rhs=3.0,
        violation=violation,
        algorithm="lasso",
        starting_row="r1",
        used_rows=[("r1", 1.0), ("r2", 1.0)],
        partition_t=["x1"],
        partition_u=["x4"],
        delta=0.5,
    )


def test_write_cuts_empty():
    buf = io.StringIO()
    write_cuts([], buf)
    assert buf.getvalue() == ""


def test_write_cuts_exact_float_and_order():
    buf = io.StringIO()
    write_cuts([_cut(violation=0.2)], buf)
    line = buf.getvalue().strip()
    assert '"violation": 0.2' in line
    assert line.index('"name"') < line.index('"coefficients"') < line.index('"rhs"')

    buf = io.StringIO()
    write_cuts([_cut("a"), _cut("b")], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert '"a"' in lines[0] and '"b"' in lines[1]
