"""Free-format MPS reading, solution-point reading, and cut output."""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MpsParseError, SolutionParseError
from .instance import (
    INTEGER,
    CONTINUOUS,
    ZERO_TOL,
    MilpInstance,
    Row,
    Variable,
    make_point,
)

_SECTIONS = {
    "NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
}
_OBJ_SIGN = {"MIN": 1.0, "MINIMIZE": 1.0, "MAX": -1.0, "MAXIMIZE": -1.0}
_BOUND_TYPES = {"LO", "UP", "FX", "FR", "MI", "PL", "BV", "LI", "UI"}


@dataclass
class CutRecord:
    """One generated cut in original variable space, with provenance."""

    name: str
    coefficients: dict  # variable name -> coefficient
    rhs: float
    violation: float
    algorithm: str
    starting_row: str
    used_rows: list = field(default_factory=list)  # [(row name, factor)]
    partition_t: list = field(default_factory=list)  # integer variable names
    partition_u: list = field(default_factory=list)
    delta: float = 1.0
    sense: str = "<="


def _number(text, what, lineno, infinite_ok=False):
    """``text`` as a float.  Text that is not a number, NaN, and +-inf
    unless ``infinite_ok`` raise MpsParseError at ``lineno``."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if math.isnan(val) or (math.isinf(val) and not infinite_ok):
        raise MpsParseError("bad %s %r" % (what, text), line=lineno)
    return val


def _negated(coefficients):
    return {col: -v for col, v in coefficients.items()}


def parse_mps(stream, name_hint="instance"):
    """Parse free-format MPS text into a normalized MilpInstance.

    Supports NAME, OBJSENSE (MIN/MINIMIZE/MAX/MAXIMIZE, on the header line
    or the next), ROWS, COLUMNS (with INTORG/INTEND markers),
    RHS, RANGES and BOUNDS.  The objective row lands on the variables'
    objective field.  Every other row becomes one or two <= rows, in ROWS
    order, with its coefficients in column order and explicit zeros
    dropped: 'L' as is, 'G' negated, 'E' as the row plus its negation
    ``<row>_neg``, and a ranged row as its upper side plus its negated
    lower side ``<row>_lo``; a ROWS row with the name of such a side is an
    MpsParseError at the later line that makes the two clash.  Every value
    must be a finite number (a bound may be infinite on its own side), and
    so must the sum of repeated entries of one (column, row) pair; a bad
    one is an MpsParseError at its line.
    """
    records = _read_records(stream, name_hint)
    # Let go of the input (a StringIO made for this call is freed here on
    # CPython 3.11+) and the reader's tables before the instance allocates
    # its dense matrix: a matrix allocated beside them can fragment the heap
    # so that it keeps a second matrix's pages.
    del stream
    return MilpInstance(*records)


def _read_records(stream, name):
    """(name, variables, rows): the MPS text as the instance's input records."""
    section = None
    row_sense = {}  # row name -> 'N' | 'L' | 'G' | 'E'
    row_line = {}  # row name -> its ROWS line
    row_order = []
    col_order = []
    col_entries = {}  # col -> {row: coef}
    integrality = set()
    sign = 1.0  # objective sign: -1 for OBJSENSE MAX
    obj_row = None
    rhs_vals = {}
    range_vals = {}
    range_line = {}  # ranged row name -> its last RANGES line
    bounds = {}  # col -> list of (type, value)
    bound_line = {}  # col -> number of its last BOUNDS line
    in_integer = False
    seen = set()

    for lineno, rawline in enumerate(stream, start=1):
        line = rawline.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("*"):
            continue
        is_header = not line[0].isspace()
        tok = line.split()
        if is_header:
            head = tok[0].upper()
            if head not in _SECTIONS:
                raise MpsParseError("unknown section %r" % tok[0], line=lineno)
            section = head
            seen.add(head)
            if head == "NAME" and len(tok) > 1:
                name = tok[1]
            if head == "ENDATA":
                break
            if head != "OBJSENSE" or len(tok) == 1:
                continue
            tok = tok[1:]  # the sense given on the header line itself
        if section == "OBJSENSE":
            if len(tok) != 1 or tok[0].upper() not in _OBJ_SIGN:
                raise MpsParseError("unknown OBJSENSE %r" % " ".join(tok), line=lineno)
            sign = _OBJ_SIGN[tok[0].upper()]
            continue
        if section == "ROWS":
            if len(tok) != 2:
                raise MpsParseError("ROWS entries need sense and name", line=lineno)
            sense, rname = tok[0].upper(), tok[1]
            if sense not in ("N", "L", "G", "E"):
                raise MpsParseError("unknown row sense %r" % tok[0], line=lineno)
            if rname in row_sense:
                raise MpsParseError("duplicate row name %s" % rname, line=lineno)
            row_sense[rname] = sense
            row_line[rname] = lineno
            if sense == "N":
                if obj_row is None:
                    obj_row = rname
            else:
                row_order.append(rname)
            continue
        if section == "COLUMNS":
            if len(tok) >= 3 and tok[1].upper() == "'MARKER'":
                marker = tok[2].upper().strip("'")
                if marker == "INTORG":
                    in_integer = True
                elif marker == "INTEND":
                    in_integer = False
                else:
                    raise MpsParseError("unknown marker %r" % tok[2], line=lineno)
                continue
            if len(tok) < 3 or len(tok) % 2 == 0:
                raise MpsParseError("malformed COLUMNS entry", line=lineno)
            col = tok[0]
            if col not in col_entries:
                col_entries[col] = {}
                col_order.append(col)
            if in_integer:
                integrality.add(col)
            for rname, val in zip(tok[1::2], tok[2::2]):
                if rname != obj_row and rname not in row_sense:
                    raise MpsParseError(
                        "coefficient for unknown row %s" % rname, line=lineno
                    )
                val = col_entries[col].get(rname, 0.0) + _number(val, "coefficient", lineno)
                if not math.isfinite(val):
                    raise MpsParseError("coefficients of %s in row %s sum to %r"
                                        % (col, rname, val), line=lineno)
                col_entries[col][rname] = val
            continue
        if section in ("RHS", "RANGES"):
            if len(tok) < 3:
                raise MpsParseError("malformed %s entry" % section, line=lineno)
            pairs = tok[1:]
            if len(pairs) % 2:
                raise MpsParseError("malformed %s entry" % section, line=lineno)
            target = rhs_vals if section == "RHS" else range_vals
            for rname, val in zip(pairs[0::2], pairs[1::2]):
                if rname not in row_sense:
                    raise MpsParseError(
                        "%s for unknown row %s" % (section, rname), line=lineno
                    )
                target[rname] = _number(val, "%s value" % section, lineno)
                if section == "RANGES":
                    range_line[rname] = lineno
            continue
        if section == "BOUNDS":
            btype = tok[0].upper()
            if btype not in _BOUND_TYPES:
                raise MpsParseError("unknown bound type %r" % tok[0], line=lineno)
            if btype in ("FR", "MI", "PL", "BV"):
                if len(tok) < 3:
                    raise MpsParseError("malformed BOUNDS entry", line=lineno)
                col, val = tok[2], None
            else:
                if len(tok) < 4:
                    raise MpsParseError("malformed BOUNDS entry", line=lineno)
                col = tok[2]
                val = _number(tok[3], "%s bound value" % btype, lineno, infinite_ok=True)
                # a lower bound of +inf or an upper bound of -inf
                if ((val == math.inf and btype in ("LO", "FX", "LI"))
                        or (val == -math.inf and btype in ("UP", "FX", "UI"))):
                    raise MpsParseError("bad %s bound value %r" % (btype, tok[3]), line=lineno)
            if col not in col_entries:
                raise MpsParseError("bound on unknown column %s" % col, line=lineno)
            bounds.setdefault(col, []).append((btype, val))
            bound_line[col] = lineno
            continue
        raise MpsParseError("data before any section header", line=lineno)

    if "ROWS" not in seen:
        raise MpsParseError("missing ROWS section")
    if "COLUMNS" not in seen:
        raise MpsParseError("missing COLUMNS section")

    variables = []
    coefs = {rname: {} for rname in row_order}  # row -> {col: coef}, column order
    for col in col_order:
        kind = INTEGER if col in integrality else CONTINUOUS
        lo, hi = 0.0, math.inf
        for btype, val in bounds.get(col, ()):
            if btype == "LO":
                lo = val
            elif btype == "UP":
                hi = val
            elif btype == "FX":
                lo = hi = val
            elif btype == "FR":
                lo, hi = -math.inf, math.inf
            elif btype == "MI":
                lo = -math.inf
            elif btype == "PL":
                hi = math.inf
            elif btype == "BV":
                kind = INTEGER
                lo, hi = 0.0, 1.0
            elif btype == "LI":
                kind = INTEGER
                lo = val
            else:  # UI
                kind = INTEGER
                hi = val
        if kind == INTEGER:
            if math.isfinite(lo):
                lo = math.ceil(lo - 1e-9)
            if math.isfinite(hi):
                hi = math.floor(hi + 1e-9)
        if lo > hi:
            raise MpsParseError("column %s has lower %g > upper %g" % (col, lo, hi),
                                line=bound_line[col])
        entries = col_entries[col]
        obj = sign * entries.get(obj_row, 0.0) if obj_row else 0.0
        variables.append(Variable(col, kind, lo, hi, obj))
        for rname, v in entries.items():
            if rname in coefs and abs(v) >= ZERO_TOL:
                coefs[rname][col] = v

    rows = []
    for rname in row_order:
        row, sense, rhs = coefs[rname], row_sense[rname], rhs_vals.get(rname, 0.0)
        if rname in range_vals or sense == "E":
            other = rname + ("_lo" if rname in range_vals else "_neg")
            if row_sense.get(other, "N") != "N":
                raise MpsParseError(
                    "row %s has the name of a side of row %s" % (other, rname),
                    line=max(row_line[rname], row_line[other], range_line.get(rname, 0)))
        if rname in range_vals:
            r = range_vals[rname]
            if sense == "L":
                lo_rhs, hi_rhs = rhs - abs(r), rhs
            elif sense == "G":
                lo_rhs, hi_rhs = rhs, rhs + abs(r)
            elif r >= 0:  # E
                lo_rhs, hi_rhs = rhs, rhs + r
            else:
                lo_rhs, hi_rhs = rhs + r, rhs
            rows.append(Row(rname, row, hi_rhs))
            rows.append(Row(rname + "_lo", _negated(row), -lo_rhs))
        elif sense == "L":
            rows.append(Row(rname, row, rhs))
        elif sense == "G":
            rows.append(Row(rname, _negated(row), -rhs))
        else:  # E
            rows.append(Row(rname, row, rhs))
            rows.append(Row(rname + "_neg", _negated(row), -rhs))

    return name, variables, rows


def parse_mps_file(path):
    with open(path, "r") as fh:
        return parse_mps(fh, name_hint=str(path))


def parse_solution(stream, instance):
    """Read ``<variable> <value>`` lines into a dense point.

    ``#`` starts a comment; variables absent from the file default to 0.
    Values must be finite.
    """
    values = np.zeros(instance.n_vars)
    idx = instance.var_index
    for lineno, rawline in enumerate(stream, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 2:
            raise SolutionParseError("expected '<name> <value>'", line=lineno)
        if tok[0] not in idx:
            raise SolutionParseError("unknown variable %s" % tok[0], line=lineno)
        try:
            value = float(tok[1])
        except ValueError:
            raise SolutionParseError("bad value %r" % tok[1], line=lineno)
        if not math.isfinite(value):
            raise SolutionParseError("non-finite value %r" % tok[1], line=lineno)
        values[idx[tok[0]]] = value
    return make_point(instance, values)


def parse_solution_file(path, instance):
    with open(path, "r") as fh:
        return parse_solution(fh, instance)


def write_solution(point, instance, stream):
    for var, val in zip(instance.variables, point):
        stream.write("%s %r\n" % (var.name, float(val)))


def cut_to_dict(cut):
    """Deterministically ordered plain-dict form of a CutRecord."""
    return {
        "name": cut.name,
        "sense": cut.sense,
        "coefficients": {k: float(v) for k, v in cut.coefficients.items()},
        "rhs": float(cut.rhs),
        "violation": float(cut.violation),
        "provenance": {
            "algorithm": cut.algorithm,
            "starting_row": cut.starting_row,
            "used_rows": [
                {"row": r, "factor": float(f)} for r, f in cut.used_rows
            ],
            "T": list(cut.partition_t),
            "U": list(cut.partition_u),
            "delta": float(cut.delta),
        },
    }


def write_cuts(cuts, stream):
    """One JSON object per line, field order fixed, round-trip floats."""
    for cut in cuts:
        stream.write(json.dumps(cut_to_dict(cut)) + "\n")
