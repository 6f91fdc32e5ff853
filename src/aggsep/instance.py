"""Normalized MILP data model.

All constraint rows are stored in <= form (``parse_mps`` turns the other
senses into <= rows); integrality lives on the variables.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, MalformedInstanceError

ZERO_TOL = 1e-9

CONTINUOUS = "continuous"
INTEGER = "integer"


@dataclass
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: float = 0.0
    upper: float = math.inf
    objective: float = 0.0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, INTEGER):
            raise MalformedInstanceError("unknown variable kind %r" % self.kind)
        # NaN, a lower bound of +inf and an upper bound of -inf all fail
        if not (self.lower <= self.upper and self.lower < math.inf and self.upper > -math.inf):
            raise MalformedInstanceError(
                "variable %s has bounds [%g, %g]" % (self.name, self.lower, self.upper)
            )
        # bound substitution shifts an integer variable by its bound
        if self.is_integer and any(math.isfinite(b) and b != math.floor(b)
                                   for b in (self.lower, self.upper)):
            raise MalformedInstanceError(
                "integer variable %s has fractional bounds [%g, %g]"
                % (self.name, self.lower, self.upper)
            )
        if not math.isfinite(self.objective):
            raise MalformedInstanceError(
                "variable %s has objective %r" % (self.name, self.objective)
            )

    @property
    def is_integer(self):
        return self.kind == INTEGER


@dataclass
class Row:
    """A single constraint row ``coefficients . x <= rhs``."""

    name: str
    coefficients: dict  # variable name -> coefficient; an entry of 0.0 counts as absent
    rhs: float


@dataclass
class MilpInstance:
    """Immutable-by-convention MILP: share freely once built.

    Construction checks the ``Variable`` and ``Row`` input records and, in
    the same pass, sets ``n_vars``, ``n_rows``, ``var_index`` and
    ``row_index`` (name -> position), the dense (rows x vars) ``matrix``,
    ``rhs``, ``lower``, ``upper``, ``objective``, ``integer_mask`` and
    ``variable_bounds``.
    """

    name: str
    variables: list
    rows: list

    def __post_init__(self):
        self.n_vars, self.n_rows = len(self.variables), len(self.rows)
        self.var_index = idx = {}
        for j, v in enumerate(self.variables):
            if v.name in idx:
                raise MalformedInstanceError("duplicate variable name %s" % v.name)
            idx[v.name] = j
        self.row_index = {}
        self.matrix = A = np.zeros((self.n_rows, self.n_vars))
        pairs = {}  # row -> the columns of its two nonzeros
        for i, r in enumerate(self.rows):
            if r.name in self.row_index:
                raise MalformedInstanceError("duplicate row name %s" % r.name)
            self.row_index[r.name] = i
            if not math.isfinite(r.rhs):
                raise MalformedInstanceError("non-finite rhs in row %s" % r.name)
            nonzeros = []
            for var, val in r.coefficients.items():
                j = idx.get(var)
                if j is None:
                    raise MalformedInstanceError(
                        "row %s references unknown variable %s" % (r.name, var)
                    )
                if not math.isfinite(val):
                    raise MalformedInstanceError(
                        "non-finite coefficient %r on %s in row %s" % (val, var, r.name)
                    )
                if val:
                    A[i, j] = val
                    nonzeros.append(j)
            if len(nonzeros) == 2:
                pairs[i] = nonzeros
        self.rhs = np.array([r.rhs for r in self.rows], dtype=float)
        self.lower = np.array([v.lower for v in self.variables], dtype=float)
        self.upper = np.array([v.upper for v in self.variables], dtype=float)
        self.objective = np.array([v.objective for v in self.variables], dtype=float)
        self.integer_mask = is_int = np.array([v.is_integer for v in self.variables], dtype=bool)
        # An implied-bound row has two nonzeros: a positive a on a continuous
        # variable and c on an integer one.  It encodes x_var <= const + coef
        # * x_int_var with const = rhs/a and coef = -c/a.
        rows = np.array(list(pairs), dtype=np.int64)
        cols = np.array(list(pairs.values()), dtype=np.int64).reshape(-1, 2)
        vals = A[rows[:, None], cols]
        swap = is_int[cols[:, 0]]  # an integer first: swap the two
        cols[swap], vals[swap] = cols[swap, ::-1], vals[swap, ::-1]
        keep = ~is_int[cols[:, 0]] & is_int[cols[:, 1]] & (vals[:, 0] > 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        self.variable_bounds = VariableBounds(
            rows=rows, var=cols[:, 0], int_var=cols[:, 1],
            const=self.rhs[rows] / vals[:, 0], coef=-vals[:, 1] / vals[:, 0])


class VariableBounds(NamedTuple):
    """Implied upper bounds ``x_var <= const + coef * x_int_var``, one entry
    per implied-bound row, in row order."""

    rows: np.ndarray  # the row stating each bound
    var: np.ndarray  # continuous variable index
    int_var: np.ndarray  # integer variable index
    const: np.ndarray
    coef: np.ndarray


def detect_variable_bounds(instance):
    """Implied bounds of ``instance``, found when it was built."""
    return instance.variable_bounds


def make_point(instance, values):
    """Dense point aligned with the instance's variable order."""
    x = np.asarray(values, dtype=float)
    if x.shape != (instance.n_vars,):
        raise ContractViolation(
            "point has %s entries, instance has %d variables" % (x.shape, instance.n_vars)
        )
    if not np.all(np.isfinite(x)):
        raise ContractViolation("point contains non-finite entries")
    return x

