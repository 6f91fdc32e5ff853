"""Normalized MILP data model.

All constraint rows are stored in <= form (``parse_mps`` turns the other
senses into <= rows); integrality lives on the variables.
"""

import math
from dataclasses import dataclass
from functools import cached_property
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
    coefficients: dict  # variable name -> nonzero coefficient
    rhs: float


@dataclass
class MilpInstance:
    """Immutable-by-convention MILP: share freely once built."""

    name: str
    variables: list
    rows: list

    def __post_init__(self):
        names = set()
        for v in self.variables:
            if v.name in names:
                raise MalformedInstanceError("duplicate variable name %s" % v.name)
            names.add(v.name)
        rnames = set()
        for r in self.rows:
            if r.name in rnames:
                raise MalformedInstanceError("duplicate row name %s" % r.name)
            rnames.add(r.name)
            if not math.isfinite(r.rhs):
                raise MalformedInstanceError("non-finite rhs in row %s" % r.name)
            for var, val in r.coefficients.items():
                if var not in names:
                    raise MalformedInstanceError(
                        "row %s references unknown variable %s" % (r.name, var)
                    )
                if not math.isfinite(val):
                    raise MalformedInstanceError(
                        "non-finite coefficient %r on %s in row %s" % (val, var, r.name)
                    )

    @cached_property
    def var_index(self):
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def row_index(self):
        return {r.name: i for i, r in enumerate(self.rows)}

    @property
    def n_vars(self):
        return len(self.variables)

    @property
    def n_rows(self):
        return len(self.rows)

    @cached_property
    def matrix(self):
        """Dense (rows x vars) coefficient matrix."""
        A = np.zeros((len(self.rows), len(self.variables)))
        idx = self.var_index
        for i, r in enumerate(self.rows):
            for var, val in r.coefficients.items():
                A[i, idx[var]] = val
        return A

    @cached_property
    def rhs(self):
        return np.array([r.rhs for r in self.rows], dtype=float)

    @cached_property
    def lower(self):
        return np.array([v.lower for v in self.variables], dtype=float)

    @cached_property
    def upper(self):
        return np.array([v.upper for v in self.variables], dtype=float)

    @cached_property
    def objective(self):
        return np.array([v.objective for v in self.variables], dtype=float)

    @cached_property
    def integer_mask(self):
        return np.array([v.is_integer for v in self.variables], dtype=bool)

    @cached_property
    def variable_bounds(self):
        """Implied-bound rows and the bounds they state, in row order.

        A row qualifies iff it has exactly two nonzeros, a positive
        coefficient a on a continuous variable and its other nonzero c on
        an integer variable; it then encodes ``x_var <= const + coef *
        x_int_var`` with const = rhs/a and coef = -c/a.
        """
        idx = self.var_index
        two = [(i, r.coefficients) for i, r in enumerate(self.rows) if len(r.coefficients) == 2]
        rows = np.array([i for i, _ in two], dtype=np.int64)
        cols = np.array([[idx[v] for v in c] for _, c in two], dtype=np.int64).reshape(-1, 2)
        vals = np.array([list(c.values()) for _, c in two], dtype=float).reshape(-1, 2)
        swap = self.integer_mask[cols[:, 0]]  # an integer first: swap the two
        cols[swap], vals[swap] = cols[swap, ::-1], vals[swap, ::-1]
        is_int = self.integer_mask[cols]
        keep = ~is_int[:, 0] & is_int[:, 1] & (vals[:, 0] > 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        return VariableBounds(rows=rows, var=cols[:, 0], int_var=cols[:, 1],
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
    """Implied bounds of ``instance``; found once, then reused."""
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

