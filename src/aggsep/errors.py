"""Exception hierarchy for aggsep."""


class AggsepError(Exception):
    """Base class for all aggsep errors."""


class MalformedInstanceError(AggsepError):
    """Instance data violates the model contract (non-finite data, bad refs)."""


class MpsParseError(AggsepError):
    """MPS or solution file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class SolutionParseError(MpsParseError):
    """Solution (.sol) file could not be parsed."""


class ContractViolation(AggsepError):
    """A caller broke a documented precondition."""


class LpFailure(AggsepError):
    """LP subproblem could not be solved (infeasible/unbounded/numerics)."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class DegenerateCutError(AggsepError):
    """The rounding fraction f is within tolerance of an integer; the
    candidate cut degenerates to the scaled base row."""

