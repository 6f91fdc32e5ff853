"""Separation harness: runs the aggregators, collects cuts and metrics."""

from dataclasses import dataclass, field

import numpy as np

from .cmir import separate_on_aggregation
from .errors import ContractViolation, LpFailure
from .lasso import lasso_aggregate
from .lp import INFEASIBLE, LpProblem, OPTIMAL, UNBOUNDED, solve_lp
from .mw import mw_aggregate
from .preprocess import preprocess

POLICY_ALL = "all-useful"
POLICY_TOP = "top-k-by-score"
POLICY_NAMED = "named"


@dataclass
class RunConfig:
    algorithm: str = "both"  # 'mw' | 'lasso' | 'both'
    maxaggr: int = 6
    start_policy: str = POLICY_TOP
    start_k: int = 20
    start_names: tuple = ()

    def __post_init__(self):
        if self.algorithm not in ("mw", "lasso", "both"):
            raise ContractViolation("algorithm must be 'mw', 'lasso' or 'both', got %r"
                                    % (self.algorithm,))
        if self.start_policy not in (POLICY_ALL, POLICY_TOP, POLICY_NAMED):
            raise ContractViolation("start_policy must be one of %r, got %r"
                                    % ((POLICY_ALL, POLICY_TOP, POLICY_NAMED), self.start_policy))
        if bool(self.start_names) != (self.start_policy == POLICY_NAMED):
            raise ContractViolation("start_names must be given exactly under start_policy %r"
                                    % POLICY_NAMED)
        if self.start_k < 1:
            raise ContractViolation("start_k must be at least 1, got %r" % self.start_k)
        if self.maxaggr < 0:
            raise ContractViolation("maxaggr must be nonnegative, got %r" % self.maxaggr)

    def algorithms(self):
        return ("mw", "lasso") if self.algorithm == "both" else (self.algorithm,)


@dataclass
class SparsityMetrics:
    bad_cols: float = 0.0  # mean residual bad columns per aggregated row
    total_bad_cols: float = 0.0  # mean distinct bad columns across used rows
    ratio: float = None  # bad_cols / total_bad_cols, None if undefined
    used_rows: float = 0.0  # mean active-factor count
    n_aggregations: int = 0

    @property
    def empty(self):  # derived, so it cannot disagree with n_aggregations
        return self.n_aggregations == 0


@dataclass
class RunResult:
    cuts: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # algorithm -> SparsityMetrics
    aggregations: dict = field(default_factory=dict)  # algorithm -> [AggregationResult]
    diagnostics: list = field(default_factory=list)


def sparsity_metrics(aggregations, ctx):
    """Means over the emitted aggregations, Table-2 style arithmetic."""
    if not aggregations:
        return SparsityMetrics()
    block = ctx.bad_block
    res_counts = []
    tot_counts = []
    used_counts = []
    for agg in aggregations:
        res_counts.append(len(agg.residual_bad))
        touched = block[ctx.block_rows(agg.used_rows)].any(axis=0)
        tot_counts.append(int(np.count_nonzero(touched)))
        used_counts.append(len(agg.used_rows))
    mean_bad = float(np.mean(res_counts))
    mean_tot = float(np.mean(tot_counts))
    return SparsityMetrics(
        bad_cols=mean_bad,
        total_bad_cols=mean_tot,
        ratio=(mean_bad / mean_tot) if mean_tot > 0 else None,
        used_rows=float(np.mean(used_counts)),
        n_aggregations=len(aggregations),
    )


def _starting_rows(ctx, config, algo, diagnostics):
    """The algorithm's starting rows; a named row that is not one of them is
    reported in ``diagnostics`` and dropped."""
    rows = ctx.useful_rows
    if algo == "mw":
        rows = rows[~ctx.bound_row]  # mw never aggregates an implied-bound row
    rows = rows.tolist()
    if config.start_policy == POLICY_ALL:
        return rows
    if config.start_policy == POLICY_TOP:
        return rows[: config.start_k]
    index = ctx.instance.row_index
    out = []
    for name in config.start_names:
        if name not in index:
            raise ContractViolation("unknown starting row %r" % name)
        i = index[name]
        if i in rows:
            out.append(i)
        else:
            why = ("an implied-bound row, which mw never aggregates"
                   if i in ctx.bounds.rows and algo == "mw"
                   else "not a useful row "
                        "(no kept bad column, or past preprocess.MAX_USEFUL_ROWS)")
            diagnostics.append("%s: starting row %s dropped: %s" % (algo, name, why))
    return out


def run_separation(instance, point, config=None, duals=None):
    """One separation round over the configured starting rows.

    Both aggregators run on one SeparationContext.  Deterministic for fixed
    inputs; per-starting-row LP failures become diagnostics and the run
    continues.
    """
    config = config or RunConfig()
    result = RunResult()
    ctx = preprocess(instance, point, duals)

    for algo in config.algorithms():
        aggs = []
        if ctx.nothing_to_do:
            result.metrics[algo] = SparsityMetrics()
            result.aggregations[algo] = []
            result.diagnostics.append("%s: nothing to do (no bad variables)" % algo)
            continue
        used_rows = set()
        for i0 in _starting_rows(ctx, config, algo, result.diagnostics):
            if i0 in used_rows:
                continue  # already used inside an earlier aggregation
            try:
                if algo == "mw":
                    emitted = mw_aggregate(ctx, i0, config.maxaggr)
                else:
                    emitted = lasso_aggregate(ctx, i0, config.maxaggr)
            except LpFailure as exc:
                result.diagnostics.append(
                    "%s: starting row %s skipped: %s"
                    % (algo, instance.rows[i0].name, exc)
                )
                continue
            for agg in emitted:
                aggs.append(agg)
                used_rows.update(agg.used_rows)
                cut = separate_on_aggregation(agg, ctx, "%s_%d" % (algo, len(aggs)))
                if cut is not None:
                    result.cuts.append(cut)
        result.aggregations[algo] = aggs
        result.metrics[algo] = sparsity_metrics(aggs, ctx)
    return result


def instance_lp(instance):
    """LP relaxation of a normalized instance (all rows are <=)."""
    return LpProblem(
        obj=instance.objective,
        A=instance.matrix,
        row_type=["L"] * instance.n_rows,
        rhs=instance.rhs,
        col_lb=instance.lower,
        col_ub=instance.upper,
    )


def solve_relaxation(instance):
    """Optimal LP-relaxation point and row duals."""
    sol = solve_lp(instance_lp(instance))
    if sol.status in (INFEASIBLE, UNBOUNDED):
        raise LpFailure("LP relaxation is %s" % sol.status, status=sol.status)
    if sol.status != OPTIMAL:
        raise LpFailure("LP relaxation solve hit %s" % sol.status, status=sol.status)
    return sol.x, sol.duals


def format_metrics(metrics):
    lines = []
    for algo in sorted(metrics):
        m = metrics[algo]
        lines.append("algorithm %s" % algo)
        if m.empty:
            lines.append("  nothing-to-do")
            continue
        lines.append("  aggregations %d" % m.n_aggregations)
        lines.append("  bad-cols %r" % m.bad_cols)
        lines.append("  total-bad-cols %r" % m.total_bad_cols)
        lines.append(
            "  ratio %s" % ("undefined" if m.ratio is None else repr(m.ratio))
        )
        lines.append("  used-rows %r" % m.used_rows)
    return "\n".join(lines) + "\n"
