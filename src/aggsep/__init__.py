"""Row-aggregation based c-MIR cut separation for MILPs."""

from .aggregate import AggregationResult
from .cmir import (
    CmirCut,
    MixedKnapsackRow,
    bound_substitute,
    cmir_inequality,
    g_function,
    select_partition_and_delta,
    separate_on_aggregation,
)
from .harness import (
    RunConfig,
    SparsityMetrics,
    run_separation,
    solve_relaxation,
    sparsity_metrics,
)
from .instance import (
    MilpInstance,
    Row,
    Variable,
    detect_variable_bounds,
)
from .lasso import build_lasso_lp, build_reweighted_lp, lasso_aggregate, reweight
from .lp import LpProblem, LpSolution, build_abs_value_lp, solve_lp
from .mpsio import CutRecord, parse_mps, parse_solution, write_cuts
from .mw import elimination_factor, mw_aggregate
from .preprocess import SeparationContext, preprocess

__version__ = "0.1.0"
