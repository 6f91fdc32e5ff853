"""Command-line front end: separate / relax / compare."""

import argparse
import sys

from .errors import LpFailure, MalformedInstanceError, MpsParseError
from .harness import (
    POLICY_ALL,
    POLICY_NAMED,
    POLICY_TOP,
    RunConfig,
    format_metrics,
    run_separation,
    solve_relaxation,
)
from .mpsio import parse_mps_file, parse_solution_file, write_cuts, write_solution

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_LP = 3

_DEFAULTS = RunConfig()
_START_ROWS = "top:%d" % _DEFAULTS.start_k
_TUNABLES = ("maxaggr", "density_threshold", "max_bad_vars", "max_useful_rows",
             "violation_threshold")


class _BadInput(Exception):
    """A flag that names something the instance lacks."""


def _start_rows(spec):
    """``--start-rows`` as RunConfig fields: 'all', 'top:K' (K >= 1) or row names."""
    if spec == "all":
        return {"start_policy": POLICY_ALL}
    if spec.startswith("top:"):
        try:
            k = int(spec[4:])
        except ValueError:
            k = 0
        if k < 1:
            raise argparse.ArgumentTypeError("top:K needs an integer K >= 1, got %r" % spec)
        return {"start_policy": POLICY_TOP, "start_k": k}
    return {"start_policy": POLICY_NAMED, "start_names": tuple(spec.split(","))}


def _load(args):
    instance = parse_mps_file(args.instance)
    for name in args.start_rows.get("start_names", ()):
        if name not in instance.row_index:
            raise _BadInput("--start-rows names unknown row %r" % name)
    if getattr(args, "solution", None):
        point = parse_solution_file(args.solution, instance)
        duals = None
    else:
        point, duals = solve_relaxation(instance)
    return instance, point, duals


def _config(args, algorithm):
    """RunConfig from the flags; a flag the subcommand lacks keeps its default."""
    given = {name: getattr(args, name) for name in _TUNABLES if hasattr(args, name)}
    return RunConfig(algorithm=algorithm, **args.start_rows, **given)


def cmd_separate(args):
    instance, point, duals = _load(args)
    result = run_separation(instance, point, _config(args, args.algo), duals)
    with open(args.out, "w") as fh:
        write_cuts(result.cuts, fh)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write("instance %s\n" % instance.name)
            fh.write(format_metrics(result.metrics))
    for diag in result.diagnostics:
        print(diag, file=sys.stderr)
    return EXIT_OK


def cmd_relax(args):
    instance = parse_mps_file(args.instance)
    point, _ = solve_relaxation(instance)
    with open(args.out, "w") as fh:
        write_solution(point, instance, fh)
    return EXIT_OK


def cmd_compare(args):
    instance, point, duals = _load(args)
    result = run_separation(instance, point, _config(args, "both"), duals)
    report = "instance %s\n" % instance.name + format_metrics(result.metrics)
    with open(args.report, "w") as fh:
        fh.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            write_cuts(result.cuts, fh)
    sys.stdout.write(report)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="aggsep",
                                description="Aggregation-based c-MIR cut separation")
    sub = p.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="run one separation round")
    sep.add_argument("--instance", required=True)
    sep.add_argument("--solution")
    sep.add_argument("--algo", choices=["mw", "lasso", "both"], default="both")
    sep.add_argument("--maxaggr", type=int, default=_DEFAULTS.maxaggr)
    sep.add_argument("--density-threshold", type=float,
                     default=_DEFAULTS.density_threshold, dest="density_threshold")
    sep.add_argument("--max-bad-vars", type=int, default=_DEFAULTS.max_bad_vars,
                     dest="max_bad_vars")
    sep.add_argument("--max-useful-rows", type=int, default=_DEFAULTS.max_useful_rows,
                     dest="max_useful_rows")
    sep.add_argument("--start-rows", type=_start_rows, default=_START_ROWS,
                     dest="start_rows", help="'all', 'top:K', or comma-separated row names")
    sep.add_argument("--violation-threshold", type=float,
                     default=_DEFAULTS.violation_threshold, dest="violation_threshold")
    sep.add_argument("--out", required=True)
    sep.add_argument("--report")
    sep.set_defaults(func=cmd_separate)

    rel = sub.add_parser("relax", help="solve the LP relaxation")
    rel.add_argument("--instance", required=True)
    rel.add_argument("--out", required=True)
    rel.set_defaults(func=cmd_relax)

    cmp_ = sub.add_parser("compare", help="run both aggregators side by side")
    cmp_.add_argument("--instance", required=True)
    cmp_.add_argument("--solution")
    cmp_.add_argument("--report", required=True)
    cmp_.add_argument("--out")
    cmp_.add_argument("--start-rows", type=_start_rows, default=_START_ROWS,
                      dest="start_rows")
    cmp_.add_argument("--maxaggr", type=int, default=_DEFAULTS.maxaggr)
    cmp_.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MpsParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except (MalformedInstanceError, _BadInput, OSError) as exc:
        print("bad input: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except LpFailure as exc:
        print("LP failure: %s" % exc, file=sys.stderr)
        return EXIT_LP


if __name__ == "__main__":
    sys.exit(main())
