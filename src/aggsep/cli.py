"""Command-line front end: separate / relax / compare."""

import argparse
import sys

from .errors import LpFailure, MpsParseError
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


def _start_policy(spec):
    if spec == "all":
        return POLICY_ALL, 0, ()
    if spec.startswith("top:"):
        return POLICY_TOP, int(spec.split(":", 1)[1]), ()
    return POLICY_NAMED, 0, tuple(spec.split(","))


def _load(args):
    instance = parse_mps_file(args.instance)
    if getattr(args, "solution", None):
        point = parse_solution_file(args.solution, instance)
        duals = None
    else:
        point, duals = solve_relaxation(instance)
    return instance, point, duals


def _config(args, algorithm):
    policy, k, names = _start_policy(getattr(args, "start_rows", "top:20"))
    return RunConfig(
        algorithm=algorithm,
        maxaggr=getattr(args, "maxaggr", 6),
        density_threshold=getattr(args, "density_threshold", 0.0),
        max_bad_vars=getattr(args, "max_bad_vars", 50),
        max_useful_rows=getattr(args, "max_useful_rows", 5000),
        start_policy=policy,
        start_k=k or 20,
        start_names=names,
        violation_threshold=getattr(args, "violation_threshold", 1e-4),
    )


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
    sep.add_argument("--maxaggr", type=int, default=6)
    sep.add_argument("--density-threshold", type=float, default=0.0,
                     dest="density_threshold")
    sep.add_argument("--max-bad-vars", type=int, default=50, dest="max_bad_vars")
    sep.add_argument("--max-useful-rows", type=int, default=5000,
                     dest="max_useful_rows")
    sep.add_argument("--start-rows", default="top:20", dest="start_rows",
                     help="'all', 'top:K', or comma-separated row names")
    sep.add_argument("--violation-threshold", type=float, default=1e-4,
                     dest="violation_threshold")
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
    cmp_.add_argument("--start-rows", default="top:20", dest="start_rows")
    cmp_.add_argument("--maxaggr", type=int, default=6)
    cmp_.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MpsParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except LpFailure as exc:
        print("LP failure: %s" % exc, file=sys.stderr)
        return EXIT_LP


if __name__ == "__main__":
    sys.exit(main())
