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


class _BadInput(Exception):
    """A flag that names something the instance lacks."""


def _integer(text, low, name):
    """``text`` as an integer ``name`` >= ``low``, for an argparse type."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError("needs an integer %s >= %d, got %r" % (name, low, text))
    return value


def _start_rows(spec):
    """``--start-rows`` as RunConfig fields: 'all', 'top:K' (K >= 1) or row names."""
    if spec == "all":
        return {"start_policy": POLICY_ALL}
    if spec.startswith("top:"):
        return {"start_policy": POLICY_TOP, "start_k": _integer(spec[4:], 1, "K")}
    return {"start_policy": POLICY_NAMED, "start_names": tuple(spec.split(","))}


def _load(args):
    instance = parse_mps_file(args.instance)
    for name in args.start_rows.get("start_names", ()):
        if name not in instance.row_index:
            raise _BadInput("--start-rows names unknown row %r" % name)
    if args.solution:
        point = parse_solution_file(args.solution, instance)
        duals = None
    else:
        point, duals = solve_relaxation(instance)
    return instance, point, duals


def _config(args, algorithm):
    return RunConfig(algorithm=algorithm, maxaggr=args.maxaggr, **args.start_rows)


def _run(args, algorithm):
    """One separation round: diagnostics to stderr, cuts to ``--out`` if
    given; returns the metrics report text."""
    instance, point, duals = _load(args)
    result = run_separation(instance, point, _config(args, algorithm), duals)
    for diag in result.diagnostics:
        print(diag, file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            write_cuts(result.cuts, fh)
    return "instance %s\n" % instance.name + format_metrics(result.metrics)


def cmd_separate(args):
    report = _run(args, args.algo)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report)
    return EXIT_OK


def cmd_relax(args):
    instance = parse_mps_file(args.instance)
    point, _ = solve_relaxation(instance)
    with open(args.out, "w") as fh:
        write_solution(point, instance, fh)
    return EXIT_OK


def cmd_compare(args):
    report = _run(args, "both")
    with open(args.report, "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return EXIT_OK


def _add_run_flags(parser):
    """The flags ``separate`` and ``compare`` share: input and tuning."""
    parser.add_argument("--instance", required=True)
    parser.add_argument("--solution")
    parser.add_argument("--maxaggr", type=lambda text: _integer(text, 0, "N"),
                        default=_DEFAULTS.maxaggr, metavar="N")
    parser.add_argument("--start-rows", type=_start_rows, default=_START_ROWS,
                        dest="start_rows", help="'all', 'top:K', or comma-separated row names")


def build_parser():
    p = argparse.ArgumentParser(prog="aggsep",
                                description="Aggregation-based c-MIR cut separation")
    sub = p.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="run one separation round")
    _add_run_flags(sep)
    sep.add_argument("--algo", choices=["mw", "lasso", "both"], default="both")
    sep.add_argument("--out", required=True)
    sep.add_argument("--report")
    sep.set_defaults(func=cmd_separate)

    rel = sub.add_parser("relax", help="solve the LP relaxation")
    rel.add_argument("--instance", required=True)
    rel.add_argument("--out", required=True)
    rel.set_defaults(func=cmd_relax)

    cmp_ = sub.add_parser("compare", help="run both aggregators side by side")
    _add_run_flags(cmp_)
    cmp_.add_argument("--report", required=True)
    cmp_.add_argument("--out")
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
