"""Interleaved in-process A/B timing of two aggsep trees on benchmark rounds.

Separate-process benchmark runs on a small shared machine cannot resolve
a difference of a few percent: host speed drifts between runs.  This tool
loads the ``src/aggsep`` package of two checkouts into one process under
distinct package names (``aggsep_base`` and ``aggsep_head``) and times
``sepbench`` rounds (``Rounder.round``: parse, point or relaxation,
``run_separation``, ``write_cuts``) of both over the same ``gen.pool``
instances, alternating which tree runs first from one instance to the
next.  Both trees see the same host at the same moment, so each pair of
rounds is a fair comparison.

It prints, per workload, each tree's median round time with its
quartiles, and the median of the per-round ratios head/base with the
number of pairs the head won.  It exits with status 1 if, on any
instance, the two trees' output texts differ (``write_cuts`` plus
``format_metrics``), so it also checks that a change keeps the bytes.
It imports ``sepbench/`` and never edits it.  BLAS is held to one
thread, as in the benchmark.  Run from the repository root, e.g.:

    python3 tools/ab_rounds.py --base ../parent --head . \\
        --workload planted-point --seed 3 --instances 16 --passes 3
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # only acts before numpy is first imported

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "sepbench"))
sys.dont_write_bytecode = True  # leave both checkouts as they are

import gen  # noqa: E402
import run as sepbench  # noqa: E402

SIDES = ("base", "head")


def load_tree(checkout, side):
    """The ``src/aggsep`` package of ``checkout``, imported as ``aggsep_<side>``.

    Returns its (harness, mpsio) modules.  The package imports its own
    modules relatively, so it runs unchanged under the new name.
    """
    pkg_dir = os.path.join(os.path.abspath(checkout), "src", "aggsep")
    init = os.path.join(pkg_dir, "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("ab_rounds: no aggsep package under %s" % pkg_dir)
    name = "aggsep_" + side
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return (importlib.import_module(name + ".harness"),
            importlib.import_module(name + ".mpsio"))


def rounder_for(tree, workload, pool):
    harness, mpsio = tree
    wl = sepbench.WORKLOADS[workload]
    config = harness.RunConfig(
        algorithm="both",
        start_policy=harness.POLICY_ALL if wl.start == "all" else harness.POLICY_TOP,
        start_k=20,
    )
    return sepbench.Rounder(mpsio, harness, config, wl.relax, pool)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def compare(trees, workload, seed, instances, passes):
    """Time ``passes`` interleaved passes over the pool; returns (times, ratios, differing)."""
    wl = sepbench.WORKLOADS[workload]
    pool = gen.pool(seed, gen.Shape(*wl.shape), instances, workload[:2])
    rounders = {side: rounder_for(trees[side], workload, pool) for side in SIDES}
    for side in SIDES:  # warm-up: lazy imports and first calls
        rounders[side].round(pool[0])
    times = {side: [] for side in SIDES}
    ratios = []
    differing = set()
    k = 0
    for _ in range(passes):
        for p in pool:
            took, text = {}, {}
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                harness = trees[side][0]
                t0 = time.perf_counter()
                _, _, result, cut_text = rounders[side].round(p)
                took[side] = time.perf_counter() - t0
                text[side] = cut_text + harness.format_metrics(result.metrics)
            k += 1
            if text["base"] != text["head"]:
                differing.add(p.name)
            for side in SIDES:
                times[side].append(took[side])
            ratios.append(took["head"] / took["base"])
    return times, ratios, sorted(differing)


def main(argv=None):
    ap = argparse.ArgumentParser(description="interleaved A/B rounds of two aggsep trees")
    ap.add_argument("--base", required=True, help="checkout holding the reference src/aggsep")
    ap.add_argument("--head", required=True, help="checkout holding the changed src/aggsep")
    ap.add_argument("--workload", action="append", choices=sorted(sepbench.WORKLOADS),
                    help="repeat for several; default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--instances", type=int, default=16, help="pool instances per pass")
    ap.add_argument("--passes", type=int, default=3)
    args = ap.parse_args(argv)
    if args.instances < 1 or args.passes < 1:
        ap.error("--instances and --passes must be positive")

    trees = {side: load_tree(getattr(args, side), side) for side in SIDES}
    ok = True
    for workload in args.workload or sorted(sepbench.WORKLOADS):
        times, ratios, differing = compare(trees, workload, args.seed, args.instances,
                                           args.passes)
        print("%s seed %d: %d instances x %d passes, %d pairs"
              % (workload, args.seed, args.instances, args.passes, len(ratios)))
        for side in SIDES:
            q1, med, q3 = quartiles(times[side])
            print("  %-4s round median %.4f s  quartiles %.4f .. %.4f s" % (side, med, q1, q3))
        q1, med, q3 = quartiles(ratios)
        wins = sum(r < 1.0 for r in ratios)
        print("  head/base per-round ratio median %.3f  quartiles %.3f .. %.3f; "
              "head faster in %d of %d pairs" % (med, q1, q3, wins, len(ratios)))
        if differing:
            ok = False
            print("  OUTPUT DIFFERS on %s" % ", ".join(differing))
        else:
            print("  output identical on all %d instances" % args.instances)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
