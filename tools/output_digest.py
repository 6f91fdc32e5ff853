"""Digests of aggsep's output bytes on the corpus and on the benchmark generator.

A refactor that must not change results can be checked by running this
before and after it and comparing the lines.  Each line reads
``name digest cuts``: the first 16 hex digits of the sha256 of the
concatenated ``write_cuts`` and ``format_metrics`` texts, and the number
of cuts written.  Each set also has a ``<name>-distinct`` line over its
distinct cuts: per round, the ``cut_to_dict`` records without their
``name``, first occurrences only, in the order written, and their count.
A change that only drops repeated cuts, or renames cuts, keeps it.
A workload that separates at the LP-relaxation point also has a
``<name>-objective`` line: the digest of its relaxation objectives, each
formatted ``%.9g``, one a line, and their count.  A change to the LP
solver may move the optimal vertex, and with it the cuts, but not this
line.  Such a workload's ``<name>-basis`` line is the digest of each
relaxation's final basis, the ``col_status`` of ``solve_lp`` on
``harness.instance_lp``, one instance a line, and their count.

* ``corpus``: every instance of ``tests/data/corpus`` at its bundled
  point, both algorithms, every useful row a starting row.
* one line per ``sepbench`` workload: seeds 1-2 x the first 6 instances
  of each seed's pool, each run as one benchmark round (``Rounder`` with
  the benchmark's ``RunConfig``).

BLAS is held to one thread, as in the benchmark, unless ``--threads N``
sets N: the relaxation's point, and with it relax-point's cuts, can
differ in its last bits with the thread count, while its basis should
not.  Run from the repository root:

    python3 tools/output_digest.py [--threads N]
"""

import argparse
import hashlib
import io
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SEEDS = (1, 2)
PER_SEED = 6
CORPUS_DIR = os.path.join(ROOT, "tests", "data", "corpus")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def distinct_records(cuts):
    """A round's cut records without their names, first occurrences only."""
    from aggsep import mpsio

    records = []
    for cut in cuts:
        record = mpsio.cut_to_dict(cut)
        del record["name"]
        records.append(json.dumps(record))
    return list(dict.fromkeys(records))


def set_lines(name, text, rounds):
    """The set's output line and distinct-cut line; ``rounds`` holds each
    round's cuts, and a blank line ends each round's distinct records."""
    distinct = [distinct_records(cuts) for cuts in rounds]
    distinct_text = "".join("".join(r + "\n" for r in d) + "\n" for d in distinct)
    return [(name, digest(text), sum(map(len, rounds))),
            (name + "-distinct", digest(distinct_text), sum(map(len, distinct)))]


def corpus_lines():
    from aggsep import harness, mpsio

    text, rounds = "", []
    config = harness.RunConfig(algorithm="both", start_policy=harness.POLICY_ALL)
    for fn in sorted(os.listdir(CORPUS_DIR)):
        if not fn.endswith(".mps"):
            continue
        inst = mpsio.parse_mps_file(os.path.join(CORPUS_DIR, fn))
        point = mpsio.parse_solution_file(os.path.join(CORPUS_DIR, fn[:-4] + ".sol"), inst)
        res = harness.run_separation(inst, point, config)
        buf = io.StringIO()
        mpsio.write_cuts(res.cuts, buf)
        text += buf.getvalue() + harness.format_metrics(res.metrics)
        rounds.append(res.cuts)
    return set_lines("corpus", text, rounds)


def workload_lines(name):
    import gen
    import run as sepbench
    from aggsep import harness, mpsio
    from aggsep.lp import solve_lp

    wl = sepbench.WORKLOADS[name]
    config = harness.RunConfig(
        algorithm="both",
        start_policy=harness.POLICY_ALL if wl.start == "all" else harness.POLICY_TOP,
        start_k=20,
    )
    text, rounds, objectives, bases = "", [], [], []
    for seed in SEEDS:
        pool = gen.pool(seed, gen.Shape(*wl.shape), PER_SEED, name[:2])
        rounder = sepbench.Rounder(mpsio, harness, config, wl.relax, pool)
        for p in pool:
            inst, point, res, cut_text = rounder.round(p)
            text += cut_text + harness.format_metrics(res.metrics)
            rounds.append(res.cuts)
            objectives.append("%.9g" % (inst.objective @ point))
            if wl.relax:
                status = solve_lp(harness.instance_lp(inst)).col_status
                bases.append(" ".join(map(str, status)))
    lines = set_lines(name, text, rounds)
    if wl.relax:
        lines.append((name + "-objective", digest("\n".join(objectives)), len(objectives)))
        lines.append((name + "-basis", digest("\n".join(bases)), len(bases)))
    return lines


def main():
    ap = argparse.ArgumentParser(description="Digests of aggsep's output bytes.")
    ap.add_argument("--threads", type=int, default=1, help="BLAS threads (default 1)")
    args = ap.parse_args()
    if args.threads < 1:
        ap.error("--threads must be at least 1")
    for var in THREAD_VARS:
        os.environ[var] = str(args.threads)  # only acts before numpy is first imported
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "sepbench"))
    import run as sepbench

    for lines in [corpus_lines()] + [workload_lines(n) for n in sepbench.WORKLOADS]:
        for line in lines:
            print("%s %s %d" % line)


if __name__ == "__main__":
    main()
