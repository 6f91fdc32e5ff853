"""Separation benchmark for aggsep: one round is MPS text to serialized cuts.

Usage (from the repository root):

    python3 sepbench/run.py --workload planted-point --seed 1 --seconds 24 --trace 0

A round is what ``aggsep separate`` does, in process and on in-memory
text: ``parse_mps`` -> ``parse_solution`` or ``solve_relaxation`` ->
``run_separation`` -> ``write_cuts`` into a buffer.  Load is a closed loop:
one process runs one round at a time over a pool of planted instances
drawn from ``--seed`` (see ``gen.py``), with BLAS held to one thread.

``--trace 0`` times rounds for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced rounds over whole
passes of the pool and reports per-layer metrics (see ``spans.py``).
Either way the reference checks in ``oracle.py`` decide ``correct``:

* the generator gives the same instances on every set-up;
* every aggregation equals lam^T (A x <= b) with lam >= 0;
* every relaxation objective matches scipy's HiGHS (relax-point);
* every round of one instance gives the same cuts and metrics;
* the cut-validity oracle passes its self-test.

Invalid cuts do not make a run incorrect: they are counted in
``invalid_cut_rate`` so that a known defect shows while the run completes.

Every line but the last is a human-readable report of every metric; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/aggsep`` beside this directory
the benchmark exits with status 2 and prints no result.
"""

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS thread: with the interpreter's own thread this stays within the
# two cores the benchmark is sized for, and avoids BLAS wake-up noise.  The
# variables only act if set before numpy loads, so numpy, aggsep and the
# benchmark's own modules are imported inside functions, after main sets them.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 3
REPEAT_SAMPLE = 2  # instances separated twice after timing, to compare outputs
TRACE_POOL = 8  # instances the traced run cycles through
TAIL_BEYOND = 10  # the tail percentile keeps this many rounds above it
AGG_TOL = 1e-9  # scaled deviation allowed between an aggregation and lam^T (A, b)
VIOLATION_TOL = 1e-6  # relative gap between reported and recomputed violation
ORACLE_BUDGET_S = 60.0  # cut-validity solves past this leave the rest unchecked
EXIT_NO_PACKAGE = 2


@dataclass
class Workload:
    shape: tuple  # gen.Shape fields
    pool: int  # instances drawn per seed, more than the timed rounds reach
    relax: bool  # separate at the LP-relaxation optimum, not the planted point
    start: str  # "all" or "top" (top:20)


# Why each workload exists is recorded in BENCHMARK.json.  Round times
# vary by about a quarter between instances, so every timed round takes a
# fresh instance: many distinct instances keep the medians steady from seed
# to seed.  The pools outlast a 30 s run on the 2-core VM they were sized on.
WORKLOADS = {
    # 40 x 100 at the planted point, --algo both --start-rows all
    "planted-point": Workload((40, 60, 16, 24, 3, 1.0), 100, False, "all"),
    # 120 x 300, no solution given: cold relaxation, then top:20 with duals
    "relax-point": Workload((140, 160, 50, 70, 3, 1.0), 50, True, "top"),
    # 1000 x 2000 sparse, 8 planted rows with long integer parts, top:20
    "wide-sparse": Workload((400, 1600, 8, 992, 1, 0.3), 32, False, "top"),
}

END_TO_END = {
    "setup_s": "s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Kept:
    """The part of an instance's first output the checks after timing need."""

    point: object  # in the generator's variable order
    cut_text: str
    ratios: dict  # algorithm -> Table-2 ratio or None


@dataclass
class Tally:
    times: list = field(default_factory=list)  # seconds per completed timed round
    attempted: int = 0
    errors: list = field(default_factory=list)
    objectives: list = field(default_factory=list)  # (instance, objective, timed)
    kept: dict = field(default_factory=dict)  # instance -> Kept
    digests: dict = field(default_factory=dict)  # instance -> set of output digests
    runs: dict = field(default_factory=dict)  # instance -> rounds that produced output
    aggregations: int = 0
    agg_worst: float = 0.0  # largest scaled deviation seen


class Rounder:
    """Runs rounds and checks what each produced, outside the timed part."""

    def __init__(self, mpsio, harness, config, relax, pool):
        self.mpsio = mpsio
        self.harness = harness
        self.config = config
        self.relax = relax
        self.pool = pool

    def round(self, p):
        # module attributes are looked up per call, so a Tracer can rebind them
        mpsio, harness = self.mpsio, self.harness
        inst = mpsio.parse_mps(io.StringIO(p.mps), p.name)
        if self.relax:
            point, duals = harness.solve_relaxation(inst)
        else:
            point, duals = mpsio.parse_solution(io.StringIO(p.sol), inst), None
        result = harness.run_separation(inst, point, self.config, duals)
        buf = io.StringIO()
        mpsio.write_cuts(result.cuts, buf)
        return inst, point, result, buf.getvalue()

    def timed(self, idx, tally, record_time=True):
        """One round of pool[idx]; returns its duration, or None if it raised."""
        p = self.pool[idx]
        if record_time:
            tally.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.round(p)
        except Exception as exc:  # a failed round is counted, not fatal
            tally.errors.append("%s: %s: %s" % (p.name, type(exc).__name__, exc))
            return None
        dt = time.perf_counter() - t0
        if record_time:
            tally.times.append(dt)
        self.record(idx, out, tally, record_time)
        return dt

    def record(self, idx, out, tally, timed):
        import numpy as np

        p = self.pool[idx]
        inst, point, result, cut_text = out
        col = [inst.var_index[v] for v in p.var_names]
        point = np.asarray(point, dtype=float)[col]
        objective = float(p.obj @ point)
        if self.relax:
            tally.objectives.append((idx, objective, timed))
        metrics_text = self.harness.format_metrics(result.metrics)
        digest = hashlib.sha256(
            (cut_text + metrics_text + repr(objective)).encode()).hexdigest()
        tally.digests.setdefault(idx, set()).add(digest)
        tally.runs[idx] = tally.runs.get(idx, 0) + 1
        if idx in tally.kept:
            return
        import oracle

        for aggs in result.aggregations.values():
            for agg in aggs:
                factors = {inst.rows[i].name: lam for i, lam in agg.factors.items()}
                alpha = np.asarray(agg.alpha, dtype=float)[col]
                err = oracle.aggregation_error(p, factors, alpha, float(agg.beta))
                tally.aggregations += 1
                tally.agg_worst = max(tally.agg_worst, err)
        tally.kept[idx] = Kept(
            point=point,
            cut_text=cut_text,
            ratios={a: m.ratio for a, m in result.metrics.items()},
        )


def timed_loop(rounder, tally, seconds):
    """Closed loop through the pool until ``seconds`` of rounds have run.

    The pool outlasts the run on the machine it was sized for; a faster
    machine wraps around and times some instances twice.
    """
    n = len(rounder.pool)
    i = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(tally.times) <= TAIL_BEYOND:
        rounder.timed(i % n, tally)
        i += 1
        if tally.attempted > 10 * TAIL_BEYOND and not tally.times:
            break  # every round raises


def trace_loop(rounder, tally, tracer, seconds):
    """Whole passes of untraced/traced pairs, as many as fit in ``seconds``.

    At least one pass runs.  Whole passes make the per-round counts the same
    on every run of a seed.  The order within a pair alternates.  Returns
    (traced times, untraced times of the same rounds, traced round count).
    """
    traced = []
    untraced = []
    t_start = time.perf_counter()
    k = 0
    while True:
        t_pass = time.perf_counter()
        for idx in range(min(TRACE_POOL, len(rounder.pool))):
            pair = {}
            for trace_it in ((False, True) if k % 2 == 0 else (True, False)):
                if trace_it:
                    tracer.install("aggsep")
                    try:
                        pair[True] = rounder.timed(idx, tally, record_time=False)
                    finally:
                        tracer.remove()
                else:
                    pair[False] = rounder.timed(idx, tally)
            k += 1
            if pair[True] is not None and pair[False] is not None:
                traced.append(pair[True])
                untraced.append(pair[False])
        now = time.perf_counter()
        if now + (now - t_pass) > t_start + seconds:
            return traced, untraced, k


def tail_of(times):
    """Highest nearest-rank percentile with TAIL_BEYOND rounds above it."""
    times = sorted(times)
    n = len(times)
    if n <= TAIL_BEYOND:  # a traced run times few untraced rounds
        return 100.0, times[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, times[n - TAIL_BEYOND - 1]


class Report:
    def __init__(self):
        self.lines = []

    def metric(self, name, value, unit, note=""):
        self.lines.append("%-28s %14.6g %-6s %s" % (name, value, unit, note))

    def note(self, name, text):
        self.lines.append("%-28s %s" % (name, text))


def check_outputs(rounder, tally, report):
    """Reference checks after timing; returns (correct, failed rounds)."""
    import numpy as np

    import oracle

    ok = True
    failures = oracle.self_test()
    report.note("oracle_self_test", "; ".join(failures) or "passed (flags z + 2x <= 0)")
    ok &= not failures

    worst = tally.agg_worst
    agg_ok = worst <= AGG_TOL
    report.note("aggregation_check", "%s: %d aggregations, worst scaled deviation %.3g"
                % ("passed" if agg_ok else "FAILED", tally.aggregations, worst))
    ok &= agg_ok

    unstable = sorted(rounder.pool[i].name for i, d in tally.digests.items() if len(d) > 1)
    ok &= not unstable
    repeated = sum(n > 1 for n in tally.runs.values())
    report.note("determinism", "%s: %d instances separated more than once"
                % ("FAILED on " + ", ".join(unstable) if unstable else "passed", repeated))
    if not tally.kept:
        ok = False

    bad_rounds = 0  # timed rounds whose relaxation disagrees with the reference
    if rounder.relax:
        ref = {}
        bad = 0
        for idx, obj, timed in tally.objectives:
            if idx not in ref:
                ref[idx] = oracle.relaxation_objective(rounder.pool[idx])
            agrees = oracle.relaxation_agrees(obj, ref[idx])
            bad += not agrees
            bad_rounds += timed and not agrees
        report.note("relaxation_check", "%s: %d of %d objectives match HiGHS"
                    % ("passed" if not bad else "FAILED",
                       len(tally.objectives) - bad, len(tally.objectives)))
        ok &= not bad

    # quality of what was separated, one output per distinct instance
    verdicts = {oracle.VALID: 0, oracle.INVALID: 0, oracle.UNCHECKED: 0}
    mismatch = 0
    n_cuts = 0
    ratios = {"mw": [], "lasso": []}
    wins = 0
    compared = 0
    budget_end = time.perf_counter() + ORACLE_BUDGET_S
    for idx in sorted(tally.kept):
        p = rounder.pool[idx]
        kept = tally.kept[idx]
        brows = oracle.bound_rows(p)
        col = {v: j for j, v in enumerate(p.var_names)}
        for cut in oracle.parse_cut_lines(kept.cut_text):
            n_cuts += 1
            left = budget_end - time.perf_counter()
            verdict = oracle.UNCHECKED
            if left > 0:
                verdict, _ = oracle.cut_verdict(p, cut, brows, min(left, oracle.MILP_TIME_LIMIT))
            verdicts[verdict] += 1
            lhs = sum(c * kept.point[col[v]] for v, c in cut["coefficients"].items())
            recomputed = lhs - cut["rhs"]
            if abs(recomputed - cut["violation"]) > VIOLATION_TOL * (1.0 + abs(cut["rhs"])):
                mismatch += 1
        r = kept.ratios
        for a in ratios:
            if r.get(a) is not None:
                ratios[a].append(r[a])
        if r.get("mw") is not None and r.get("lasso") is not None:
            compared += 1
            wins += r["lasso"] <= r["mw"]
    n_inst = max(len(tally.kept), 1)
    quality = {
        "cuts_per_round": n_cuts / n_inst,
        "invalid_cut_rate": verdicts[oracle.INVALID] / n_cuts if n_cuts else 0.0,
        "unchecked_cuts": float(verdicts[oracle.UNCHECKED]),
        "violation_mismatch": mismatch / n_cuts if n_cuts else 0.0,
        "mw_ratio": float(np.mean(ratios["mw"])) if ratios["mw"] else 0.0,
        "lasso_ratio": float(np.mean(ratios["lasso"])) if ratios["lasso"] else 0.0,
        "lasso_win_rate": wins / compared if compared else 0.0,
    }
    report.metric("cuts_per_round", quality["cuts_per_round"], "count",
                  "%d cuts over %d instances" % (n_cuts, len(tally.kept)))
    report.metric("invalid_cut_rate", quality["invalid_cut_rate"], "share",
                  "%d of %d cuts invalid, %d unchecked"
                  % (verdicts[oracle.INVALID], n_cuts, verdicts[oracle.UNCHECKED]))
    report.metric("violation_mismatch", quality["violation_mismatch"], "share",
                  "%d of %d cuts report a violation off the recomputed one"
                  % (mismatch, n_cuts))
    report.metric("mw_ratio", quality["mw_ratio"], "ratio", "mean of %d" % len(ratios["mw"]))
    report.metric("lasso_ratio", quality["lasso_ratio"], "ratio",
                  "mean of %d" % len(ratios["lasso"]))
    report.metric("lasso_win_rate", quality["lasso_win_rate"], "share",
                  "%d of %d instances with lasso ratio <= mw ratio" % (wins, compared))
    report.note("ratios", json.dumps([
        [rounder.pool[i].name, tally.kept[i].ratios.get("mw"), tally.kept[i].ratios.get("lasso")]
        for i in sorted(tally.kept)]))
    return bool(ok), bad_rounds, quality


def layer_metrics(tracer, traced, untraced, rounds, quality):
    """Per-layer metrics per traced round, plus the tracing overhead."""
    import spans

    s = tracer.self_s
    c = tracer.counts
    calls = tracer.calls
    per = 1.0 / rounds
    pivots = c["lp.lasso_pivots"] + c["lp.relax_pivots"]
    knap = c["cmir.knapsacks"]
    seps = calls["cmir.separate"]
    out = {
        "mpsio.parse_s": (s["mpsio.parse"] * per, "s"),
        "mpsio.write_s": (s["mpsio.write"] * per, "s"),
        "mpsio.kb_in": (c["mpsio.kb_in"] * per, "KB"),
        "instance.build_s": (s["instance.build"] * per, "s"),
        "instance.dense_mb": (c["instance.dense_mb"] * per, "MB"),
        "preprocess.s": (s["preprocess.run"] * per, "s"),
        "preprocess.bad_vars": (c["preprocess.bad_vars"] / max(calls["preprocess.run"], 1), "count"),
        "preprocess.useful_rows": (c["preprocess.useful_rows"] / max(calls["preprocess.run"], 1),
                                   "count"),
        "mw.self_s": (s["mw.run"] * per, "s"),
        "mw.starts": (calls["mw.run"] * per, "count"),
        "mw.aggregations": (c["mw.aggregations"] * per, "count"),
        "lasso.self_s": (s["lasso.run"] * per, "s"),
        "lasso.build_s": (s["lasso.build"] * per, "s"),
        "lasso.starts": (calls["lasso.run"] * per, "count"),
        "lasso.aggregations": (c["lasso.aggregations"] * per, "count"),
        "lasso.start_failures": (c["lasso.start_failures"] * per, "count"),
        "lp.lasso_solve_s": (s["lp.lasso"] * per, "s"),
        "lp.lasso_solves": (calls["lp.lasso"] * per, "count"),
        "lp.lasso_pivots": (c["lp.lasso_pivots"] * per, "count"),
        "lp.warm_offered": (c["lp.warm_offered"] * per, "count"),
        "lp.relax_s": (s["lp.relax"] * per, "s"),
        "lp.relax_pivots": (c["lp.relax_pivots"] * per, "count"),
        "lp.s_per_pivot": ((s["lp.lasso"] + s["lp.relax"] + s["kernels.ratio_test"])
                           / pivots if pivots else 0.0, "s"),
        "kernels.ratio_test_calls": (calls["kernels.ratio_test"] * per, "count"),
        "kernels.ratio_test_s": (s["kernels.ratio_test"] * per, "s"),
        "aggregate.make_result_s": (s["aggregate.make_result"] * per, "s"),
        "aggregate.results": (calls["aggregate.make_result"] * per, "count"),
        "cmir.separate_s": (s["cmir.separate"] * per, "s"),
        "cmir.bound_sub_s": (s["cmir.bound_sub"] * per, "s"),
        "cmir.search_s": (s["cmir.search"] * per, "s"),
        "cmir.inequality_calls": (calls["cmir.inequality"] * per, "count"),
        "cmir.inequality_s": (s["cmir.inequality"] * per, "s"),
        "cmir.degenerate": (c["cmir.degenerate"] * per, "count"),
        "cmir.knapsack_len_mean": (c["cmir.knapsack_len"] / knap if knap else 0.0, "count"),
        "cmir.cut_yield": (c["cmir.cuts"] / seps if seps else 0.0, "share"),
    }
    for reason in spans.NOCUT_REASONS:
        out["cmir.nocut." + reason] = (c["cmir.nocut." + reason] * per, "count")
    out.update({
        "cmir.violation_mismatch": (quality["violation_mismatch"], "share"),
        "cmir.invalid_cut_rate": (quality["invalid_cut_rate"], "share"),
        "cmir.unchecked_cuts": (quality["unchecked_cuts"], "count"),
        "cmir.cuts_per_round": (quality["cuts_per_round"], "count"),
        "harness.self_s": (s["harness.run"] * per, "s"),
        "harness.metrics_s": (s["harness.metrics"] * per, "s"),
        "harness.mw_ratio": (quality["mw_ratio"], "ratio"),
        "harness.lasso_ratio": (quality["lasso_ratio"], "ratio"),
        "harness.lasso_win_rate": (quality["lasso_win_rate"], "share"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    })
    return out


def import_seconds(src):
    """Median time to import aggsep (numpy included) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import aggsep.harness, aggsep.mpsio; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-B", "-c", code, src], capture_output=True,
                             text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description="aggsep separation benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aggsep", "__init__.py")):
        print("sepbench: no aggsep package under %s" % src, file=sys.stderr)
        return EXIT_NO_PACKAGE
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import_s = import_seconds(src)
    import aggsep.harness
    import aggsep.mpsio
    import gen

    builds = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        pool = None  # let the previous build go before timing the next
        t0 = time.perf_counter()
        pool = gen.pool(args.seed, gen.Shape(*wl.shape), wl.pool, args.workload[:2])
        builds.append(time.perf_counter() - t0)
        digest = hashlib.sha256()
        for p in pool:
            digest.update((p.mps + p.sol).encode())
        digests.add(digest.hexdigest())
    generator_stable = len(digests) == 1
    setup_s = import_s + statistics.median(builds)

    harness = aggsep.harness
    config = harness.RunConfig(
        algorithm="both",
        start_policy=harness.POLICY_ALL if wl.start == "all" else harness.POLICY_TOP,
        start_k=20,
    )
    rounder = Rounder(aggsep.mpsio, harness, config, wl.relax, pool)
    tally = Tally()
    rounder.timed(0, tally, record_time=False)  # warm-up: lazy imports, first calls

    if args.trace:
        import spans

        tracer = spans.Tracer()
        traced, untraced, traced_rounds = trace_loop(rounder, tally, tracer, args.seconds)
        # traced rounds cover whole passes, so the pass mean is the round mean
        tracer.counts["mpsio.kb_in"] = traced_rounds * statistics.mean(
            len(p.mps) + (0 if wl.relax else len(p.sol)) for p in pool[:TRACE_POOL]) / 1024.0
    else:
        timed_loop(rounder, tally, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_check = time.perf_counter()
    # separate a sample twice at least, so that outputs can be compared
    for idx in range(REPEAT_SAMPLE):
        for _ in range(2 - min(tally.runs.get(idx, 0), 2)):
            rounder.timed(idx, tally, record_time=False)

    report = Report()
    report.note("workload", "%s seed %d, %d instances of %d x %d, %s"
                % (args.workload, args.seed, len(pool), pool[0].n_rows,
                   pool[0].n_vars, "relaxation point" if wl.relax else "planted point"))
    report.note("threads", "one round at a time; %s=%s" % ("/".join(THREAD_VARS), BLAS_THREADS))
    report.note("generator_stable", "passed" if generator_stable else "FAILED")
    correct, bad_rounds, quality = check_outputs(rounder, tally, report)
    correct = correct and generator_stable
    report.note("check_time", "%.1f s of repeats and reference checks after timing"
                % (time.perf_counter() - t_check))
    for e in tally.errors[:5]:
        report.note("round_error", e)

    n = len(tally.times)
    failed = tally.attempted - n + bad_rounds
    report.metric("round_fail_rate", failed / max(tally.attempted, 1), "share",
                  "%d of %d rounds" % (failed, tally.attempted))
    if not n:
        for line in report.lines:
            print(line)
        print("sepbench: no round completed", file=sys.stderr)
        return 1
    tail_pct, tail = tail_of(tally.times)
    e2e = {
        "setup_s": setup_s,
        "round_p50_s": statistics.median(tally.times),
        "round_tail_s": tail,
        "rounds_per_s": n / sum(tally.times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": "median import %.3f s + median input build, of %d each" % (
            import_s, SETUP_REPEATS),
        "round_p50_s": "median of %d rounds" % n,
        "round_tail_s": "p%.1f of %d rounds" % (tail_pct, n),
    }
    for name, value in e2e.items():
        report.metric(name, value, END_TO_END[name], notes.get(name, ""))

    if args.trace:
        layers = layer_metrics(tracer, traced, untraced, traced_rounds, quality)
        for name, (value, unit) in layers.items():
            report.metric(name, value, unit)
        if tracer.missing:
            report.note("trace_missing", ", ".join(tracer.missing))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    report.note("round_times", " ".join("%.4f" % t for t in sorted(tally.times)))
    for line in report.lines:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
