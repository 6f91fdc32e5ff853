"""Per-layer spans recorded from outside ``aggsep``.

Each ``aggsep`` module looks its collaborators up as module attributes at
call time (``harness.solve_lp``, ``lasso.solve_lp``, ``lp.ratio_test``,
...).  ``Tracer.install`` rebinds those attributes to wrappers that time the
call and count its outcome, and ``Tracer.remove`` restores them, so the
untraced rounds run the unmodified program.

A span's self time is its duration minus the time of the spans it
encloses.  Spans are folded into per-name totals as they close instead of
being stored one by one: ``ratio_test`` alone makes tens of thousands of
spans per round.
"""

import functools
import time
from collections import defaultdict

# (module, attribute, span name, outcome hook).  The span name is
# "<layer>.<what>"; the hook, if any, is the Tracer method "_on_<hook>".
PATCHES = [
    ("mpsio", "parse_mps", "mpsio.parse", "parse_mps"),
    ("mpsio", "parse_solution", "mpsio.parse", None),
    ("mpsio", "write_cuts", "mpsio.write", None),
    ("mpsio", "normalize_rows", "instance.build", None),
    ("mpsio", "MilpInstance", "instance.build", None),
    ("mpsio", "detect_variable_bounds", "instance.build", None),
    ("preprocess", "detect_variable_bounds", "instance.build", None),
    ("harness", "run_separation", "harness.run", None),
    ("harness", "solve_relaxation", "harness.run", None),
    ("harness", "sparsity_metrics", "harness.metrics", None),
    ("harness", "preprocess", "preprocess.run", "preprocess"),
    ("harness", "mw_aggregate", "mw.run", "mw"),
    ("harness", "lasso_aggregate", "lasso.run", "lasso"),
    ("lasso", "build_lasso_lp", "lasso.build", None),
    ("lasso", "build_reweighted_lp", "lasso.build", None),
    ("harness", "solve_lp", "lp.relax", "relax_lp"),
    ("lasso", "solve_lp", "lp.lasso", "lasso_lp"),
    ("lp", "ratio_test", "kernels.ratio_test", None),
    ("mw", "make_result", "aggregate.make_result", None),
    ("lasso", "make_result", "aggregate.make_result", None),
    ("harness", "separate_on_aggregation", "cmir.separate", "separate"),
    ("cmir", "bound_substitute", "cmir.bound_sub", "bound_sub"),
    ("cmir", "select_partition_and_delta", "cmir.search", "search"),
    ("cmir", "cmir_inequality", "cmir.inequality", "inequality"),
]

NOCUT_REASONS = ("no_bound", "no_integer", "integral_point", "all_degenerate",
                 "below_threshold")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []  # child time accumulated per open span
        self._saved = []
        self._sep = None  # outcome notes of the open cmir.separate span

    # -- installing -------------------------------------------------------
    def install(self, package):
        import importlib

        self.missing = []
        for mod_name, attr, span, hook in PATCHES:
            mod = importlib.import_module("%s.%s" % (package, mod_name))
            if not hasattr(mod, attr):
                self.missing.append("%s.%s" % (mod_name, attr))
                continue
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span, orig, hook and getattr(self, "_on_" + hook)))
        inst = importlib.import_module(package + ".instance").MilpInstance
        prop = inst.__dict__.get("matrix")
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(self._wrap("instance.build", prop.func, None))
            wrapped.__set_name__(inst, "matrix")
            self._saved.append((inst, "matrix", prop))
            setattr(inst, "matrix", wrapped)

    def remove(self):
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved = []

    def _wrap(self, span, fn, hook):
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if span == "cmir.separate":
                self._sep = {}
            frame = [0.0]
            stack.append(frame)
            out = err = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                err = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.self_s[span] += dt - frame[0]
                self.calls[span] += 1
                if hook is not None:
                    hook(out, err, args, kwargs)
            return out

        return traced

    # -- outcome hooks ----------------------------------------------------
    def _on_parse_mps(self, out, err, args, kwargs):
        if out is not None:
            self.counts["instance.dense_mb"] += out.n_rows * out.n_vars * 8 / 1e6

    def _on_preprocess(self, out, err, args, kwargs):
        if out is not None:
            self.counts["preprocess.bad_vars"] += len(out.bad_vars)
            self.counts["preprocess.useful_rows"] += len(out.useful_rows)

    def _on_mw(self, out, err, args, kwargs):
        if out is not None:
            self.counts["mw.aggregations"] += len(out)

    def _on_lasso(self, out, err, args, kwargs):
        if out is not None:
            self.counts["lasso.aggregations"] += len(out)
        elif err is not None:
            self.counts["lasso.start_failures"] += 1

    def _on_relax_lp(self, out, err, args, kwargs):
        if out is not None:
            self.counts["lp.relax_pivots"] += out.iterations

    def _on_lasso_lp(self, out, err, args, kwargs):
        if out is not None:
            self.counts["lp.lasso_pivots"] += out.iterations
        if kwargs.get("warm", args[1] if len(args) > 1 else None) is not None:
            self.counts["lp.warm_offered"] += 1

    def _on_separate(self, out, err, args, kwargs):
        notes, self._sep = self._sep, None
        if out is not None:
            self.counts["cmir.cuts"] += 1
        elif err is None:
            self.counts["cmir.nocut." + notes.get("reason", "integral_point")] += 1

    def _on_bound_sub(self, out, err, args, kwargs):
        if self._sep is None or err is not None:
            return
        if out is None:
            self._sep["reason"] = "no_bound"
        elif out.q == 0:
            self._sep["reason"] = "no_integer"
        else:
            self.counts["cmir.knapsacks"] += 1
            self.counts["cmir.knapsack_len"] += out.q

    def _on_search(self, out, err, args, kwargs):
        if self._sep is not None and out is None and err is None:
            built = self._sep.get("built", 0)
            self._sep["reason"] = "below_threshold" if built else "all_degenerate"

    def _on_inequality(self, out, err, args, kwargs):
        if out is not None:
            if self._sep is not None:
                self._sep["built"] = self._sep.get("built", 0) + 1
        elif type(err).__name__ == "DegenerateCutError":
            self.counts["cmir.degenerate"] += 1
