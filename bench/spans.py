"""Span recorder for the benchmark's traced runs.

The recorder wraps the public functions of each weakhj module from the
outside.  A wrapper is installed under every name that points at the
function, in its own module, in the modules that import it and in the
package namespace, so a nested call such as `reports.mlsi_verify` or
`hj.weak_infconv` is attributed to the right layer and parent.  Spans
stay in memory (name, start, end, parent id, phase and a few result
fields) and are written out once, at the end of the run.
"""

import contextlib
import functools
import json
import statistics
import time

LAYERS = ("space", "calculus", "hj", "transport", "funcineq", "reports", "cli")

# Public helpers that run once per point, per ascent step or per argument
# check.  Like the `cost` methods they would swamp the trace, so their
# time counts toward their callers' self time.
LEAVES = frozenset({
    "calculus.distance_profile", "calculus.convex_envelope",
    "funcineq.variance", "funcineq.entropy_exp", "funcineq.lp_norm",
    "funcineq.classical_mlsi_rhs", "funcineq.gross_rhs",
    "space.as_measure", "space.as_function",
})


def _solve_info(res):
    return {"iters": int(res.iterations), "converged": bool(res.converged),
            "gap": float(res.gap)}


def _qtilde_info(res):
    hull = [len(env.us) for env in res.envelopes]
    return {"points": len(hull), "hull": sum(hull)}


def _estimate_info(rep):
    return {"restarts": int(rep.restarts), "iters": int(rep.iterations)}


# result fields copied into the span, by span name
ANNOTATE = {
    "transport.weak_transport_cost": _solve_info,
    "calculus.weak_infconv": _qtilde_info,
    "funcineq.poincare_estimate": _estimate_info,
    "funcineq.mlsi_verify": _estimate_info,
}


class Recorder:
    """Collects spans while installed; `phase` tags every span opened."""

    def __init__(self):
        self.spans = []     # [id, parent, name, start, end, phase, info]
        self.phase = None
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name,
                    time.perf_counter(), None, self.phase, None]
            spans.append(span)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(out)
            return out

        return wrapper

    def install(self, package):
        """Wrap every public function of the layer modules of `package`."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in LEAVES or not callable(obj)
                        or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for ns in modules:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self, phase, package):
        """Record spans tagged `phase` inside the block."""
        self.phase = phase
        self.install(package)
        try:
            yield
        finally:
            self.uninstall()

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        return [s[4] - s[3] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                                     "start": s[3], "end": s[4],
                                     "phase": s[5], "info": s[6]}) + "\n")


def layer_metrics(recorder, phases):
    """Per-layer metrics over the spans of the given phases."""
    selfs = recorder.self_times()
    rows = [(s, t) for s, t in zip(recorder.spans, selfs) if s[5] in phases]
    names = {s[0]: s[2] for s in recorder.spans}

    def pick(*fns):
        return [(s, t) for s, t in rows if s[2] in fns]

    def self_s(sel):
        return sum(t for _, t in sel)

    def layer(prefix):
        return [(s, t) for s, t in rows if s[2].startswith(prefix + ".")]

    def info(span, key, default=0):
        # a call that raised has no result fields
        return (span[6] or {}).get(key, default)

    m = {}
    solves = pick("transport.weak_transport_cost")
    durs = [(s[4] - s[3]) * 1e3 for s, _ in solves]
    iters = [info(s, "iters") for s, _ in solves]
    conv = sum(info(s, "converged", False) for s, _ in solves)
    m["transport.solve.calls"] = len(solves)
    m["transport.solve.self_s"] = self_s(solves)
    m["transport.solve.ms_p50"] = statistics.median(durs) if durs else 0.0
    m["transport.solve.ms_max"] = max(durs, default=0.0)
    m["transport.solve.iters_total"] = sum(iters)
    m["transport.solve.iters_p50"] = statistics.median(iters) if iters else 0
    m["transport.solve.iters_max"] = max(iters, default=0)
    m["transport.solve.unconverged"] = len(solves) - conv
    m["transport.solve.converged_ratio"] = conv / len(solves) if solves else 1.0
    m["transport.solve.worst_gap"] = max((max(info(s, "gap"), 0.0) for s, _ in solves),
                                         default=0.0)
    for key, fn in (("classical", "classical_transport_cost"),
                    ("oracle", "transport_oracle_small")):
        sel = pick("transport." + fn)
        m[f"transport.{key}.calls"] = len(sel)
        m[f"transport.{key}.self_s"] = self_s(sel)
    m["transport.sweep.self_s"] = self_s(pick("transport.check_transport_entropy",
                                              "transport.dual_sweep"))

    qt = pick("calculus.weak_infconv")
    points = sum(info(s, "points") for s, _ in qt)
    m["calculus.qtilde.calls"] = len(qt)
    m["calculus.qtilde.points"] = points
    m["calculus.qtilde.self_s"] = self_s(qt)
    m["calculus.qtilde.us_per_point"] = self_s(qt) / points * 1e6 if points else 0.0
    m["calculus.qtilde.hull_points_mean"] = (
        sum(info(s, "hull") for s, _ in qt) / points if points else 0.0)
    for key, fn in (("gradient", "tilde_gradient"),
                    ("oracle", "weak_infconv_bruteforce")):
        sel = pick("calculus." + fn)
        m[f"calculus.{key}.calls"] = len(sel)
        m[f"calculus.{key}.self_s"] = self_s(sel)

    m["hj.residual.calls"] = len(pick("hj.hj_residual"))
    m["hj.boundary.calls"] = len(pick("hj.hj_boundary"))
    m["hj.obstruction.calls"] = len(pick("hj.obstruction_search"))
    m["hj.self_s"] = self_s(layer("hj"))

    est = pick("funcineq.poincare_estimate", "funcineq.mlsi_verify")
    restarts = sum(info(s, "restarts") for s, _ in est)
    m["funcineq.estimate.calls"] = len(est)
    m["funcineq.estimate.self_s"] = self_s(est)
    m["funcineq.restarts"] = restarts
    m["funcineq.ascent_iters"] = sum(info(s, "iters") for s, _ in est)
    m["funcineq.ms_per_restart"] = (
        sum(s[4] - s[3] for s, _ in est) / restarts * 1e3 if restarts else 0.0)

    rep = layer("reports")
    m["reports.calls"] = len(rep)
    m["reports.self_s"] = self_s(rep)

    # a build is an outermost space construction: load_space calling
    # build_from_graph calling validate_metric is one build
    builders = {"space.build_example", "space.build_from_graph",
                "space.load_space", "space.validate_metric"}
    sp = layer("space")
    m["space.builds"] = sum(1 for s, _ in sp if s[2] in builders
                            and not names.get(s[1], "").startswith("space."))
    m["space.self_s"] = self_s(sp)
    m["space.validate.self_s"] = self_s(pick("space.validate_metric",
                                             "space.check_metric"))

    cli = pick("cli.run")
    m["cli.calls"] = len(cli)
    m["cli.self_s"] = self_s(cli)
    return m
