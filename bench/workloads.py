"""The benchmark's four workloads: inputs, operations and reference checks.

A workload is a list of operations that the benchmark runs in rounds.
An operation is one call into weakhj (a transport solve, a Q~_t
evaluation, an estimator call or a CLI invocation) and a check of its
output against a reference that the benchmark computes from the inputs
alone, before any timed round.

Every call goes through a module attribute (`transport.weak_transport_cost`,
not a name bound at import), so the span recorder's wrappers see it.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import weakhj
import weakhj.cli
import weakhj.reports
from weakhj import calculus, cost as costs, hj, space, transport

cli = weakhj.cli
reports = weakhj.reports

SWEEP_TOL = 1e-8           # gap tolerance of check_transport_entropy's sweep
TIGHT_REL = 1e-9           # its re-solve tolerance, relative to H(nu|mu)
JENSEN_SLACK = 1e-9        # weak cost <= classical cost + slack
TRANSPORT_ORACLE_TOL = 1e-6
QTILDE_ORACLE_TOL = 1e-8
BOUND_TOL = 1e-12
TWO_POINT_RATIO = 0.5      # both constants of the two-point space
RATIO_TOL = 1e-6


@dataclass
class Check:
    ok: bool
    err: float = 0.0       # deviation from the reference
    gap: float = None      # duality gap reported by a transport solve
    note: str = ""


@dataclass
class Op:
    key: str               # unique within the workload
    call: object           # () -> output
    check: object          # output -> Check


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    refs: dict = field(default_factory=dict)
    ref_tasks: list = field(default_factory=list)   # (key, () -> value)
    finish: object = None  # called once the references exist

    def shuffle(self, seed):
        order = np.random.default_rng([seed, 1]).permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]

    def compute_references(self):
        for key, fn in self.ref_tasks:
            self.refs[key] = fn()
        if self.finish is not None:
            self.finish()


def build(name, seed, smoke=False, tmpdir=None):
    builder = {"transport": _transport, "qtilde": _qtilde,
               "constants": _constants, "cli_cold": _cli_cold}[name]
    return builder(seed, smoke, tmpdir)


# ---------------------------------------------------------------------------
# shared helpers


def _cost(spec):
    return costs.parse_cost_spec(spec)


def sample_nu(rng, n, index):
    """The law of weakhj's mixed sampler (transport._sample_measure):
    Dirichlet draws at even indices, two-point supports at odd ones."""
    if index % 2 == 0 or n == 1:
        return rng.dirichlet(np.ones(n))
    i, j = rng.choice(n, size=2, replace=False)
    out = np.zeros(n)
    w = rng.random()
    out[i] = w
    out[j] = 1.0 - w
    return out


def relative_entropy(nu, mu):
    pos = nu > 0
    return float(np.sum(nu[pos] * np.log(nu[pos] / mu[pos])))


def classical_infconv(f, t, cost, dist):
    """Point-mass inf-convolution: an upper bound on Q~_t f."""
    return np.min(f[None, :] + t * cost.eval(dist / t), axis=1)


def nonlinear_gradient(f, dist):
    n = f.size
    off = ~np.eye(n, dtype=bool)
    slopes = np.where(off, (f[:, None] - f[None, :]) / np.where(off, dist, 1.0), 0.0)
    return np.maximum(slopes, 0.0).max(axis=1)


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j, w in edges:
        d[i, j] = d[j, i] = min(d[i, j], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def _bounds_err(values, f, t, cost, dist):
    """Violation of min f <= Q~_t f <= point-mass inf-convolution."""
    upper = classical_infconv(f, t, cost, dist)
    lo = float(np.min(f)) - BOUND_TOL * (1 + abs(float(np.min(f))))
    over = np.max(values - upper - BOUND_TOL * (1 + np.abs(upper)))
    return max(0.0, float(over), lo - float(np.min(values)))


def _fail(note):
    return Check(False, note=note)


# ---------------------------------------------------------------------------
# transport: weak transport solves with a heavy iteration tail

# The hard instances are a fixed panel: Frank-Wolfe iteration counts are
# heavy-tailed in nu (one draw in forty can cost a hundred times the
# median), so a panel drawn from the run seed would make wall time a
# lottery.  The panel is the first PANEL_DRAWS draws of the mixed sampler
# under PANEL_SEED for each cell.  The run seed draws the small-space
# instances, whose iteration counts stay at 2 or 3, and the order.
PANEL_SEED = 1
PANEL_DRAWS = 4
PANEL = (("hypercube", 3, "quadratic", "I"),
         ("hypercube", 3, "quadratic", "II"),
         ("cycle", 6, "power:p=3", "II"))
SMALL = (("two_point", None, "quadratic", "I", 12),
         ("two_point", None, "quadratic", "II", 12),
         ("path", 3, "power:p=3", "II", 6))
SMALL_ORACLE = 2           # instances per small cell checked by the oracle
TIGHT = 3                  # highest-ratio instances re-solved tightly


def _transport(seed, smoke, tmpdir):
    rng = np.random.default_rng([seed, 0])
    instances = []          # (key, space, cost spec, pair, H)

    def add(tag, sp, spec, direction, nus):
        mu = space.uniform_measure(sp.n)
        for k, nu in enumerate(nus):
            pair = (mu, nu) if direction == "I" else (nu, mu)
            instances.append((f"{tag}#{k}", sp, spec, pair, relative_entropy(nu, mu)))

    for kind, n, spec, direction in PANEL[:1] if smoke else PANEL:
        sp = space.build_example("hypercube", 2) if smoke else space.build_example(kind, n)
        prng = np.random.default_rng(PANEL_SEED)
        nus = [sample_nu(prng, sp.n, k) for k in range(PANEL_DRAWS)]
        add(f"panel:{kind}:{n}:{spec}:{direction}", sp, spec, direction, nus)
    for kind, n, spec, direction, count in SMALL:
        sp = space.build_example(kind, n)
        nus = [sample_nu(rng, sp.n, k) for k in range(SMALL_ORACLE if smoke else count)]
        add(f"small:{kind}:{spec}:{direction}", sp, spec, direction, nus)

    w = Workload("transport")
    for key, sp, spec, pair, _ in instances:
        w.ref_tasks.append((key + "/classical", _classical_task(pair, spec, sp)))
        if key.startswith("small:") and int(key.rsplit("#", 1)[1]) < SMALL_ORACLE:
            w.ref_tasks.append((key + "/oracle", _oracle_task(pair, spec, sp)))

    def solve_op(key, sp, spec, pair, tol, max_iter):
        cost = _cost(spec)

        def call():
            return transport.weak_transport_cost(*pair, cost, sp,
                                                 gap_tol=tol, max_iter=max_iter)

        def check(res):
            if not res.converged:
                return Check(False, gap=res.gap, note="unconverged solve")
            base = key.split("@")[0]
            classical = w.refs[base + "/classical"]
            err = max(0.0, res.value - classical)
            ok = res.value >= -JENSEN_SLACK and err <= JENSEN_SLACK
            oracle = w.refs.get(base + "/oracle")
            if oracle is not None:
                err = max(err, abs(res.value - oracle))
                ok = ok and abs(res.value - oracle) <= TRANSPORT_ORACLE_TOL
            return Check(ok, err, res.gap, "" if ok else "transport reference")

        return Op(key, call, check)

    ops = [solve_op(key, sp, spec, pair, SWEEP_TOL, 10000)
           for key, sp, spec, pair, _ in instances]

    def finish():
        # rank by the Jensen ratio classical/H, an upper bound on the ratio
        # that check_transport_entropy ranks by, known before any solve
        ranked = sorted(instances, key=lambda z: -w.refs[z[0] + "/classical"] / z[4])
        for key, sp, spec, pair, ent in ranked[:TIGHT]:
            ops.append(solve_op(key + "@tight", sp, spec, pair,
                                max(1e-15, TIGHT_REL * ent), 50000))
        w.ops = ops
        w.shuffle(seed)

    w.finish = finish
    return w


def _classical_task(pair, spec, sp):
    return lambda: transport.classical_transport_cost(*pair, _cost(spec), sp)


def _oracle_task(pair, spec, sp):
    return lambda: transport.transport_oracle_small(*pair, _cost(spec), sp)


# ---------------------------------------------------------------------------
# qtilde: many Q~_t evaluations that share one space


QT_COSTS = ("quadratic", "power:p=3", "qlin:a=0.25,h=2")


def _random_walk(rng, n, step=0.45):
    # steps below 2ah = 1 keep |grad f| inside the qlin conjugate's domain
    return np.concatenate([[0.0], np.cumsum(rng.uniform(-step, step, n - 1))])


def _dual_phi(rng, sp, k):
    # Gaussian profiles at three amplitudes; dual_sweep also draws ball
    # indicators, which cost a fraction as much and made the median
    # operation jump between them and the rest from seed to seed
    return (0.3, 1.0, 3.0)[k % 3] * rng.standard_normal(sp.n)


def _qtilde(seed, smoke, tmpdir):
    rng = np.random.default_rng([seed, 0])
    big = space.build_example("hypercube", 3 if smoke else 8)
    cube = space.build_example("hypercube", 3 if smoke else 6)
    line = space.build_example("path", 6 if smoke else 32)
    small = {"hypercube:3": space.build_example("hypercube", 3),
             "path:8": space.build_example("path", 8)}
    pair = space.build_example("two_point")
    w = Workload("qtilde")
    ops = w.ops
    per = 1 if smoke else 6
    ts = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)[:per]

    # dual_check on one cube, the access pattern of dual_sweep
    mu = space.uniform_measure(cube.n)
    for spec in ("quadratic", "power:p=3"):
        for k in range(2 * per):
            ops.append(_dual_op(f"dual:{spec}#{k}", mu, 2.0,
                                _dual_phi(rng, cube, k), spec, cube))
    # weak_infconv on the big cube and the long path, every cost kind
    for spec in QT_COSTS:
        ops.append(_qtilde_op(f"big:{spec}", rng.standard_normal(big.n), 0.5, spec, big))
        for k, t in enumerate(ts):
            ops.append(_qtilde_op(f"line:{spec}#{k}", _random_walk(rng, line.n),
                                  t, spec, line))
    # hj_boundary and a t-grid of hj_residual on the path
    f_hj = _random_walk(rng, line.n)
    for spec in QT_COSTS:
        ops.append(_boundary_op(f"boundary:{spec}", f_hj, spec, line))
        for t in ts:
            ops.append(_residual_op(f"residual:{spec}@{t}", f_hj, t, spec, line))
    # brute-force oracle on spaces of at most 8 points
    for label, sp in small.items():
        for spec in QT_COSTS:
            key = f"oracle:{label}:{spec}"
            f = rng.standard_normal(sp.n)
            ops.append(_qtilde_op(key, f, 0.5, spec, sp, _oracle_check(key, w)))
            w.ref_tasks.append((key, _bruteforce_task(f, 0.5, spec, sp)))
    # closed form on the two-point space (quadratic cost)
    for k in range(3):
        hi, lo = sorted(rng.uniform(-1.0, 1.0, 2), reverse=True)
        ops.append(_two_point_op(f"two_point#{k}", np.array([hi, lo]),
                                 float(rng.uniform(0.1, 2.0)), pair, w))
    w.shuffle(seed)
    return w


def _qtilde_op(key, f, t, spec, sp, check=None):
    cost = _cost(spec)

    def bounds(res):
        err = _bounds_err(res.values, f, t, cost, sp.dist)
        return Check(err == 0.0, err, note="" if err == 0.0 else "Q~ bounds")

    return Op(key, lambda: calculus.weak_infconv(f, t, cost, sp), check or bounds)


def _bruteforce_task(f, t, spec, sp):
    return lambda: calculus.weak_infconv_bruteforce(f, t, _cost(spec), sp)


def _oracle_check(key, w):
    def check(res):
        err = float(np.max(np.abs(res.values - w.refs[key])))
        ok = err <= QTILDE_ORACLE_TOL
        return Check(ok, err, note="" if ok else "brute-force oracle")
    return check


def _two_point_op(key, f, t, sp, w):
    cost = costs.quadratic()
    # move mass p from the high point: f_hi - p*delta + p^2/(2t), p <= 1
    delta = f[0] - f[1]
    p = min(1.0, t * delta)
    w.refs[key] = np.array([f[0] - p * delta + p * p / (2.0 * t), f[1]])

    def check(res):
        err = float(np.max(np.abs(res.values - w.refs[key])))
        ok = err <= 1e-12
        return Check(ok, err, note="" if ok else "two-point closed form")

    return Op(key, lambda: calculus.weak_infconv(f, t, cost, sp), check)


def _dual_op(key, mu, C, phi, spec, sp):
    cost = _cost(spec)
    lam = 2.0 / C

    def logsumexp(x):
        m = float(np.max(x))
        return m + math.log(float(mu @ np.exp(x - m)))

    upper = logsumexp(lam * classical_infconv(phi, 1.0, cost, sp.dist))
    lower = lam * float(np.min(phi))
    rhs = lam * float(mu @ phi)

    def check(v):
        err = max(abs(v["log_rhs"] - rhs), 0.0,
                  v["log_lhs"] - upper - 1e-12 * (1 + abs(upper)),
                  lower - v["log_lhs"] - 1e-12 * (1 + abs(lower)))
        ok = err <= 1e-10 and v["holds"] == (v["log_lhs"] <= v["log_rhs"] + 1e-10)
        return Check(ok, err, note="" if ok else "dual bracket")

    return Op(key, lambda: transport.dual_check(mu, C, phi, cost, sp), check)


def _boundary_op(key, f, spec, sp):
    cost = _cost(spec)
    targets = -np.asarray(cost.conjugate(nonlinear_gradient(f, sp.dist)), dtype=float)

    def check(rep):
        err = float(np.max(np.abs(rep.targets - targets)))
        ok = rep.holds and not rep.excluded and err <= 1e-12
        return Check(ok, max(err, rep.max_error), note="" if ok else "HJ boundary")

    return Op(key, lambda: hj.hj_boundary(f, cost, sp), check)


def _residual_op(key, f, t, spec, sp):
    cost = _cost(spec)

    def check(rep):
        ok = rep.holds and rep.max_residual <= hj.RESIDUAL_TOL
        return Check(ok, max(0.0, rep.max_residual), note="" if ok else "HJ residual")

    return Op(key, lambda: hj.hj_residual(f, t, cost, sp), check)


# ---------------------------------------------------------------------------
# constants: Python-bound subgradient ascent, no Q~_t and no transport

CONSTANT_SPACES = (("two_point", None), ("hypercube", 3), ("cycle", 6),
                   ("hypercube", 5))
RESTARTS = 1


def _constants(seed, smoke, tmpdir):
    rng = np.random.default_rng([seed, 0])
    spaces = CONSTANT_SPACES[:2] if smoke else CONSTANT_SPACES
    w = Workload("constants")
    w.refs["two_point"] = TWO_POINT_RATIO
    est_seeds = [int(s) for s in rng.integers(0, 2**31, 2 if smoke else 5)]
    for kind, n in spaces:
        sp = space.build_example(kind, n)
        for s in est_seeds:
            w.ops.append(_constants_op(f"{kind}:{n}@{s}", sp, s, RESTARTS, w))
    w.shuffle(seed)
    return w


def _poincare_ratio(f, mu, dist):
    g = nonlinear_gradient(f, dist)
    mean = float(mu @ f)
    return float(mu @ (f - mean) ** 2) / float(mu @ g ** 2)


def _constants_op(key, sp, est_seed, restarts, w):
    mu = space.uniform_measure(sp.n)

    def check(rep):
        poinc = rep["poincare"]
        errs = []
        if poinc["witness"] is not None:
            mine = _poincare_ratio(np.array(poinc["witness"]), mu, sp.dist)
            errs.append(abs(mine - poinc["best_ratio"]) / max(1.0, mine))
        ok = (poinc["best_ratio"] <= rep["diameter_bound"] + 1e-9
              and 0.0 < rep["entropy_ratio"] < math.inf
              and rep["chain_constant"] == 2.0 * max(rep["entropy_ratio"], 1e-12)
              and all(e <= 1e-9 for e in errs))
        if sp.n == 2:
            for ratio in (poinc["best_ratio"], rep["entropy_ratio"]):
                errs.append(abs(ratio - w.refs["two_point"]))
            ok = ok and max(errs) <= RATIO_TOL
        return Check(ok, max(errs, default=0.0), note="" if ok else "constants")

    return Op(key, lambda: reports.constants_report(sp, restarts=restarts,
                                                   seed=est_seed), check)


# ---------------------------------------------------------------------------
# cli_cold: one CLI call per fresh space, errors beside successes

CLI_SCALE = 8              # copies of the 27-call recipe in the list


def _random_graph(rng, n):
    edges = [(int(rng.integers(0, j)), j, float(rng.uniform(0.3, 2.0)))
             for j in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges.append((i, j, float(rng.uniform(0.3, 2.0))))
    return edges


def _stock(kind, k):
    i = np.arange(k)
    if kind == "path":
        return np.abs(i[:, None] - i[None, :]).astype(float)
    if kind == "cycle":
        d = np.abs(i[:, None] - i[None, :])
        return np.minimum(d, k - d).astype(float)
    if kind == "complete":
        return 1.0 - np.eye(k)
    x = np.arange(2 ** k)
    return np.array([[bin(a ^ b).count("1") for b in x] for a in x], dtype=float)


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def _cli_cold(seed, smoke, tmpdir):
    rng = np.random.default_rng([seed, 0])
    w = Workload("cli_cold")
    ops = w.ops
    count = [0]

    def new_space(n):
        edges = _random_graph(rng, n)
        path = os.path.join(tmpdir, f"space{count[0]}.json")
        count[0] += 1
        with open(path, "w") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        return path, floyd_warshall(n, edges)

    def add(kind, argv, check, expect=0):
        ops.append(Op(f"{len(ops)}:{kind}", _cli_call(argv), _cli_check(expect, check)))

    scale = 1 if smoke else CLI_SCALE
    for _ in range(4 * scale):
        path, dist = new_space(int(rng.integers(2, 9)))
        add("space", ["space", "--validate", path], _space_check(dist))
    for _ in range(scale):
        kind = ("path", "cycle", "complete", "hypercube")[int(rng.integers(4))]
        k = int(rng.integers(3, 7)) if kind != "hypercube" else int(rng.integers(1, 4))
        add("space", ["space", "--example", f"{kind}:{k}"], _space_check(_stock(kind, k)))
    for j in range(9 * scale):
        path, dist = new_space(int(rng.integers(2, 9)))
        f = rng.standard_normal(dist.shape[0])
        t = float(rng.uniform(0.1, 2.0))
        spec = ("quadratic", "power:p=3", "qlin:a=0.25,h=2")[j % 3]
        argv = ["qtilde", "--space", path, f"--f={_vec(f)}", "--t", repr(t), "--cost", spec]
        if j % 3 == 0:
            argv.append("--oracle")
        add("qtilde", argv, _qtilde_cli_check(f, t, _cost(spec), dist))
    # the slowest calls; one size and one cost per kind keep their
    # latencies close, so the tail percentile does not jump between kinds
    for j in range(4 * scale):
        path, dist = new_space(8)
        f = rng.standard_normal(8)
        argv = ["hj-verify", "--space", path, f"--f={_vec(f)}"]
        argv += ["--cost", "quadratic", "--boundary"] if j % 2 == 0 else ["--cost", "power:p=3"]
        add("hj-verify", argv, _hj_cli_check)
    for _ in range(3 * scale):
        path, dist = new_space(int(rng.integers(2, 9)))
        add("obstruction", ["obstruction", "--space", path, "--seed",
                            str(int(rng.integers(1000)))],
            _obstruction_check(dist), expect=2)
    for j in range(3 * scale):
        n = 2 + j % 2
        # a random 2-point metric, or path:3, whose solves take 2 or 3
        # iterations; random 3-point metrics add an iteration tail
        path, dist = new_space(2) if n == 2 else ("path:3", _stock("path", 3))
        nu = rng.dirichlet(np.ones(n))
        mu = space.uniform_measure(n)
        argv = ["ttilde", "--space", path, "--nu", _vec(nu), "--mu", _vec(mu)]
        if n == 2:
            argv.append("--oracle")
        key = f"ttilde{j}"
        w.ref_tasks.append((key, _classical_task((nu, mu), "quadratic",
                                                 space.MetricSpace(dist))))
        add("ttilde", argv, _ttilde_cli_check(key, w))
    for j in range(3 * scale):
        add("malformed", _malformed(rng, j, new_space, tmpdir), _error_check, expect=1)
    w.shuffle(seed)
    return w


def _malformed(rng, j, new_space, tmpdir):
    kind = j % 6
    if kind == 0:       # triangle inequality fails
        path = os.path.join(tmpdir, f"bad{j}.json")
        with open(path, "w") as fh:
            json.dump({"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}, fh)
        return ["space", "--validate", path]
    if kind == 1:       # disconnected graph
        path = os.path.join(tmpdir, f"bad{j}.json")
        with open(path, "w") as fh:
            json.dump({"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}, fh)
        return ["space", "--validate", path]
    if kind == 2:       # not JSON
        path = os.path.join(tmpdir, f"bad{j}.json")
        with open(path, "w") as fh:
            fh.write("{\"n\": 3, \"edges\": [[0, 1")
        return ["qtilde", "--space", path, "--f=0,1,2", "--t", "0.5"]
    if kind == 3:       # function of the wrong length
        path, dist = new_space(int(rng.integers(3, 9)))
        return ["hj-verify", "--space", path, "--f=" + _vec(np.ones(dist.shape[0] + 1))]
    if kind == 4:       # unknown example
        return ["hj-verify", "--space", "torus:3", "--f=0,1,2"]
    path, _ = new_space(2)  # measure with total mass != 1
    return ["ttilde", "--space", path, "--nu", "0.7,0.7", "--mu", "0.5,0.5"]


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()
    return call


def _cli_check(expect, check):
    def run_check(out):
        code, text = out
        if code != expect:
            return _fail(f"exit code {code}, expected {expect}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return _fail("output is not JSON")
        return check(doc)
    return run_check


def _error_check(doc):
    err = doc.get("error")
    ok = isinstance(err, dict) and {"type", "message"} <= set(err)
    return Check(ok, note="" if ok else "no error object")


def _space_check(dist):
    def check(doc):
        got = np.array(doc["result"]["dist"])
        if got.shape != dist.shape:
            return _fail("space shape")
        err = float(np.max(np.abs(got - dist)))
        ok = err <= 1e-9 and doc["result"]["n"] == dist.shape[0]
        return Check(ok, err, note="" if ok else "space distances")
    return check


def _qtilde_cli_check(f, t, cost, dist):
    def check(doc):
        res = doc["result"]
        err = _bounds_err(np.array(res["values"]), f, t, cost, dist)
        ok = err == 0.0
        if "oracle_max_error" in res:
            err = max(err, res["oracle_max_error"])
            ok = ok and res["oracle_max_error"] <= QTILDE_ORACLE_TOL
        return Check(ok, err, note="" if ok else "qtilde reference")
    return check


def _hj_cli_check(doc):
    res = doc["result"]
    worst = max(s["max_residual"] for s in res["slices"])
    ok = res["holds"] and worst <= hj.RESIDUAL_TOL
    return Check(ok, max(0.0, worst), note="" if ok else "hj-verify")


def _obstruction_check(dist):
    quad = costs.quadratic()

    def step(f, t):
        return np.min(f[None, :] + t * quad.eval(dist / t), axis=1)

    def check(doc):
        wit = doc["result"]["witness"]
        f = np.array(wit["f"])
        s, t, x = wit["s"], wit["t"], wit["x"]
        lhs = step(f, s + t)[x]
        rhs = step(step(f, s), t)[x]
        err = max(abs(lhs - wit["lhs"]), abs(rhs - wit["rhs"]))
        ok = err <= 1e-12 * (1 + abs(lhs)) and abs(lhs - rhs) > hj.OBSTRUCTION_TOL
        return Check(ok, err, note="" if ok else "obstruction witness")
    return check


def _ttilde_cli_check(key, w):
    def check(doc):
        res = doc["result"]
        if not res["converged"]:
            return Check(False, gap=res["gap"], note="unconverged solve")
        err = max(0.0, res["value"] - w.refs[key])
        ok = err <= JENSEN_SLACK
        if "oracle_error" in res:
            err = max(err, res["oracle_error"])
            ok = ok and res["oracle_error"] <= TRANSPORT_ORACLE_TOL
        return Check(ok, err, res["gap"], "" if ok else "ttilde reference")
    return check
