"""Weak optimal transport on finite metric spaces.

The weak transport cost of a target measure nu relative to a base
measure mu charges each base point x the convex cost alpha of the mean
distance its kernel row moves mass:

    T(nu|mu) = inf  sum_x mu(x) alpha( sum_y d(x,y) p_x(y) )

over couplings pi(x,y) = mu(x) p_x(y) whose second marginal is nu.
The objective is convex in pi, so Frank-Wolfe with an exactly solved
linear-transport subproblem yields both the value and a duality-gap
certificate.  An exhaustive simplex-grid oracle is available for
spaces with at most three points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .calculus import weak_infconv
from .funcineq import InequalityReport, verdict
from .space import as_function, as_measure, as_positive

MARGINAL_TOL = 1e-10


def relative_entropy(nu, mu):
    """H(nu|mu) = sum nu(x) log(nu(x)/mu(x)); +inf when nu charges a
    mu-null point; 0 iff nu = mu.

    Evaluated as sum mu(x) phi(nu(x)/mu(x)) with phi(r) = r log r - r + 1,
    whose terms are all nonnegative.  The naive sum of nu (log nu - log mu)
    cancels catastrophically when nu is close to mu (entropies ~1e-9 lose
    seven digits), which matters because entropy sits in the denominator of
    transport-entropy ratios whose suprema are approached exactly there.
    """
    nu = np.asarray(nu, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.any((nu > 0) & (mu <= 0)):
        return math.inf
    m_s = mu[mu > 0]
    # t = r - 1 measured multiplicatively; exact when nu, mu are close
    t = (nu[mu > 0] - m_s) / m_s
    phi = np.empty_like(t)
    small = np.abs(t) < 1e-3
    ts = t[small]
    # phi(1+t) = t^2/2 - t^3/6 + ..., alternating t^k/((k-1)k); the direct
    # form subtracts O(t) quantities to produce O(t^2), so use the series
    phi[small] = ts * ts * (
        1.0 / 2.0
        + ts * (-1.0 / 6.0
        + ts * (1.0 / 12.0
        + ts * (-1.0 / 20.0
        + ts * (1.0 / 30.0
        + ts * (-1.0 / 42.0 + ts * (1.0 / 56.0)))))))
    large = ~small
    # phi(0) = 1; the log1p formula would produce 0 * (-inf) there
    gone = large & (t <= -1.0)
    phi[gone] = 1.0
    rest = large & (t > -1.0)
    tr = t[rest]
    phi[rest] = (1.0 + tr) * np.log1p(tr) - tr
    return float(m_s @ phi)


@dataclass
class Coupling:
    """Transport plan pi(x,y) >= 0 with first marginal mu."""

    matrix: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        if np.any(self.matrix < -1e-15):
            raise ValueError("coupling has a negative entry")
        rows = self.matrix.sum(axis=1)
        if np.max(np.abs(rows - self.mu)) > MARGINAL_TOL:
            bad = int(np.argmax(np.abs(rows - self.mu)))
            raise ValueError(
                f"row {bad} sums to {rows[bad]!r}, expected mu = {self.mu[bad]!r}"
            )

    def kernels(self):
        """Row-stochastic kernel p_x = pi(x,.)/mu(x); mu-null rows are
        the Dirac at x by convention."""
        n = self.mu.size
        p = np.zeros((n, n))
        pos = self.mu > 0
        p[pos] = self.matrix[pos] / self.mu[pos, None]
        for x in np.flatnonzero(~pos):
            p[x, x] = 1.0
        return p

    def second_marginal(self):
        return self.matrix.sum(axis=0)


@dataclass
class TransportResult:
    value: float
    coupling: Coupling
    gap: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# linear transport subproblem: successive shortest paths, each found by
# Bellman-Ford label correction over the residual graph


class SolverError(RuntimeError):
    """The linear transport subproblem failed to reach a feasible plan."""


def _ot_plan(costs, supply, demand):
    """Exact minimum-cost transportation plan between two histograms:
    successive shortest paths in the residual graph (an arc i -> j at cost
    c_ij, and j -> i at -c_ij wherever the plan ships i -> j).  The negative
    arcs call for Bellman-Ford; a label moves only when it improves by more
    than `tol`, so a tie cannot let the parent pointers close a cycle."""
    ns, nd = costs.shape
    sup = np.array(supply, dtype=float)
    dem = np.array(demand, dtype=float)
    flow = np.zeros((ns, nd))
    tol = 1e-12 * (1.0 + float(np.max(np.abs(costs))))
    for _ in range(40 * (ns + nd) + 200):
        if not (sup > 1e-15).any():
            break
        ds = np.where(sup > 1e-15, 0.0, np.inf)
        dd = np.full(nd, np.inf)
        par_s = np.full(ns, -1)
        par_d = np.full(nd, -1)
        back = np.where(flow > 1e-18, -costs, np.inf)
        for _ in range(ns + nd):
            reach = ds[:, None] + costs
            upd_d = reach.min(axis=0) < dd - tol
            par_d = np.where(upd_d, reach.argmin(axis=0), par_d)
            dd = np.where(upd_d, reach.min(axis=0), dd)
            reach = back + dd[None, :]
            upd_s = reach.min(axis=1) < ds - tol
            par_s = np.where(upd_s, reach.argmin(axis=1), par_s)
            ds = np.where(upd_s, reach.min(axis=1), ds)
            if not upd_s.any():
                break  # the next sink labels would repeat these
        else:
            raise SolverError("transport subproblem: path traces a cycle")
        sinks = np.flatnonzero((dem > 1e-15) & (dd < np.inf))
        if sinks.size == 0:
            raise SolverError("transport subproblem: no augmenting path")
        t = int(sinks[np.argmin(dd[sinks])])
        y = t
        amount = dem[t]
        path = []
        while True:
            if len(path) > 2 * (ns + nd) + 4:
                raise SolverError("transport subproblem: path traces a cycle")
            x = int(par_d[y])
            path.append((x, y, 1.0))
            if par_s[x] == -1:
                amount = min(amount, sup[x])
                break
            y = int(par_s[x])
            path.append((x, y, -1.0))
            amount = min(amount, flow[x, y])
        for a, b, sign in path:
            flow[a, b] += sign * amount
        sup[x] -= amount  # amount <= sup[x], dem[t]: no rounding below 0
        dem[t] -= amount
    if sup.max() > 1e-10 or dem.max() > 1e-10:
        raise SolverError(
            f"transport subproblem not converged: residuals {sup.max():.3e} {dem.max():.3e}"
        )
    return flow


def classical_transport_cost(nu, mu, cost, space):
    """Classical optimal transport with ground cost alpha(d(x,y)); by
    Jensen this dominates the weak cost of the same pair."""
    mu = as_measure(mu, space.n)
    nu = as_measure(nu, space.n)
    ground = cost.eval(space.dist)
    plan = _ot_plan(ground, mu, nu)
    return float(np.sum(ground * plan))


# ---------------------------------------------------------------------------
# Frank-Wolfe for the weak cost


def _row_means(plan, mu, dist):
    """Mean distance moved per unit of mass by each mu-charged row."""
    means = np.zeros(mu.size)
    pos = mu > 0
    means[pos] = (dist[pos] * plan[pos]).sum(axis=1) / mu[pos]
    return means


def _mean_objective(pi, mu, dist, cost):
    means = _row_means(pi, mu, dist)
    pos = mu > 0
    return float(np.sum(mu[pos] * cost.eval(means[pos]))), means


def _line_search(mu, pos, means, dm, cost, gmax):
    """Exact minimizer of g -> sum mu alpha(means + g dm) on [0, gmax]."""
    if gmax <= 0:
        return 0.0
    if cost.kind == "quadratic":
        den = float(np.sum(mu[pos] * dm[pos] ** 2))
        num = -float(np.sum(mu[pos] * means[pos] * dm[pos]))
        return gmax if den <= 0 else min(gmax, max(0.0, num / den))

    def slope(g):
        return float(np.sum(mu[pos] * dm[pos] * cost.deriv(means[pos] + g * dm[pos])))

    if slope(gmax) <= 0:
        return gmax
    lo, hi = 0.0, gmax
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weak_transport_cost(nu, mu, cost, space, gap_tol=1e-8, max_iter=10000):
    """Minimize the weak transport objective by pairwise Frank-Wolfe.

    Each step linearizes at the current plan, solves the induced
    classical transport problem exactly, and moves weight from the
    worst active atom towards that solution with an exact line search.
    The pairwise direction avoids the zigzag stalls of plain
    Frank-Wolfe on non-quadratic costs.  Stops when the linearization
    gap certifies gap_tol; the product coupling makes infeasibility
    impossible.
    """
    mu = as_measure(mu, space.n)
    nu = as_measure(nu, space.n)
    dist = space.dist
    if np.array_equal(nu, mu):
        return TransportResult(0.0, Coupling(np.diag(mu), mu), 0.0, 0, True)
    pos = mu > 0
    atoms = [np.outer(mu, nu)]
    weights = [1.0]
    pi = atoms[0].copy()
    gap = math.inf
    for it in range(max_iter):
        value, means = _mean_objective(pi, mu, dist, cost)
        grad = cost.deriv(means)[:, None] * dist
        target = _ot_plan(grad, mu, nu)
        gap = float(np.sum(grad * (pi - target)))
        if gap <= gap_tol:
            return TransportResult(value, Coupling(pi, mu), gap, it + 1, True)
        away = int(np.argmax([np.sum(grad * a) for a in atoms]))
        delta = target - atoms[away]
        gmax = weights[away]
        dm = _row_means(delta, mu, dist)
        gamma = _line_search(mu, pos, means, dm, cost, gmax)
        if gamma <= 0:
            return TransportResult(value, Coupling(pi, mu), gap, it + 1, False)
        pi = pi + gamma * delta
        weights[away] -= gamma
        key = target.tobytes()
        for j, a in enumerate(atoms):
            if a.tobytes() == key:
                weights[j] += gamma
                break
        else:
            atoms.append(target)
            weights.append(gamma)
        if weights[away] <= 1e-15:
            atoms.pop(away)
            weights.pop(away)
    value, _ = _mean_objective(pi, mu, dist, cost)
    return TransportResult(value, Coupling(pi, mu), gap, max_iter, False)


# ---------------------------------------------------------------------------
# exhaustive oracle for tiny spaces


def transport_oracle_small(nu, mu, cost, space, grid=17, rounds=12):
    """Independent evaluation of the weak cost for spaces with n <= 3.

    Parametrizes every kernel row but the heaviest on a simplex grid,
    shrinking the grid around the best feasible point, then polishes
    with a constrained local solve of the clipped convex extension.
    The row with the largest mass is determined by the marginal
    constraint, which keeps the feasible region as wide as possible;
    the product kernel p_x = nu anchors the search.
    """
    n = space.n
    if n > 3:
        raise ValueError(f"oracle supports at most 3 points, space has {n}")
    mu = as_measure(mu, space.n)
    nu = as_measure(nu, space.n)
    dist = space.dist
    if n == 1:
        return 0.0
    last = int(np.argmax(mu))
    free = [x for x in range(n) if x != last]
    dim = (n - 1) * len(free)

    def evaluate(pts, masked=True):
        count = pts.shape[0]
        vals = np.zeros(count)
        feasible = np.ones(count, bool)
        rem = np.tile(nu, (count, 1))
        for r, x in enumerate(free):
            coords = pts[:, r * (n - 1):(r + 1) * (n - 1)]
            tail = 1.0 - coords.sum(axis=1)
            feasible &= tail >= -1e-12
            row = np.concatenate([coords, np.clip(tail, 0.0, None)[:, None]], axis=1)
            rem = rem - mu[x] * row
            vals += mu[x] * cost.eval(row @ dist[x])
        if mu[last] > 0:
            row = rem / mu[last]
            feasible &= row.min(axis=1) >= -1e-9
            vals += mu[last] * cost.eval(np.clip(row, 0.0, None) @ dist[last])
        if not masked:
            return vals
        return np.where(feasible, vals, np.inf)

    anchor = np.tile(nu[:-1], len(free))
    best = float(evaluate(anchor[None, :])[0])
    best_pt = anchor
    lo = np.zeros(dim)
    hi = np.ones(dim)
    for _ in range(rounds):
        axes = [np.linspace(lo[k], hi[k], grid) for k in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = evaluate(pts)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            best_pt = pts[k]
        width = (hi - lo) / (grid - 1)
        lo = np.maximum(0.0, best_pt - width)
        hi = np.minimum(1.0, best_pt + width)

    # the clipped extension stays convex, so any KKT point is global
    def fun(params):
        return float(evaluate(params[None, :], masked=False)[0])

    constraints = []
    for r in range(len(free)):
        block = slice(r * (n - 1), (r + 1) * (n - 1))
        constraints.append(
            {"type": "ineq", "fun": lambda p, block=block: 1.0 - p[block].sum()}
        )
    for j in range(n):
        def slack(p, j=j):
            rem = nu[j]
            for r, x in enumerate(free):
                coords = p[r * (n - 1):(r + 1) * (n - 1)]
                rem -= mu[x] * (coords[j] if j < n - 1 else 1.0 - coords.sum())
            return rem

        constraints.append({"type": "ineq", "fun": slack})
    for start in (best_pt, anchor):
        res = minimize(
            fun,
            start,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * dim,
            constraints=constraints,
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if res.x is not None:
            val = float(evaluate(np.asarray(res.x)[None, :])[0])
            if math.isfinite(val):
                best = min(best, val)
    return best


# ---------------------------------------------------------------------------
# transport-entropy verification


def _sample_measure(rng, n, index, sampler):
    if callable(sampler):
        return np.asarray(sampler(rng, n), dtype=float)
    if sampler not in ("mixed", "dirichlet", "sparse"):
        raise ValueError(f"unknown sampler {sampler!r}")
    sparse = sampler == "sparse" or (sampler == "mixed" and index % 2 == 1)
    if not sparse or n == 1:
        return rng.dirichlet(np.ones(n))
    i, j = rng.choice(n, size=2, replace=False)
    out = np.zeros(n)
    w = rng.random()
    out[i] = w
    out[j] = 1.0 - w
    return out


def check_transport_entropy(
    mu, C, cost, space, direction="I", sampler="mixed", n_samples=1000, seed=0
):
    """Sampled sweep of the transport-entropy inequality.

    Direction I tests T(mu|nu) <= C H(nu|mu), direction II tests
    T(nu|mu) <= C H(nu|mu), over nu drawn from Dirichlet and
    sparse-support distributions.  Samples with H zero (nu = mu) or
    infinite (support violation, inequality trivial) are skipped.

    Frank-Wolfe returns an upper bound on the cost, so a raw ratio can
    exceed the true one by gap/H, badly when H is tiny.  The sweep
    therefore ranks candidates by their raw ratio, re-evaluates the top
    few with a gap tolerance proportional to their entropy, and settles
    the verdict on the certified lower bound (value - gap)/H, which
    never exceeds the true ratio.
    """
    C = as_positive(C, "transport constant")
    if direction not in ("I", "II"):
        raise ValueError(f"direction must be 'I' or 'II', got {direction!r}")
    mu = as_measure(mu, space.n)

    def transport(nu, gap_tol, max_iter):
        pair = (mu, nu) if direction == "I" else (nu, mu)
        return weak_transport_cost(*pair, cost, space,
                                   gap_tol=gap_tol, max_iter=max_iter)

    rng = np.random.default_rng(seed)
    candidates = []  # (raw ratio, entropy, nu), best few kept
    evaluated = 0
    for k in range(n_samples):
        nu = _sample_measure(rng, space.n, k, sampler)
        ent = relative_entropy(nu, mu)
        if not math.isfinite(ent) or ent < 1e-14:
            continue
        value = transport(nu, 1e-8, 10000).value
        evaluated += 1
        candidates.append((value / ent, ent, nu))
        candidates.sort(key=lambda z: z[0], reverse=True)
        del candidates[3:]

    best = 0.0
    certified = 0.0
    witness = None
    for _, ent, nu in candidates:
        res = transport(nu, max(1e-15, 1e-9 * ent), 50000)
        low = (res.value - max(res.gap, 0.0)) / ent
        if low > certified:
            certified, best, witness = low, res.value / ent, nu
    return InequalityReport(
        "transport-entropy-" + direction,
        float(C),
        best,
        witness,
        verdict(certified, C),
        1,
        evaluated,
        seed,
        {"cost": cost.label(), "samples": n_samples,
         "certified_ratio": certified},
    )


# ---------------------------------------------------------------------------
# dual form


def dual_check(mu, C, phi, cost, space):
    """Check the exponential dual inequality

        int exp((2/C) Q_1 phi) dmu  <=  exp((2/C) int phi dmu)

    for one test function phi; evaluated in log space."""
    C = as_positive(C, "dual constant")
    mu = as_measure(mu, space.n)
    phi = as_function(phi, space.n)
    lam = 2.0 / C
    smoothed = weak_infconv(phi, 1.0, cost, space).values
    x = lam * smoothed
    m = float(np.max(x))
    log_lhs = m + math.log(float(mu @ np.exp(x - m)))
    log_rhs = lam * float(mu @ phi)
    return {
        "holds": bool(log_lhs <= log_rhs + 1e-10),
        "log_lhs": log_lhs,
        "log_rhs": log_rhs,
        "margin": log_rhs - log_lhs,
        "lhs": math.exp(log_lhs) if log_lhs < 700 else math.inf,
        "rhs": math.exp(log_rhs) if log_rhs < 700 else math.inf,
    }


def dual_sweep(mu, C, cost, space, n_samples=1000, seed=0):
    """Run dual_check over random test functions (Gaussian profiles at
    several amplitudes and indicators of metric balls); reports the
    largest LHS/RHS ratio against the threshold 1."""
    mu = as_measure(mu, space.n)
    rng = np.random.default_rng(seed)
    scales = (0.05, 0.3, 1.0, 3.0)
    n = space.n
    best_log = -math.inf
    witness = None
    for k in range(n_samples):
        scale = scales[k % len(scales)]
        if k % 2 == 0 or n == 1:
            phi = scale * rng.standard_normal(n)
        else:
            center = int(rng.integers(n))
            row = space.dist[center]
            radii = np.unique(row)
            phi = scale * (row <= float(rng.choice(radii[:-1] if radii.size > 1 else radii))).astype(float)
        check = dual_check(mu, C, phi, cost, space)
        log_ratio = check["log_lhs"] - check["log_rhs"]
        if log_ratio > best_log:
            best_log, witness = log_ratio, phi
    ratio = math.exp(min(best_log, 700.0)) if math.isfinite(best_log) else 0.0
    return InequalityReport(
        "dual-bound",
        1.0,
        ratio,
        witness,
        verdict(best_log, 0.0),
        1,
        n_samples,
        seed,
        {"C": float(C), "cost": cost.label(), "best_log_ratio": best_log},
    )
