"""Weak optimal transport on finite metric spaces.

The weak transport cost of a target measure nu relative to a base
measure mu charges each base point x the convex cost alpha of the mean
distance its kernel row moves mass:

    T(nu|mu) = inf  sum_x mu(x) alpha( sum_y d(x,y) p_x(y) )

over couplings pi(x,y) = mu(x) p_x(y) whose second marginal is nu.
The objective is convex in pi and depends on pi only through the row
means, so simplicial decomposition solves it: each round linearizes,
solves the induced classical transport problem exactly, and
re-optimizes over the convex hull of the vertices found so far, a
problem in a handful of weights.  The linearization gap certifies the
value.  For spaces with at most three points an independent oracle
solves the same convex problem by one SLSQP solve over the plan.
`dual_check` tests the exponential dual bound for one function; its
sampled sweep is `funcineq.hypercontractivity_sweep` at (rho, t) = (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, brentq, minimize

from .funcineq import _sweep, hypercontractivity_check
from .space import as_measure, as_positive

MARGINAL_TOL = 1e-10
EPS = np.finfo(float).eps


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
        null = np.flatnonzero(~pos)
        p[null, null] = 1.0
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
    than `tol`, so a tie cannot let the parent pointers close a cycle.  Each
    pass gathers a label's minimum from one argmin and updates labels and
    parents in place where they improve.

    Every caller's cost is square, non-negative and zero on the diagonal
    (a multiple of the metric, row by row).  For such a cost the paths
    start from the plan that ships min(supply, demand) from each point to
    itself: it is optimal for the masses it ships, because every cycle of
    its residual graph costs at least 0, and it takes the place of the
    augmentations that would each ship along one zero-cost arc x -> x."""
    ns, nd = costs.shape
    sup = np.array(supply, dtype=float)
    dem = np.array(demand, dtype=float)
    flow = np.zeros((ns, nd))
    if ns == nd and costs.min() >= 0 and not np.diagonal(costs).any():
        ship = np.minimum(sup, dem)
        np.fill_diagonal(flow, ship)
        sup -= ship  # one of the two becomes exactly 0
        dem -= ship
    tol = 1e-12 * (1.0 + float(np.max(np.abs(costs))))
    rows, cols = np.arange(ns), np.arange(nd)
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
            arg = reach.argmin(axis=0)
            best = reach[arg, cols]
            upd = best < dd - tol
            np.copyto(par_d, arg, where=upd)
            np.copyto(dd, best, where=upd)
            reach = back + dd
            arg = reach.argmin(axis=1)
            best = reach[rows, arg]
            upd = best < ds - tol
            if not upd.any():
                break  # the next sink labels would repeat these
            np.copyto(par_s, arg, where=upd)
            np.copyto(ds, best, where=upd)
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
# simplicial decomposition for the weak cost


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
    """Exact minimizer of g -> sum mu alpha(means + g dm) on [0, gmax],
    gmax > 0 (1.0, or a minimum of positive weight/step ratios):
    the root of the non-decreasing slope s(g) = sum mu dm alpha'(means +
    g dm), bracketed by its signs at the two ends and found by Brent's
    method (`scipy.optimize.brentq`) to the last bits of g.  A slope that
    is nan counts as positive: a row mean that reaches 0 at gmax can land
    a rounding error below it, where a fractional power is nan."""
    moving = pos & (dm != 0)  # rows that do not move add nothing
    w, m, d = mu[moving] * dm[moving], means[moving], dm[moving]

    def slope(g):
        s = float(w @ cost.deriv(m + g * d))
        return 1.0 if math.isnan(s) else s

    if slope(gmax) <= 0:
        return gmax
    if slope(0.0) >= 0:
        return 0.0
    return brentq(slope, 0.0, gmax, xtol=2 * EPS * gmax, rtol=4 * EPS)


def _master(atoms, lam, mu, pos, dist, cost, tol):
    """Minimize F(lam) = sum_x mu(x) alpha((M^T lam)_x) over the simplex,
    where row k of M holds the row means of atom k, by projected Newton
    steps on the support of lam.

    The heaviest atom is eliminated through sum lam = 1, so each step
    solves a (k-1) x (k-1) system whose Hessian D diag(mu alpha'') D^T is
    built from D, the row-mean differences to that atom; a small ridge
    sends a flat direction (alpha'' = 0) to the boundary.  The step
    length along the Newton direction is an exact line search up to the
    boundary (`_line_search`).  Atoms whose weight reaches 0 are
    dropped.  Stops when the restricted gap lam.g - min g is below tol,
    when a step moves lam only in its last bits, or after 50 steps.  Progress is
    judged on slopes, not on F, whose last bits stop moving long before
    the gap reaches a tight tol."""
    M = np.stack([_row_means(a, mu, dist) for a in atoms])
    means = lam @ M  # 0 on the mu-null rows, which mu weighs 0
    for _ in range(50):
        if lam.size == 1:
            break
        ref = int(np.argmax(lam))
        diff = np.delete(M, ref, axis=0) - M[ref]
        slopes = diff @ (mu * cost.deriv(means))  # g_k - g_ref
        if float(np.delete(lam, ref) @ slopes) - min(0.0, float(slopes.min())) <= tol:
            break
        curv = cost.deriv2(means)
        curv[~np.isfinite(curv)] = 0.0  # p < 2 at a row mean of 0
        hess = (diff * (mu * curv)) @ diff.T
        ridge = 1e-12 * float(hess.trace())
        hess[np.diag_indices_from(hess)] += ridge if ridge > 0 else 1.0
        y = np.linalg.solve(hess, -slopes)
        d = np.insert(y, ref, -y.sum())
        shrink = d < 0
        if not shrink.any():
            break
        ratios = lam[shrink] / -d[shrink]
        gmax = float(ratios.min())
        # a row mean that reaches 0 at the boundary can land a rounding
        # error below it, where a fractional power is nan: the search then
        # stops a hair short of the boundary
        with np.errstate(invalid="ignore"):
            step = _line_search(mu, pos, means, y @ diff, cost, gmax)
        new = lam + step * d
        if step == gmax:
            new[np.flatnonzero(shrink)[ratios == gmax]] = 0.0
        keep = new > 1e-15
        new = new[keep] / new[keep].sum()
        if keep.all() and np.abs(new - lam).max() <= 1e-15:
            break  # lam is at its last bits
        lam = new
        if not keep.all():
            M = M[keep]
            atoms = [a for a, kept in zip(atoms, keep) if kept]
        means = lam @ M
    return atoms, lam


def weak_transport_cost(nu, mu, cost, space, gap_tol=1e-8, max_iter=10000):
    """Minimize the weak transport objective by simplicial decomposition.

    Each round linearizes at the current plan and solves the induced
    classical transport problem exactly (`_ot_plan`); the linearization
    gap against that vertex bounds the distance to the optimum, and the
    run stops once the gap is below gap_tol or at its rounding floor,
    whichever is larger.  The gap is the difference of two sums of n^2
    non-negative terms, the linearized costs of the plan and of the
    vertex, each about the size of the value, so its floor is n^2 eps
    times their total.  Otherwise the vertex joins the atoms and the
    plan is re-optimized over the convex hull of all atoms (the
    restricted master problem in the atom weights; one exact line search
    while there are at most two atoms, projected Newton steps after
    that), and atoms left with weight 0 are dropped.
    `iterations` counts rounds, one transport subproblem each.  A vertex
    that is already an atom means the master stalled: the run stops
    unconverged.  The product coupling makes infeasibility impossible.
    """
    mu = as_measure(mu, space.n)
    nu = as_measure(nu, space.n)
    dist = space.dist
    if np.array_equal(nu, mu):
        return TransportResult(0.0, Coupling(np.diag(mu), mu), 0.0, 0, True)
    pos = mu > 0
    atoms = [np.outer(mu, nu)]
    lam = np.ones(1)
    pi = atoms[0].copy()
    gap = math.inf
    for it in range(max_iter):
        value, means = _mean_objective(pi, mu, dist, cost)
        grad = cost.deriv(means)[:, None] * dist
        target = _ot_plan(grad, mu, nu)
        terms = grad * (pi - target)
        gap = float(terms.sum())
        if gap <= gap_tol or gap <= terms.size * EPS * float(np.sum(grad * (pi + target))):
            return TransportResult(value, Coupling(pi, mu), gap, it + 1, True)
        if any(np.array_equal(a, target) for a in atoms):
            return TransportResult(value, Coupling(pi, mu), gap, it + 1, False)
        # the new vertex enters by one Frank-Wolfe step from the plan
        delta = target - pi
        gamma = _line_search(mu, pos, means, _row_means(delta, mu, dist), cost, 1.0)
        if gamma <= 0:
            return TransportResult(value, Coupling(pi, mu), gap, it + 1, False)
        if gamma >= 1.0:
            atoms, lam, pi = [target], np.ones(1), target
            continue
        atoms.append(target)
        lam = np.append((1.0 - gamma) * lam, gamma)
        if len(atoms) == 2:
            pi = pi + gamma * delta
        else:
            atoms, lam = _master(atoms, lam, mu, pos, dist, cost, 1e-3 * gap_tol)
            pi = np.tensordot(lam, atoms, 1) if len(atoms) > 1 else atoms[0]
    value, _ = _mean_objective(pi, mu, dist, cost)
    return TransportResult(value, Coupling(pi, mu), gap, max_iter, False)


# ---------------------------------------------------------------------------
# independent oracle for tiny spaces


def transport_oracle_small(nu, mu, cost, space):
    """Independent evaluation of the weak cost for spaces with n <= 3.

    One SLSQP solve over the plan pi from the product coupling; the
    objective is convex and the marginals linear, so its local minimum
    is global.  Of the 2n marginals the last column sum is implied and
    left out.  Raises SolverError unless SLSQP converges (status 0) or
    stops at its line-search floor (8) with every marginal met to 1e-9.
    """
    n = space.n
    if n > 3:
        raise ValueError(f"oracle supports at most 3 points, space has {n}")
    mu, nu = as_measure(mu, n), as_measure(nu, n)
    dist, pos = space.dist, mu > 0

    def objective(flat):
        plan = flat.reshape(n, n)
        means = (dist[pos] * plan[pos]).sum(axis=1) / mu[pos]
        grad = np.zeros((n, n))
        grad[pos] = cost.deriv(means)[:, None] * dist[pos]
        return float(mu[pos] @ cost.eval(means)), grad.ravel()

    start = np.outer(mu, nu).ravel()
    scale = objective(start)[0] or 1.0  # 0 only when mu = nu is a Dirac
    # row sums, then every column sum but the last
    marg = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))[:-1]])
    target = np.concatenate([mu, nu[:-1]])
    res = minimize(lambda flat: [v / scale for v in objective(flat)], start, jac=True,
                   method="SLSQP", bounds=Bounds(0.0, 1.0),
                   constraints=LinearConstraint(marg, target, target),
                   options={"maxiter": 500, "ftol": 1e-15})
    plan = np.asarray(res.x).reshape(n, n)
    miss = max(np.abs(plan.sum(axis=1) - mu).max(), np.abs(plan.sum(axis=0) - nu).max())
    if res.status not in (0, 8) or miss > 1e-9:
        raise SolverError(f"small-space oracle: SLSQP status {res.status} ({res.message}), "
                          f"marginal error {miss:.3e}")
    # a plan that misses the marginals by SLSQP's 1e-12 can cost as much
    # less than the minimum: scale its rows and columns onto mu and nu
    for _ in range(20):
        for axis, marginal in ((1, mu[:, None]), (0, nu)):
            sums = plan.sum(axis=axis, keepdims=True)
            plan *= np.divide(marginal, sums, out=np.zeros_like(sums), where=sums > 0)
    return objective(plan.ravel())[0]


# ---------------------------------------------------------------------------
# transport-entropy verification


def _sample_measure(rng, n, index, sampler):
    if callable(sampler):
        return np.asarray(sampler(rng, n), dtype=float)
    if sampler != "mixed":
        raise ValueError(f"unknown sampler {sampler!r}")
    if index % 2 == 0 or n == 1:
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
    T(nu|mu) <= C H(nu|mu), over nu drawn by `sampler`: "mixed" draws
    even samples from the flat Dirichlet law and odd ones on two random
    points; a callable sampler(rng, n) returns nu itself.  Samples with
    H zero (nu = mu) or infinite (support violation, inequality trivial)
    are skipped.

    Each evaluated sample is one `weak_transport_cost` solve at gap
    tolerance 1e-9 H.  Its value is an upper bound on the cost, so the
    raw ratio value/H can exceed the true one by gap/H; the sweep
    therefore ranks samples by the certified lower bound (value - gap)/H,
    which never exceeds the true ratio, and settles the verdict on it
    (`details.certified_ratio`).  `best_ratio` is value/H of the same
    sample.  `details.solver` counts the solves: `calls`, `unconverged`,
    `iterations_p50`, `iterations_max` (rounds, one linear transport
    subproblem each) and `worst_gap`.  A certified ratio above C is a
    violation whether or not its solve converged; short of one, a sweep
    with an unconverged solve is "inconclusive".
    """
    C = as_positive(C, "transport constant")
    if direction not in ("I", "II"):
        raise ValueError(f"direction must be 'I' or 'II', got {direction!r}")
    mu = as_measure(mu, space.n)
    solves = []  # (iterations, converged, gap) of every solve

    def evaluate(rng, k):
        nu = _sample_measure(rng, space.n, k, sampler)
        ent = relative_entropy(nu, mu)
        if not math.isfinite(ent) or ent < 1e-14:
            return None
        pair = (mu, nu) if direction == "I" else (nu, mu)
        res = weak_transport_cost(*pair, cost, space, gap_tol=1e-9 * ent)
        gap = max(res.gap, 0.0)
        solves.append((res.iterations, res.converged, gap))
        return (res.value - gap) / ent, res.value / ent, nu

    def details(certified):
        iters = [it for it, _, _ in solves]
        solver = {
            "calls": len(solves),
            "unconverged": sum(not ok for _, ok, _ in solves),
            "iterations_p50": float(np.median(iters)) if iters else 0.0,
            "iterations_max": max(iters, default=0),
            "worst_gap": max((gap for _, _, gap in solves), default=0.0),
        }
        return {"cost": cost.label(), "samples": n_samples,
                "certified_ratio": certified, "solver": solver}

    rep = _sweep("transport-entropy-" + direction, C, n_samples, seed, evaluate, details)
    if rep.verdict != "violated" and any(not ok for _, ok, _ in solves):
        rep.verdict = "inconclusive"
    return rep


# ---------------------------------------------------------------------------
# dual form


def dual_check(mu, C, phi, cost, space):
    """Check the exponential dual inequality

        int exp((2/C) Q_1 phi) dmu  <=  exp((2/C) int phi dmu)

    for one test function phi; evaluated in log space.  It is norm growth
    at (rho, t) = (0, 1): its logs are 2/C times those of
    `funcineq.hypercontractivity_check`."""
    lam = 2.0 / as_positive(C, "dual constant")
    growth = hypercontractivity_check(mu, C, phi, 0.0, 1.0, space, cost)
    log_lhs, log_rhs = lam * growth["log_lhs"], lam * growth["log_rhs"]
    return {
        "holds": bool(log_lhs <= log_rhs + 1e-10),
        "log_lhs": log_lhs,
        "log_rhs": log_rhs,
        "margin": log_rhs - log_lhs,
        "lhs": math.exp(log_lhs) if log_lhs < 700 else math.inf,
        "rhs": math.exp(log_rhs) if log_rhs < 700 else math.inf,
    }
