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
problem in a handful of weights.  The rounds read only the vertices'
row means and weights, and the coupling is assembled once, at the end;
nu = mu takes the same rounds.  The linearization gap certifies the
value.  For spaces with at most three points an independent oracle
solves the same convex problem by one SLSQP solve over the plan.
`dual_check` tests the exponential dual bound for one function; its
sampled sweep is `funcineq.hypercontractivity_sweep` at (rho, t) = (0, 1).
SciPy is imported only where it is called, by the line search (`brentq`)
and by the oracle (SLSQP), so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcineq import _sweep, hypercontractivity_check, verdict
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
# linear transport subproblem: the transportation simplex, which is the
# network simplex on the bipartite graph of supply rows and demand columns


class SolverError(RuntimeError):
    """The linear transport subproblem failed to reach a feasible plan."""


def _greedy_plan(costs, sup, dem):
    """The least-cost greedy plan: each cell in increasing order of cost
    ships all it can, ties in row-major order.  Every caller's cost (a
    metric scaled row by row) is zero on the diagonal and positive off it
    on the columns with demand, so the plan first ships min(supply,
    demand) from each point to itself.  Each shipment exhausts its row or
    its column exactly, so the positive cells form a forest."""
    ns, nd = costs.shape
    flow = np.zeros((ns, nd))
    s, d = sup.tolist(), dem.tolist()
    rows = [i for i in range(ns) if s[i] > 0]
    cols = [j for j in range(nd) if d[j] > 0]
    left_s, left_d = len(rows), len(cols)
    for k in np.argsort(costs[rows][:, cols], axis=None, kind="stable").tolist():
        if not (left_s and left_d):
            break
        i, j = rows[k // len(cols)], cols[k % len(cols)]
        a, b = s[i], d[j]
        if a > 0 and b > 0:
            ship = flow[i, j] = a if a < b else b
            s[i], d[j] = a - ship, b - ship
            left_s -= s[i] == 0
            left_d -= d[j] == 0
    return flow


def _simplex(c, flow, tol):
    """Optimal plan for the cost c from the feasible plan `flow`, whose
    positive cells form a forest; every row and column has positive mass.

    Nodes 0..ns-1 are the rows, ns.. the columns; the basis is a spanning
    tree rooted at row 0, held as parent pointers, the flow of each node's
    edge to its parent, depths and children.  The positive cells are
    completed by cells at flow 0, each hanging a further component by one
    of its rows from a column already in the tree, so every zero edge
    points towards the root: the tree is strongly feasible."""
    ns, nd = c.shape
    n = ns + nd
    cl = c.tolist()

    def cost(x, y):  # of the cell joining nodes x and y
        return cl[x][y - ns] if x < ns else cl[y][x - ns]

    adj = [[] for _ in range(n)]
    ii, jj = np.nonzero(flow > 0)
    for i, j, f in zip(ii.tolist(), jj.tolist(), flow[ii, jj].tolist()):
        adj[i].append((ns + j, f))
        adj[ns + j].append((i, f))
    par, fl, depth, pot = [-1] * n, [0.0] * n, [0] * n, [0.0] * n
    kids = [[] for _ in range(n)]
    intree = [True] + [False] * (n - 1)

    def grow(stack):
        # hang each (node, parent, flow) and the positive cells below it
        while stack:
            x, p, f = stack.pop()
            if intree[x]:
                raise ValueError("start plan: its positive cells contain a cycle")
            intree[x] = True
            par[x], fl[x], depth[x] = p, f, depth[p] + 1
            pot[x] = cost(x, p) - pot[p]
            kids[p].append(x)
            stack.extend((y, x, g) for y, g in adj[x] if y != p)

    grow([(y, 0, f) for y, f in adj[0]])
    for _ in range(2):  # a column no positive cell reaches hangs from a row
        for x in range(1, n):
            if not intree[x]:
                other = [y for y in (range(ns, n) if x < ns else range(ns)) if intree[y]]
                if other:
                    grow([(x, min(other, key=lambda y: cost(x, y)), 0.0)])

    pot = np.array(pot)
    sign = np.ones(n)
    sign[ns:] = -1.0
    cap = 40 * n + 200
    for _ in range(cap):
        red = c - pot[:ns, None] - pot[ns:]
        k = int(red.argmin())
        r = float(red.flat[k])
        if r >= -tol:
            break
        i, j = divmod(k, nd)
        j += ns
        # the pivot cycle: the entering cell i -> j, then the tree path
        # from j up to the apex and down to i
        a, b, up_i, up_j = i, j, [], []
        while depth[a] > depth[b]:
            up_i.append(a)
            a = par[a]
        while depth[b] > depth[a]:
            up_j.append(b)
            b = par[b]
        while a != b:
            up_i.append(a)
            a = par[a]
            up_j.append(b)
            b = par[b]
        # along the cycle, flow falls on a column's edge to its parent on
        # the j side and on a row's edge on the i side.  The leaving edge
        # is the last blocking one from the apex: on the j side the one
        # nearest the apex, else on the i side the one nearest i
        delta, out, cut = math.inf, -1, j
        for x in up_j:
            if x >= ns and fl[x] <= delta:
                delta, out = fl[x], x
        for x in up_i:
            if x < ns and fl[x] < delta:
                delta, out, cut = fl[x], x, i
        if delta > 0:
            for x in up_j:
                fl[x] += -delta if x >= ns else delta
            for x in up_i:
                fl[x] += -delta if x < ns else delta
        # the subtree below `out` holds `cut`: turn the path from cut up
        # to out around and hang cut from the other end of the entry
        x, p, f = cut, i + j - cut, delta
        while True:
            q, g = par[x], fl[x]
            kids[q].remove(x)
            par[x], fl[x] = p, f
            kids[p].append(x)
            if x == out:
                break
            x, p, f = q, x, g
        moved, stack = [], [cut]
        while stack:
            x = stack.pop()
            moved.append(x)
            depth[x] = depth[par[x]] + 1
            stack.extend(kids[x])
        # u_i + v_j = c_ij on the entry: rows of the subtree move by the
        # reduced cost one way, its columns the other
        pot[moved] += (r if cut == i else -r) * sign[moved]
    else:
        raise SolverError(f"transport subproblem: no optimum after {cap} pivots")
    plan = np.zeros((ns, nd))
    for x in range(1, n):
        if x < ns:
            plan[x, par[x] - ns] = fl[x]
        else:
            plan[par[x], x - ns] = fl[x]
    return plan


def _ot_plan(costs, supply, demand, start=None):
    """Exact minimum-cost transportation plan between two histograms, by
    the transportation simplex on the points of positive mass (`_simplex`).

    The basis starts from `start`, a feasible plan whose positive cells
    form a forest, such as an earlier return for the same histograms, or
    else from the least-cost greedy plan (`_greedy_plan`).  Each pivot
    enters the cell of least reduced cost c_ij - u_i - v_j, one argmin
    over the potentials of the tree, and the plan is optimal once none is
    below -1e-12 (1 + max|c|).  The leaving cell is the last blocking cell
    met along the pivot cycle from its apex (Cunningham's rule), which
    keeps the tree strongly feasible, so degenerate pivots cannot cycle.
    Cells off the tree carry exactly 0: the plan has at most ns + nd - 1
    positive cells and is a valid start for the next call.  Raises
    SolverError on a cost that is not finite, after 40 (ns + nd) + 200
    pivots, or when the plan misses a histogram by more than 1e-10 (the
    two do not balance, or `start` does not meet them)."""
    costs = np.asarray(costs, dtype=float)
    sup = np.asarray(supply, dtype=float)
    dem = np.asarray(demand, dtype=float)
    top = float(np.abs(costs).max())
    if not math.isfinite(top):
        raise SolverError("transport subproblem: costs are not finite")
    tol = 1e-12 * (1.0 + top)
    flow = _greedy_plan(costs, sup, dem) if start is None else np.asarray(start, dtype=float)
    rows, cols = sup > 0, dem > 0
    if rows.all() and cols.all():  # no copies: a quarter of a 2 x 2 call
        plan = _simplex(costs, flow, tol)
    else:
        plan = np.zeros(costs.shape)
        if rows.any() and cols.any():
            cells = np.ix_(rows, cols)
            plan[cells] = _simplex(costs[cells], flow[cells], tol)
    miss_s = float(np.abs(plan.sum(axis=1) - sup).max())
    miss_d = float(np.abs(plan.sum(axis=0) - dem).max())
    if miss_s > 1e-10 or miss_d > 1e-10:
        raise SolverError(
            f"transport subproblem not converged: residuals {miss_s:.3e} {miss_d:.3e}"
        )
    return plan


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


def _line_search(mu, means, dm, cost, gmax):
    """Exact minimizer of g -> sum mu alpha(means + g dm) on [0, gmax],
    gmax > 0 (1.0, or a minimum of positive weight/step ratios):
    the root of the non-decreasing slope s(g) = sum mu dm alpha'(means +
    g dm), bracketed by its signs at the two ends and found by Brent's
    method (`scipy.optimize.brentq`) to the last bits of g.  Where the
    slope's last bits are rounding noise, Brent's method can stall short
    of that tolerance; its last iterate, inside the bracket, is taken
    after its 100 steps.  A slope that is nan counts as positive: a row
    mean that reaches 0 at gmax can land a rounding error below it, where
    a fractional power is nan."""
    # rows that do not move add nothing; a mu-null row has row mean 0 in
    # every atom (`_row_means`), so it never moves
    moving = dm != 0
    w, m, d = mu[moving] * dm[moving], means[moving], dm[moving]

    def slope(g):
        s = float(w @ cost.deriv(m + g * d))
        return 1.0 if math.isnan(s) else s

    if slope(gmax) <= 0:
        return gmax
    if slope(0.0) >= 0:
        return 0.0
    from scipy.optimize import brentq
    return brentq(slope, 0.0, gmax, xtol=2 * EPS * gmax, rtol=4 * EPS, disp=False)


def _master(M, lam, mu, cost, tol):
    """Minimize F(lam) = sum_x mu(x) alpha((M^T lam)_x) over the simplex,
    where row k of M holds the row means of atom k, by projected Newton
    steps on the support of lam; the plans themselves are never read.

    The heaviest atom is eliminated through sum lam = 1, so each step
    solves a (k-1) x (k-1) system whose Hessian D diag(mu alpha'') D^T is
    built from D, the row-mean differences to that atom; a small ridge
    sends a flat direction (alpha'' = 0) to the boundary.  The step
    length along the Newton direction is an exact line search up to the
    boundary (`_line_search`).  Atoms whose weight reaches 0 are
    dropped: returns the indices of the rows of M kept, and their
    weights.  Stops when the restricted gap lam.g - min g is below tol,
    when a step moves lam only in its last bits, or after 50 steps.
    Progress is judged on slopes, not on F, whose last bits stop moving
    long before the gap reaches a tight tol."""
    kept = np.arange(lam.size)
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
            step = _line_search(mu, means, y @ diff, cost, gmax)
        new = lam + step * d
        if step == gmax:
            new[np.flatnonzero(shrink)[ratios == gmax]] = 0.0
        keep = new > 1e-15
        new = new[keep] / new[keep].sum()
        if keep.all() and np.abs(new - lam).max() <= 1e-15:
            break  # lam is at its last bits
        lam, M, kept = new, M[keep], kept[keep]
        means = lam @ M
    return kept, lam


def weak_transport_cost(nu, mu, cost, space, gap_tol=1e-8, max_iter=10000):
    """Minimize the weak transport objective by simplicial decomposition.

    The objective reads a plan only through its row means, so the state
    of a run is the matrix M of the atoms' row means (one row per atom)
    and their weights lam; the current row means are lam @ M.  Each round
    linearizes there and solves the induced classical transport problem
    exactly (`_ot_plan`), starting from the previous round's vertex: mu
    and nu never change within a solve, so that plan stays feasible and
    a few pivots re-optimize it.  The linearization gap against the vertex,
    sum_x mu(x) alpha'(m_x) (m_x - t_x) with t the vertex's row means,
    bounds the distance to the optimum, and the run stops once the gap
    is below gap_tol or at its rounding floor, whichever is larger.  The
    gap is the difference of two sums of n^2 non-negative terms, the
    linearized costs of the plan and of the vertex, each about the size
    of the value, so its floor is n^2 eps times their total.  Otherwise
    the vertex joins the atoms and the weights are re-optimized over
    their convex hull (the restricted master problem; one exact line
    search while there are at most two atoms, projected Newton steps
    after that), and atoms left with weight 0 are dropped.
    `iterations` counts rounds, one transport subproblem each.  A vertex
    whose row means already belong to an atom means the master stalled:
    the run stops unconverged.  nu = mu needs no special case: the
    vertex diag(mu) has row means 0 and enters by a full step, and the
    next round closes at value and gap 0.  The plans P_k are kept only
    for the coupling sum_k lam_k P_k, assembled once, at the end; the
    product coupling makes infeasibility impossible.
    """
    mu = as_measure(mu, space.n)
    nu = as_measure(nu, space.n)
    dist = space.dist
    atoms = [np.outer(mu, nu)]
    M = _row_means(atoms[0], mu, dist)[None]
    lam = np.ones(1)
    target = None
    gap, converged, it = math.inf, False, 0
    for it in range(1, max_iter + 1):
        means = lam @ M
        deriv = cost.deriv(means)
        target = _ot_plan(deriv[:, None] * dist, mu, nu, start=target)
        t_means = _row_means(target, mu, dist)
        slope = mu * deriv
        gap = float(slope @ (means - t_means))
        if gap <= gap_tol or gap <= mu.size ** 2 * EPS * float(slope @ (means + t_means)):
            converged = True
            break
        if (M == t_means).all(axis=1).any():
            break
        # the new vertex enters by one Frank-Wolfe step from the plan
        gamma = _line_search(mu, means, t_means - means, cost, 1.0)
        if gamma <= 0:
            break
        if gamma >= 1.0:
            atoms, M, lam = [target], t_means[None], np.ones(1)
            continue
        atoms.append(target)
        M = np.vstack([M, t_means])
        lam = np.append((1.0 - gamma) * lam, gamma)
        if len(atoms) > 2:
            kept, lam = _master(M, lam, mu, cost, 1e-3 * gap_tol)
            atoms, M = [atoms[k] for k in kept], M[kept]
    value = float(mu @ cost.eval(lam @ M))
    pi = np.tensordot(lam, atoms, 1) if len(atoms) > 1 else atoms[0]
    return TransportResult(value, Coupling(pi, mu), gap, it, converged)


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
    from scipy.optimize import Bounds, LinearConstraint, minimize

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


def _sample_measure(rng, n, index):
    """The mixed law: even samples from the flat Dirichlet law, odd ones
    on two random points."""
    if index % 2 == 0 or n == 1:
        return rng.dirichlet(np.ones(n))
    i, j = rng.choice(n, size=2, replace=False)
    out = np.zeros(n)
    w = rng.random()
    out[i] = w
    out[j] = 1.0 - w
    return out


def check_transport_entropy(mu, C, cost, space, direction="I", n_samples=1000, seed=0):
    """Sampled sweep of the transport-entropy inequality.

    Direction I tests T(mu|nu) <= C H(nu|mu), direction II tests
    T(nu|mu) <= C H(nu|mu), over nu drawn from the mixed law: even
    samples from the flat Dirichlet law and odd ones on two random
    points.  Samples with H zero (nu = mu) or infinite (support
    violation, inequality trivial) are skipped.

    Each evaluated sample is one `weak_transport_cost` solve at gap
    tolerance 1e-9 H.  Its value is an upper bound on the cost, so the
    raw ratio value/H can exceed the true one by gap/H; the sweep
    therefore ranks samples by the certified lower bound (value - gap)/H,
    which never exceeds the true ratio (`details.certified_ratio`), and
    judges each sample by `funcineq.verdict(certified ratio, C)`: a
    violation whether or not its solve converged, and short of one
    "inconclusive" when the solve did not converge.  The sweep takes its
    verdict by `funcineq._sweep`'s rule.  `best_ratio` is value/H of the
    best sample.  `details.solver` counts the solves: `calls`,
    `unconverged`, `iterations_p50`, `iterations_max` (rounds, one linear
    transport subproblem each) and `worst_gap`.
    """
    C = as_positive(C, "transport constant")
    if direction not in ("I", "II"):
        raise ValueError(f"direction must be 'I' or 'II', got {direction!r}")
    mu = as_measure(mu, space.n)
    solves = []  # (iterations, converged, gap) of every solve

    def evaluate(rng, k):
        nu = _sample_measure(rng, space.n, k)
        ent = relative_entropy(nu, mu)
        if not math.isfinite(ent) or ent < 1e-14:
            return None
        pair = (mu, nu) if direction == "I" else (nu, mu)
        res = weak_transport_cost(*pair, cost, space, gap_tol=1e-9 * ent)
        gap = max(res.gap, 0.0)
        solves.append((res.iterations, res.converged, gap))
        certified = (res.value - gap) / ent
        tested = verdict(certified, C)
        if not res.converged and tested != "violated":
            tested = "inconclusive"
        return certified, tested, res.value / ent, nu

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

    return _sweep("transport-entropy-" + direction, C, n_samples, seed, evaluate, details)


# ---------------------------------------------------------------------------
# dual form


def dual_check(mu, C, phi, cost, space):
    """Check the exponential dual inequality

        int exp((2/C) Q_1 phi) dmu  <=  exp((2/C) int phi dmu)

    for one test function phi; evaluated in log space.  It is norm growth
    at (rho, t) = (0, 1): its logs are 2/C times those of
    `funcineq.hypercontractivity_check`, and `holds` is that check's
    verdict, so one rule judges both."""
    lam = 2.0 / as_positive(C, "dual constant")
    growth = hypercontractivity_check(mu, C, phi, 0.0, 1.0, space, cost)
    log_lhs, log_rhs = lam * growth["log_lhs"], lam * growth["log_rhs"]
    return {
        "holds": growth["holds"],
        "log_lhs": log_lhs,
        "log_rhs": log_rhs,
        "margin": log_rhs - log_lhs,
        "lhs": math.exp(log_lhs) if log_lhs < 700 else math.inf,
        "rhs": math.exp(log_rhs) if log_rhs < 700 else math.inf,
    }
