"""Hamilton-Jacobi verification for the weak inf-convolution semigroup.

Three pieces.  `hj_residuals` evaluates, per point and per time of a
grid, the subsolution residual d/dt Q~_t f + alpha*(|grad Q~_t f|) from
the exact derivative formula and certifies that it is non-positive (one
`ResidualReport` per time, from one stacked evaluation of Q~_t f over
the grid, whose values and derivatives `_residual_pass` also returns);
`hj_residual` is its one-time case.  `hj_boundary` reads the
small-time limit of (Q~_t f - f)/t at each point's own time, small
enough for the ratio to equal it, all from one stacked evaluation, and
matches it against -alpha*(|grad f|) (a `BoundaryReport`).
`obstruction_search` looks for a quadruple (f, x, s, t) breaking the
semigroup law of the classical point-mass evolution `classical_infconv`,
starting from the adversarial functions behind its failure on connected
spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import (_HULL_BLOCK, _gradient_argmax, _infconv_times, classical_infconv,
                       tilde_gradient)
from .cost import quadratic
from .space import as_count, as_function, as_positive, jsonable

RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-6
OBSTRUCTION_TOL = 1e-6

_DEFAULT_OBSTRUCTION_TS = (0.25, 0.5, 1.0)


@dataclass
class ResidualReport:
    """Subsolution residuals of one time slice; +inf where the conjugate
    blows up, at the points listed in `conjugate_infinite`."""

    kind: str = field(default="residual", init=False)
    cost: str
    holds: bool
    t: float
    residuals: np.ndarray
    max_residual: float
    conjugate_infinite: tuple

    def to_json_dict(self):
        return jsonable(self)


@dataclass
class BoundaryReport:
    """The t -> 0 boundary identity per point: the `limits` read at each
    point's own small time, the `targets` -alpha*(|grad f|), their absolute
    `errors`, and the `excluded` points whose gradient leaves the conjugate
    domain."""

    kind: str = field(default="boundary", init=False)
    cost: str
    holds: bool
    limits: np.ndarray
    targets: np.ndarray
    errors: np.ndarray
    max_error: float
    excluded: tuple

    def to_json_dict(self):
        return jsonable(self)


def hj_residuals(f, ts, cost, space):
    """Subsolution residuals r(x, t) = d/dt Q~_t f(x) + alpha*(|grad Q~_t f|(x)),
    one `ResidualReport` per time of ts, in order.

    Q~_t f is evaluated at every time in one stacked pass.  The derivative
    term comes from the analytic formula -beta(u/t) on the argmin
    interval, never from finite differences.  `holds` requires r <= 1e-9
    at every point.  A +inf conjugate value (quadratic-linear cost with
    too steep a smoothed gradient) is a hard violation of the
    finite-domain assumption: the point is listed in `conjugate_infinite`
    and the verdict is False.  ValueError unless ts is non-empty with
    every time finite and > 0.
    """
    return _residual_pass(f, ts, cost, space)[2]


def _residual_pass(f, ts, cost, space):
    """The one stacked pass behind `hj_residuals`: the (T, n) values
    Q~_t f and derivatives d/dt Q~_t f = -beta(u*/t) over the grid ts,
    and the residual reports built from them.  The gradients of all the
    times come from `_gradient_argmax` on blocks of rows, each block's
    slopes at most _HULL_BLOCK entries."""
    ts = np.array([as_positive(t, "t") for t in ts])
    if not ts.size:
        raise ValueError("ts must contain positive times")
    f = as_function(f, space.n)
    _, _, values, _, _, u_star = _infconv_times(f, ts, cost, space)
    # 0.0 - x rather than -x, which turns a zero rate into -0.0
    dq = 0.0 - cost.beta(u_star / ts[:, None])
    g = np.empty_like(values)
    step = max(1, _HULL_BLOCK // space.n ** 2)
    for r in range(0, len(values), step):
        g[r:r + step] = _gradient_argmax(values[r:r + step], space)[0]
    bound = cost.conjugate_domain_bound()
    if math.isfinite(bound):
        # smoothing caps slopes at the saturation value, but the quotient
        # of smoothed values drifts O(eps) past it; land those back on it
        near = g <= bound * (1.0 + 1e-12)
        g = np.where(near, np.minimum(g, bound), g)
    conj = np.asarray(cost.conjugate(g), dtype=float)
    residuals = dq + conj
    label = cost.label()
    reports = []
    for t, r, c in zip(ts.tolist(), residuals, conj):
        infinite = tuple(np.flatnonzero(~np.isfinite(c)).tolist())
        reports.append(ResidualReport(
            cost=label,
            holds=not infinite and bool(np.all(r <= RESIDUAL_TOL)),
            t=t,
            residuals=r,
            max_residual=float(np.max(r)),
            conjugate_infinite=infinite,
        ))
    return values, dq, reports


def hj_residual(f, t, cost, space):
    """The residual report of one time: `hj_residuals` at (t,)."""
    return hj_residuals(f, (t,), cost, space)[0]


def hj_boundary(f, cost, space):
    """Small-time identity lim (Q~_t f(x) - f(x))/t = -alpha*(|grad f|(x)).

    On a finite space the limit is reached: with d_min the smallest
    positive distance (1 on one point), the minimiser at x lies on its
    first envelope segment, where Q~_t f = f - t alpha*(|grad f|), for
    every t <= d_min / (alpha*)'(|grad f|(x)).  So each point x is read
    at its own time t_x, the largest power of two at most d_min and half
    that bound, and `limits[x]` is (Q~_{t_x} f(x) - f(x)) / t_x; every
    distinct t_x comes from one stacked evaluation of Q~_t f.  A point
    verifies when its error is at most 1e-6 (1 + |target|), since the
    rounding of the ratio grows with the target; `max_error` is the
    largest absolute error.  Points with |grad f|(x) >= l, where l bounds
    the conjugate domain, are excluded from the verdict and listed; they
    are read at the shortest time of the verified points, which always
    include a minimiser of f.  ValueError when a time underflows to 0.
    """
    f = as_function(f, space.n)
    g = tilde_gradient(f, space)
    mask = g < cost.conjugate_domain_bound()
    excluded = tuple(int(i) for i in np.flatnonzero(~mask))
    d_min = _smallest_distance(space)
    with np.errstate(divide="ignore", over="ignore"):
        own = 2.0 ** np.floor(np.log2(np.minimum(
            d_min, d_min / (2.0 * cost.conjugate_deriv(g[mask])))))
    t_x = np.full(space.n, own.min(initial=d_min))
    t_x[mask] = own
    ts = np.unique(t_x)
    as_positive(ts[0], "boundary time")
    values = _infconv_times(f, ts, cost, space)[2]
    limits = (values[np.searchsorted(ts, t_x), np.arange(space.n)] - f) / t_x
    # 0.0 - x, as in _residual_pass
    targets = 0.0 - np.atleast_1d(np.asarray(cost.conjugate(g), dtype=float))

    errors = np.abs(limits - targets)
    ok = errors[mask] <= BOUNDARY_TOL * (1.0 + np.abs(targets[mask]))
    return BoundaryReport(
        cost=cost.label(),
        holds=bool(ok.all()),
        limits=limits,
        targets=targets,
        errors=errors,
        max_error=float(errors[mask].max(initial=0.0)),
        excluded=excluded,
    )


def _smallest_distance(space):
    positive = space.dist[space.dist > 0]
    return float(positive.min()) if positive.size else 1.0


# ---------------------------------------------------------------------------
# semigroup obstruction for the classical point-mass evolution


@dataclass
class ObstructionWitness:
    """A quadruple breaking Q_{t+s} f = Q_t(Q_s f) at a point."""

    f: np.ndarray
    x: int
    s: float
    t: float
    lhs: float          # Q_{t+s} f (x)
    rhs: float          # Q_t (Q_s f) (x)
    gap: float


@dataclass
class ObstructionResult:
    """Search outcome: status is "witness" or "exhausted" (a valid
    outcome, with statistics)."""

    status: str
    witness: ObstructionWitness | None
    functions_tried: int
    evaluations: int
    seed: int
    detail: dict = field(default_factory=dict)

    def to_json_dict(self):
        return jsonable(self)


def obstruction_search(space, t_grid=None, trials=50, seed=0):
    """Search for a violation of Q_{s+t} f = Q_t(Q_s f), both sides from
    `classical_infconv` with the quadratic cost.

    Tries the adversarial functions f = 0 at one vertex and M elsewhere,
    M = 1 + 2 max_t t alpha(diameter / t) over the grid times and their
    sums (the construction behind the failure on connected spaces), then
    `trials` random functions, each drawn only when reached, on every
    (s, t) of the grid square: by default (0.25, 0.5, 1) d_min^2, d_min
    the smallest positive distance (1 on one point).  A gap above 1e-6
    is a witness; an "exhausted" search records its largest gap as
    `detail["max_gap_seen"]`.  ValueError unless `trials` is an integer
    >= 0 and the grid non-empty and positive, with every s + t and M plus
    the max above finite.
    """
    trials = as_count(trials, "trials", least=0)
    if t_grid is None:
        # D_t = d^2/2t is unchanged under (d, t) -> (l d, l^2 t)
        unit = _smallest_distance(space)
        t_grid = [t * unit ** 2 for t in _DEFAULT_OBSTRUCTION_TS]
    ts = [as_positive(t, "t_grid entry") for t in t_grid]
    if not ts:
        raise ValueError("t_grid must contain positive times")

    cost = quadratic()
    pairs = [(s, t) for s in ts for t in ts]
    times = np.array(sorted(set(ts) | {s + t for s, t in pairs}))
    with np.errstate(over="ignore", invalid="ignore"):
        # the largest D_t entry (nan when some s + t overflows), the value
        # M of the adversarial functions, and the largest f + D_t they sum
        peak = float(np.max(times * cost.eval(space.diameter / times)))
        big = 1.0 + 2.0 * peak
    if not math.isfinite(big + peak):
        raise ValueError(f"t_grid {ts} overflows: some s + t, D_t entry or "
                         "adversarial value is not finite")

    n = space.n
    rng = np.random.default_rng(seed)

    def functions():
        for z in range(n):
            yield np.where(np.arange(n) == z, 0.0, big)
        for _ in range(trials):
            yield rng.normal(0.0, 1.0, n) * max(space.diameter, 1.0)

    evaluations = 0
    max_gap = 0.0
    for tried, f in enumerate(functions(), start=1):
        for s, t in pairs:
            lhs = classical_infconv(f, s + t, cost, space)
            rhs = classical_infconv(classical_infconv(f, s, cost, space), t, cost, space)
            evaluations += 1
            gap = np.abs(lhs - rhs)
            x = int(np.argmax(gap))
            max_gap = max(max_gap, float(gap[x]))
            if gap[x] > OBSTRUCTION_TOL:
                witness = ObstructionWitness(
                    f=np.asarray(f, dtype=float), x=x, s=s, t=t,
                    lhs=float(lhs[x]), rhs=float(rhs[x]), gap=float(gap[x]))
                return ObstructionResult(
                    status="witness", witness=witness,
                    functions_tried=tried, evaluations=evaluations, seed=seed,
                    detail={"t_grid": ts})
    return ObstructionResult(
        status="exhausted", witness=None,
        functions_tried=n + trials, evaluations=evaluations, seed=seed,
        detail={"t_grid": ts, "max_gap_seen": max_gap})
