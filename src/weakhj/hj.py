"""Hamilton-Jacobi verification for the weak inf-convolution semigroup.

Three pieces.  `hj_residual` evaluates, per point, the subsolution
residual d/dt Q~_t f + alpha*(|grad Q~_t f|) from the exact derivative
formula and certifies that it is non-positive (a `ResidualReport`).
`hj_boundary` reads the small-time limit of (Q~_t f - f)/t at times
small enough for the ratio to equal it, and matches it against
-alpha*(|grad f|) (a `BoundaryReport`).  `obstruction_search` looks for
a quadruple (f, x, s, t) breaking the semigroup law of the classical point-mass
evolution Q_t f(x) = min_y f(y) + D_t(x, y), starting from the
adversarial functions that certify no such family of mappings D_t can
be a semigroup on a connected space.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .calculus import tilde_gradient, time_derivative, weak_infconv
from .cost import quadratic
from .space import as_count, as_function, as_positive, jsonable

RESIDUAL_TOL = 1e-9
BOUNDARY_TOL = 1e-6
OBSTRUCTION_TOL = 1e-6
_EPS = np.finfo(float).eps

_DEFAULT_OBSTRUCTION_TS = (0.25, 0.5, 1.0)


@dataclass
class ResidualReport:
    """Subsolution residuals of one time slice; +inf where the conjugate
    blows up, at the premise violations listed in `conjugate_infinite`."""

    kind: str = field(default="residual", init=False)
    cost: str
    holds: bool
    t: float
    residuals: np.ndarray
    max_residual: float
    conjugate_infinite: tuple

    def to_json_dict(self):
        return jsonable(asdict(self))


@dataclass
class BoundaryReport:
    """The t -> 0 boundary identity per point: the `limits` read at one
    small time, the `targets` -alpha*(|grad f|), their absolute `errors`,
    and the `excluded` points whose gradient leaves the conjugate domain."""

    kind: str = field(default="boundary", init=False)
    cost: str
    holds: bool
    limits: np.ndarray
    targets: np.ndarray
    errors: np.ndarray
    max_error: float
    excluded: tuple

    def to_json_dict(self):
        return jsonable(asdict(self))


def hj_residual(f, t, cost, space):
    """Subsolution residual r(x, t) = d/dt Q~_t f(x) + alpha*(|grad Q~_t f|(x)).

    The derivative term comes from the analytic formula -beta(u/t) on the
    argmin interval, never from finite differences.  `holds` requires
    r <= 1e-9 at every point.  A +inf conjugate value (quadratic-linear
    cost with too steep a smoothed gradient) is a hard violation of the
    finite-domain premise: the point is listed in `conjugate_infinite`
    and the verdict is False.
    """
    t = as_positive(t, "t")
    f = as_function(f, space.n)
    res = weak_infconv(f, t, cost, space)
    dq = time_derivative(f, t, cost, space, result=res)
    g = tilde_gradient(res.values, space)
    bound = cost.conjugate_domain_bound()
    if math.isfinite(bound):
        # smoothing caps slopes at the saturation value, but the quotient
        # of smoothed values drifts O(eps) past it; land those back on it
        near = g <= bound * (1.0 + 1e-12)
        g = np.where(near, np.minimum(g, bound), g)
    conj = np.atleast_1d(np.asarray(cost.conjugate(g), dtype=float))
    residuals = dq + conj
    infinite = tuple(int(i) for i in np.flatnonzero(~np.isfinite(conj)))
    holds = not infinite and bool(np.all(residuals <= RESIDUAL_TOL))
    return ResidualReport(
        cost=cost.label(),
        holds=holds,
        t=float(t),
        residuals=residuals,
        max_residual=float(np.max(residuals)),
        conjugate_infinite=infinite,
    )


def hj_boundary(f, cost, space):
    """Small-time identity lim (Q~_t f(x) - f(x))/t = -alpha*(|grad f|(x)).

    On a finite space the limit is reached: with d_min the smallest
    positive distance (1 on one point), the minimiser at x lies on its
    first envelope segment, where Q~_t f = f - t alpha*(|grad f|), for
    every t <= d_min / (alpha*)'(|grad f|(x)).  `limits` is (Q~_t f - f)/t
    at half that bound for G, the largest |grad f| over the verified
    points (at d_min when G = 0).  A point whose ratio could lose a
    thousandth of its tolerance to rounding there, a flat point with
    large |f|, is read again at its own time when that is longer: the
    largest power of two at most d_min and half its own bound, with one
    evaluation of Q~_t f per distinct time.  A point verifies when its error is at most 1e-6 (1 + |target|), since
    the rounding of the ratio grows with the target; `max_error` is the
    largest absolute error.  Points with |grad f|(x) >= l, where l bounds
    the conjugate domain, are excluded from the verdict and listed.
    """
    f = as_function(f, space.n)
    g = tilde_gradient(f, space)
    bound = cost.conjugate_domain_bound()
    mask = g < bound
    excluded = tuple(int(i) for i in np.flatnonzero(~mask))
    steepest = float(g[mask].max(initial=0.0))
    d_min = _smallest_distance(space)
    t = d_min / (2.0 * cost.conjugate_deriv(steepest)) if steepest > 0 else d_min
    limits = (weak_infconv(f, t, cost, space).values - f) / t
    targets = -np.atleast_1d(np.asarray(cost.conjugate(g), dtype=float))

    # rounding costs the ratio about eps (1 + |f(x)|) / t; powers of two
    # let points share a time
    loose = mask & (4.0 * _EPS * (1.0 + np.abs(f)) / t
                    > 1e-3 * BOUNDARY_TOL * (1.0 + np.abs(targets)))
    if loose.any():
        with np.errstate(divide="ignore"):
            own = 2.0 ** np.floor(np.log2(np.minimum(
                d_min, d_min / (2.0 * cost.conjugate_deriv(g[loose])))))
        for s in np.unique(own[own > t]):
            at = np.flatnonzero(loose)[own == s]
            limits[at] = (weak_infconv(f, s, cost, space).values[at] - f[at]) / s

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
    """Search outcome: status is "witness", "exhausted" (a valid outcome,
    with statistics), or "premise-failure" when the family does not
    recover f as t -> 0 and is therefore out of scope.
    """

    status: str
    witness: ObstructionWitness | None
    functions_tried: int
    evaluations: int
    seed: int
    detail: dict = field(default_factory=dict)

    def to_json_dict(self):
        return jsonable(asdict(self))


def _family_matrix(d_family, t, space):
    mat = np.asarray(d_family(t), dtype=float)
    if mat.shape != (space.n, space.n):
        raise ValueError(f"D_t must be {space.n} x {space.n}; got shape {mat.shape} at t={t}")
    bad = np.flatnonzero(np.abs(np.diag(mat)) > 1e-12)
    if bad.size:
        x = int(bad[0])
        raise ValueError(f"D_t(x, x) must vanish; got {mat[x, x]!r} at x={x}, t={t}")
    return mat


def _classical_step(f, mat):
    # Q_t f(x) = min_y f(y) + D_t(x, y)
    return np.min(f[None, :] + mat, axis=1)


def obstruction_search(space, d_family=None, t_grid=None, trials=50, seed=0):
    """Search for a semigroup violation of Q_t f(x) = min_y f(y) + D_t(x, y).

    Tries the adversarial functions f = 0 at one vertex and M elsewhere
    (the construction behind the impossibility of such semigroups on
    connected spaces) over all (s, t) in the grid square, by default
    (0.25, 0.5, 1) d_min^2 with d_min as below, then `trials`
    random functions, each drawn only when the search reaches it.  Every
    candidate is screened at tolerance 1e-6.  `trials` must be an integer
    >= 0 (ValueError otherwise).

    `d_family(t)` returns the n x n matrix D_t, one call per time; the
    default is t * alpha(d / t) for the quadratic alpha.  The family must
    be of that shape with D_t(x, x) = 0 (ValueError otherwise) and
    recover f as t -> 0: a 1-Lipschitz probe must come back within
    1e-6 d_min at t = d_min 2^-14, with d_min the smallest positive
    distance (1 on one point).  Families failing this are reported with
    status "premise-failure" instead of being searched; the default
    family always passes.  An "exhausted" search records the largest
    gap it saw as `detail["max_gap_seen"]`.
    """
    if d_family is None:
        def d_family(t):
            return t * quadratic().eval(space.dist / t)

    trials = as_count(trials, "trials", least=0)
    unit = _smallest_distance(space)
    if t_grid is None:
        # D_t = d^2/2t is unchanged under (d, t) -> (l d, l^2 t)
        t_grid = [t * unit ** 2 for t in _DEFAULT_OBSTRUCTION_TS]
    ts = [as_positive(t, "t_grid entry") for t in t_grid]
    if not ts:
        raise ValueError("t_grid must contain positive times")

    n = space.n
    rng = np.random.default_rng(seed)

    # small-time premise: Q_t f -> f for a 1-Lipschitz probe, with times
    # and threshold in units of the smallest positive distance
    probe = space.dist[0].copy()
    probe_ts = [unit * 2.0 ** -k for k in (6, 10, 14)]
    gaps = []
    for t in probe_ts:
        qt = _classical_step(probe, _family_matrix(d_family, t, space))
        gaps.append(float(np.max(np.abs(qt - probe))))
    if gaps[-1] > 1e-6 * unit:
        return ObstructionResult(
            status="premise-failure",
            witness=None,
            functions_tried=0,
            evaluations=0,
            seed=seed,
            detail={"probe_ts": probe_ts, "probe_gaps": gaps,
                    "message": "Q_t f does not recover f as t -> 0"},
        )

    pairs = [(s, t) for s in ts for t in ts]
    mats = {t: _family_matrix(d_family, t, space)
            for t in set(ts) | {s + t for s, t in pairs}}
    scale = max(float(np.max(m)) for m in mats.values()) if n > 1 else 1.0

    def functions():
        for z in range(n):
            yield np.where(np.arange(n) == z, 0.0, 1.0 + 2.0 * scale)
        for _ in range(trials):
            yield rng.normal(0.0, 1.0, n) * max(space.diameter, 1.0)

    evaluations = 0
    max_gap = 0.0
    for tried, f in enumerate(functions(), start=1):
        for s, t in pairs:
            lhs = _classical_step(f, mats[s + t])
            rhs = _classical_step(_classical_step(f, mats[s]), mats[t])
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
