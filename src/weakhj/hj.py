"""Hamilton-Jacobi verification for the weak inf-convolution semigroup.

Three pieces.  `hj_residual` evaluates, per point, the subsolution
residual d/dt Q~_t f + alpha*(|grad Q~_t f|) from the exact derivative
formula and certifies that it is non-positive.  `hj_boundary`
extrapolates the small-time limit of (Q~_t f - f)/t along a dyadic
t-sequence and matches it against -alpha*(|grad f|).  `obstruction_search`
looks for a quadruple (f, x, s, t) breaking the semigroup law of the
classical point-mass evolution Q_t f(x) = min_y f(y) + D_t(x, y),
starting from the adversarial functions that certify no such family of
mappings D_t can be a semigroup on a connected space.
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

# dyadic default 2^-k, k = 3..20
_DEFAULT_BOUNDARY_TS = tuple(2.0 ** -k for k in range(3, 21))
_DEFAULT_OBSTRUCTION_TS = (0.25, 0.5, 1.0)

# the fields an HJReport of each kind serialises, in JSON key order
_REPORT_FIELDS = {
    "residual": ("kind", "cost", "holds", "t", "residuals", "max_residual",
                 "conjugate_infinite"),
    "boundary": ("kind", "cost", "holds", "limits", "targets", "errors",
                 "max_error", "excluded"),
}


@dataclass
class HJReport:
    """Per-point verification record for one residual slice or for the
    t -> 0 boundary identity.

    Residual slices carry `residuals` (+inf where the conjugate blows
    up, with those points listed in `conjugate_infinite` as premise
    violations).  Boundary reports carry extrapolated `limits`, the
    `targets` -alpha*(|grad f|), their absolute `errors`, and the
    `excluded` points whose gradient falls outside the conjugate
    domain.
    """

    kind: str
    cost: str
    holds: bool
    t: float | None = None
    residuals: np.ndarray | None = None
    max_residual: float | None = None
    conjugate_infinite: tuple = ()
    limits: np.ndarray | None = None
    targets: np.ndarray | None = None
    errors: np.ndarray | None = None
    max_error: float | None = None
    excluded: tuple = ()

    def to_json_dict(self):
        return jsonable({k: getattr(self, k) for k in _REPORT_FIELDS[self.kind]})


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
    return HJReport(
        kind="residual",
        cost=cost.label(),
        holds=holds,
        t=float(t),
        residuals=residuals,
        max_residual=float(np.max(residuals)),
        conjugate_infinite=infinite,
    )


def hj_boundary(f, cost, space, t_sequence=None):
    """Small-time identity lim (Q~_t f(x) - f(x))/t = -alpha*(|grad f|(x)).

    The limit is Richardson-extrapolated (2 r_{k+1} - r_k) when the
    sequence is dyadic, else taken as the last ratio.  Points with
    |grad f|(x) >= l, where l bounds the conjugate domain, are excluded
    from the verdict and listed.
    """
    f = as_function(f, space.n)
    if t_sequence is None:
        t_sequence = _DEFAULT_BOUNDARY_TS
    ts = [as_positive(t, "t_sequence entry") for t in t_sequence]
    if not ts:
        raise ValueError("t_sequence must contain positive times")
    if any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_sequence must be strictly decreasing")

    g = tilde_gradient(f, space)
    bound = cost.conjugate_domain_bound()
    excluded = tuple(int(i) for i in np.flatnonzero(g >= bound))
    dyadic = len(ts) >= 2 and all(
        abs(b - 0.5 * a) <= 1e-12 * a for a, b in zip(ts, ts[1:]))
    # the extrapolation reads only the last one or two ratios
    ratios = [(weak_infconv(f, t, cost, space).values - f) / t
              for t in ts[-2 if dyadic else -1:]]
    limits = 2.0 * ratios[1] - ratios[0] if dyadic else ratios[0]

    targets = -np.atleast_1d(np.asarray(cost.conjugate(g), dtype=float))
    errors = np.abs(limits - targets)
    mask = np.ones(space.n, dtype=bool)
    mask[list(excluded)] = False
    max_error = float(errors[mask].max()) if mask.any() else 0.0
    return HJReport(
        kind="boundary",
        cost=cost.label(),
        holds=bool(max_error <= BOUNDARY_TOL),
        limits=limits,
        targets=targets,
        errors=errors,
        max_error=max_error,
        excluded=excluded,
    )


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

    def to_json_dict(self):
        return jsonable(asdict(self))


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
    connected spaces) over all (s, t) in the grid square, then `trials`
    random functions, each drawn only when the search reaches it.  Every
    candidate is screened at tolerance 1e-6.  `trials` must be an integer
    >= 0 (ValueError otherwise).

    `d_family(t)` returns the n x n matrix D_t, one call per time; the
    default is t * alpha(d / t) for the quadratic alpha.  The family must
    be of that shape with D_t(x, x) = 0 (ValueError otherwise) and
    recover f as t -> 0; families failing the latter are reported with
    status "premise-failure" instead of being searched.
    """
    if d_family is None:
        def d_family(t):
            return t * quadratic().eval(space.dist / t)

    trials = as_count(trials, "trials", least=0)
    if t_grid is None:
        t_grid = _DEFAULT_OBSTRUCTION_TS
    ts = [as_positive(t, "t_grid entry") for t in t_grid]
    if not ts:
        raise ValueError("t_grid must contain positive times")

    n = space.n
    rng = np.random.default_rng(seed)

    # small-time premise: Q_t f -> f for a 1-Lipschitz probe
    probe = space.dist[0].copy()
    probe_ts = [2.0 ** -k for k in (6, 10, 14)]
    gaps = []
    for t in probe_ts:
        qt = _classical_step(probe, _family_matrix(d_family, t, space))
        gaps.append(float(np.max(np.abs(qt - probe))))
    if gaps[-1] > 1e-6:
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
    for tried, f in enumerate(functions(), start=1):
        for s, t in pairs:
            lhs = _classical_step(f, mats[s + t])
            rhs = _classical_step(_classical_step(f, mats[s]), mats[t])
            evaluations += 1
            gap = np.abs(lhs - rhs)
            x = int(np.argmax(gap))
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
        detail={"t_grid": ts, "max_gap_seen": "below tolerance"})
