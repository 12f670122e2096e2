"""Nonlinear gradient, distance profiles, convex envelopes and the weak
inf-convolution operator on a finite metric space.

The weak operator at a point x reduces to a one-dimensional problem: build
the profile u -> min { f(y) : d(x,y) = u }, take its lower convex envelope
env, and minimize env(u) + t*alpha(u/t) over u in [0, max distance].  The
minimizer set is a closed interval; two-point measures supported on profile
attainers realize its endpoints.  On each envelope segment the minimizer has
one closed form for every cost, u = t (alpha*)'(-slope) clipped to the
segment.  The oracle weak_infconv_bruteforce applies the same closed form to
every chord between two points, without the envelope, and so is exact too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .space import as_function, as_positive

ARGMIN_TOL = 1e-9
_FLAT_TOL = 1e-12
_HULL_BLOCK = 1 << 18     # pairwise slopes per hull block: 2 MB per temporary


def _gradient_argmax(f, space):
    """(|grad f|, ys): the nonlinear gradient and, per point x, the
    competitor y maximizing (f(x) - f(y)) / d(x, y); the first index wins
    ties.  ys is meaningful only where the gradient is positive: elsewhere
    the zero diagonal slope may win."""
    f = np.asarray(f, dtype=float)
    slopes = f[:, None] - f
    with np.errstate(invalid="ignore"):     # the diagonal 0/0
        np.divide(slopes, space.dist, out=slopes)
    np.fill_diagonal(slopes, 0.0)
    return slopes.max(1), slopes.argmax(1)


def tilde_gradient(f, space):
    """|grad f|(x) = max_y max(0, f(x) - f(y)) / d(x, y); zero when x has no
    strictly lower point (0/0 convention at global minima)."""
    return _gradient_argmax(as_function(f, space.n), space)[0]


def lipschitz_seminorm(f, space):
    """max_{x != y} |f(x) - f(y)| / d(x, y), the largest nonlinear gradient."""
    return float(tilde_gradient(f, space).max())


def distance_profile(f, x, space):
    """Sorted distinct distances from x with the minimal f value on each
    sphere.  Returns (us, vs, attainers); attainers[k] is a point index
    realizing vs[k].  Near-equal distances are merged (relative 1e-12)."""
    f = np.asarray(f, dtype=float)
    d = space.dist[x]
    order = np.argsort(d, kind="stable")
    us, vs, att = [], [], []
    for i in order:
        u = float(d[i])
        if us and u - us[-1] <= 1e-12 * (1.0 + u):
            if f[i] < vs[-1]:
                vs[-1] = float(f[i])
                att[-1] = int(i)
        else:
            us.append(u)
            vs.append(float(f[i]))
            att.append(int(i))
    return np.array(us), np.array(vs), att


def convex_envelope(us, vs):
    """Indices of the lower convex hull of the profile points (monotone
    sweep; collinear interior points are dropped)."""
    hull = []
    m = len(us)
    for k in range(m):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (vs[j] - vs[i]) * (us[k] - us[j]) >= (vs[k] - vs[j]) * (us[j] - us[i]):
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


@dataclass
class EnvelopeProfile:
    """Lower convex envelope of a distance profile, as breakpoints.

    Every breakpoint touches the profile; slopes are strictly increasing.
    """

    x: int
    us: np.ndarray          # breakpoint distances, ascending, us[0] == 0
    vs: np.ndarray          # envelope values at breakpoints
    attainers: list         # point index realizing each breakpoint value

    def value(self, u):
        return np.interp(u, self.us, self.vs)

    def slopes(self):
        return np.diff(self.vs) / np.diff(self.us)

    def first_slope(self):
        if len(self.us) < 2:
            return 0.0
        return float((self.vs[1] - self.vs[0]) / (self.us[1] - self.us[0]))


def envelope(f, x, space):
    us, vs, att = distance_profile(as_function(f, space.n), x, space)
    hull = convex_envelope(us, vs)
    return EnvelopeProfile(x=x, us=us[hull], vs=vs[hull],
                           attainers=[att[k] for k in hull])


@dataclass
class ArgminSet:
    """Closed interval of optimal mean distances, with witness two-point
    measures (points, weights) realizing the endpoints."""

    u_min: float
    u_max: float
    witnesses: list = field(default_factory=list)


def _segment_argmin(u0, v0, u1, v1, t, cost):
    """Argmin intervals [lo, hi] and values of v0 + s (u - u0) + t alpha(u/t)
    on [u0, u1], for arrays of envelope segments of slope s.

    The objective is convex in u and stationary where alpha'(u/t) = -s, at
    u = t (alpha')^-1(-s) = t (alpha*)'(-s); clipped to the segment, that is
    the minimizer for every cost (a rising segment clips to u0).  Only
    qlin's saturated derivative adds a case: at slope -2ah the whole ray
    [t h, u1] is stationary."""
    s = (v1 - v0) / (u1 - u0)
    lo = hi = np.clip(t * cost.conjugate_deriv(np.maximum(-s, 0.0)), u0, u1)
    if cost.kind == "qlin":
        l = cost.conjugate_domain_bound()
        flat = (s < 0.0) & (np.abs(-s - l) <= _FLAT_TOL * (1.0 + l))
        lo = np.where(flat, np.clip(t * cost.h, u0, u1), lo)
        hi = np.where(flat, u1, lo)
    return lo, hi, v0 + s * (lo - u0) + t * cost.eval(lo / t)


def _witness_for(env, u):
    """Two-point measure on profile attainers whose mean distance is u."""
    us, vs = env.us, env.vs
    if len(us) == 1 or u <= us[0]:
        return ((env.attainers[0],), (1.0,))
    k = int(np.searchsorted(us, u, side="right")) - 1
    if k >= len(us) - 1:
        return ((env.attainers[-1],), (1.0,))
    width = us[k + 1] - us[k]
    lam = (us[k + 1] - u) / width
    if lam >= 1.0 - 1e-14:
        return ((env.attainers[k],), (1.0,))
    if lam <= 1e-14:
        return ((env.attainers[k + 1],), (1.0,))
    return ((env.attainers[k], env.attainers[k + 1]), (float(lam), float(1.0 - lam)))


def _padded(offsets):
    """Lay flat profiles (offsets[x]:offsets[x+1]) out as matrix rows:
    the index matrix, each row padded with its last index, and the mask
    of real entries."""
    m = np.diff(offsets)
    k = np.arange(m.max())
    return offsets[:-1, None] + np.minimum(k, m[:, None] - 1), k < m[:, None]


def _hull_vertices(U, V, offsets):
    """Indices of the lower convex hull vertices of many profiles at once.

    Profile x holds the points (U, V)[offsets[x]:offsets[x+1]], U strictly
    increasing.  Every vertex is a strict running minimum of V from the
    left or from the right, which leaves few candidates.  Among them,
    point k is a vertex iff max_{i<k} slope(i, k) < min_{j>k} slope(k, j);
    the end points always are.  Candidates go in row blocks of at most
    _HULL_BLOCK pairwise slopes.
    """
    pad, real = _padded(offsets)
    pv = np.where(real, V[pad], np.inf)
    edge = np.full((len(pv), 1), np.inf)
    prefix = np.minimum.accumulate(pv, axis=1)
    suffix = np.minimum.accumulate(pv[:, ::-1], axis=1)[:, ::-1]
    record = real & ((pv < np.hstack([edge, prefix[:, :-1]]))
                     | (pv < np.hstack([suffix[:, 1:], edge])))
    cand = pad[record]
    pad, real = _padded(np.concatenate([[0], np.cumsum(record.sum(axis=1))]))
    pu, pv = U[cand][pad], V[cand][pad]
    size = pad.shape[1]
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    vertex = np.empty(pad.shape, dtype=bool)
    step = max(1, _HULL_BLOCK // (size * size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(0, len(pad), step):
            bu, bv = pu[r:r + step], pv[r:r + step]
            # slope[x, i, j] = slope of the chord from point i to point j
            slope = (bv[:, None, :] - bv[:, :, None]) / (bu[:, None, :] - bu[:, :, None])
            left = np.where(upper, slope, -np.inf).max(axis=1)
            right = np.where(upper, slope, np.inf).min(axis=2)
            vertex[r:r + step] = left < right
    # the last point meets only its own padding copies: 0/0 on the right
    vertex[np.arange(len(pad)), real.sum(axis=1) - 1] = True
    return cand[pad[real & vertex]]


@dataclass
class WeakInfConv:
    """Values of Q~_t f and, per point, the argmin interval [u_min, u_max]
    of mean distances and u_star, the minimizer on the strictly best
    envelope segment.  `argmin` (ArgminSet per point, with witnesses) and
    `envelopes` (EnvelopeProfile per point) are built on first access."""

    values: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    u_star: np.ndarray
    _f: np.ndarray = field(repr=False)
    _space: object = field(repr=False)
    _profile: tuple = field(repr=False)     # (U, V): all distance profiles
    _hull: np.ndarray = field(repr=False)   # profile indices of hull vertices

    @functools.cached_property
    def envelopes(self):
        order, starts = self._space.distance_groups
        U, V = self._profile
        hull = self._hull
        fs = self._f[order].ravel()
        # the first point in stable order attaining each sphere's minimum
        hits = np.flatnonzero(fs == np.repeat(V, np.diff(starts, append=fs.size)))
        att = order.ravel()[hits[np.searchsorted(hits, starts[hull])]]
        cut = np.flatnonzero(np.diff(starts[hull] // self._space.n)) + 1
        return [EnvelopeProfile(x=x, us=us, vs=vs, attainers=a.tolist())
                for x, (us, vs, a) in enumerate(zip(
                    np.split(U[hull], cut), np.split(V[hull], cut), np.split(att, cut)))]

    @functools.cached_property
    def argmin(self):
        out = []
        for env, lo, hi in zip(self.envelopes, self.u_min.tolist(), self.u_max.tolist()):
            wit = [_witness_for(env, lo)]
            if hi > lo:
                wit.append(_witness_for(env, hi))
            out.append(ArgminSet(lo, hi, wit))
        return out


def weak_infconv(f, t, cost, space):
    """Weak inf-convolution: per point, the minimum over probability
    measures p of integral(f dp) + t alpha(mean distance / t).  Returns
    values, per-point argmin intervals and the envelopes used.

    All points are processed together: the sphere minima of f come from
    the space's cached row orders, then every lower convex envelope and
    every segment minimizer is computed at once."""
    t = as_positive(t, "t")
    f = as_function(f, space.n).copy()  # the lazy envelopes read it later
    n = space.n
    order, starts = space.distance_groups
    rows = starts // n
    U = space.dist[rows, order.ravel()[starts]]
    V = np.minimum.reduceat(f[order].ravel(), starts)
    hull = _hull_vertices(U, V, np.searchsorted(rows, np.arange(n + 1)))
    if n == 1:
        return WeakInfConv(V.copy(), np.zeros(1), np.zeros(1), np.zeros(1),
                           f, space, (U, V), hull)
    # segments join consecutive hull vertices of one point
    hrow = rows[hull]
    same = hrow[1:] == hrow[:-1]
    a, b = hull[:-1][same], hull[1:][same]
    seg_row = hrow[:-1][same]
    lo, hi, val = _segment_argmin(U[a], V[a], U[b], V[b], t, cost)
    first = np.searchsorted(seg_row, np.arange(n))
    best = np.minimum.reduceat(val, first)
    keep = val <= (best + ARGMIN_TOL * (1.0 + np.abs(best)))[seg_row]
    u_min = np.minimum.reduceat(np.where(keep, lo, np.inf), first)
    u_max = np.maximum.reduceat(np.where(keep, hi, -np.inf), first)
    # beta(u/t) is constant on the true argmin set, but a segment within
    # ARGMIN_TOL of the best can stretch [u_min, u_max] past it
    at_best = np.flatnonzero(val == best[seg_row])
    u_star = lo[at_best[np.searchsorted(at_best, first)]]
    return WeakInfConv(best, u_min, u_max, u_star, f, space, (U, V), hull)


def weak_infconv_bruteforce(f, t, cost, space):
    """Independent exact oracle for weak_infconv, by enumeration.

    The objective depends on p only through the pair (mean distance, mean
    value), so its minimum over the convex hull of the points (d(x,y),
    f(y)) lies at one point (a Dirac mass: classical_infconv) or on a chord
    between two points at distances u0 < u1.  On a chord of slope s the
    objective v0 + s (u - u0) + t alpha(u/t) is convex in u with its
    minimum at u = t (alpha*)'(-s) clipped to [u0, u1].  Every chord is
    priced, one n x n pass per point x; no envelope is built."""
    t = as_positive(t, "t")
    f = as_function(f, space.n)
    out = classical_infconv(f, t, cost, space)
    for x in range(space.n):
        d = space.dist[x]
        i, j = np.nonzero(d[:, None] < d[None, :])
        u0, v0, u1 = d[i], f[i], d[j]
        s = (f[j] - v0) / (u1 - u0)
        u = np.clip(t * cost.conjugate_deriv(np.maximum(-s, 0.0)), u0, u1)
        out[x] = np.min(v0 + s * (u - u0) + t * cost.eval(u / t), initial=out[x])
    return out


def classical_infconv(f, t, cost, space):
    """Point-mass inf-convolution min_y f(y) + t alpha(d(x,y)/t)."""
    t = as_positive(t, "t")
    f = as_function(f, space.n)
    return np.min(f[None, :] + t * cost.eval(space.dist / t), axis=1)


def time_derivative(f, t, cost, space, result=None):
    """Exact t-derivative of the weak inf-convolution: -beta(u/t) at the
    minimizer u of the best envelope segment (beta is constant on the
    argmin set)."""
    if result is None:
        result = weak_infconv(f, t, cost, space)
    return -cost.beta(result.u_star / t)


def gradient_envelope_identity(f, x, space):
    """Compare |grad f|(x) with the envelope's right slope at 0.

    They agree except possibly when x is the unique global minimizer, where
    the gradient is 0 while the slope stays positive.
    """
    f = as_function(f, space.n)
    g = float(tilde_gradient(f, space)[x])
    s0 = envelope(f, x, space).first_slope()
    mins = np.flatnonzero(f <= f.min())
    unique_min = len(mins) == 1 and mins[0] == x
    return {
        "gradient": g,
        "first_slope": float(s0),
        "abs_first_slope": abs(float(s0)),
        "verdict": "unique-minimizer" if unique_min else "equal",
    }
