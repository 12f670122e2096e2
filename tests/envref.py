"""Point-by-point reference builders for distance profiles and their lower
convex envelopes, shared across test modules.

The library builds every point's profile and hull at once
(`calculus._profile_hull`, `calculus._envelopes`); these loops build one
point's at a time by the plain rules, so the tests can check the stacked
builder against code that shares nothing with it.
"""

import numpy as np

from weakhj.calculus import EnvelopeProfile


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


def reference_envelope(f, x, space):
    """The envelope of f at x from `distance_profile` and `convex_envelope`."""
    us, vs, att = distance_profile(f, x, space)
    hull = convex_envelope(us, vs)
    return EnvelopeProfile(x=x, us=us[hull], vs=vs[hull],
                           attainers=[att[k] for k in hull])
