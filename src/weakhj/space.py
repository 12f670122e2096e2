"""Finite metric spaces and probability measures.

A space is a finite point set together with a validated distance matrix.
Canonical families (two-point, path, cycle, complete, hypercube, symmetric
group under transpositions) are built exactly, and `EXAMPLES` states each
one's least size and point count; arbitrary spaces come from weighted
graphs via all-pairs shortest paths or from an explicit matrix.  A graph
is validated edge by edge, its closure being a metric by construction; an
explicit matrix goes through `check_metric`.  Every example and graph is
capped at 2^HYPERCUBE_MAX_N points.  SciPy is imported only inside
`build_from_graph`, for Dijkstra, so every example space loads without
it; the graph's symmetric CSR arrays are built there directly, and the
distances are bit for bit those of SciPy's undirected `shortest_path`.
`jsonable` turns reports and payloads into plain JSON data in one pass.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

# n points need 16 n^2 bytes: the float distance matrix plus the int64 row
# sort order `MetricSpace.distance_groups` caches (8 n^2 more for the float
# `slope_divisor` once a gradient is taken, 134 MB at 4 096 points).  Every
# example space and graph is capped at the 2^12 = 4 096 points of
# hypercube:12, which take 268 MB; hypercube:13 would take 1.07 GB.
HYPERCUBE_MAX_N = 12
_MAX_POINTS = 2 ** HYPERCUBE_MAX_N
# the largest point count a refusal states exactly, hypercube:4096's; a
# longer count, such as symmetric_group:2000's, would not print
_COUNT_LIMIT = 2 ** _MAX_POINTS
METRIC_TOL = 1e-9
_LEAVES = (str, int, float, bool, type(None))


def jsonable(obj):
    """`obj` as plain JSON data: dicts stay dicts, a dataclass instance
    becomes the dict of its fields in declaration order, read without a
    copy, lists, tuples and arrays become lists, NumPy scalars become
    Python scalars, and a non-finite float becomes None (NaN and infinity
    are not JSON).

    Leaves are tested by exact type first: `np.float64` subclasses float,
    so `isinstance` would pass a non-finite NumPy scalar through.  A bool
    or integer array, or a float array that is all finite, is returned by
    one `tolist()`; only an array holding NaN or an infinity is walked
    element by element."""
    kind = type(obj)
    if kind in _LEAVES:
        return None if kind is float and not math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return jsonable(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    elif is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


class CapacityError(ValueError):
    """A canonical-space request exceeds the configured size limits."""


class MetricViolation(ValueError):
    """A distance matrix fails a metric axiom; carries the first witness."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def check_metric(dist):
    """Return None if `dist` is a metric, else a dict naming the first
    violated axiom with a witness index pair/triple.

    Identity and positivity are absolute: |d_ii| <= METRIC_TOL, and
    d_ij > METRIC_TOL off the diagonal.  Symmetry and the triangle
    inequality are judged at the scale of the entries compared: d_ij and
    d_ji may differ by METRIC_TOL (1 + the larger), and d_ik may exceed
    d_ij + d_jk by METRIC_TOL (1 + d_ik), which covers the rounding of
    distances summed along paths.  The triangle check is an O(n^3) loop,
    run on outside matrices only: a graph's metric needs none."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return {"axiom": "shape", "detail": f"expected square matrix, got {d.shape}"}
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        return {"axiom": "finiteness", "witness": (int(i), int(j))}
    bad = np.flatnonzero(np.abs(np.diagonal(d)) > METRIC_TOL)
    if bad.size:
        i = int(bad[0])
        return {"axiom": "identity", "witness": (i, i), "value": float(d[i, i])}
    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere((d <= METRIC_TOL) & off)
    if bad.size:
        i, j = bad[0]
        return {"axiom": "positivity", "witness": (int(i), int(j)), "value": float(d[i, j])}
    asym = np.argwhere(np.abs(d - d.T) > METRIC_TOL * (1.0 + np.maximum(d, d.T)))
    if asym.size:
        i, j = asym[0]
        return {"axiom": "symmetry", "witness": (int(i), int(j)),
                "values": (float(d[i, j]), float(d[j, i]))}
    # d_ik - (d_ij + d_jk) > METRIC_TOL (1 + d_ik), with d_ik moved to one side
    top = d * (1.0 - METRIC_TOL) - METRIC_TOL
    for j in range(n):
        bad = top > d[:, j][:, None] + d[j, :][None, :]
        if bad.any():
            i, k = np.argwhere(bad)[0]
            return {"axiom": "triangle", "witness": (int(i), int(j), int(k)),
                    "values": (float(d[i, k]), float(d[i, j] + d[j, k]))}
    return None


@dataclass
class MetricSpace:
    """Validated finite metric space. `dist` is read-only after construction.

    `labels` is None, for "0" .. "n-1", or a list or tuple of exactly n
    strings; anything else raises ValueError."""

    dist: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        n = self.dist.shape[0]
        if self.labels is None:
            self.labels = tuple(str(i) for i in range(n))
        elif not (isinstance(self.labels, (list, tuple))
                  and all(isinstance(label, str) for label in self.labels)):
            raise ValueError(f"labels must be a list of strings, got {self.labels!r}")
        elif len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} points")
        self.labels = tuple(self.labels)
        self.dist.flags.writeable = False

    @property
    def n(self):
        return self.dist.shape[0]

    @functools.cached_property
    def distance_groups(self):
        """(order, starts): the stable sort order of every row of `dist`,
        and the flat indices into the row-sorted matrix where a run of
        equal distances begins.  A distance within 1e-12 (relative) of its
        run's first distance joins the run, so each run is one sphere of
        the distance profiles `calculus._profile_hull` builds.  `dist` is
        read-only, so the cache never goes stale."""
        n = self.n
        order = np.argsort(self.dist, axis=1, kind="stable")
        ds = np.take_along_axis(self.dist, order, axis=1)
        new = np.ones((n, n), dtype=bool)
        first = ds[:, 0]
        for k in range(1, n):
            u = ds[:, k]
            new[:, k] = u - first > 1e-12 * (1.0 + u)
            first = np.where(new[:, k], u, first)
        return order, np.flatnonzero(new)

    @functools.cached_property
    def slope_divisor(self):
        """`dist` with 1.0 on the diagonal (8 n^2 bytes), the divisor of the
        nonlinear gradient's slopes: the diagonal slope f(x) - f(x) keeps
        its bits over 1.0, so no 0/0 arises.  Read-only, like `dist`."""
        div = self.dist.copy()
        np.fill_diagonal(div, 1.0)
        div.flags.writeable = False
        return div

    @property
    def diameter(self):
        return float(self.dist.max()) if self.n > 1 else 0.0

    def to_json_dict(self):
        return jsonable({"dist": self.dist, "labels": self.labels})


def validate_metric(dist, labels=None):
    """Build a MetricSpace from a distance matrix, raising MetricViolation
    with a witness on the first failed axiom."""
    violation = check_metric(dist)
    if violation is not None:
        raise MetricViolation(f"not a metric: {violation}", violation)
    return MetricSpace(np.array(dist, dtype=float), labels)


def _check_points(what, count, exact=True):
    # CapacityError when `count` points, a lower bound unless `exact`,
    # exceed the cap
    if count > _MAX_POINTS:
        least = "" if exact else "at least "
        raise CapacityError(
            f"{what} capped at {_MAX_POINTS} points, got {least}{count}: its distance "
            f"matrix and row-order cache need {least}{16 * count * count} bytes")


def build_from_graph(n, edges, labels=None):
    """Shortest-path metric of an undirected weighted graph.

    edges: iterable of (i, j, weight) with finite weight > METRIC_TOL, or
    (i, j) for unit weight; n and the endpoints must be integers.  Raises
    on unreachable pairs, loops and bad weights, and CapacityError, before
    allocating, above the point cap of 2^HYPERCUBE_MAX_N.

    The graph is checked once, as its edges.  Its shortest-path closure
    is a metric by construction (zero on the diagonal, above METRIC_TOL
    off it, symmetric and subadditive up to the rounding of path sums),
    so it skips `check_metric`, whose O(n^3) loop takes seconds at a
    thousand points.

    The CSR arrays Dijkstra reads are built here, not by SciPy's
    COO-to-CSR conversion and undirected re-symmetrisation: every edge
    is stored both ways, rows sorted by tail and then by head, with int32
    indices and `indptr` counted from the tails.  The distances are bit
    for bit those of an undirected `shortest_path` call: Dijkstra's final
    d[v] is the least of fl(d[u] + w(u, v)) over the neighbours u settled
    before v, and neither the storage order of the edges nor the order
    in which ties are settled changes that set's minimum.  Dijkstra sums
    each path once from either end, and the two sums can differ in the
    last bits; the smaller one is kept for both entries, so `dist` is
    exactly symmetric.
    """
    n = as_count(n, "n")
    _check_points("graph", n)
    weight = {}
    for e in edges:
        if len(e) == 2:
            i, j, w = e[0], e[1], 1.0
        else:
            i, j, w = e
        i, j = as_count(i, "edge endpoint", least=0), as_count(j, "edge endpoint", least=0)
        w = float(w)
        if not (i < n and j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"loop edge at {i}")
        if not METRIC_TOL < w < math.inf:
            raise ValueError(f"edge ({i},{j}) has non-positive or non-finite weight {w}: "
                             f"a weight must be finite and exceed METRIC_TOL = {METRIC_TOL}")
        key = (min(i, j), max(i, j))
        weight[key] = min(w, weight.get(key, w))  # parallel edges keep the shortest
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    m = len(weight)
    ends = np.array(list(weight), dtype=np.int32).reshape(m, 2)
    w = np.fromiter(weight.values(), float, m)
    # every edge both ways, rows sorted by tail, then by head
    tails = np.concatenate((ends[:, 0], ends[:, 1]))
    heads = np.concatenate((ends[:, 1], ends[:, 0]))
    order = np.lexsort((heads, tails))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.concatenate((w, w))[order], heads[order], indptr), shape=(n, n))
    d = dijkstra(graph, directed=True)
    unreachable = np.argwhere(np.isinf(d))
    if unreachable.size:
        i, j = unreachable[0]
        raise ValueError(f"graph is disconnected: no path between {int(i)} and {int(j)}")
    return MetricSpace(np.minimum(d, d.T), labels)


def _line(n):
    # |i - j| on the points 0 .. n-1, the path's metric
    i = np.arange(n, dtype=float)
    return np.abs(i[:, None] - i[None, :])


def _cycle(n):
    k = _line(n)
    return np.minimum(k, n - k)


def _hypercube(n):
    # Hamming distance as a product of 0/1 bit matrices: exact integers
    b = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    return b @ (1.0 - b).T + (1.0 - b) @ b.T


def _symmetric_group(n):
    """S_n under the transposition metric: d(p, q) = n - (number of cycles
    of p^-1 q), the fewest swaps of two entries that turn p into q."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    inv = np.argsort(perms, axis=1)
    # comp[a, b] = p_a^-1 o p_b, as the list of its images
    comp = inv[np.arange(len(perms))[:, None, None], perms]
    # a point opens a cycle iff it is the least point of its orbit
    point = np.broadcast_to(np.arange(n), comp.shape)
    low = point
    for _ in range(n - 1):
        point = np.take_along_axis(comp, point, axis=2)
        low = np.minimum(low, point)
    cycles = (low == np.arange(n)).sum(axis=2)
    labels = tuple("".join(str(v) for v in p) for p in perms.tolist())
    return MetricSpace((n - cycles).astype(float), labels)


# The example families, kind -> (least size, point count at size n,
# builder).  two_point takes no size.  Every count is at least n, so a
# size above the point cap is refused without counting.
EXAMPLES = {
    "two_point": (None, None, lambda: MetricSpace(1.0 - np.eye(2))),
    "path": (2, lambda n: n, lambda n: MetricSpace(_line(n))),
    "cycle": (3, lambda n: n, lambda n: MetricSpace(_cycle(n))),
    "complete": (2, lambda n: n, lambda n: MetricSpace(1.0 - np.eye(n))),
    "hypercube": (1, lambda n: 2 ** n, lambda n: MetricSpace(_hypercube(n))),
    "symmetric_group": (2, math.factorial, _symmetric_group),
}


def build_example(kind, n=None):
    """The space `kind` of size n, a key of EXAMPLES: two_point (no size),
    path(n), cycle(n), complete(n), hypercube(n), symmetric_group(n).

    Raises ValueError on an unknown kind or a size that is not an integer
    of at least the kind's least size, and CapacityError, before anything
    is allocated, above the point cap."""
    if kind not in EXAMPLES:
        raise ValueError(f"unknown example kind {kind!r}")
    least, points, build = EXAMPLES[kind]
    if least is None:
        if n is not None:
            raise ValueError(f"{kind} takes no size, got {n!r}")
        return build()
    n = as_count(n, f"{kind} size", least)
    # counted up to the size cap; past it, or past _COUNT_LIMIT, n or
    # _COUNT_LIMIT bounds the count
    count = points(n) if n <= _MAX_POINTS else n
    bound = max(n, _COUNT_LIMIT)
    _check_points(f"{kind}:{n}", min(count, bound),
                  exact=n <= _MAX_POINTS and count <= bound)
    return build(n)


def load_space(obj):
    """Build a space from a decoded JSON dict, {"n", "edges"} or {"dist",
    "labels"?}; the CLI reads, digests and error-checks the file itself."""
    if "edges" in obj:
        return build_from_graph(obj["n"], obj["edges"], obj.get("labels"))
    if "dist" in obj:
        return validate_metric(obj["dist"], obj.get("labels"))
    raise ValueError("space JSON needs either 'edges' or 'dist'")


# ---------------------------------------------------------------------------
# measures and functions


def as_measure(w, n):
    """Validate a probability vector of length n."""
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"measure has shape {w.shape}, expected ({n},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("measure entries must be finite")
    if np.any(w < 0):
        raise ValueError(f"negative mass at index {int(np.argmin(w))}")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"total mass {w.sum()!r} != 1")
    return w


def as_function(f, n):
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError(f"function has shape {f.shape}, expected ({n},)")
    if not np.all(np.isfinite(f)):
        raise ValueError("function values must be finite")
    return f


def as_positive(x, name):
    """`x` as a float; ValueError unless it is finite and > 0."""
    x = float(x)
    if not 0 < x < math.inf:
        need = "positive" if x <= 0 else "finite and positive"
        raise ValueError(f"{name} must be {need}, got {x}")
    return x


def as_count(x, name, least=1):
    """`x` as an int; ValueError unless it is an integer >= `least`."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {x!r}")
    return int(x)


def uniform_measure(n):
    return np.full(n, 1.0 / n)
