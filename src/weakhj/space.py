"""Finite metric spaces, probability measures and Markov kernels.

A space is a finite point set together with a validated distance matrix.
Canonical families (two-point, path, cycle, complete, hypercube, symmetric
group under transpositions) are built exactly; arbitrary spaces come from
weighted graphs via all-pairs shortest paths or from an explicit matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

# 2^n points need 16 * 4^n bytes: the float distance matrix plus the int64
# row sort order `MetricSpace.distance_groups` caches.  n = 12 takes 268 MB;
# n = 13 would take 1.07 GB.
HYPERCUBE_MAX_N = 12
SYMMETRIC_GROUP_MAX_N = 5
METRIC_TOL = 1e-9
BALANCE_TOL = 1e-10


def jsonable(obj):
    """`obj` as plain JSON data: dicts stay dicts, lists, tuples and arrays
    become lists, NumPy scalars become Python scalars, and a non-finite
    float becomes None (NaN and infinity are not JSON)."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
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
    violated axiom with a witness index pair/triple; entries within
    METRIC_TOL of an axiom count as meeting it."""
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        return {"axiom": "shape", "detail": f"expected square matrix, got {d.shape}"}
    n = d.shape[0]
    if not np.all(np.isfinite(d)):
        i, j = np.argwhere(~np.isfinite(d))[0]
        return {"axiom": "finiteness", "witness": (int(i), int(j))}
    for i in range(n):
        if abs(d[i, i]) > METRIC_TOL:
            return {"axiom": "identity", "witness": (i, i), "value": float(d[i, i])}
    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere((d <= METRIC_TOL) & off)
    if bad.size:
        i, j = bad[0]
        return {"axiom": "positivity", "witness": (int(i), int(j)), "value": float(d[i, j])}
    asym = np.argwhere(np.abs(d - d.T) > METRIC_TOL)
    if asym.size:
        i, j = asym[0]
        return {"axiom": "symmetry", "witness": (int(i), int(j)),
                "values": (float(d[i, j]), float(d[j, i]))}
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j, :][None, :])
        bad = np.argwhere(slack > METRIC_TOL)
        if bad.size:
            i, k = bad[0]
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
        run's first distance joins the run, the rule `distance_profile`
        applies.  `dist` is read-only, so the cache never goes stale."""
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


def build_from_graph(n, edges, labels=None):
    """Shortest-path metric of an undirected weighted graph.

    edges: iterable of (i, j, weight) with weight > 0, or (i, j) for unit
    weight. Raises on unreachable pairs, loops and non-positive weights.
    """
    weight = {}
    for e in edges:
        if len(e) == 2:
            i, j, w = e[0], e[1], 1.0
        else:
            i, j, w = e
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"loop edge at {i}")
        if w <= 0:
            raise ValueError(f"edge ({i},{j}) has non-positive weight {w}")
        key = (min(i, j), max(i, j))
        weight[key] = min(w, weight.get(key, w))  # parallel edges keep the shortest
    rows = [i for i, _ in weight] + [j for _, j in weight]
    cols = [j for _, j in weight] + [i for i, _ in weight]
    vals = list(weight.values()) * 2
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    d = shortest_path(graph, method="D", directed=False)
    unreachable = np.argwhere(np.isinf(d))
    if unreachable.size:
        i, j = unreachable[0]
        raise ValueError(f"graph is disconnected: no path between {int(i)} and {int(j)}")
    return validate_metric(d, labels=labels)


def _hypercube_dist(n):
    # Hamming distance as a product of 0/1 bit matrices: exact integers
    b = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    return b @ (1.0 - b).T + (1.0 - b) @ b.T


def _symmetric_group(n):
    """S_n under the transposition metric: the shortest-path metric of its
    Cayley graph, whose edges swap two entries of a permutation."""
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    edges = []
    for a, p in enumerate(perms):
        for i, j in itertools.combinations(range(n), 2):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            edges.append((a, index[tuple(q)]))
    labels = tuple("".join(str(v) for v in p) for p in perms)
    return build_from_graph(len(perms), edges, labels)


def build_example(kind, n=None):
    """Canonical spaces: two_point, path(n), cycle(n), complete(n),
    hypercube(n), symmetric_group(n)."""
    if kind == "two_point":
        return MetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
    if kind == "path":
        if n is None or n < 2:
            raise ValueError("path requires n >= 2")
        i = np.arange(n)
        return MetricSpace(np.abs(i[:, None] - i[None, :]).astype(float))
    if kind == "cycle":
        if n is None or n < 3:
            raise ValueError("cycle requires n >= 3")
        i = np.arange(n)
        k = np.abs(i[:, None] - i[None, :])
        return MetricSpace(np.minimum(k, n - k).astype(float))
    if kind == "complete":
        if n is None or n < 2:
            raise ValueError("complete requires n >= 2")
        return MetricSpace(1.0 - np.eye(n))
    if kind == "hypercube":
        if n is None or n < 1:
            raise ValueError("hypercube requires n >= 1")
        if n > HYPERCUBE_MAX_N:
            raise CapacityError(
                f"hypercube capped at n={HYPERCUBE_MAX_N}, got {n}: its distance "
                f"matrix and row-order cache need {16 * 4 ** n} bytes")
        return MetricSpace(_hypercube_dist(n))
    if kind == "symmetric_group":
        if n is None or n < 2:
            raise ValueError("symmetric_group requires n >= 2")
        if n > SYMMETRIC_GROUP_MAX_N:
            raise CapacityError(
                f"symmetric_group capped at n={SYMMETRIC_GROUP_MAX_N}, got {n}")
        return _symmetric_group(n)
    raise ValueError(f"unknown example kind {kind!r}")


def load_space(obj):
    """Build a space from a decoded JSON dict, {"n", "edges"} or {"dist",
    "labels"?}; the CLI reads, digests and error-checks the file itself."""
    if "edges" in obj:
        return build_from_graph(int(obj["n"]), obj["edges"], obj.get("labels"))
    if "dist" in obj:
        return validate_metric(obj["dist"], obj.get("labels"))
    raise ValueError("space JSON needs either 'edges' or 'dist'")


# ---------------------------------------------------------------------------
# measures, functions, kernels


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


@dataclass
class KernelMatrix:
    """Non-negative kernel K(x, y); `row_stochastic` asserts unit row sums."""

    matrix: np.ndarray
    row_stochastic: bool = False

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel must be a square matrix")
        if np.any(m < 0):
            i, j = np.argwhere(m < 0)[0]
            raise ValueError(f"negative kernel entry at ({int(i)},{int(j)})")
        if self.row_stochastic and np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-10:
            bad = int(np.argmax(np.abs(m.sum(axis=1) - 1.0)))
            raise ValueError(f"row {bad} sums to {m.sum(axis=1)[bad]!r}, expected 1")
        self.matrix.flags.writeable = False


def nearest_neighbor_kernel(space):
    """Uniform jump kernel onto each point's nearest neighbors (the points
    attaining its minimal positive distance); a lone point keeps its mass."""
    d = space.dist
    r = np.where(d > 0, d, np.inf).min(axis=1, keepdims=True)
    nb = np.abs(d - r) <= 1e-12 * (1.0 + r)
    return KernelMatrix(nb / nb.sum(axis=1, keepdims=True), row_stochastic=True)


def kernel_moment_L(space, kernel):
    """L = max_x sum_y d(x,y)^2 K(x,y), the second distance moment of K."""
    return float(np.max(np.sum(space.dist ** 2 * kernel.matrix, axis=1)))


def check_detailed_balance(mu, kernel):
    """Check mu(x) K(x,y) == mu(y) K(y,x) to BALANCE_TOL; returns verdict
    with a witness."""
    m = kernel.matrix
    mu = as_measure(mu, m.shape[0])
    flow = mu[:, None] * m
    gap = np.abs(flow - flow.T)
    worst = float(gap.max())
    report = {"holds": worst <= BALANCE_TOL, "max_asymmetry": worst}
    if not report["holds"]:
        i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
        report["witness"] = (int(i), int(j))
    return report
