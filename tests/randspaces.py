"""Random connected weighted graphs and the stock example spaces, shared
across test modules."""

import numpy as np

from weakhj.space import build_example, build_from_graph

EXAMPLE_KINDS = [
    ("two_point", None),
    ("path", 5),
    ("cycle", 6),
    ("complete", 4),
    ("hypercube", 3),
]


def example_spaces():
    return [build_example(kind, n) for kind, n in EXAMPLE_KINDS]


def random_connected_space(rng, n_max=8, scale=1.0):
    """Random spanning tree plus a few extra edges, weights in
    [0.3, 2] * scale."""
    n = int(rng.integers(2, n_max + 1))
    edges = []
    for j in range(1, n):
        i = int(rng.integers(0, j))
        edges.append((i, j, float(rng.uniform(0.3, 2.0)) * scale))
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges.append((i, j, float(rng.uniform(0.3, 2.0)) * scale))
    return build_from_graph(n, edges)


def heavy_graph():
    """(n, edges): the first graph drawn from default_rng(5), 56 points on
    a random spanning tree plus n random extra edges, weights in
    [0.3, 2] * 1e6.  Its shortest paths meet the triangle inequality only
    up to rounding: d(36, 44) = 6471489.990668814 exceeds d(36, 30) +
    d(30, 44) = 6471489.990668813."""
    rng = np.random.default_rng(5)
    n = int(rng.integers(10, 80))
    edges = [(int(rng.integers(0, j)), j, float(rng.uniform(0.3, 2.0) * 1e6))
             for j in range(1, n)]
    for _ in range(n):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            edges.append((i, j, float(rng.uniform(0.3, 2.0) * 1e6)))
    return n, edges
