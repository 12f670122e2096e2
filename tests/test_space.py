"""Tests for finite metric spaces, measures and file I/O."""

import itertools
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from envref import distance_profile
from randspaces import example_spaces, heavy_graph, random_connected_space
from weakhj.cost import quadratic
from weakhj.funcineq import InequalityReport
from weakhj.hj import ResidualReport, hj_boundary, obstruction_search
from weakhj.space import (
    EXAMPLES,
    CapacityError,
    MetricSpace,
    MetricViolation,
    as_count,
    as_function,
    as_measure,
    as_positive,
    build_example,
    build_from_graph,
    check_metric,
    jsonable,
    load_space,
    uniform_measure,
    validate_metric,
)


def test_two_point_fixture():
    sp = build_example("two_point")
    np.testing.assert_array_equal(sp.dist, [[0.0, 1.0], [1.0, 0.0]])
    assert sp.n == 2
    assert sp.diameter == 1.0


def test_build_from_graph_single_edge():
    sp = build_from_graph(2, [(0, 1, 1.0)])
    np.testing.assert_array_equal(sp.dist, [[0.0, 1.0], [1.0, 0.0]])


def test_build_from_graph_path_composition():
    sp = build_from_graph(3, [(0, 1), (1, 2)])
    assert sp.dist[0, 2] == 2.0


def test_build_from_graph_weighted_shortcut():
    # direct edge 0-2 of weight 5 loses to the 0-1-2 route of length 1.5
    sp = build_from_graph(3, [(0, 1, 1.0), (1, 2, 0.5), (0, 2, 5.0)])
    assert sp.dist[0, 2] == 1.5


def test_build_from_graph_parallel_edges_keep_min():
    sp = build_from_graph(2, [(0, 1, 3.0), (1, 0, 1.0)])
    assert sp.dist[0, 1] == 1.0


def test_build_from_graph_errors():
    with pytest.raises(ValueError, match="disconnected"):
        build_from_graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="loop"):
        build_from_graph(2, [(0, 0)])
    with pytest.raises(ValueError, match="non-positive"):
        build_from_graph(2, [(0, 1, 0.0)])
    # a weight at or below METRIC_TOL would give a distance check_metric
    # calls non-positive, so the edge check refuses it and names the bound
    for w in (1e-10, 1e-9):
        with pytest.raises(ValueError, match="non-positive.*exceed METRIC_TOL = 1e-09"):
            build_from_graph(2, [(0, 1, w)])
    assert build_from_graph(2, [(0, 1, 2e-9)]).dist[0, 1] == 2e-9
    with pytest.raises(ValueError, match="out of range"):
        build_from_graph(2, [(0, 2)])
    for n in (3.7, True, float("inf")):
        with pytest.raises(ValueError, match="n must be an integer"):
            build_from_graph(n, [])
    # the point cap is checked before anything is allocated
    with pytest.raises(CapacityError, match="4096 points"):
        build_from_graph(4097, [(0, 1)])
    with pytest.raises(ValueError, match="endpoint must be an integer"):
        build_from_graph(3, [(0, 1.5), (1, 2)])
    for w in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-positive"):
            build_from_graph(2, [(0, 1, w)])



def _undirected_shortest_paths(n, edges):
    # the reference: SciPy's COO-to-CSR matrix of the edges, kept once
    # each at their least weight, and an undirected Dijkstra over it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    weight = {}
    for e in edges:
        i, j, w = e if len(e) == 3 else (*e, 1.0)
        key = (min(i, j), max(i, j))
        weight[key] = min(w, weight.get(key, w))
    rows, cols = [i for i, _ in weight], [j for _, j in weight]
    graph = csr_matrix((list(weight.values()), (rows, cols)), shape=(n, n))
    d = shortest_path(graph, method="D", directed=False)
    return np.minimum(d, d.T)


def _random_multigraph(rng, n):
    # a spanning tree plus up to 2n extra edges, some of them parallel to
    # earlier ones, a third of all edges given as unit-weight 2-tuples
    edges = [(int(rng.integers(0, j)), j) for j in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        edges.append(tuple(int(v) for v in rng.integers(0, n, size=2)))
    edges += [edges[int(k)] for k in rng.integers(0, len(edges), size=n // 3)] if edges else []
    out = []
    for i, j in edges:
        if i == j:
            continue
        if rng.random() < 1 / 3:
            out.append((i, j) if rng.random() < 0.5 else (j, i))
        else:
            out.append((i, j, float(rng.uniform(0.3, 2.0))))
    return out


def test_graph_metric_equals_undirected_shortest_path():
    # the CSR arrays built by hand give bit for bit the distances of
    # SciPy's undirected shortest_path on its own COO-to-CSR conversion
    rng = np.random.default_rng(2026)
    sizes = [1, 2] + list(range(3, 41)) + [200, 517, 1100]
    for n in sizes:
        for _ in range(3 if n <= 40 else 1):
            edges = _random_multigraph(rng, n)
            got = build_from_graph(n, edges).dist
            assert np.array_equal(got, _undirected_shortest_paths(n, edges)), n


def test_disconnected_graph_message():
    for n, edges, pair in ((3, [(0, 1)], (0, 2)), (2, [], (0, 1)),
                           (5, [(0, 1), (1, 2, 0.5), (3, 4)], (0, 3))):
        with pytest.raises(ValueError) as exc:
            build_from_graph(n, edges)
        assert str(exc.value) == f"graph is disconnected: no path between {pair[0]} and {pair[1]}"

def test_path_cycle_complete_distances():
    path = build_example("path", 5)
    i, j = np.indices((5, 5))
    np.testing.assert_array_equal(path.dist, np.abs(i - j))
    cyc = build_example("cycle", 6)
    i, j = np.indices((6, 6))
    np.testing.assert_array_equal(cyc.dist, np.minimum(np.abs(i - j), 6 - np.abs(i - j)))
    comp = build_example("complete", 4)
    np.testing.assert_array_equal(comp.dist, 1.0 - np.eye(4))


def test_hypercube_hamming_exhaustive():
    """Hypercube distances equal Hamming distance, exhaustively for n <= 6."""
    for n in range(1, 7):
        sp = build_example("hypercube", n)
        i, j = np.indices((2 ** n, 2 ** n))
        expected = np.vectorize(lambda a, b: bin(a ^ b).count("1"))(i, j)
        np.testing.assert_array_equal(sp.dist, expected)
    sp = build_example("hypercube", 3)
    assert sp.dist[0, 7] == 3.0
    assert sp.diameter == 3.0


def test_hypercube_large_spot_checks():
    sp = build_example("hypercube", 10)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = rng.integers(0, 1024, size=2)
        assert sp.dist[a, b] == bin(int(a) ^ int(b)).count("1")


def test_symmetric_group_structure():
    sp = build_example("symmetric_group", 3)
    assert sp.n == 6
    # every permutation has exactly n(n-1)/2 = 3 neighbors at distance 1
    at_one = (sp.dist == 1.0).sum(axis=1)
    np.testing.assert_array_equal(at_one, np.full(6, 3))
    assert sp.diameter == 2.0  # n - 1 transpositions suffice


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_group_is_n_minus_cycles(n):
    # d(p, q) = n - (number of cycles of p^-1 q), counted directly
    sp = build_example("symmetric_group", n)
    perms = [tuple(int(c) for c in label) for label in sp.labels]
    assert sorted(perms) == perms and len(perms) == math.factorial(n)
    for a, p in enumerate(perms):
        inv = np.argsort(p)
        for b, q in enumerate(perms):
            comp, seen, cycles = inv[list(q)], set(), 0
            for s in range(n):
                if s not in seen:
                    cycles += 1
                    while s not in seen:
                        seen.add(s)
                        s = int(comp[s])
            assert sp.dist[a, b] == n - cycles


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symmetric_group_matches_its_cayley_graph(n):
    # the closed form is the shortest-path metric of the graph whose edges
    # swap two entries of a permutation, bit for bit
    sp = build_example("symmetric_group", n)
    perms = list(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    edges = []
    for a, p in enumerate(perms):
        for i, j in itertools.combinations(range(n), 2):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            edges.append((a, index[tuple(q)]))
    graph = build_from_graph(len(perms), edges, sp.labels)
    assert np.array_equal(sp.dist, graph.dist)
    assert sp.labels == graph.labels == tuple("".join(map(str, p)) for p in perms)


def test_jsonable_maps_to_plain_json():
    obj = {"a": np.float64(-np.inf), "b": (np.int64(3), np.bool_(True)),
           "c": np.array([[1.5, np.nan]]), "d": [math.inf, 2, None, "s"],
           "e": {"f": np.float32(0.5)}}
    out = jsonable(obj)
    assert out == {"a": None, "b": [3, True], "c": [[1.5, None]],
                   "d": [None, 2, None, "s"], "e": {"f": 0.5}}
    assert type(out["b"][0]) is int and type(out["b"][1]) is bool
    assert type(out["c"][0][0]) is float
    json.dumps(out, allow_nan=False)



def _both_ways(report):
    # the dataclass read in place, and its deep-copied dict; json.dumps
    # also pins the key order
    out = jsonable(report)
    assert out == jsonable(asdict(report))
    assert json.dumps(out, indent=2) == json.dumps(jsonable(asdict(report)), indent=2)
    json.dumps(out, allow_nan=False)
    return out


def test_jsonable_reads_reports_as_their_dicts():
    rep = ResidualReport(cost="shrunk", holds=False, t=0.5,
                         residuals=np.array([math.inf, -0.25, math.inf]),
                         max_residual=math.inf, conjugate_infinite=(0, 2))
    out = _both_ways(rep)
    assert list(out) == ["kind", "cost", "holds", "t", "residuals",
                         "max_residual", "conjugate_infinite"]
    assert out["residuals"] == [None, -0.25, None] and out["max_residual"] is None

    cycle = build_example("cycle", 6)
    f = np.array([0.0, 1.0, 3.0, 2.0, 1.0, 0.5])
    out = _both_ways(hj_boundary(f, quadratic(), cycle))
    assert out["kind"] == "boundary" and len(out["limits"]) == 6

    res = obstruction_search(build_example("path", 3))
    assert res.status == "witness"
    out = _both_ways(res)
    assert list(out["witness"]) == ["f", "x", "s", "t", "lhs", "rhs", "gap"]
    assert out["witness"]["f"] == res.witness.f.tolist()
    assert out["detail"] == {"t_grid": [0.25, 0.5, 1.0]}

    rep = InequalityReport(
        inequality="poincare", constant=np.float64(1.5), best_ratio=np.float64(np.nan),
        witness=np.array([0.5, -np.inf, 2.0]), verdict="inconclusive", restarts=1,
        iterations=0, seed=3,
        details={"gap": np.float64(np.inf), "count": np.int64(4), "ok": np.bool_(False),
                 "rows": [np.float32(0.25), (np.int32(1), np.float64(-np.inf))],
                 "nested": {"best": np.array([[1, 2], [3, 4]])}})
    out = _both_ways(rep)
    assert out["constant"] == 1.5 and out["best_ratio"] is None
    assert out["witness"] == [0.5, None, 2.0]
    assert out["details"] == {"gap": None, "count": 4, "ok": False,
                              "rows": [0.25, [1, None]], "nested": {"best": [[1, 2], [3, 4]]}}
    assert type(out["details"]["count"]) is int and type(out["details"]["ok"]) is bool


def test_jsonable_arrays_as_before():
    # bool, integer and finite float arrays go out by one tolist(); a
    # float array holding NaN or an infinity element by element
    cases = [
        (np.array([True, False]), [True, False], bool),
        (np.array([[1, -2], [3, 4]], dtype=np.int8), [[1, -2], [3, 4]], int),
        (np.array([2 ** 63], dtype=np.uint64), [2 ** 63], int),
        (np.array([0.5, -1e300, 0.0]), [0.5, -1e300, 0.0], float),
        (np.array([[np.nan, 1.0], [np.inf, -np.inf]]), [[None, 1.0], [None, None]], float),
        (np.array([0.25, np.nan], dtype=np.float32), [0.25, None], float),
        (np.array(np.inf), None, None),
        (np.array(3.5), 3.5, float),
        (np.array(7), 7, int),
        (np.zeros((0, 3)), [], None),
    ]
    for arr, expected, leaf in cases:
        out = jsonable(arr)
        assert out == expected, arr
        flat = np.ravel(out).tolist() if isinstance(out, list) else [out]
        assert all(type(v) is leaf for v in flat if v is not None), arr
    # a NumPy float scalar is a float subclass: its NaN must not pass as a leaf
    assert jsonable(np.float64(np.nan)) is None
    assert jsonable([np.float64(np.inf), np.float64(2.0)]) == [None, 2.0]
    assert type(jsonable(np.float64(2.0))) is float

def test_capacity_limits():
    with pytest.raises(CapacityError):
        build_example("hypercube", 15)
    with pytest.raises(CapacityError):
        build_example("symmetric_group", 7)


def test_every_example_kind_builds_its_least_size():
    for kind, (least, points, _) in EXAMPLES.items():
        if least is None:
            assert build_example(kind).n == 2
            continue
        assert build_example(kind, least).n == points(least)
        with pytest.raises(ValueError, match=f"{kind} size must be an integer >= "):
            build_example(kind, least - 1)


def test_example_size_must_be_an_integer():
    for bad in (3.5, True, None, "3"):
        with pytest.raises(ValueError, match="path size must be an integer"):
            build_example("path", bad)
    assert build_example("path", np.int64(3)).n == 3
    with pytest.raises(ValueError, match="takes no size"):
        build_example("two_point", 7)
    with pytest.raises(ValueError, match="unknown example kind"):
        build_example("torus", 3)


@pytest.mark.parametrize("kind, n", [
    ("path", 10 ** 8), ("cycle", 5000), ("complete", 4097), ("hypercube", 10 ** 8),
    ("symmetric_group", 2000)])
def test_point_cap_applies_before_allocating(kind, n):
    # every kind is capped at 4096 points, and the refusal allocates nothing
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="capped at 4096 points"):
            build_example(kind, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_hypercube_cap_states_memory_needed():
    # 2^13 points: an 8192^2 float matrix plus its int64 row order
    with pytest.raises(CapacityError, match=f"{16 * 4 ** 13} bytes"):
        build_example("hypercube", 13)


def test_distance_groups_match_profiles():
    rng = np.random.default_rng(71)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(20)]
    spaces.append(build_from_graph(3, [(0, 1, 1.0), (0, 2, 1.0 + 1e-14)]))
    for sp in spaces:
        order, starts = sp.distance_groups
        assert sp.distance_groups is sp.distance_groups
        ds = np.take_along_axis(sp.dist, order, axis=1).ravel()
        for x in range(sp.n):
            firsts = starts[(starts >= x * sp.n) & (starts < (x + 1) * sp.n)]
            us, _, _ = distance_profile(np.zeros(sp.n), x, sp)
            np.testing.assert_array_equal(ds[firsts], us)


def test_slope_divisor_is_dist_with_a_unit_diagonal():
    # read-only, cached, 1.0 on the diagonal and dist's bits elsewhere
    rng = np.random.default_rng(73)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(10)]
    spaces.append(MetricSpace(np.zeros((1, 1))))
    for sp in spaces:
        div = sp.slope_divisor
        assert div is sp.slope_divisor
        assert not div.flags.writeable
        assert div.dtype == sp.dist.dtype and div.shape == sp.dist.shape
        assert np.diagonal(div).tolist() == [1.0] * sp.n
        off = ~np.eye(sp.n, dtype=bool)
        assert div[off].tobytes() == sp.dist[off].tobytes()
    assert not hasattr(sp, "off_diagonal")


def test_validate_metric_accepts_and_reports():
    sp = validate_metric([[0, 1], [1, 0]])
    assert sp.n == 2
    with pytest.raises(MetricViolation) as exc:
        validate_metric([[0, 1], [2, 0]])
    assert exc.value.witness["axiom"] == "symmetry"
    with pytest.raises(MetricViolation) as exc:
        validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    w = exc.value.witness
    assert w["axiom"] == "triangle"
    assert {w["witness"][0], w["witness"][2]} == {0, 2}


def test_check_metric_axioms():
    assert check_metric(np.array([[0.0, 1.0], [1.0, 0.0]])) is None
    assert check_metric(np.array([[0.5]]))["axiom"] == "identity"
    d = 1.0 - np.eye(3)
    d[1, 1], d[2, 2] = 0.5, -0.7
    assert check_metric(d) == {"axiom": "identity", "witness": (1, 1), "value": 0.5}
    assert check_metric(np.array([[0.0, 0.0], [0.0, 0.0]]))["axiom"] == "positivity"
    assert check_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]))["axiom"] == "positivity"



def test_triangle_witness_is_the_first_failing_j():
    # a path metric with two distances stretched: the triangle fails
    # through j = 4 and j = 5, at several (i, k) each; the witness is the
    # first failing j and, under it, the first (i, k) in row-major order
    d = np.abs(np.arange(7.0)[:, None] - np.arange(7.0))
    for a, b, v in ((3, 6, 5.0), (4, 6, 3.5)):
        d[a, b] = d[b, a] = v
    tol = 1e-9
    failing = [(i, j, k) for j in range(7) for i in range(7) for k in range(7)
               if d[i, k] > d[i, j] + d[j, k] + tol * (1 + d[i, k])]
    assert len(failing) > 2 and {j for _, j, _ in failing} == {4, 5}
    assert failing[0] == (3, 4, 6)
    assert check_metric(d) == {"axiom": "triangle", "witness": (3, 4, 6),
                               "values": (5.0, 4.5)}

def test_shortest_path_always_metric():
    # build_from_graph trusts this invariant and runs no check of its own
    for scale in (1.0, 1e6):
        rng = np.random.default_rng(11)
        for _ in range(40):
            sp = random_connected_space(rng, scale=scale)
            assert check_metric(sp.dist) is None
    n, edges = heavy_graph()
    assert check_metric(build_from_graph(n, edges).dist) is None


def test_graph_metric_is_exactly_symmetric():
    # Dijkstra sums a path from each end; the two sums can differ in the
    # last bits, and build_from_graph keeps the smaller for both entries
    spaces = [build_from_graph(*heavy_graph())]
    for scale in (1.0, 1e6):
        rng = np.random.default_rng(13)
        spaces += [random_connected_space(rng, n_max=40, scale=scale) for _ in range(40)]
    for sp in spaces:
        assert np.array_equal(sp.dist, sp.dist.T)


def test_build_from_graph_runs_no_metric_check(monkeypatch):
    def refuse(dist):
        raise AssertionError("check_metric called")

    monkeypatch.setattr("weakhj.space.check_metric", refuse)
    rng = np.random.default_rng(12)
    for _ in range(10):
        random_connected_space(rng)
    assert build_from_graph(*heavy_graph()).n == 56
    assert build_example("symmetric_group", 3).n == 6
    with pytest.raises(AssertionError, match="check_metric called"):
        validate_metric([[0, 1], [1, 0]])  # the patch is live


def test_check_metric_tolerance_scales_with_the_entries():
    # symmetry and the triangle inequality allow METRIC_TOL (1 + d) of
    # the entries compared; identity and positivity stay absolute
    big = np.array([[0.0, 1e6], [1e6 + 1e-4, 0.0]])
    assert check_metric(big) is None
    big[1, 0] = 1e6 + 1e-2
    assert check_metric(big)["axiom"] == "symmetry"
    tri = np.array([[0.0, 1e6, 2e6 + 1e-4], [1e6, 0.0, 1e6], [2e6 + 1e-4, 1e6, 0.0]])
    assert check_metric(tri) is None
    tri[0, 2] = tri[2, 0] = 2e6 + 1e-2
    assert check_metric(tri)["witness"] == (0, 1, 2)
    assert check_metric(np.array([[0.0, 1e-9], [1e-9, 0.0]]))["axiom"] == "positivity"
    assert check_metric(np.array([[1e-8, 1e6], [1e6, 0.0]]))["axiom"] == "identity"


def test_dist_matrix_is_immutable():
    sp = build_example("path", 3)
    with pytest.raises(ValueError):
        sp.dist[0, 1] = 9.0


def test_load_space_roundtrip(tmp_path):
    sp = build_example("cycle", 5)
    f = tmp_path / "space.json"
    f.write_text(json.dumps(sp.to_json_dict()))
    sp2 = load_space(json.loads(f.read_text()))
    np.testing.assert_allclose(sp2.dist, sp.dist)
    sp3 = load_space({"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]})
    assert sp3.dist[0, 2] == 3.0
    sp4 = load_space({"dist": [[0, 1], [1, 0]], "labels": ["a", "b"]})
    assert sp4.labels == ("a", "b")


def test_labels_are_exactly_n_strings():
    assert build_example("two_point").labels == ("0", "1")
    assert build_from_graph(2, [(0, 1)], labels=("u", "v")).labels == ("u", "v")
    for bad, message in ((["a"], "1 labels for 2 points"), (["a", "b", "c"], "3 labels"),
                         ("ab", "list of strings"), ([1, 2], "list of strings"),
                         (["a", None], "list of strings"), ((), "0 labels")):
        with pytest.raises(ValueError, match=message):
            validate_metric([[0, 1], [1, 0]], labels=bad)


def test_measures_and_functions():
    m = as_measure([0.25, 0.75], 2)
    np.testing.assert_allclose(m, [0.25, 0.75])
    np.testing.assert_allclose(uniform_measure(4), np.full(4, 0.25))
    with pytest.raises(ValueError):
        as_measure([0.5, 0.6], 2)
    with pytest.raises(ValueError):
        as_measure([-0.1, 1.1], 2)
    with pytest.raises(ValueError):
        as_measure([1.0], 2)
    with pytest.raises(ValueError):
        as_function([np.nan, 0.0], 2)
    with pytest.raises(ValueError):
        as_function([np.inf, 0.0], 2)


def test_as_positive_takes_finite_positive_numbers_only():
    assert as_positive(np.float64(0.5), "t") == 0.5
    assert type(as_positive(2, "t")) is float
    with pytest.raises(ValueError, match="t must be positive, got 0.0"):
        as_positive(0, "t")
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="C must be"):
            as_positive(bad, "C")
    with pytest.raises(ValueError, match="finite"):
        as_measure([math.nan, 1.0], 2)


def test_as_count_takes_positive_integers_only():
    assert as_count(np.int64(3), "restarts") == 3
    assert type(as_count(np.int64(3), "restarts")) is int
    for bad in (0, -1, 2.0, True, None):
        with pytest.raises(ValueError, match="restarts must be an integer >= 1"):
            as_count(bad, "restarts")






def test_example_spaces_all_valid():
    for sp in example_spaces():
        assert check_metric(sp.dist) is None
