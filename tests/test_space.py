"""Tests for finite metric spaces, measures, kernels and file I/O."""

import json
import math

import numpy as np
import pytest

from randspaces import example_spaces, random_connected_space
from weakhj.calculus import distance_profile
from weakhj.space import (
    CapacityError,
    KernelMatrix,
    MetricViolation,
    as_count,
    as_function,
    as_measure,
    as_positive,
    build_example,
    build_from_graph,
    check_detailed_balance,
    check_metric,
    jsonable,
    kernel_moment_L,
    load_space,
    nearest_neighbor_kernel,
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
    with pytest.raises(ValueError, match="out of range"):
        build_from_graph(2, [(0, 2)])


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


def test_capacity_limits():
    with pytest.raises(CapacityError):
        build_example("hypercube", 15)
    with pytest.raises(CapacityError):
        build_example("symmetric_group", 6)


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
    assert check_metric(np.array([[0.0, 0.0], [0.0, 0.0]]))["axiom"] == "positivity"
    assert check_metric(np.array([[0.0, -1.0], [-1.0, 0.0]]))["axiom"] == "positivity"


def test_shortest_path_always_metric():
    rng = np.random.default_rng(11)
    for _ in range(40):
        sp = random_connected_space(rng)
        assert check_metric(sp.dist) is None


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


def test_kernel_validation():
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]), row_stochastic=True)
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[-0.1, 1.1], [0.5, 0.5]]))
    k = KernelMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), row_stochastic=True)
    assert k.matrix[0, 1] == 1.0


def test_nearest_neighbor_kernel_path():
    sp = build_example("path", 3)
    k = nearest_neighbor_kernel(sp)
    np.testing.assert_allclose(k.matrix, [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]])
    assert k.row_stochastic


def test_nearest_neighbor_kernel_matches_row_reference():
    """The array form equals the row-by-row construction exactly."""
    rng = np.random.default_rng(11)
    spaces = example_spaces() + [build_example("symmetric_group", 3)]
    spaces += [random_connected_space(rng) for _ in range(30)]
    for sp in spaces:
        expected = np.zeros((sp.n, sp.n))
        for x in range(sp.n):
            r = sp.dist[x][sp.dist[x] > 0].min()
            nb = np.flatnonzero(np.abs(sp.dist[x] - r) <= 1e-12 * (1.0 + r))
            expected[x, nb] = 1.0 / len(nb)
        np.testing.assert_array_equal(nearest_neighbor_kernel(sp).matrix, expected)


def test_kernel_moment_values():
    sp = build_example("hypercube", 3)
    assert kernel_moment_L(sp, nearest_neighbor_kernel(sp)) == 1.0
    two = build_example("two_point")
    swap = KernelMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), row_stochastic=True)
    assert kernel_moment_L(two, swap) == 1.0
    zero = KernelMatrix(np.zeros((2, 2)))
    assert kernel_moment_L(two, zero) == 0.0


def test_detailed_balance():
    two = build_example("two_point")
    k = KernelMatrix(np.array([[0.75, 0.25], [0.5, 0.5]]), row_stochastic=True)
    v = check_detailed_balance(np.array([2 / 3, 1 / 3]), k)
    assert v["holds"]
    assert v["max_asymmetry"] <= 1e-15

    sym = KernelMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    v = check_detailed_balance(uniform_measure(2), sym)
    assert v["holds"] and v["max_asymmetry"] == 0.0

    bad = KernelMatrix(np.array([[0.0, 1.0], [0.0, 1.0]]))
    v = check_detailed_balance(uniform_measure(2), bad)
    assert not v["holds"]
    assert tuple(v["witness"]) == (0, 1)


def test_example_spaces_all_valid():
    for sp in example_spaces():
        assert check_metric(sp.dist) is None
