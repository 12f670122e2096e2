"""Residual, boundary-limit and semigroup-obstruction tests."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from randspaces import example_spaces, random_connected_space
from weakhj.calculus import (
    _HULL_BLOCK,
    _infconv_times,
    tilde_gradient,
    time_derivative,
    weak_infconv,
    weak_infconv_bruteforce,
)
from weakhj.cost import power, quadratic, quadratic_linear
from weakhj.hj import (
    ObstructionWitness,
    hj_boundary,
    hj_residual,
    hj_residuals,
    obstruction_search,
)
from weakhj.reports import two_point_report
from weakhj.space import MetricSpace, build_example, build_from_graph, validate_metric

TWO_POINT = build_example("two_point")

SWEEP_SPACES = [
    build_example("two_point"),
    build_example("path", 5),
    build_example("cycle", 6),
    build_example("complete", 4),
    build_example("hypercube", 3),
]

SWEEP_COSTS = [quadratic(), power(3), power(1.5), quadratic_linear(1.0, 1.0)]


class ShrunkDomain:
    """Quadratic evolution paired with a conjugate that blows up at 0.1;
    only purpose is to drive the finite-domain violation path, which no
    consistent cost can reach after smoothing."""

    kind = "quadratic"
    p = 2.0

    def __init__(self):
        self._q = quadratic()

    def eval(self, x):
        return self._q.eval(x)

    def deriv(self, x):
        return self._q.deriv(x)

    def beta(self, x):
        return self._q.beta(x)

    def conjugate(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where(y <= 0.1, 0.5 * y * y, math.inf)
        return out if out.ndim else float(out)

    def conjugate_deriv(self, y):
        return self._q.conjugate_deriv(y)

    def conjugate_domain_bound(self):
        return 0.1

    def label(self):
        return "shrunk"


# ---------------------------------------------------------------------------
# residual


def test_residual_two_point_fixture():
    rep = hj_residual([1.0, 0.0], 0.5, quadratic(), TWO_POINT)
    assert rep.holds
    np.testing.assert_allclose(rep.residuals[0], -7.0 / 32.0, rtol=0, atol=1e-15)
    assert rep.residuals[1] == 0.0
    assert rep.max_residual == 0.0
    assert rep.conjugate_infinite == ()
    assert rep.residuals[0] < -1e-3  # strictly negative, not a near-zero artifact


def test_residual_two_point_closed_form():
    # argmin u* = min(t, 1) gives -1/2 + (1 - t/2)^2/2 for t <= 1 and
    # -3/(8 t^2) afterwards
    for t in (0.05, 0.2, 0.5, 0.8, 1.0, 1.3, 2.0, 4.0):
        rep = hj_residual([1.0, 0.0], t, quadratic(), TWO_POINT)
        exact = -0.5 + (1 - t / 2) ** 2 / 2 if t <= 1 else -3.0 / (8 * t * t)
        np.testing.assert_allclose(rep.residuals[0], exact, rtol=1e-12)
        assert rep.residuals[1] == 0.0


def test_residual_constant_function():
    for cost in SWEEP_COSTS:
        rep = hj_residual([2.0, 2.0], 0.7, cost, TWO_POINT)
        np.testing.assert_array_equal(rep.residuals, [0.0, 0.0])
        assert rep.holds and rep.max_residual == 0.0


def test_residual_nonpositive_sweep():
    rng = np.random.default_rng(11)
    for space in SWEEP_SPACES:
        for cost in SWEEP_COSTS:
            for _ in range(10):
                f = rng.normal(0.0, 2.0, space.n)
                for t in (0.1, 0.7, 2.0):
                    rep = hj_residual(f, t, cost, space)
                    assert rep.holds, (space.n, cost.label(), t, rep.max_residual)
                    assert rep.max_residual <= 1e-9


def test_residual_rejects_nonpositive_t():
    with pytest.raises(ValueError, match="positive"):
        hj_residual([1.0, 0.0], 0.0, quadratic(), TWO_POINT)
    with pytest.raises(ValueError, match="positive"):
        hj_residual([1.0, 0.0], -0.5, quadratic(), TWO_POINT)


def test_residual_conjugate_blowup_is_hard_violation():
    rep = hj_residual([1.0, 0.0], 0.5, ShrunkDomain(), TWO_POINT)
    assert rep.conjugate_infinite == (0,)
    assert not rep.holds
    assert math.isinf(rep.max_residual)
    js = rep.to_json_dict()
    assert js["max_residual"] is None
    assert js["conjugate_infinite"] == [0]
    assert js["residuals"][0] is None and js["residuals"][1] is not None


# ---------------------------------------------------------------------------
# boundary


def test_boundary_two_point_exact():
    rep = hj_boundary([1.0, 0.0], quadratic(), TWO_POINT)
    np.testing.assert_allclose(rep.limits, [-0.5, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.targets, [-0.5, 0.0], rtol=0, atol=0)
    assert rep.holds and rep.max_error <= 1e-12
    assert rep.excluded == ()


def test_boundary_constant_function():
    rep = hj_boundary(np.full(6, 3.5), quadratic(), build_example("cycle", 6))
    np.testing.assert_array_equal(rep.limits, np.zeros(6))
    assert rep.holds and rep.max_error == 0.0


def test_boundary_zero_at_unique_minimizer():
    f = np.array([0.4, -1.2, 0.9, 2.0, 0.1])
    space = build_example("path", 5)
    rep = hj_boundary(f, quadratic(), space)
    x0 = int(np.argmin(f))
    assert rep.targets[x0] == 0.0
    np.testing.assert_allclose(rep.limits[x0], 0.0, rtol=0, atol=1e-12)
    assert rep.holds


def test_boundary_random_sweep():
    rng = np.random.default_rng(5)
    for space in SWEEP_SPACES:
        for cost in (quadratic(), power(3)):
            for _ in range(5):
                f = rng.normal(0.0, 1.5, space.n)
                rep = hj_boundary(f, cost, space)
                assert rep.holds, (space.n, cost.label(), rep.max_error)


def test_boundary_excludes_steep_points():
    # slope bound l = 2ah = 1 while |grad f|(0) = 3
    rep = hj_boundary([3.0, 0.0], quadratic_linear(1.0, 0.5), TWO_POINT)
    assert rep.excluded == (0,)
    assert rep.holds  # the remaining point still verifies
    js = rep.to_json_dict()
    assert js["excluded"] == [0]
    assert js["targets"][0] is None  # -inf target serializes as null


@pytest.fixture
def stacked_times(monkeypatch):
    """The times of each stacked evaluation of Q~_t f made through
    `weakhj.hj`, one list per call, in call order."""
    import weakhj.hj as hj

    calls = []

    def counted(f, ts, cost, space):
        calls.append(list(ts))
        return _infconv_times(f, ts, cost, space)

    monkeypatch.setattr(hj, "_infconv_times", counted)
    return calls


def test_two_point_report_evaluates_its_grid_once(stacked_times):
    # the table's values, derivatives and residuals come from one pass
    # over the 9 times; the boundary adds its own one-time evaluation
    two_point_report(restarts=1)
    assert [len(ts) for ts in stacked_times].count(9) == 1
    assert len(stacked_times) == 2


def _own_times(f, cost, space):
    """Each point's boundary time: the largest power of two at most d_min
    and d_min / (2 (alpha*)'(|grad f|(x))), or the shortest such time of
    the verified points where the gradient leaves the conjugate domain."""
    g = tilde_gradient(f, space)
    d_min = float(space.dist[space.dist > 0].min())
    verified = g < cost.conjugate_domain_bound()
    t = np.full(space.n, np.inf)
    for x in np.flatnonzero(verified):
        bound = d_min if g[x] == 0 else d_min / (2.0 * cost.conjugate_deriv(g[x]))
        t[x] = 2.0 ** math.floor(math.log2(min(d_min, bound)))
    return np.where(verified, t, t.min()), verified


def test_boundary_evaluates_only_the_ratios_it_reads(stacked_times):
    f = np.array([0.7, -0.3, 0.2, 1.1, 0.4])
    space, cost = build_example("path", 5), power(3)
    rep = hj_boundary(f, cost, space)
    t_x = _own_times(f, cost, space)[0]
    assert stacked_times == [sorted(set(t_x.tolist()))]
    for x, t in enumerate(t_x.tolist()):
        assert rep.limits[x] == (weak_infconv(f, t, cost, space).values[x] - f[x]) / t


def test_boundary_reads_excluded_points_at_the_shortest_time(stacked_times):
    # l = 2ah = 1: x = 0 is excluded, x = 2 reads at 2^-2 <= 1 / (2 * 1.8)
    f = np.array([3.0, 0.0, 0.9])
    space, cost = build_example("path", 3), quadratic_linear(0.25, 2.0)
    rep = hj_boundary(f, cost, space)
    assert rep.excluded == (0,) and rep.holds
    assert stacked_times == [[0.25, 1.0]]
    t_x, verified = _own_times(f, cost, space)
    assert t_x.tolist() == [0.25, 1.0, 0.25] and verified.tolist() == [False, True, True]
    q = weak_infconv(f, 0.25, cost, space).values[0]
    assert rep.limits[0] == (q - f[0]) / 0.25


def test_boundary_rereads_flat_points_at_their_own_time(stacked_times):
    # power:p=1.2 has alpha*(y) = y^6/6, so the steepest point's time falls
    # as G^-5; a flat point with large |f| read at that time lost its
    # ratio to rounding, and at its own time it keeps it
    rng = np.random.default_rng(11)
    cost = power(1.2)
    failed = []
    for _ in range(1800):
        n = int(rng.integers(3, 13))
        edges = [(int(rng.integers(0, j)), j, float(rng.uniform(0.3, 2.0)))
                 for j in range(1, n)]
        for _ in range(int(rng.integers(0, n))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            if i != j:
                edges.append((i, j, float(rng.uniform(0.3, 2.0))))
        space = build_from_graph(n, edges)
        f = rng.uniform(20.0, 40.0) * rng.standard_normal(n)
        stacked_times.clear()
        rep = hj_boundary(f, cost, space)
        if not rep.holds:
            failed.append((n, rep.max_error))
        t_x, verified = _own_times(f, cost, space)
        assert stacked_times == [sorted(set(t_x.tolist()))]
        target = rep.targets[verified]
        assert np.all(rep.errors[verified] <= 1e-12 * (1.0 + np.abs(target)))
    assert failed == []


@pytest.mark.parametrize("cost", [quadratic(), power(3), quadratic_linear(0.25, 2.0)])
def test_boundary_reads_a_random_walk_once(stacked_times, cost):
    # steps below 2ah = 1 keep |grad f| inside the qlin conjugate's domain;
    # with |grad f| <= 0.45, (alpha*)' stays below 1/2 for the quadratic,
    # so every point reads at d_min; for the other two it passes 1/2 but
    # not 1, so points read at d_min or d_min / 2
    rows = 1 if cost.label() == "quadratic" else 2
    rng = np.random.default_rng(3)
    f = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.45, 0.45, 31))])
    space = build_example("path", 32)
    rep = hj_boundary(f, cost, space)
    assert rep.holds and len(stacked_times) == 1 and len(stacked_times[0]) == rows
    assert stacked_times[0] == sorted(set(_own_times(f, cost, space)[0].tolist()))


@pytest.mark.parametrize("peak", [1e3, 1e4])
def test_boundary_steep_function_holds(peak):
    # at t = 2^-19 the minimiser of the peak sat past the first breakpoint
    # of its envelope, so extrapolating from small times missed the limit
    rep = hj_boundary([0.0, peak, 0.0], power(1.5), build_example("path", 3))
    assert rep.holds and rep.excluded == ()
    target = -peak ** 3 / 3.0  # alpha*(y) = y^3/3 for p = 3/2
    np.testing.assert_allclose(rep.limits, [0.0, target, 0.0], rtol=1e-12, atol=0)


def test_boundary_limits_are_exact_across_costs():
    rng = np.random.default_rng(5)
    for space in SWEEP_SPACES:
        for cost in SWEEP_COSTS:
            for _ in range(5):
                f = rng.normal(0.0, 1.5, space.n)
                rep = hj_boundary(f, cost, space)
                keep = np.ones(space.n, dtype=bool)
                keep[list(rep.excluded)] = False
                err = np.abs(rep.limits - rep.targets)[keep]
                assert np.all(err <= 1e-9 * (1.0 + np.abs(rep.targets[keep]))), \
                    (space.n, cost.label(), err.max())


# ---------------------------------------------------------------------------
# one stacked evaluation over a grid of times

GRID_COSTS = [quadratic(), power(1.5), power(3), quadratic_linear(0.25, 2.0)]
# unsorted, with repeats
GRID_TS = np.array([0.7, 0.05, 1.9, 0.7, 0.3, 0.05, 3.5])


def _grid_cases():
    rng = np.random.default_rng(21)
    spaces = [MetricSpace(np.zeros((1, 1)))] + example_spaces()
    spaces += [random_connected_space(rng) for _ in range(6)]
    for space in spaces:
        for scale in (1.0, 4.0):
            yield space, scale * rng.standard_normal(space.n)


def _assert_bitwise(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name
        else:
            assert repr(x) == repr(y), field.name


@pytest.mark.parametrize("cost", GRID_COSTS, ids=lambda c: c.label())
def test_stacked_rows_equal_one_time_calls(cost):
    for space, f in _grid_cases():
        _, _, *rows = _infconv_times(f, GRID_TS, cost, space)
        reports = hj_residuals(f, GRID_TS, cost, space)
        assert len(reports) == len(GRID_TS)
        for k, t in enumerate(GRID_TS):
            one = weak_infconv(f, t, cost, space)
            for row, ref in zip(rows, (one.values, one.u_min, one.u_max, one.u_star)):
                assert row[k].tobytes() == ref.tobytes(), (space.n, t)
            _assert_bitwise(reports[k], hj_residual(f, t, cost, space))


@pytest.mark.parametrize("block", [_HULL_BLOCK, 100])
@pytest.mark.parametrize("cost", GRID_COSTS, ids=lambda c: c.label())
def test_stacked_gradient_equals_per_time_gradient(cost, block, monkeypatch):
    # the grid's stacked gradient, whole or in blocks of a few times,
    # against one tilde_gradient per time
    import weakhj.hj as hj

    def per_time(values, space):
        return np.array([tilde_gradient(q, space) for q in values]), None

    monkeypatch.setattr(hj, "_HULL_BLOCK", block)
    for space, f in _grid_cases():
        got = hj_residuals(f, GRID_TS, cost, space)
        with monkeypatch.context() as m:
            m.setattr(hj, "_gradient_argmax", per_time)
            ref = hj_residuals(f, GRID_TS, cost, space)
        for a, b in zip(got, ref):
            _assert_bitwise(a, b)


@pytest.mark.parametrize("cost", GRID_COSTS, ids=lambda c: c.label())
def test_stacked_values_match_oracle(cost):
    for space, f in _grid_cases():
        values = _infconv_times(f, GRID_TS, cost, space)[2]
        for t, got in zip(GRID_TS, values):
            ref = weak_infconv_bruteforce(f, t, cost, space)
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), (space.n, t)


class CappedConjugate:
    """`base` with its conjugate set to +inf past slope 0.1, to drive the
    finite-domain violation path that smoothing keeps qlin itself from."""

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)

    def conjugate(self, y):
        y = np.asarray(y, dtype=float)
        return np.where(y <= 0.1, self._base.conjugate(y), math.inf)


def test_stacked_residuals_keep_infinite_conjugates():
    # the slope of Q~_t f at the last point is 0.25/t once t >= 1, below
    # 0.1 only at the largest time
    cost, space = CappedConjugate(quadratic_linear(0.25, 2.0)), build_example("path", 5)
    f = np.array([0.0, 0.0, 0.0, 0.0, 0.5])
    reports = hj_residuals(f, GRID_TS, cost, space)
    assert any(r.conjugate_infinite for r in reports)
    assert any(r.holds for r in reports)
    for t, rep in zip(GRID_TS, reports):
        one = hj_residual(f, t, cost, space)
        assert rep.conjugate_infinite == one.conjugate_infinite
        assert rep.holds is one.holds
        _assert_bitwise(rep, one)


@pytest.mark.parametrize("ts", [[0.1, 0.0], [0.1, -1.0], [0.1, math.nan], [math.inf]])
def test_stacked_residuals_reject_bad_times_like_one_time(ts):
    with pytest.raises(ValueError) as one:
        hj_residual([1.0, 0.0], ts[-1], quadratic(), TWO_POINT)
    with pytest.raises(ValueError) as stacked:
        hj_residuals([1.0, 0.0], ts, quadratic(), TWO_POINT)
    assert str(stacked.value) == str(one.value)


def test_stacked_residuals_reject_empty_grid():
    with pytest.raises(ValueError, match="ts must contain positive times"):
        hj_residuals([1.0, 0.0], [], quadratic(), TWO_POINT)


def test_stacked_grid_memory_is_bounded():
    # a convex f makes every distance profile its own envelope: about
    # 2 000 segments on path:64, so the 10 000-time grid runs in blocks
    space = build_example("path", 64)
    f = (np.arange(64) - 31.5) ** 2 / 64.0
    ts = np.linspace(0.01, 5.0, 10_000)
    tracemalloc.start()
    try:
        reports = hj_residuals(f, ts, quadratic(), space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 10_000 and all(r.holds for r in reports)
    assert peak < 64 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# semigroup obstruction


def test_obstruction_path3_witness():
    space = build_example("path", 3)
    res = obstruction_search(space, seed=0)
    assert res.status == "witness"
    w = res.witness
    assert isinstance(w, ObstructionWitness)
    # first adversarial function: zero at vertex 0, one large constant elsewhere
    assert w.f[0] == 0.0
    assert w.f[1] == w.f[2] and w.f[1] > 8.0
    assert res.functions_tried == 1
    assert w.gap > 1e-6
    # recheck both sides against a direct evaluation of the quadratic family
    dist = space.dist
    d_at = lambda t: dist ** 2 / (2.0 * t)
    lhs = np.min(w.f[None, :] + d_at(w.s + w.t), axis=1)[w.x]
    inner = np.min(w.f[None, :] + d_at(w.s), axis=1)
    rhs = np.min(inner[None, :] + d_at(w.t), axis=1)[w.x]
    np.testing.assert_allclose(w.lhs, lhs, rtol=1e-12)
    np.testing.assert_allclose(w.rhs, rhs, rtol=1e-12)
    np.testing.assert_allclose(w.gap, abs(lhs - rhs), rtol=1e-12)


def test_obstruction_fixture_values():
    res = obstruction_search(build_example("path", 3), seed=0)
    w = res.witness
    assert (w.x, w.s, w.t) == (1, 0.25, 0.25)
    np.testing.assert_allclose([w.lhs, w.rhs, w.gap], [1.0, 2.0, 1.0], rtol=0, atol=0)


def test_obstruction_complete3_and_two_point():
    for kind, n in (("complete", 3), ("two_point", None)):
        res = obstruction_search(build_example(kind, n), seed=0)
        assert res.status == "witness"
        assert res.witness.gap > 1e-6


def test_obstruction_adversarial_only_still_finds():
    res = obstruction_search(build_example("path", 3), trials=0, seed=0)
    assert res.status == "witness" and res.functions_tried == 1


def test_obstruction_zero_family_premise_failure():
    res = obstruction_search(TWO_POINT, d_family=lambda t: np.zeros((2, 2)))
    assert res.status == "premise-failure"
    assert res.witness is None
    assert res.functions_tried == 0
    # the probe never gets recovered: gap stays at the diameter
    np.testing.assert_allclose(res.detail["probe_gaps"], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("scale", [1e-4, 1e-8])
def test_obstruction_premise_probe_scales_with_distances(scale):
    # d^2/2t recovers a 1-Lipschitz probe once t <= d_min/2, so the probe
    # times and threshold run in units of d_min: a small path passes; D_t
    # is unchanged under (d, t) -> (l d, l^2 t), so the default t-grid in
    # units of d_min^2 finds the unit path's witness
    path = build_example("path", 3)
    res = obstruction_search(MetricSpace(scale * path.dist), seed=0)
    assert res.status == "witness" and res.functions_tried == 1
    np.testing.assert_allclose(res.witness.gap, 1.0, rtol=0, atol=1e-12)


def test_obstruction_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="vanish"):
        obstruction_search(TWO_POINT, d_family=lambda t: np.ones((2, 2)))
    with pytest.raises(ValueError, match="positive"):
        obstruction_search(TWO_POINT, t_grid=(0.5, -1.0))
    with pytest.raises(ValueError, match="positive"):
        obstruction_search(TWO_POINT, t_grid=())


def test_obstruction_rejects_family_of_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        obstruction_search(TWO_POINT, d_family=lambda t: np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        obstruction_search(TWO_POINT, d_family=lambda t: 0.0)


def test_obstruction_single_point_exhausted():
    space = MetricSpace(np.zeros((1, 1)))
    res = obstruction_search(space, trials=10, seed=3)
    assert res.status == "exhausted"
    assert res.witness is None
    assert res.functions_tried == 11
    assert res.evaluations == 11 * 9  # full grid square per function
    assert res.detail["max_gap_seen"] == 0.0


def test_obstruction_rejects_bad_trials():
    for bad in (-5, -1, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="trials must be an integer >= 0"):
            obstruction_search(TWO_POINT, trials=bad)


def test_obstruction_draws_random_functions_lazily(monkeypatch):
    """A random function is drawn only when the search reaches it, in the
    same order, so a witness among the adversarial functions draws none."""
    draws = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self._rng = default_rng(seed)

        def normal(self, *args):
            draws.append(args)
            return self._rng.normal(*args)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    res = obstruction_search(build_example("path", 3), trials=50, seed=0)
    assert res.functions_tried == 1 and draws == []
    res = obstruction_search(MetricSpace(np.zeros((1, 1))), trials=7, seed=3)
    assert res.status == "exhausted" and res.functions_tried == 8
    assert draws == [(0.0, 1.0, 1)] * 7


def test_obstruction_reproducible():
    a = obstruction_search(build_example("complete", 3), seed=42)
    b = obstruction_search(build_example("complete", 3), seed=42)
    assert a.to_json_dict() == b.to_json_dict()


# ---------------------------------------------------------------------------
# report shape


def test_residual_report_json_keys():
    js = hj_residual([1.0, 0.0], 0.5, quadratic(), TWO_POINT).to_json_dict()
    assert list(js) == ["kind", "cost", "holds", "t", "residuals",
                        "max_residual", "conjugate_infinite"]
    assert js["kind"] == "residual" and js["cost"] == "quadratic"


def test_boundary_report_json_keys():
    js = hj_boundary([1.0, 0.0], quadratic(), TWO_POINT).to_json_dict()
    assert list(js) == ["kind", "cost", "holds", "limits", "targets",
                        "errors", "max_error", "excluded"]
    assert js["kind"] == "boundary"


def test_boundary_consistent_with_small_t_values():
    # the limit agrees with the raw ratio at a much smaller time
    f = np.array([0.7, -0.3, 0.2, 1.1])
    space = build_example("complete", 4)
    rep = hj_boundary(f, quadratic(), space)
    t = 2.0 ** -20
    raw = (weak_infconv(f, t, quadratic(), space).values - f) / t
    np.testing.assert_allclose(rep.limits, raw, rtol=0, atol=1e-5)


# Two 8-point weighted-graph spaces where a hull segment within ARGMIN_TOL
# of the best one pulled the exact derivative to its clipped end point:
# the residual came out at +2e-5 and +1.2e-5 instead of <= 0.
NEAR_TIE_CASES = [
    (  # power:p=3, t = 0.7, point 0
        [[0.0, 0.9036144447101131, 0.32716155214002396, 0.7802577327091252,
          0.9965242229644362, 1.5562268010619436, 2.0101599887745882, 1.747406293836594],
         [0.9036144447101131, 0.0, 1.230775996850137, 1.6838721774192384,
          1.7553756296739194, 1.195673051576412, 1.6496062392890565, 0.8437918491264809],
         [0.32716155214002396, 1.230775996850137, 0.0, 0.4530961805691013,
          0.6693626708244123, 1.2290652489219196, 1.682998436634564, 1.5809464513718507],
         [0.7802577327091252, 1.6838721774192384, 0.4530961805691013, 0.0,
          0.49144053206805816, 1.0511431101655655, 1.50507629787821, 1.4030243126154966],
         [0.9965242229644362, 1.7553756296739194, 0.6693626708244123, 0.49144053206805816,
          0.0, 0.5597025780975073, 1.0136357658101518, 0.9115837805474385],
         [1.5562268010619436, 1.195673051576412, 1.2290652489219196, 1.0511431101655655,
          0.5597025780975073, 0.0, 0.45393318771264446, 0.3518812024499311],
         [2.0101599887745882, 1.6496062392890565, 1.682998436634564, 1.50507629787821,
          1.0136357658101518, 0.45393318771264446, 0.0, 0.8058143901625756],
         [1.747406293836594, 0.8437918491264809, 1.5809464513718507, 1.4030243126154966,
          0.9115837805474385, 0.3518812024499311, 0.8058143901625756, 0.0]],
        [-0.41408846328801385, -0.8781644977815684, -1.0958518119475718,
         -0.4637673484379292, 1.449768672438061, -0.5916817583804542,
         -1.4635543412424137, -0.09813232997615441],
        power(3), 0.7, 0,
    ),
    (  # quadratic, t = 1.7, point 5
        [[0.0, 0.3099993647849928, 1.3376122239727313, 0.5912116878993723,
          2.3760004978221367, 1.7631371536701952, 0.9564084793726648, 1.0745871529190705],
         [0.3099993647849928, 0.0, 1.647611588757724, 0.9012110526843651,
          2.6859998626071295, 2.073136518455188, 0.646409114587672, 1.3845865177040633],
         [1.3376122239727313, 1.647611588757724, 0.0, 1.9288239118721036,
          3.713612721794868, 3.1007493776429262, 2.294020703345396, 2.4121993768918015],
         [0.5912116878993723, 0.9012110526843651, 1.9288239118721036, 0.0,
          1.7847888099227645, 1.171925465770823, 0.9617155777406696, 0.4833754650196981],
         [2.3760004978221367, 2.6859998626071295, 3.713612721794868, 1.7847888099227645,
          0.0, 2.9567142756935874, 2.746504387663434, 2.2681642749424626],
         [1.7631371536701952, 2.073136518455188, 3.1007493776429262, 1.171925465770823,
          2.9567142756935874, 0.0, 2.1336410435114925, 1.655300930790521],
         [0.9564084793726648, 0.646409114587672, 2.294020703345396, 0.9617155777406696,
          2.746504387663434, 2.1336410435114925, 0.0, 1.4450910427603678],
         [1.0745871529190705, 1.3845865177040633, 2.4121993768918015, 0.4833754650196981,
          2.2681642749424626, 1.655300930790521, 1.4450910427603678, 0.0]],
        [1.2723310955674956, -0.24657198209791245, 3.088635881897217,
         -0.9364749947247629, -2.1668814693250322, 0.49176816461532297,
         -0.5849461764153788, -1.2031117163334835],
        quadratic(), 1.7, 5,
    ),
]


@pytest.mark.parametrize("dist, f, cost, t, x", NEAR_TIE_CASES,
                         ids=["power3-t0.7-x0", "quadratic-t1.7-x5"])
def test_residual_holds_when_segments_nearly_tie(dist, f, cost, t, x):
    space = validate_metric(dist)
    f = np.array(f)
    assert hj_residual(f, t, cost, space).holds
    eps = 1e-6
    fd = (weak_infconv(f, t + eps, cost, space).values
          - weak_infconv(f, t - eps, cost, space).values) / (2 * eps)
    assert abs(time_derivative(f, t, cost, space)[x] - fd[x]) <= 1e-7
