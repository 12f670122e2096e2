"""Tests for the nonlinear gradient, envelopes and the weak inf-convolution.

The exact two-point enumeration (weak_infconv_bruteforce), which prices every
chord between two points and builds no envelope, is the independent oracle
here; the envelope solver must reproduce it everywhere to rounding.
"""

import numpy as np
import pytest

from envref import convex_envelope, distance_profile, reference_envelope
from randspaces import example_spaces, random_connected_space
from weakhj.calculus import (
    ARGMIN_TOL,
    _gradient_argmax,
    _gradient_pullback,
    _segment_argmin,
    classical_infconv,
    envelope,
    gradient_envelope_identity,
    lipschitz_seminorm,
    tilde_gradient,
    time_derivative,
    weak_infconv,
    weak_infconv_bruteforce,
)
from weakhj.cost import power, quadratic, quadratic_linear
from weakhj.space import MetricSpace, build_example, build_from_graph

COSTS = [quadratic(), power(3.0), power(1.5), quadratic_linear(0.25, 2.0),
         quadratic_linear(1.0, 1.0)]


# -- gradient ---------------------------------------------------------------

def test_gradient_two_point():
    sp = build_example("two_point")
    np.testing.assert_array_equal(tilde_gradient([1.0, 0.0], sp), [1.0, 0.0])


def test_gradient_constant_zero():
    for sp in example_spaces():
        np.testing.assert_array_equal(tilde_gradient(np.full(sp.n, 3.3), sp),
                                      np.zeros(sp.n))


def test_gradient_has_no_negative_zero():
    # the slope -0.0 of x = 1 ties the zero diagonal and comes first
    g = tilde_gradient([0.0, -0.0], build_example("two_point"))
    assert not np.signbit(g).any()


def test_gradient_path3_competitors():
    sp = build_example("path", 3)
    g = tilde_gradient([0.0, 5.0, 1.0], sp)
    assert g[1] == 5.0  # max(5/1, 4/1)
    assert g[0] == 0.0  # minimum, by the 0/0 convention
    assert g[2] == 0.5  # only the far competitor counts: (1-0)/2


def test_gradient_zero_at_minima():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n)
        g = tilde_gradient(f, sp)
        assert g[int(np.argmin(f))] == 0.0
        assert np.all(g >= 0.0)


@pytest.mark.filterwarnings("error")
def test_gradient_argmax_matches_brute_force():
    # g(x) = max(0, max_{y != x} (f(x) - f(y)) / d(x, y)) bit for bit, and
    # wherever g > 0, ys[x] is the first maximiser; the 0/0 on the
    # diagonal raises no warning
    rng = np.random.default_rng(11)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(20)]
    spaces.append(MetricSpace(np.zeros((1, 1))))
    cases = []
    for sp in spaces:
        cases += [(sp, rng.normal(size=sp.n)), (sp, np.full(sp.n, 2.5)),
                  (sp, rng.integers(0, 3, sp.n).astype(float))]   # tied slopes
    hypercube = build_example("hypercube", 3)
    cases.append((hypercube, hypercube.dist[0].copy()))           # Hamming weight
    for sp, f in cases:
        g, ys = _gradient_argmax(f, sp)
        for x in range(sp.n):
            slopes = [(f[x] - f[y]) / sp.dist[x, y] for y in range(sp.n) if y != x]
            best = max(slopes, default=0.0)
            assert g[x] == max(best, 0.0)
            if g[x] > 0:
                assert ys[x] == next(y for y in range(sp.n)
                                     if y != x and (f[x] - f[y]) / sp.dist[x, y] == best)


def test_gradient_ties_go_to_the_first_index():
    # on cycle:4 point 0 has slope 1 to all three others and takes the
    # first; point 2, the minimum, keeps its own zero diagonal slope
    sp = build_example("cycle", 4)
    f = np.array([2.0, 1.0, 0.0, 1.0])
    g, ys = _gradient_argmax(f, sp)
    assert g.tolist() == [1.0, 1.0, 0.0, 1.0] == tilde_gradient(f, sp).tolist()
    assert ys.tolist() == [1, 2, 2, 2]
    assert not np.signbit(g).any()
    # a zero slope to a neighbour of equal value ties with the diagonal
    g, ys = _gradient_argmax(np.array([0.0, 0.0, 1.0]), build_example("path", 3))
    assert g.tolist() == [0.0, 0.0, 1.0] and ys.tolist() == [0, 0, 1]
    assert not np.signbit(g).any()


def test_stacked_gradient_equals_one_dimensional_calls():
    # a (K, n) stack, whole, in blocks of two rows or as a (1, K, n)
    # stack, gives each row's 1-D call bit for bit, for g and for ys
    rng = np.random.default_rng(13)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(10)]
    spaces += [MetricSpace(np.zeros((1, 1))), build_example("path", 32)]
    for sp in spaces:
        F = np.vstack([rng.normal(size=(3, sp.n)),
                       rng.integers(0, 3, (3, sp.n)).astype(float),   # tied slopes
                       np.full((1, sp.n), -1.5)])
        rows = [_gradient_argmax(f, sp) for f in F]
        want_g = np.array([g for g, _ in rows])
        want_ys = np.array([ys for _, ys in rows])
        blocks = [_gradient_argmax(F[r:r + 2], sp) for r in range(0, len(F), 2)]
        for g, ys in (_gradient_argmax(F, sp),
                      tuple(np.concatenate(part) for part in zip(*blocks)),
                      tuple(a[0] for a in _gradient_argmax(F[None], sp))):
            assert g.shape == ys.shape == F.shape
            assert g.tobytes() == want_g.tobytes()
            assert ys.tolist() == want_ys.tolist()
            assert not np.signbit(g).any()


def _masked_gradient_argmax(F, space):
    # the gradient as it was computed before the unit-diagonal divisor:
    # slopes divided only where x != y, under a boolean mask
    n = F.shape[-1]
    slopes = F[..., None] - F[..., None, :]
    np.divide(slopes, space.dist, out=slopes, where=~np.eye(n, dtype=bool))
    ys = slopes.argmax(-1)
    at = np.arange(0, slopes.size, n).reshape(ys.shape) + ys
    return slopes.ravel()[at], ys


def test_gradient_argmax_keeps_the_masked_divide_bits():
    # dividing the diagonal slope f(x) - f(x) by 1.0 leaves it as it is,
    # +0.0 or NaN, so g and ys are those of the masked divide, on 1-D
    # calls and (K, n) stacks with signed zeros, ties and a NaN row
    rng = np.random.default_rng(17)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(20)]
    spaces += [MetricSpace(np.zeros((1, 1))), build_example("path", 32)]
    for sp in spaces:
        n = sp.n
        F = np.vstack([rng.normal(size=(4, n)),
                       rng.choice([0.0, -0.0], (2, n)),                # signed zeros
                       rng.integers(0, 3, (3, n)).astype(float),       # tied slopes
                       np.where(rng.random((1, n)) < 0.5, np.nan, 1.0),
                       np.full((1, n), np.nan)])
        for stack in (F, F[None], F[:1]):
            g, ys = _gradient_argmax(stack, sp)
            want_g, want_ys = _masked_gradient_argmax(stack, sp)
            assert g.tobytes() == want_g.tobytes()
            assert ys.tolist() == want_ys.tolist()
        for f in F:
            g, ys = _gradient_argmax(f, sp)
            want_g, want_ys = _masked_gradient_argmax(f, sp)
            assert g.tobytes() == want_g.tobytes()
            assert ys.tolist() == want_ys.tolist()


def test_gradient_pullback_equals_a_sequential_loop():
    # c(x)/d(x, ys[x]) added at every active x, then subtracted at ys[x],
    # one point at a time in index order (the order of np.add.at and
    # np.subtract.at), bit for bit, also where ys[active] repeats
    rng = np.random.default_rng(19)
    spaces = example_spaces() + [random_connected_space(rng) for _ in range(20)]
    spaces.append(build_example("path", 32))
    repeated = 0
    for sp in spaces:
        for f in (rng.normal(size=sp.n), sp.dist[0].copy(),
                  rng.integers(0, 3, sp.n).astype(float)):
            g, ys = _gradient_argmax(f, sp)
            c = rng.normal(size=sp.n)
            out = rng.normal(size=sp.n)
            want = out.copy()
            active = [x for x in range(sp.n) if g[x] > 0]
            coef = {x: c[x] / sp.dist[x, ys[x]] for x in active}
            for x in active:
                want[x] += coef[x]
            for x in active:
                want[ys[x]] -= coef[x]
            _gradient_pullback(out, c, g, ys, sp)
            assert out.tobytes() == want.tobytes()
            to = ys[g > 0]
            repeated += len(to) > len(set(to.tolist()))
    assert repeated > 10


def test_lipschitz_seminorm():
    sp = build_example("path", 3)
    assert lipschitz_seminorm([0.0, 5.0, 1.0], sp) == 5.0
    assert lipschitz_seminorm([2.0, 2.0, 2.0], sp) == 0.0


# -- profiles and envelopes -------------------------------------------------

def test_distance_profile_two_point():
    sp = build_example("two_point")
    us, vs, att = distance_profile(np.array([1.0, 0.0]), 0, sp)
    np.testing.assert_array_equal(us, [0.0, 1.0])
    np.testing.assert_array_equal(vs, [1.0, 0.0])
    assert att == [0, 1]


def test_distance_profile_sphere_minimum():
    sp = build_example("complete", 3)
    us, vs, _ = distance_profile(np.array([2.0, 0.0, 1.0]), 0, sp)
    np.testing.assert_array_equal(us, [0.0, 1.0])
    np.testing.assert_array_equal(vs, [2.0, 0.0])


def test_distance_profile_hamming_weight():
    sp = build_example("hypercube", 2)
    f = np.array([0.0, 1.0, 1.0, 2.0])
    us, vs, _ = distance_profile(f, 0, sp)
    np.testing.assert_array_equal(us, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(vs, [0.0, 1.0, 2.0])


def test_convex_envelope_cases():
    # already convex
    assert convex_envelope(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == [0, 1]
    # interior point above the chord is dropped
    assert convex_envelope(np.array([0.0, 1.0, 2.0]),
                           np.array([0.0, 3.0, 0.0])) == [0, 2]
    # strictly convex profile keeps all points
    assert convex_envelope(np.array([0.0, 1.0, 2.0]),
                           np.array([2.0, 0.0, 1.0])) == [0, 1, 2]


def test_envelope_invariants_random():
    """Breakpoints touch the profile, slopes strictly increase, envelope
    minorizes the profile."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n)
        x = int(rng.integers(sp.n))
        us, vs, _ = distance_profile(f, x, sp)
        env = envelope(f, x, sp)
        assert env.us[0] == 0.0
        assert env.vs[0] == f[x]
        assert np.all(np.diff(env.us) > 0)
        if len(env.us) > 2:
            assert np.all(np.diff(env.slopes()) > 0)
        # touches: every breakpoint is a profile point
        for u, v in zip(env.us, env.vs):
            k = int(np.argmin(np.abs(us - u)))
            assert vs[k] == pytest.approx(v, abs=1e-12)
        # minorizes
        assert np.all(env.value(us) <= vs + 1e-12)
        # attainer bookkeeping: f at the attainer equals the breakpoint value
        got = np.array([f[a] for a in env.attainers])
        np.testing.assert_allclose(got, env.vs, atol=1e-12)


# -- classical inf-convolution ----------------------------------------------

def test_classical_two_point_fixture():
    sp = build_example("two_point")
    v = classical_infconv(np.array([1.0, 0.0]), 0.5, quadratic(), sp)
    np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-15)


def test_classical_large_t_approaches_min():
    rng = np.random.default_rng(2)
    sp = build_example("cycle", 6)
    f = rng.normal(size=6)
    prev = None
    for t in (1.0, 4.0, 16.0, 64.0, 256.0, 4096.0):
        v = classical_infconv(f, t, quadratic(), sp)
        assert np.all(v <= f + 1e-15)
        if prev is not None:
            assert np.all(v <= prev + 1e-15)
        prev = v
    # residual cost term is at most diameter^2 / (2 t) = 9/8192
    np.testing.assert_allclose(prev, np.full(6, f.min()), atol=2e-3)


def test_classical_constant():
    sp = build_example("path", 4)
    np.testing.assert_array_equal(classical_infconv(np.full(4, 2.5), 0.7, quadratic(), sp),
                                  np.full(4, 2.5))


# -- weak inf-convolution: pinned values -------------------------------------

def test_weak_two_point_closed_form():
    """Q(t) at the high point is 1 - t/2 for t in (0,1], then 1/(2t)."""
    sp = build_example("two_point")
    f = np.array([1.0, 0.0])
    for t in (0.1, 0.25, 0.5, 0.75, 1.0):
        r = weak_infconv(f, t, quadratic(), sp)
        assert r.values[0] == pytest.approx(1.0 - t / 2.0, abs=1e-12)
        assert r.values[1] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(time_derivative(f, t, quadratic(), sp, result=r),
                                   [-0.5, 0.0], atol=1e-12)
    for t in (1.5, 2.0, 4.0):
        r = weak_infconv(f, t, quadratic(), sp)
        assert r.values[0] == pytest.approx(0.5 / t, abs=1e-12)


def test_weak_strictly_below_classical():
    sp = build_example("two_point")
    f = np.array([1.0, 0.0])
    w = weak_infconv(f, 0.5, quadratic(), sp).values
    c = classical_infconv(f, 0.5, quadratic(), sp)
    assert w[0] == pytest.approx(0.75, abs=1e-12)
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert w[0] < c[0]


def test_weak_constant_function():
    for sp in example_spaces():
        r = weak_infconv(np.full(sp.n, -1.25), 0.8, power(3.0), sp)
        np.testing.assert_allclose(r.values, np.full(sp.n, -1.25), atol=1e-14)
        for a in r.argmin:
            assert a.u_min == 0.0 and a.u_max == 0.0


def test_weak_rejects_nonpositive_t():
    sp = build_example("two_point")
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            weak_infconv(np.array([1.0, 0.0]), bad, quadratic(), sp)
        with pytest.raises(ValueError):
            classical_infconv(np.array([1.0, 0.0]), bad, quadratic(), sp)


ENTRY_POINTS = {
    "weak_infconv": lambda f, sp: weak_infconv(f, 0.5, quadratic(), sp),
    "weak_infconv_bruteforce": lambda f, sp: weak_infconv_bruteforce(f, 0.5, quadratic(), sp),
    "classical_infconv": lambda f, sp: classical_infconv(f, 0.5, quadratic(), sp),
    "tilde_gradient": tilde_gradient,
    "lipschitz_seminorm": lipschitz_seminorm,
    "envelope": lambda f, sp: envelope(f, 0, sp),
    "gradient_envelope_identity": lambda f, sp: gradient_envelope_identity(f, 0, sp),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("f, message", [
    ([1.0], r"expected \(2,\)"), ([1.0, 0.0, 2.0], r"expected \(2,\)"),
    ([1.0, np.nan], "finite"), ([np.inf, 0.0], "finite")],
    ids=["short", "long", "nan", "inf"])
def test_entry_points_reject_bad_functions(name, f, message):
    # a wrong length must not be truncated or broadcast, and a NaN must
    # not reach the batched hull
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[name](f, build_example("two_point"))


@pytest.mark.parametrize("name", ["envelope", "gradient_envelope_identity"])
@pytest.mark.parametrize("x", [-1, 6, 2.5, True, "0", None])
def test_entry_points_reject_bad_points(name, x):
    # x = -1 once read the last point's envelope, x = True row 1, and
    # x = 6 or 2.5 raised a bare IndexError
    entry = {"envelope": envelope, "gradient_envelope_identity":
             gradient_envelope_identity}[name]
    with pytest.raises(ValueError, match="x must be"):
        entry(np.arange(6.0), x, build_example("cycle", 6))


def test_entry_points_take_numpy_point_indices():
    sp = build_example("cycle", 6)
    f = np.arange(6.0)
    env = envelope(f, np.int64(5), sp)
    assert env.x == 5 and type(env.x) is int
    assert env.attainers == reference_envelope(f, 5, sp).attainers
    assert gradient_envelope_identity(f, np.int32(5), sp)["gradient"] == 5.0


# -- oracle equivalence ------------------------------------------------------

def test_bruteforce_two_point_value():
    sp = build_example("two_point")
    v = weak_infconv_bruteforce(np.array([1.0, 0.0]), 0.5, quadratic(), sp)
    assert v[0] == pytest.approx(0.75, abs=1e-9)


def _assert_matches_oracle(f, t, cost, sp):
    fast = weak_infconv(f, t, cost, sp).values
    slow = weak_infconv_bruteforce(f, t, cost, sp)
    assert np.all(np.abs(fast - slow) <= 1e-12 * (1.0 + np.abs(fast))), (
        cost.label(), np.max(np.abs(fast - slow)))


def test_envelope_matches_bruteforce_100_instances():
    """Oracle equivalence on 100 random (space, f, t, cost) instances."""
    rng = np.random.default_rng(42)
    for i in range(100):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n) * float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.05, 3.0))
        _assert_matches_oracle(f, t, COSTS[i % len(COSTS)], sp)


def test_bruteforce_edge_cases():
    """power(4), integer f with tied values and distances, and the
    one-point space."""
    rng = np.random.default_rng(71)
    spaces = [MetricSpace(np.zeros((1, 1))), build_example("two_point"),
              build_example("hypercube", 3), build_example("cycle", 6),
              build_example("symmetric_group", 3)]
    for sp in spaces:
        g = 2.0 * rng.standard_normal(sp.n)
        for f in (g, np.round(g)):
            for cost in EQUIVALENCE_COSTS:
                _assert_matches_oracle(f, float(rng.uniform(0.1, 2.0)), cost, sp)
    assert weak_infconv_bruteforce([-0.5], 0.3, power(4.0), spaces[0]).tolist() == [-0.5]


def test_bruteforce_qlin_flat_ray():
    """Slope -2ah on path:3: every u in [t h, 2] is optimal, value 1.75."""
    sp = build_example("path", 3)
    f = np.array([2.0, 1.0, 0.0])
    cost = quadratic_linear(0.5, 1.0)
    r = weak_infconv(f, 0.5, cost, sp)
    assert (r.u_min[0], r.u_max[0]) == (0.5, 2.0)
    oracle = weak_infconv_bruteforce(f, 0.5, cost, sp)
    assert oracle[0] == pytest.approx(1.75, abs=1e-15)
    np.testing.assert_allclose(oracle, r.values, rtol=0, atol=1e-15)


def test_bruteforce_builds_no_envelope(monkeypatch):
    """The oracle stays independent of the hull code it checks."""
    import weakhj.calculus as calc

    def banned(*args, **kwargs):
        raise AssertionError("oracle called the envelope code")

    for name in ("_segment_argmin", "_hull_vertices", "_profile_hull", "_envelopes",
                 "envelope"):
        monkeypatch.setattr(calc, name, banned)
    monkeypatch.setattr(MetricSpace, "distance_groups", property(banned))
    sp = build_example("cycle", 5)
    v = weak_infconv_bruteforce(np.arange(5.0), 0.7, quadratic_linear(0.5, 1.0), sp)
    assert v.shape == (5,)


def test_bruteforce_below_classical():
    """Dirac masses are two-point measures, so the oracle never exceeds the
    classical operator, and on two_point it moves mass strictly below it."""
    rng = np.random.default_rng(9)
    for sp in example_spaces():
        f = rng.normal(size=sp.n)
        for cost in COSTS:
            assert np.all(weak_infconv_bruteforce(f, 0.9, cost, sp)
                          <= classical_infconv(f, 0.9, cost, sp))
    sp = build_example("two_point")
    f = np.array([1.0, 0.0])
    weak = weak_infconv_bruteforce(f, 0.5, quadratic(), sp)
    assert weak[0] < classical_infconv(f, 0.5, quadratic(), sp)[0]


# -- structural invariants ---------------------------------------------------

def _random_instances(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n) * float(rng.uniform(0.5, 2.5))
        t = float(rng.uniform(0.05, 3.0))
        yield sp, f, t, COSTS[i % len(COSTS)], rng


def test_weak_below_classical_below_f():
    for sp, f, t, cost, _ in _random_instances(7, 60):
        w = weak_infconv(f, t, cost, sp).values
        c = classical_infconv(f, t, cost, sp)
        assert np.all(w <= c + 1e-12)
        assert np.all(c <= f + 1e-12)


def test_monotone_in_f():
    for sp, f, t, cost, rng in _random_instances(13, 40):
        g = f + rng.uniform(0.0, 1.0, size=sp.n)
        wf = weak_infconv(f, t, cost, sp).values
        wg = weak_infconv(g, t, cost, sp).values
        assert np.all(wf <= wg + 1e-12)


def test_translation_invariance():
    for sp, f, t, cost, _ in _random_instances(19, 30):
        w0 = weak_infconv(f, t, cost, sp).values
        w1 = weak_infconv(f + 4.5, t, cost, sp).values
        np.testing.assert_allclose(w1, w0 + 4.5, atol=1e-10)


def test_nonincreasing_and_convex_in_t():
    """t -> weak value is non-increasing and convex, per point."""
    ts = np.linspace(0.1, 3.0, 9)
    for sp, f, _, cost, _ in _random_instances(23, 25):
        vals = np.stack([weak_infconv(f, float(t), cost, sp).values for t in ts])
        assert np.all(np.diff(vals, axis=0) <= 1e-12)
        chords = 0.5 * (vals[:-2] + vals[2:])
        assert np.all(vals[1:-1] <= chords + 1e-10)


def test_beta_constant_on_argmin_interval():
    for sp, f, t, cost, _ in _random_instances(29, 60):
        r = weak_infconv(f, t, cost, sp)
        for a in r.argmin:
            assert a.u_min <= a.u_max + 1e-15
            b0 = cost.beta(a.u_min / t)
            b1 = cost.beta(a.u_max / t)
            assert abs(b0 - b1) <= 1e-9 * (1.0 + abs(b0))


def test_argmin_endpoints_equal_value():
    """phi agrees at both argmin endpoints within 1e-9."""
    for sp, f, t, cost, _ in _random_instances(31, 40):
        r = weak_infconv(f, t, cost, sp)
        for x, a in enumerate(r.argmin):
            env = r.envelopes[x]
            p0 = env.value(a.u_min) + t * cost.eval(a.u_min / t)
            p1 = env.value(a.u_max) + t * cost.eval(a.u_max / t)
            assert p0 == pytest.approx(r.values[x], abs=1e-9)
            assert p1 == pytest.approx(r.values[x], abs=1e-9)


def test_witness_measures_reconstruct_value():
    """Two-point witnesses reproduce the optimal objective exactly."""
    for sp, f, t, cost, _ in _random_instances(37, 50):
        r = weak_infconv(f, t, cost, sp)
        for x, a in enumerate(r.argmin):
            for pts, wts in a.witnesses:
                mean_f = sum(w * f[y] for y, w in zip(pts, wts))
                mean_d = sum(w * sp.dist[x, y] for y, w in zip(pts, wts))
                val = mean_f + t * cost.eval(mean_d / t)
                assert val == pytest.approx(r.values[x], abs=1e-9)


def test_time_derivative_central_difference():
    """Exact derivative matches central differences, rel tol 1e-4."""
    rng = np.random.default_rng(41)
    sp = build_example("cycle", 6)
    eps = 1e-5
    for cost in COSTS:
        f = rng.normal(size=6)
        for t in (0.3, 0.7, 1.7):
            ex = time_derivative(f, t, cost, sp)
            fd = (weak_infconv(f, t + eps, cost, sp).values
                  - weak_infconv(f, t - eps, cost, sp).values) / (2 * eps)
            np.testing.assert_allclose(ex, fd, rtol=1e-4, atol=1e-7)


def test_gradient_bound_on_weak_smoothing():
    """Gradient of the smoothed function is at most deriv(u/t) on the argmin."""
    for sp, f, t, cost, _ in _random_instances(43, 60):
        r = weak_infconv(f, t, cost, sp)
        g = tilde_gradient(r.values, sp)
        for x in range(sp.n):
            bound = cost.deriv(r.argmin[x].u_min / t)
            assert g[x] <= bound + 1e-9 * (1.0 + bound)


# -- chain rule ---------------------------------------------------------------

def test_chain_rule_monotone_maps():
    """Composition bound for non-decreasing G, type-II form when G decreases."""
    rng = np.random.default_rng(47)
    for _ in range(120):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n) * 1.5
        gf = tilde_gradient(f, sp)
        gneg = tilde_gradient(-f, sp)
        # exp: slope bound exp(f(x))
        lhs = tilde_gradient(np.exp(f), sp)
        assert np.all(lhs <= gf * np.exp(f) + 1e-9)
        # square on the nonnegative shift: slope bound 2 f(x)
        fs = f - f.min()
        lhs = tilde_gradient(fs ** 2, sp)
        assert np.all(lhs <= tilde_gradient(fs, sp) * 2.0 * fs + 1e-9)
        # clamped affine, 1-Lipschitz
        lhs = tilde_gradient(np.clip(f, -1.0, 1.0), sp)
        assert np.all(lhs <= gf + 1e-9)
        # non-increasing exp(-x): descending slopes of f control the bound
        lhs = tilde_gradient(np.exp(-f), sp)
        assert np.all(lhs <= gneg * np.exp(-f) + 1e-9)


# -- gradient / envelope-slope identity ---------------------------------------

def test_identity_two_point():
    sp = build_example("two_point")
    rep = gradient_envelope_identity(np.array([1.0, 0.0]), 0, sp)
    assert rep["gradient"] == 1.0
    assert rep["abs_first_slope"] == 1.0
    assert rep["verdict"] == "equal"


def test_identity_unique_minimizer():
    sp = build_example("path", 4)
    f = np.arange(4.0)
    rep = gradient_envelope_identity(f, 0, sp)
    assert rep["verdict"] == "unique-minimizer"
    assert rep["gradient"] == 0.0
    assert rep["first_slope"] == 1.0


def test_identity_tied_minima_everywhere():
    """With two tied minima the identity holds at every point."""
    rng = np.random.default_rng(53)
    for _ in range(30):
        sp = random_connected_space(rng, n_max=7)
        f = rng.normal(size=sp.n)
        if sp.n >= 2:
            f[1] = f[0] = f.min() - 1.0  # force a tie at the bottom
        for x in range(sp.n):
            rep = gradient_envelope_identity(f, x, sp)
            assert rep["verdict"] == "equal"
            assert rep["gradient"] == pytest.approx(max(0.0, -rep["first_slope"]),
                                                    abs=1e-10)


def test_identity_equal_at_nonminimal_points():
    rng = np.random.default_rng(59)
    for _ in range(40):
        sp = random_connected_space(rng)
        f = rng.normal(size=sp.n)
        for x in range(sp.n):
            rep = gradient_envelope_identity(f, x, sp)
            if rep["verdict"] == "equal":
                assert rep["gradient"] == pytest.approx(max(0.0, -rep["first_slope"]),
                                                        abs=1e-10)


# -- merged distance values ----------------------------------------------------

def test_profile_merges_near_equal_distances():
    sp = build_from_graph(3, [(0, 1, 1.0), (0, 2, 1.0 + 1e-14)])
    f = np.array([5.0, 2.0, 1.0])
    us, vs, _ = distance_profile(f, 0, sp)
    np.testing.assert_array_equal(us, [0.0, 1.0])
    assert vs[1] == 1.0  # minimum over the merged sphere
    assert envelope(f, 0, sp).us.tolist() == [0.0, 1.0]


# -- batched operator against the per-point reference ---------------------------

def _segment_argmin_loop(u0, v0, u1, v1, t, cost):
    """Per-segment reference: closed forms for quadratic and qlin costs, an
    80-step bisection on s + alpha'(u/t) for power costs."""
    s = (v1 - v0) / (u1 - u0)

    def phi(u):
        return v0 + s * (u - u0) + t * cost.eval(u / t)

    if s >= 0.0:
        return u0, u0, phi(u0)
    if cost.kind == "quadratic":
        u = min(max(-s * t, u0), u1)
        return u, u, phi(u)
    if cost.kind == "power":
        if s + cost.deriv(u0 / t) >= 0.0:
            return u0, u0, phi(u0)
        if s + cost.deriv(u1 / t) <= 0.0:
            return u1, u1, phi(u1)
        lo, hi = u0, u1
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if s + cost.deriv(mid / t) < 0.0:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        return u, u, phi(u)
    l = cost.conjugate_domain_bound()
    if -s > l * (1.0 + 1e-12):
        return u1, u1, phi(u1)
    if abs(-s - l) <= 1e-12 * (1.0 + l):
        knee = t * cost.h
        if knee >= u1:
            return u1, u1, phi(u1)
        lo = max(u0, knee)
        return lo, u1, phi(lo)
    u = min(max(t * (-s) / (2 * cost.a), u0), u1)
    return u, u, phi(u)


def _weak_infconv_loop(f, t, cost, sp):
    """Point-by-point reference: reference_envelope(), then every segment
    in turn."""
    values, intervals = [], []
    for x in range(sp.n):
        env = reference_envelope(f, x, sp)
        if len(env.us) == 1:
            values.append(env.vs[0])
            intervals.append((0.0, 0.0))
            continue
        pieces = [_segment_argmin_loop(env.us[k], env.vs[k], env.us[k + 1],
                                       env.vs[k + 1], t, cost)
                  for k in range(len(env.us) - 1)]
        best = min(p[2] for p in pieces)
        tol = ARGMIN_TOL * (1.0 + abs(best))
        values.append(best)
        intervals.append((min(p[0] for p in pieces if p[2] <= best + tol),
                          max(p[1] for p in pieces if p[2] <= best + tol)))
    return np.array(values), np.array(intervals)


EQUIVALENCE_COSTS = [quadratic(), power(1.5), power(3.0), power(4.0),
                     quadratic_linear(0.25, 2.0), quadratic_linear(1.0, 1.0)]


def _equivalence_spaces():
    rng = np.random.default_rng(61)
    spaces = [random_connected_space(rng, n_max=20) for _ in range(50)]
    spaces += [MetricSpace(np.zeros((1, 1))), build_example("two_point"),
               build_example("hypercube", 3), build_example("path", 32),
               build_example("symmetric_group", 4)]
    return spaces


def test_batched_matches_per_point_reference():
    """Envelopes equal reference_envelope() exactly (ties included, via
    integer f); values and argmin intervals equal the point-by-point loop
    to 1e-12; interior segment minimizers are stationary to 1e-10."""
    rng = np.random.default_rng(67)
    for sp in _equivalence_spaces():
        gauss = 2.0 * rng.standard_normal(sp.n)
        for f in (gauss, np.round(gauss)):
            for cost in EQUIVALENCE_COSTS:
                t = float(rng.uniform(0.1, 2.0))
                r = weak_infconv(f, t, cost, sp)
                for x, env in enumerate(r.envelopes):
                    ref = reference_envelope(f, x, sp)
                    np.testing.assert_array_equal(env.us, ref.us)
                    np.testing.assert_array_equal(env.vs, ref.vs)
                    assert env.attainers == ref.attainers
                    if len(env.us) < 2:
                        continue
                    s = np.diff(env.vs) / np.diff(env.us)
                    u, _, _ = _segment_argmin(env.us[:-1], env.vs[:-1], env.us[1:],
                                              env.vs[1:], t, cost)
                    inner = (u > env.us[:-1]) & (u < env.us[1:])
                    stationary = s[inner] + cost.deriv(u[inner] / t)
                    assert np.all(np.abs(stationary) <= 1e-10)
                values, intervals = _weak_infconv_loop(f, t, cost, sp)
                np.testing.assert_allclose(r.values, values, rtol=0, atol=1e-12)
                np.testing.assert_allclose(r.u_min, intervals[:, 0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(r.u_max, intervals[:, 1], rtol=0, atol=1e-12)
                assert [(a.u_min, a.u_max) for a in r.argmin] == list(
                    zip(r.u_min.tolist(), r.u_max.tolist()))
