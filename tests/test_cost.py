"""Tests for the cost-function family: evaluation, conjugates, beta."""

import math

import numpy as np
import pytest

from weakhj.cost import CostFunction, parse_cost_spec, power, quadratic, quadratic_linear

ALL_COSTS = [
    quadratic(),
    power(3.0),
    power(1.5),
    quadratic_linear(1.0, 1.0),
    quadratic_linear(0.25, 2.0),
]


def test_quadratic_values():
    c = quadratic()
    assert c.eval(2.0) == 2.0
    assert c.deriv(3.0) == 3.0
    assert c.conjugate(1.0) == 0.5
    assert c.beta(1.0) == 0.5
    assert c.conjugate_domain_bound() == math.inf


def test_power_values():
    c = power(3.0)
    assert c.eval(2.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
    # conjugate exponent q = 3/2, so conjugate(1) = 1/q = 2/3
    assert c.conjugate(1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert c.conjugate(4.0) == pytest.approx(4.0 ** 1.5 / 1.5, rel=1e-14)
    assert c.conjugate_domain_bound() == math.inf


def test_quadratic_linear_values():
    c = quadratic_linear(1.0, 1.0)
    # continuity at the knee: both pieces give a h^2
    assert c.eval(1.0) == 1.0
    assert c.eval(0.5) == 0.25
    assert c.eval(2.0) == 3.0          # 2ahx - ah^2 = 4 - 1
    assert c.deriv(0.5) == 1.0
    assert c.deriv(2.0) == 2.0         # saturates at l = 2ah
    assert c.beta(2.0) == 1.0          # 2*2 - 3
    assert c.conjugate(1.0) == 0.25    # y^2 / (4a)
    assert c.conjugate(3.0) == math.inf
    assert c.conjugate_domain_bound() == 2.0


def test_quadratic_linear_scaled_conjugate():
    # with a = 1/(4K), h = 2cK the conjugate is K y^2 on [0, c]
    K, cc = 3.7, 0.8
    c = quadratic_linear(1.0 / (4 * K), 2 * cc * K)
    ys = np.linspace(0.0, cc, 9)
    np.testing.assert_allclose(c.conjugate(ys), K * ys ** 2, rtol=1e-13, atol=1e-15)
    assert c.conjugate_domain_bound() == pytest.approx(cc)
    assert c.conjugate(cc * 1.01) == math.inf


def test_origin_values():
    for c in ALL_COSTS:
        assert c.eval(0.0) == 0.0
        assert c.deriv(0.0) == 0.0
        assert c.beta(0.0) == 0.0
        assert c.conjugate(0.0) == 0.0


def test_beta_conjugate_identity():
    """beta(x) = conjugate(deriv(x)) on a log grid, rel 1e-10."""
    xs = np.logspace(-6, 3, 200)
    for c in ALL_COSTS:
        b = c.beta(xs)
        cd = c.conjugate(c.deriv(xs))
        np.testing.assert_allclose(cd, b, rtol=1e-10, atol=1e-300)


def test_beta_nonneg_nondecreasing():
    xs = np.linspace(0.0, 50.0, 400)
    for c in ALL_COSTS:
        b = c.beta(xs)
        assert np.all(b >= -1e-15)
        assert np.all(np.diff(b) >= -1e-12)


def test_fenchel_young():
    """x y <= eval(x) + conjugate(y), equality at y = deriv(x)."""
    xs = np.linspace(0.0, 8.0, 23)
    for c in ALL_COSTS:
        l = c.conjugate_domain_bound()
        ys = np.linspace(0.0, min(l, 8.0), 23)
        lhs = np.outer(xs, ys)
        rhs = c.eval(xs)[:, None] + c.conjugate(ys)[None, :]
        assert np.all(lhs <= rhs + 1e-12)
        ystar = c.deriv(xs)
        gap = c.eval(xs) + c.conjugate(ystar) - xs * ystar
        np.testing.assert_allclose(gap, 0.0, atol=1e-10)


def test_convexity_and_monotone_deriv():
    xs = np.linspace(0.0, 10.0, 101)
    for c in ALL_COSTS:
        v = c.eval(xs)
        mid = c.eval(0.5 * (xs[:-1] + xs[1:]))
        assert np.all(mid <= 0.5 * (v[:-1] + v[1:]) + 1e-12)
        assert np.all(np.diff(c.deriv(xs)) >= -1e-12)
        # conjugate convex and non-decreasing on its finite domain
        l = min(c.conjugate_domain_bound(), 10.0)
        ys = np.linspace(0.0, l, 101)
        w = c.conjugate(ys)
        assert np.all(np.diff(w) >= -1e-12)
        midw = c.conjugate(0.5 * (ys[:-1] + ys[1:]))
        assert np.all(midw <= 0.5 * (w[:-1] + w[1:]) + 1e-12)


def test_second_derivative_matches_central_differences():
    # the grids straddle qlin's kink at h without touching it, and reach
    # down to 1e-6 where power(3)'s curvature 2x vanishes
    grids = {
        "quadratic": np.linspace(0.0, 5.0, 51),
        "power:p=3": np.concatenate([np.logspace(-6, -1, 11), np.linspace(0.2, 5.0, 25)]),
        "power:p=1.5": np.concatenate([np.logspace(-3, -1, 5), np.linspace(0.2, 5.0, 25)]),
        "qlin:a=1,h=1": np.concatenate([1.0 + np.array([-1e-2, -1e-3, 1e-3, 1e-2]),
                                        np.linspace(0.0, 0.9, 10), np.linspace(1.1, 5.0, 10)]),
        "qlin:a=0.25,h=2": 2.0 + np.array([-0.5, -1e-3, 1e-3, 0.5]),
    }
    for c in ALL_COSTS:
        xs = grids[c.label()]
        step = 1e-5 * np.minimum(xs, 1.0) + 1e-9
        fd = (c.deriv(xs + step) - c.deriv(np.maximum(xs - step, 0.0))) / (
            xs + step - np.maximum(xs - step, 0.0))
        np.testing.assert_allclose(c.deriv2(xs), fd, rtol=1e-5, atol=1e-8, err_msg=c.label())
    assert power(3.0).deriv2(0.0) == 0.0
    assert power(1.5).deriv2(0.0) == math.inf
    qlin = quadratic_linear(1.0, 1.0)
    assert (qlin.deriv2(1.0), qlin.deriv2(1.0 + 1e-12)) == (2.0, 0.0)


def test_conjugate_deriv_inverts_deriv():
    """conjugate_deriv is (alpha')^-1 on [0, 2ah], +inf strictly past qlin's
    bound, and the derivative of conjugate.  The segment minimizer and the
    brute-force oracle both rest on it."""
    for c in ALL_COSTS + [power(4.0), power(2.7)]:
        l = c.conjugate_domain_bound()
        ys = np.concatenate([np.linspace(0.0, min(l, 8.0), 201), np.logspace(-6, 0, 25)
                             * min(l, 8.0)])
        np.testing.assert_allclose(c.deriv(c.conjugate_deriv(ys)), ys, rtol=1e-12, atol=0,
                                   err_msg=c.label())
        if l < math.inf:
            past = l * (1.0 + np.array([1e-15, 1e-9, 0.5]))
            assert np.all(past > l)
            assert np.all(c.conjugate_deriv(past) == math.inf)
        inner = np.linspace(0.05, 0.95, 19) * min(l, 8.0)
        step = 1e-6 * min(l, 8.0)
        fd = (c.conjugate(inner + step) - c.conjugate(inner - step)) / (2.0 * step)
        np.testing.assert_allclose(c.conjugate_deriv(inner), fd, rtol=1e-8, atol=0,
                                   err_msg=c.label())


def test_vectorized_matches_scalar():
    xs = np.linspace(0.0, 5.0, 11)
    for c in ALL_COSTS:
        for name in ("eval", "deriv", "deriv2", "conjugate", "conjugate_deriv", "beta"):
            fn = getattr(c, name)
            vec = fn(xs)
            scal = np.array([fn(float(x)) for x in xs])
            np.testing.assert_array_equal(vec, scal)


def test_parameter_validation():
    with pytest.raises(ValueError):
        power(1.0)
    with pytest.raises(ValueError):
        power(0.5)
    with pytest.raises(ValueError):
        quadratic_linear(0.0, 1.0)
    with pytest.raises(ValueError):
        quadratic_linear(1.0, 0.0)
    with pytest.raises(ValueError):
        quadratic_linear(1.0, math.inf)


def test_quadratic_is_power_two_exactly():
    q, p2 = quadratic(), power(2)
    grid = np.concatenate([[0.0], np.logspace(-8, 3, 2001)])
    for name in ("eval", "deriv", "deriv2", "conjugate", "conjugate_deriv", "beta"):
        a, b = getattr(q, name), getattr(p2, name)
        assert np.array_equal(a(grid), b(grid)), name
        assert [a(float(x)) for x in grid] == [b(float(x)) for x in grid], name


def test_quadratic_rejects_other_exponents():
    with pytest.raises(ValueError, match="p = 2"):
        CostFunction("quadratic", p=3)
    assert CostFunction("quadratic", p=2).label() == "quadratic"


def test_parse_cost_spec():
    assert parse_cost_spec("quadratic").kind == "quadratic"
    c = parse_cost_spec("power:p=3")
    assert c.kind == "power" and c.p == 3.0
    c = parse_cost_spec("qlin:a=0.25,h=2")
    assert c.kind == "qlin" and c.a == 0.25 and c.h == 2.0
    for bad in ("cubic", "power", "power:q=3", "qlin:a=0.25", "power:p=1", "qlin:a=-1,h=2"):
        with pytest.raises(ValueError):
            parse_cost_spec(bad)


def test_labels():
    assert "quadratic" in quadratic().label()
    assert "3" in power(3.0).label()
    assert "0.25" in quadratic_linear(0.25, 2.0).label()
