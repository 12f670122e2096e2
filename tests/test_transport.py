import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from weakhj import transport
from weakhj.cost import parse_cost_spec, power, quadratic, quadratic_linear
from weakhj.funcineq import hypercontractivity_sweep
from weakhj.space import MetricSpace, build_example, uniform_measure
from weakhj.transport import (
    Coupling,
    SolverError,
    check_transport_entropy,
    classical_transport_cost,
    dual_check,
    relative_entropy,
    transport_oracle_small,
    weak_transport_cost,
    _line_search,
    _ot_plan,
    _sample_measure,
)

from randspaces import example_spaces, random_connected_space


def test_relative_entropy_fixtures():
    mu = uniform_measure(2)
    assert_allclose(relative_entropy([1.0, 0.0], mu), math.log(2), rtol=1e-14)
    assert relative_entropy(mu, [1.0, 0.0]) == math.inf
    assert relative_entropy(mu, mu) == 0.0
    assert relative_entropy([0.25, 0.75], [0.75, 0.25]) > 0


def test_relative_entropy_zero_only_at_equality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        h = relative_entropy(nu, mu)
        assert h > 0
        assert relative_entropy(mu, mu) == 0.0


def _linear_plan_cases():
    rng = np.random.default_rng(2)
    for _ in range(40):
        ns = int(rng.integers(2, 7))
        nd = int(rng.integers(2, 7))
        yield rng.random((ns, nd)), rng.dirichlet(np.ones(ns)), rng.dirichlet(np.ones(nd))
    for ns, nd in [(1, 1), (1, 2), (1, 6), (2, 1), (6, 1)]:
        yield rng.random((ns, nd)), rng.dirichlet(np.ones(ns)), rng.dirichlet(np.ones(nd))
    for k in range(60):
        # integer costs tie everywhere; integer masses put zeros in the
        # histograms and make many partial sums equal
        ns = 1 if k % 10 == 0 else int(rng.integers(2, 8))
        nd = 1 if k % 10 == 5 else int(rng.integers(2, 8))
        sup = rng.integers(0, 4, ns).astype(float) + (np.arange(ns) == 0)
        dem = rng.integers(0, 4, nd).astype(float) + (np.arange(nd) == nd - 1)
        yield rng.integers(0, 3, (ns, nd)).astype(float), sup / sup.sum(), dem / dem.sum()
    spaces = example_spaces()
    for k in range(60):
        # the costs the solvers pass, a metric scaled row by row: zero on
        # the diagonal, so the plan starts from shipping each point's
        # common mass to itself.  Integer scales zero whole rows and, on
        # the integer example metrics, tie everywhere; integer masses put
        # zeros in both histograms
        sp = spaces[k % len(spaces)] if k % 2 else random_connected_space(rng)
        n = sp.n
        scale = rng.integers(0, 3, n).astype(float)
        if k % 4 == 3:
            scale *= rng.random(n)
        if k % 3 == 0:
            sup, dem = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        else:
            sup = rng.integers(0, 3, n).astype(float) + (np.arange(n) == 0)
            dem = rng.integers(0, 3, n).astype(float) + (np.arange(n) == n - 1)
        yield scale[:, None] * sp.dist, sup / sup.sum(), dem / dem.sum()


def test_linear_plan_matches_linprog():
    for costs, sup, dem in _linear_plan_cases():
        ns, nd = costs.shape
        plan = _ot_plan(costs, sup, dem)
        assert plan.min() >= 0.0
        assert_allclose(plan.sum(axis=1), sup, atol=1e-10)
        assert_allclose(plan.sum(axis=0), dem, atol=1e-10)
        a_eq = np.zeros((ns + nd - 1, ns * nd))
        for i in range(ns):
            a_eq[i, i * nd:(i + 1) * nd] = 1.0
        for j in range(nd - 1):
            a_eq[ns + j, j::nd] = 1.0
        ref = linprog(
            costs.ravel(), A_eq=a_eq, b_eq=np.concatenate([sup, dem[:-1]]),
            bounds=(0, None), method="highs",
        )
        assert ref.success
        assert_allclose(np.sum(costs * plan), ref.fun, atol=1e-9)


def _bisection_line_search(mu, pos, means, dm, cost, gmax):
    # the reference: 80 halvings of [0, gmax] on the sign of the slope
    def slope(g):
        return float(np.sum(mu[pos] * dm[pos] * cost.deriv(means[pos] + g * dm[pos])))

    if slope(gmax) <= 0:
        return gmax
    lo, hi = 0.0, gmax
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("cost", [power(1.5), power(3), power(4),
                                  quadratic_linear(0.25, 1.0), quadratic(), power(2)])
def test_line_search_matches_bisection(cost):
    # row means in [0, 2] cross the qlin kink at h = 1, and rows at mean 0
    # give p = 1.5 an infinite curvature
    rng = np.random.default_rng(8)
    for k in range(200):
        n = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n))
        if k % 4 == 0:
            mu[0] = 0.0
            mu /= mu.sum()
        means = 2.0 * rng.random(n)
        target = 2.0 * rng.random(n)
        means[rng.random(n) < 0.3] = 0.0
        target[rng.random(n) < 0.3] = 0.0
        gmax = (0.5, 1.0, 2.0)[k % 3]
        dm = (target - means) / gmax
        args = (mu, mu > 0, means, dm, cost, gmax)
        assert abs(_line_search(*args) - _bisection_line_search(*args)) <= 1e-12, k

    # every row mean grows, so the slope at 0 is >= 0 and the answer is 0;
    # the slope at 0 is exactly 0 when every row starts at mean 0
    for k in range(100):
        n = int(rng.integers(2, 9))
        mu = rng.dirichlet(np.ones(n))
        means = np.zeros(n) if k % 2 else 2.0 * rng.random(n)
        dm = rng.random(n)
        dm[rng.random(n) < 0.3] = 0.0
        dm[0] = 1.0
        args = (mu, mu > 0, means, dm, cost, (0.5, 1.0, 2.0)[k % 3])
        assert _line_search(*args) == 0.0, k
        assert _bisection_line_search(*args) <= 1e-12, k


@pytest.mark.parametrize("sup, dem", [
    ([0.5, 0.5], [0.3, 0.3]), ([0.3, 0.3], [0.5, 0.5]),
    ([0.2, 0.2, 0.2, 0.2, 0.2], [0.1, 0.6]), ([1.0], [0.5, 0.25, 0.125])])
def test_unbalanced_histograms_raise(sup, dem):
    costs = np.random.default_rng(4).random((len(sup), len(dem)))
    with pytest.raises(SolverError, match="transport subproblem"):
        _ot_plan(costs, np.array(sup), np.array(dem))


def test_weak_cost_dirac_target():
    # every kernel row must concentrate at point 0; the far row pays alpha(1)
    sp = build_example("two_point")
    mu = uniform_measure(2)
    res = weak_transport_cost(np.array([1.0, 0.0]), mu, quadratic(), sp)
    assert res.converged
    assert_allclose(res.value, 0.25, atol=1e-12)
    assert_allclose(res.coupling.matrix, [[0.5, 0.0], [0.5, 0.0]], atol=1e-12)
    assert_allclose(res.coupling.kernels(), [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)


def test_weak_cost_is_asymmetric():
    # spreading a Dirac costs alpha at the mean, concentrating costs more
    sp = build_example("two_point")
    mu = uniform_measure(2)
    dirac = np.array([1.0, 0.0])
    spread = weak_transport_cost(mu, dirac, quadratic(), sp).value
    concentrate = weak_transport_cost(dirac, mu, quadratic(), sp).value
    assert_allclose(spread, 0.125, atol=1e-12)
    assert_allclose(concentrate, 0.25, atol=1e-12)
    assert spread < concentrate


@pytest.mark.parametrize("kind, n, nu, mu", [
    ("two_point", None, [0.8, 0.2], [0.3, 0.7]),
    ("hypercube", 2, [0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25]),
    ("hypercube", 2, [0.1, 0.2, 0.3, 0.4], [0.5, 0.0, 0.2, 0.3]),
])
def test_power_two_solves_exactly_like_quadratic(kind, n, nu, mu):
    space = build_example(kind, n)
    a = weak_transport_cost(nu, mu, power(2), space)
    b = weak_transport_cost(nu, mu, quadratic(), space)
    assert (a.value, a.gap, a.iterations, a.converged) == (
        b.value, b.gap, b.iterations, b.converged)
    assert np.array_equal(a.coupling.matrix, b.coupling.matrix)


def test_weak_cost_zero_iff_equal():
    rng = np.random.default_rng(11)
    for k in range(40):
        sp = random_connected_space(rng, n_max=7)
        if sp.n < 2:
            continue
        mu = rng.dirichlet(np.ones(sp.n))
        nu = rng.dirichlet(np.ones(sp.n))
        if 0.5 * np.abs(mu - nu).sum() < 0.05:
            continue
        cost = quadratic() if k % 2 else power(p=3)
        assert weak_transport_cost(nu, mu, cost, sp).value > 1e-5
    sp = build_example("cycle", n=5)
    mu = rng.dirichlet(np.ones(5))
    res = weak_transport_cost(mu, mu, quadratic(), sp)
    assert res.value == 0.0
    assert res.gap == 0.0
    assert_allclose(res.coupling.matrix, np.diag(mu), atol=0)
    assert_allclose(res.coupling.kernels(), np.eye(5), atol=0)


def test_coupling_marginals_and_validation():
    rng = np.random.default_rng(11)
    for k in range(30):
        sp = random_connected_space(rng, n_max=7)
        if sp.n < 2:
            continue
        mu = rng.dirichlet(np.ones(sp.n))
        nu = rng.dirichlet(np.ones(sp.n))
        cost = quadratic() if k % 2 else power(p=3)
        res = weak_transport_cost(nu, mu, cost, sp)
        assert_allclose(res.coupling.matrix.sum(axis=1), mu, atol=1e-10)
        assert_allclose(res.coupling.second_marginal(), nu, atol=1e-8)
    with pytest.raises(ValueError, match="row"):
        Coupling(np.eye(2), np.array([0.75, 0.25]))
    with pytest.raises(ValueError, match="negative"):
        Coupling(np.array([[0.75, -0.25], [0.0, 0.5]]), np.array([0.5, 0.5]))


def test_null_mass_kernel_rows_are_diagonal():
    sp = build_example("path", n=3)
    mu = np.array([0.5, 0.0, 0.5])
    nu = np.array([0.25, 0.5, 0.25])
    res = weak_transport_cost(nu, mu, quadratic(), sp)
    kern = res.coupling.kernels()
    assert_allclose(res.coupling.matrix[1], 0.0, atol=0)
    assert_allclose(kern[1], [0.0, 1.0, 0.0], atol=0)
    assert_allclose(kern[0].sum(), 1.0, atol=1e-12)


def assert_in_bracket(ref, res):
    """The oracle lies between the solver's certified lower bound and its value."""
    assert res.value - res.gap - 1e-12 <= ref <= res.value + 1e-9, (ref, res.value, res.gap)


def test_weak_cost_matches_small_space_oracle():
    rng = np.random.default_rng(3)
    for k in range(100):
        n = int(rng.integers(2, 4))
        if n == 2:
            sp = build_example("two_point")
        elif k % 2:
            sp = build_example("path", n=3)
        else:
            sp = build_example("complete", n=3)
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        cost = quadratic() if k % 3 else power(p=3)
        res = weak_transport_cost(nu, mu, cost, sp)
        assert res.converged
        assert_in_bracket(transport_oracle_small(nu, mu, cost, sp), res)


@pytest.mark.parametrize("spec", ["power:p=1.5", "power:p=3", "power:p=4",
                                  "qlin:a=0.25,h=0.5", "qlin:a=1,h=2"])
@pytest.mark.parametrize("space", ["two_point", "path:3", "complete:3", "cycle:3"])
def test_oracle_brackets_solver_across_costs(spec, space):
    kind, _, size = space.partition(":")
    sp = build_example(kind, int(size)) if size else build_example(kind)
    cost = parse_cost_spec(spec)
    rng = np.random.default_rng(11)
    for k in range(12):
        mu = rng.dirichlet(np.ones(sp.n))
        nu = rng.dirichlet(np.ones(sp.n))
        if k % 3 == 1:  # a mu-null point
            mu[k % sp.n] = 0.0
            mu /= mu.sum()
        elif k % 3 == 2:  # one-hot nu
            nu = np.eye(sp.n)[k % sp.n]
        res = weak_transport_cost(nu, mu, cost, sp, gap_tol=1e-12)
        assert res.converged
        assert_in_bracket(transport_oracle_small(nu, mu, cost, sp), res)


def test_oracle_value_is_that_of_a_feasible_plan():
    # SLSQP parks 5e-12 of mass on the free diagonal entry of the column
    # nu leaves empty; priced as returned, that plan costs 5e-12 less
    # than the minimum
    sp = build_example("complete", 3)
    mu = np.array([0.9375435557502133, 0.05063097456579422, 0.01182546968399257])
    nu = np.array([0.9485288291769219, 0.051471170823078075, 0.0])
    res = weak_transport_cost(nu, mu, power(p=3), sp, gap_tol=1e-12)
    assert_in_bracket(transport_oracle_small(nu, mu, power(p=3), sp), res)


def test_oracle_fixture_and_size_limit():
    sp = build_example("two_point")
    val = transport_oracle_small(np.array([1.0, 0.0]), uniform_measure(2), quadratic(), sp)
    assert_allclose(val, 0.25, atol=1e-8)
    with pytest.raises(ValueError, match="3"):
        transport_oracle_small(
            uniform_measure(4), uniform_measure(4), quadratic(), build_example("hypercube", n=2)
        )


def test_jensen_dominated_by_classical_cost():
    # averaging distances before applying the convex cost can only help
    rng = np.random.default_rng(17)
    for k in range(40):
        sp = random_connected_space(rng, n_max=7)
        if sp.n < 2:
            continue
        mu = rng.dirichlet(np.ones(sp.n))
        nu = rng.dirichlet(np.ones(sp.n))
        cost = quadratic() if k % 2 else power(p=4)
        res = weak_transport_cost(nu, mu, cost, sp)
        assert res.converged, k
        classical = classical_transport_cost(nu, mu, cost, sp)
        assert res.value <= classical + 1e-9


def _hypercube_draws(count):
    # the mixed sampler's law on hypercube:3: odd draws charge two points
    rng = np.random.default_rng(5)
    return [_sample_measure(rng, 8, k, "mixed") for k in range(count)]


def test_flat_curvature_instance_converges():
    # power(3) has alpha''(0) = 0; pairwise Frank-Wolfe needed 324
    # iterations here and stopped at value 0.0252060692 with gap 8.1e-9
    nu = _hypercube_draws(31)[30]
    res = weak_transport_cost(uniform_measure(8), nu, power(3), build_example("hypercube", 3))
    assert res.converged
    assert res.gap <= 1e-8
    assert abs(res.value - 0.0252060692) <= 1e-8


def test_hypercube_power_three_set_converges():
    # Frank-Wolfe left one of these 200 solves unconverged at 10 000 iterations
    sp = build_example("hypercube", 3)
    mu = uniform_measure(8)
    for k, nu in enumerate(_hypercube_draws(100)):
        for pair in ((mu, nu), (nu, mu)):
            res = weak_transport_cost(*pair, power(3), sp)
            assert res.converged and res.gap <= 1e-8, k
            assert_allclose(res.coupling.second_marginal(), pair[0], atol=1e-10)


def test_unconverged_run_is_flagged():
    sp = build_example("path", n=3)
    mu = np.array([0.61706218, 0.37909936, 0.00383847])
    mu /= mu.sum()
    nu = np.array([0.35566258, 0.27305227, 0.37128515])
    nu /= nu.sum()
    res = weak_transport_cost(nu, mu, power(p=3), sp, max_iter=1)
    assert not res.converged
    assert res.gap > 1e-8
    assert res.iterations == 1


def test_transport_entropy_two_point_certified_at_half():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    for direction in ("I", "II"):
        rep = check_transport_entropy(
            mu, 0.5, quadratic(), sp, direction=direction, n_samples=1000, seed=7
        )
        assert rep.verdict == "certified-no-violation"
        assert 0.49 < rep.best_ratio < 0.5
        assert rep.iterations == 1000


def test_transport_entropy_detects_undersized_constant():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = check_transport_entropy(
        mu, 0.4, quadratic(), sp, direction="II", n_samples=200, seed=7
    )
    assert rep.verdict == "violated"
    assert rep.witness is not None
    # the recorded witness reproduces the reported ratio
    tv = weak_transport_cost(rep.witness, mu, quadratic(), sp).value
    assert_allclose(tv / relative_entropy(rep.witness, mu), rep.best_ratio, rtol=1e-9)


def test_transport_entropy_hypercube_quarter_is_violated():
    # sampled ratios reach the same scale as the variance-to-energy
    # constant of this space (about 0.82 near mu), far above 1/4
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    rep = check_transport_entropy(
        mu, 0.25, quadratic(), sp, direction="I", n_samples=300, seed=7
    )
    assert rep.verdict == "violated"
    assert rep.best_ratio > 0.6


def test_transport_entropy_skips_degenerate_samples():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = check_transport_entropy(
        mu, 0.5, quadratic(), sp, sampler=lambda rng, n: mu, n_samples=50, seed=0
    )
    assert rep.iterations == 0
    assert rep.best_ratio == 0.0
    assert rep.verdict == "inconclusive"
    # nu charging a mu-null point makes the entropy infinite: skipped
    rep = check_transport_entropy(
        np.array([1.0, 0.0]), 0.5, quadratic(), sp,
        sampler=lambda rng, n: np.array([0.5, 0.5]), n_samples=50, seed=0,
    )
    assert rep.iterations == 0
    assert rep.verdict == "inconclusive"


def test_transport_entropy_validation():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    with pytest.raises(ValueError, match="positive"):
        check_transport_entropy(mu, 0.0, quadratic(), sp)
    with pytest.raises(ValueError, match="direction"):
        check_transport_entropy(mu, 0.5, quadratic(), sp, direction="III")
    with pytest.raises(ValueError, match="sampler"):
        check_transport_entropy(mu, 0.5, quadratic(), sp, sampler="other")


def test_transport_entropy_records_solver_telemetry():
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    rep = check_transport_entropy(mu, 0.25, power(3), sp, n_samples=40, seed=3)
    solver = rep.details["solver"]
    assert set(solver) == {"calls", "unconverged", "iterations_p50",
                           "iterations_max", "worst_gap"}
    # one solve per evaluated sample
    assert solver["calls"] == rep.iterations
    assert solver["unconverged"] == 0
    assert 1 <= solver["iterations_p50"] <= solver["iterations_max"]
    assert 0.0 <= solver["worst_gap"] <= 1e-8
    again = check_transport_entropy(mu, 0.25, power(3), sp, n_samples=40, seed=3)
    assert again.details == rep.details


def test_transport_entropy_gap_at_rounding_floor_converges():
    # T is about 9 here and H about 4e-8: the gap tolerance 1e-9 H sits
    # below what a gap summed from terms of size ~T can resolve, so the
    # solve must stop on the rounding floor of the gap, not stall on it
    sp = MetricSpace(1e4 * build_example("path", 3).dist)
    mu = uniform_measure(3)
    nu = np.array([0.33322670832497164, 0.33331788656295586, 0.3334554051120724])
    nu /= nu.sum()
    rep = check_transport_entropy(mu, 1e9, power(3), sp, direction="II",
                                  sampler=lambda rng, n: nu, n_samples=1)
    assert rep.verdict == "certified-no-violation"
    assert rep.iterations == 1
    assert rep.details["solver"]["unconverged"] == 0


def test_gap_rounding_floor_counts_both_sums():
    # gap = sum grad pi - sum grad target, and both sums are about the
    # value: a floor taken from the differenced terms, which vanish at the
    # optimum, left 10 of these solves unconverged on a held vertex
    sp = MetricSpace(1e3 * build_example("cycle", 5).dist)
    rng = np.random.default_rng(11)
    for k in range(600):
        mu, nu = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        res = weak_transport_cost(nu, mu, quadratic(), sp, gap_tol=1e-15)
        assert res.converged, k
        assert res.gap <= 1e-14 * res.value, k


def test_transport_entropy_unconverged_solve_is_inconclusive(monkeypatch):
    # every solve starved at one round: no certified violation below C
    # means nothing was settled, while (value - gap)/H above C still is one
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    starved = functools.partial(weak_transport_cost, max_iter=1)
    monkeypatch.setattr(transport, "weak_transport_cost", starved)
    rep = check_transport_entropy(mu, 0.5, quadratic(), sp, n_samples=100, seed=7)
    assert rep.details["solver"]["unconverged"] == rep.iterations == 100
    assert rep.details["certified_ratio"] < 0.5
    assert rep.verdict == "inconclusive"
    rep = check_transport_entropy(mu, 0.25, quadratic(), sp, n_samples=100, seed=7)
    assert rep.details["certified_ratio"] > 0.25
    assert rep.verdict == "violated"


@pytest.mark.parametrize("kind, n, cost, direction, certified, verdict", [
    ("hypercube", 3, quadratic(), "I", 0.586290891356071, "certified-no-violation"),
    ("hypercube", 3, quadratic(), "II", 0.7457724752594378, "certified-no-violation"),
    ("cycle", 6, power(3), "II", 1.3837062514463563, "violated"),
])
def test_transport_entropy_sweep_keeps_certified_ratio(kind, n, cost, direction,
                                                       certified, verdict):
    # certified ratios of these 200-sample sweeps before each sample was
    # solved once at 1e-9 H (a loose pass, then the top three re-solved)
    sp = build_example(kind, n)
    rep = check_transport_entropy(uniform_measure(sp.n), 1.0, cost, sp,
                                  direction=direction, n_samples=200, seed=0)
    assert rep.details["certified_ratio"] >= certified - 1e-9
    assert rep.verdict == verdict
    assert rep.details["solver"]["calls"] == rep.iterations == 200


def test_transport_entropy_reproducible():
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    a = check_transport_entropy(mu, 0.25, quadratic(), sp, n_samples=100, seed=3)
    b = check_transport_entropy(mu, 0.25, quadratic(), sp, n_samples=100, seed=3)
    assert a.best_ratio == b.best_ratio
    assert np.array_equal(a.witness, b.witness)


def test_dual_two_point_fixture():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    out = dual_check(mu, 0.5, [1.0, 0.0], quadratic(), sp)
    assert out["holds"]
    assert_allclose(out["lhs"], (math.e**2 + 1) / 2, rtol=1e-12)
    assert_allclose(out["rhs"], math.e**2, rtol=1e-12)
    with pytest.raises(ValueError, match="positive"):
        dual_check(mu, -1.0, [1.0, 0.0], quadratic(), sp)


def test_dual_constant_functions_are_tight():
    sp = build_example("cycle", n=5)
    mu = uniform_measure(5)
    out = dual_check(mu, 1.0, np.full(5, 2.7), quadratic(), sp)
    assert out["holds"]
    assert abs(out["margin"]) < 1e-12


def test_dual_sweep_certifies_and_detects():
    # the dual bound's sweep is norm growth at (rho, t) = (0, 1); its ratio
    # is the norm ratio, the (2/C)-th root of the dual LHS/RHS ratio, so a
    # bound b on the dual ratio reads b ** (C/2) on it
    def sweep(mu, C, sp):
        return hypercontractivity_sweep(mu, C, 0.0, 1.0, quadratic(), sp,
                                        n_samples=600, seed=7)

    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = sweep(mu, 1.0, sp)
    assert rep.verdict == "certified-no-violation"
    # the threshold is approached from below: C = 1 is the tight constant
    assert rep.best_ratio > 0.999 ** 0.5
    small = sweep(mu, 0.01, sp)
    assert small.verdict == "violated"
    assert small.best_ratio > 10.0 ** 0.005
    cyc = build_example("cycle", n=5)
    mu5 = uniform_measure(5)
    assert sweep(mu5, 2.0, cyc).verdict == "certified-no-violation"
    assert sweep(mu5, 0.02, cyc).verdict == "violated"
