import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from weakhj.cost import power, quadratic
from weakhj.space import build_example, uniform_measure
from weakhj.transport import (
    Coupling,
    SolverError,
    check_transport_entropy,
    classical_transport_cost,
    dual_check,
    dual_sweep,
    relative_entropy,
    transport_oracle_small,
    weak_transport_cost,
    _ot_plan,
)

from randspaces import random_connected_space


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


@pytest.mark.slow
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
        ref = transport_oracle_small(nu, mu, cost, sp)
        assert abs(res.value - ref) < 1e-6


def test_oracle_fixture_and_size_limit():
    sp = build_example("two_point")
    val = transport_oracle_small(np.array([1.0, 0.0]), uniform_measure(2), quadratic(), sp)
    assert_allclose(val, 0.25, atol=1e-8)
    with pytest.raises(ValueError, match="3"):
        transport_oracle_small(
            uniform_measure(4), uniform_measure(4), quadratic(), build_example("hypercube", n=2)
        )


@pytest.mark.slow
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
        weak = weak_transport_cost(nu, mu, cost, sp).value
        classical = classical_transport_cost(nu, mu, cost, sp)
        assert weak <= classical + 1e-9


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
    # nu charging a mu-null point makes the entropy infinite: skipped
    rep = check_transport_entropy(
        np.array([1.0, 0.0]), 0.5, quadratic(), sp,
        sampler=lambda rng, n: np.array([0.5, 0.5]), n_samples=50, seed=0,
    )
    assert rep.iterations == 0


def test_transport_entropy_validation():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    with pytest.raises(ValueError, match="positive"):
        check_transport_entropy(mu, 0.0, quadratic(), sp)
    with pytest.raises(ValueError, match="direction"):
        check_transport_entropy(mu, 0.5, quadratic(), sp, direction="III")
    with pytest.raises(ValueError, match="sampler"):
        check_transport_entropy(mu, 0.5, quadratic(), sp, sampler="other")


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
    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = dual_sweep(mu, 1.0, quadratic(), sp, n_samples=600, seed=7)
    assert rep.verdict == "certified-no-violation"
    # the threshold is approached from below: C = 1 is the tight constant
    assert rep.best_ratio > 0.999
    small = dual_sweep(mu, 0.01, quadratic(), sp, n_samples=600, seed=7)
    assert small.verdict == "violated"
    assert small.best_ratio > 10.0
    cyc = build_example("cycle", n=5)
    mu5 = uniform_measure(5)
    assert dual_sweep(mu5, 2.0, quadratic(), cyc, n_samples=600, seed=7).verdict == \
        "certified-no-violation"
    assert dual_sweep(mu5, 0.02, quadratic(), cyc, n_samples=600, seed=7).verdict == \
        "violated"
