"""End-to-end acceptance checks binding every module together.

Each test is one line of the release gate: closed-form fixtures, oracle
agreement, property sweeps, the constant-chasing chain, and the CLI-level
reports.  Tolerances are stated inline; seeds are frozen so every run
measures the same instances.  Two checks assert statements that are
mathematically false as stated; they run faithfully and are marked
xfail(strict=True) with the measured countercase in the reason.
"""
import time

import numpy as np
import mpmath as mp
import pytest

from weakhj.space import build_example, build_from_graph, uniform_measure
from weakhj.cost import quadratic, power, quadratic_linear
from weakhj.calculus import (
    weak_infconv,
    weak_infconv_bruteforce,
    time_derivative,
    gradient_envelope_identity,
)
from weakhj.hj import hj_residual, hj_boundary, obstruction_search
from weakhj.funcineq import (
    poincare_estimate,
    mlsi_verify,
    hypercontractivity_check,
    hypercontractivity_sweep,
    bobkov_ledoux_params,
    qlin_scaling_check,
    appendix_checks,
    lipschitz_seminorm,
)
from weakhj.transport import (
    weak_transport_cost,
    transport_oracle_small,
    check_transport_entropy,
)
from weakhj.reports import chain_report, constants_report, hypercube_report

ALL_COSTS = [quadratic(), power(1.5), power(3.0), quadratic_linear(1.0, 1.0)]
SWEEP_SPACES = [
    ("two_point", None),
    ("path", 5),
    ("cycle", 6),
    ("complete", 4),
    ("hypercube", 3),
]
CHAIN_SPACES = [("two_point", None), ("hypercube", 2)]


def _random_connected_space(rng, n):
    # random spanning tree plus extra weighted edges
    edges = [
        (i, int(rng.integers(0, i)), float(rng.uniform(0.3, 2.0)))
        for i in range(1, n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((i, j, float(rng.uniform(0.3, 2.0))))
    return build_from_graph(n, edges)


def _oracle_instances(seed=0, count=100):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        sp = _random_connected_space(rng, n)
        f = rng.normal(0.0, 1.0, n) * float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.1, 3.0))
        yield sp, f, t


def _chain_constant(space, restarts=24, seed=0):
    mu = uniform_measure(space.n)
    est = mlsi_verify(mu, 1.0, quadratic(), "I", space, restarts=restarts, seed=seed)
    return mu, est


def test_two_point_closed_forms_exact():
    start = time.perf_counter()
    sp = build_example("two_point")
    f = np.array([1.0, 0.0])
    cost = quadratic()
    for t in np.linspace(0.05, 0.95, 19):
        res = weak_infconv(f, t, cost, sp)
        np.testing.assert_allclose(res.values[0], 1.0 - t / 2.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.values[1], 0.0, rtol=0, atol=1e-12)
        deriv = time_derivative(f, t, cost, sp, result=res)
        np.testing.assert_allclose(deriv[0], -0.5, rtol=0, atol=1e-12)
        rep = hj_residual(f, t, cost, sp)
        expected = -0.5 + (1.0 - t / 2.0) ** 2 / 2.0
        np.testing.assert_allclose(rep.residuals[0], expected, rtol=0, atol=1e-12)
        assert rep.residuals[0] < 0.0
    assert time.perf_counter() - start < 1.0


def test_weak_infconv_matches_bruteforce_oracle():
    start = time.perf_counter()
    worst = 0.0
    for sp, f, t in _oracle_instances(seed=0):
        for cost in ALL_COSTS:
            vals = weak_infconv(f, t, cost, sp).values
            ref = weak_infconv_bruteforce(f, t, cost, sp)
            worst = max(worst, float(np.max(np.abs(vals - ref) / (1.0 + np.abs(vals)))))
    assert worst <= 1e-12
    assert time.perf_counter() - start < 30.0


def test_time_derivative_matches_central_differences():
    worst = 0.0
    for sp, f, t in _oracle_instances(seed=0):
        for cost in ALL_COSTS:
            analytic = time_derivative(f, t, cost, sp)
            eps = 1e-5 * t
            central = (
                weak_infconv(f, t + eps, cost, sp).values
                - weak_infconv(f, t - eps, cost, sp).values
            ) / (2.0 * eps)
            rel = np.abs(analytic - central) / np.maximum(np.abs(analytic), 1e-8)
            worst = max(worst, float(rel.max()))
    assert worst <= 1e-4


def test_residual_nonpositive_across_property_sweep():
    violations = 0
    for kind, n in SWEEP_SPACES:
        sp = build_example(kind, n)
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(0.0, 1.0, sp.n) * float(rng.uniform(0.5, 3.0))
            for cost in ALL_COSTS:
                for t in (0.1, 0.7, 2.0):
                    rep = hj_residual(f, t, cost, sp)
                    if rep.conjugate_infinite or rep.max_residual > 1e-9:
                        violations += 1
    assert violations == 0


def test_boundary_limit_matches_conjugate_of_gradient():
    worst = 0.0
    for kind, n in SWEEP_SPACES:
        sp = build_example(kind, n)
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(0.0, 1.0, sp.n) * float(rng.uniform(0.5, 3.0))
            for cost in ALL_COSTS:
                rep = hj_boundary(f, cost, sp)
                if rep.max_error is not None and np.isfinite(rep.max_error):
                    worst = max(worst, rep.max_error)
    assert worst <= 1e-6


def test_gradient_equals_envelope_slope_exhaustively():
    spaces = [build_example("two_point")]
    spaces += [build_example("path", k) for k in (3, 5, 7)]
    spaces += [build_example("cycle", k) for k in (4, 6, 7)]
    spaces += [build_example("complete", k) for k in (3, 5, 7)]
    spaces += [build_example("hypercube", 2)]
    rng = np.random.default_rng(2)
    for _ in range(5):
        spaces.append(_random_connected_space(rng, int(rng.integers(3, 8))))
    worst = 0.0
    for sp in spaces:
        for _ in range(50):
            f = rng.normal(0.0, 1.0, sp.n) * float(rng.uniform(0.5, 3.0))
            for x in range(sp.n):
                res = gradient_envelope_identity(f, x, sp)
                if res["verdict"] == "equal":
                    worst = max(worst, abs(res["gradient"] - res["abs_first_slope"]))
    assert worst <= 1e-10


def test_transport_fixture_and_small_space_oracle():
    sp2 = build_example("two_point")
    fixture = weak_transport_cost(
        np.array([1.0, 0.0]), uniform_measure(2), quadratic(), sp2
    )
    assert abs(fixture.value - 0.25) <= 1e-6
    assert fixture.gap <= 1e-8
    assert fixture.converged

    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        if n == 2:
            sp = sp2
        else:
            edges = [
                (i, int(rng.integers(0, i)), float(rng.uniform(0.5, 1.5)))
                for i in range(1, n)
            ]
            if rng.random() < 0.5:
                edges.append((0, n - 1, float(rng.uniform(0.5, 1.5))))
            sp = build_from_graph(n, edges)
        mu = rng.dirichlet(np.ones(n) * 2.0)
        nu = rng.dirichlet(np.ones(n) * 2.0)
        fw = weak_transport_cost(nu, mu, quadratic(), sp, gap_tol=1e-10, max_iter=20000)
        ref = transport_oracle_small(nu, mu, quadratic(), sp)
        assert fw.value - fw.gap - 1e-12 <= ref <= fw.value + 1e-9


def test_entropy_transport_dual_chain_coheres():
    for kind, n in CHAIN_SPACES:
        sp = build_example(kind, n)
        mu, est = _chain_constant(sp)
        assert est.verdict == "certified-no-violation"
        c_m = est.best_ratio
        for direction in ("I", "II"):
            te = check_transport_entropy(
                mu, c_m, quadratic(), sp, direction=direction, n_samples=1000, seed=0
            )
            assert te.verdict == "certified-no-violation", (kind, direction, te.best_ratio)
        dual = hypercontractivity_sweep(mu, 2.0 * c_m, 0.0, 1.0, quadratic(), sp,
                                        n_samples=1000, seed=0)
        assert dual.verdict == "certified-no-violation"
        # sensitivity: a constant 100x too small must be caught by every leg
        small = c_m / 100.0
        for direction in ("I", "II"):
            te = check_transport_entropy(
                mu, small, quadratic(), sp, direction=direction, n_samples=1000, seed=0
            )
            assert te.verdict == "violated"
        assert hypercontractivity_sweep(mu, 2.0 * small, 0.0, 1.0, quadratic(), sp,
                                        n_samples=1000, seed=0).verdict == "violated"


@pytest.mark.parametrize("kind, n, C", [
    ("hypercube", 2, 0.4097),   # half the entropy estimate 0.81943
    ("cycle", 6, 0.6137),       # half the entropy estimate 1.22738
    ("hypercube", 2, 0.65554),  # 0.8 x the estimate
])
def test_chain_norm_growth_legs_catch_small_constants(kind, n, C):
    sp = build_example(kind, n)
    rep = chain_report(sp, C=C, restarts=2, samples=300, seed=0)
    for leg in (rep["dual"], *rep["hypercontractivity"]):
        assert leg["verdict"] == "violated"
        d = leg["details"]
        out = hypercontractivity_check(uniform_measure(sp.n), rep["chain_constant"],
                                       leg["witness"], d["rho"], d["t"], sp)
        assert not out["holds"]
    assert rep["coherent"] is False


def test_norm_growth_nonnegative_exponents():
    for kind, n in CHAIN_SPACES:
        sp = build_example(kind, n)
        mu, est = _chain_constant(sp)
        chain_c = 2.0 * est.best_ratio
        rng = np.random.default_rng(3)
        violations = 0
        for _ in range(100):
            f = rng.normal(0.0, 1.0, sp.n) * float(rng.uniform(0.5, 2.0))
            for rho in (0.0, 0.5, 1.0):
                for t in (0.25, 0.5, 1.0, 2.0):
                    out = hypercontractivity_check(mu, chain_c, f, rho, t, sp)
                    violations += not out["holds"]
        assert violations == 0


@pytest.mark.xfail(
    strict=True,
    reason="norm growth with negative starting exponent fails as stated: "
    "with the certified chain constant, 364/500 sampled (f, t) pairs on the "
    "two-point space and 50/500 on the square violate the claimed bound for "
    "starting exponent -1 on 0 <= t < C/2; the admissible-range claim is "
    "false, not an implementation gap",
)
def test_norm_growth_negative_exponent():
    for kind, n in CHAIN_SPACES:
        sp = build_example(kind, n)
        mu, est = _chain_constant(sp)
        chain_c = 2.0 * est.best_ratio
        rng = np.random.default_rng(3)
        violations = 0
        for _ in range(100):
            f = rng.normal(0.0, 1.0, sp.n) * float(rng.uniform(0.5, 2.0))
            for t in np.linspace(0.0, chain_c / 2.0, 6)[:-1]:
                out = hypercontractivity_check(mu, chain_c, f, -1.0, float(t), sp)
                violations += not out["holds"]
        assert violations == 0


def test_two_point_poincare_is_one_half():
    sp = build_example("two_point")
    est = poincare_estimate(uniform_measure(2), sp, restarts=64, seed=0)
    assert 0.5 - 1e-6 <= est.best_ratio <= 0.5 + 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="the diameter bound C_P <= D^2/2 fails on the complete graph on "
    "4 points: the certified estimate is 3/4 against D^2/2 = 1/2 (attained "
    "by an indicator function); the bound holds on the other sweep spaces",
)
def test_poincare_diameter_bound_across_sweep():
    for kind, n in SWEEP_SPACES:
        sp = build_example(kind, n)
        est = poincare_estimate(uniform_measure(sp.n), sp, restarts=64, seed=0)
        assert est.best_ratio <= sp.diameter**2 / 2.0 + 1e-9, (kind, est.best_ratio)


def test_quadratic_linear_constant_chain():
    C, c = 0.5, 1.0
    assert c < 2.0 / np.sqrt(C)
    params = bobkov_ledoux_params(C, c)

    mp.mp.dps = 60
    Cm, cm = mp.mpf("0.5"), mp.mpf(1)
    root = mp.sqrt(Cm)
    frac = (2 + 2 * mp.e**2 + cm * root) / (2 - cm * root)
    K_ref = Cm / 2 * frac * frac * mp.e ** (cm * mp.sqrt(5 * Cm))
    assert abs(params["K"] - float(K_ref)) / float(K_ref) <= 1e-12

    sp = build_example("two_point")
    mu = uniform_measure(2)
    cost = quadratic_linear(params["a"], params["h"])
    rep = mlsi_verify(mu, params["K"], cost, "I", sp, restarts=24, seed=0)
    assert rep.verdict == "certified-no-violation"

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        f = rng.normal(0.0, 1.0, 2)
        f = f / lipschitz_seminorm(f, sp)
        t = float(rng.uniform(0.05, 0.45))
        out = qlin_scaling_check(f, t, params["a"], params["h"], sp)
        assert out["holds"]
        worst = max(worst, out["max_diff"])
    assert worst <= 1e-10


def test_exponential_moment_bounds_at_certified_constants():
    for kind, n in (("two_point", None), ("cycle", 6), ("hypercube", 3)):
        sp = build_example(kind, n)
        mu = uniform_measure(sp.n)
        C_p = poincare_estimate(mu, sp, restarts=64, seed=0).best_ratio
        rng = np.random.default_rng(6)
        for _ in range(500):
            f = rng.normal(0.0, 1.0, sp.n)
            lip = lipschitz_seminorm(f, sp)
            if lip <= 1e-14:
                continue
            f = f / lip
            f = f - float(mu @ f)
            out = appendix_checks(mu, C_p, f, 1.0, sp)
            for name, rep in out.items():
                assert rep["premise"] == "ok", (kind, name, rep["premise"])
                assert rep["holds"], (kind, name, rep)


def test_obstruction_witness_found_quickly():
    for kind in ("path", "complete"):
        sp = build_example(kind, 3)
        start = time.perf_counter()
        res = obstruction_search(sp, seed=0)
        elapsed = time.perf_counter() - start
        assert res.status == "witness"
        assert res.witness.gap > 1e-6
        assert elapsed < 5.0


def test_desk_scale_reports_record_quoted_targets():
    rep = hypercube_report(n=2, restarts=24, samples=300, seed=0)
    quoted = rep["quoted_targets"]
    assert quoted["entropy"] == pytest.approx(2 / 4)
    assert quoted["transport"] == pytest.approx(2 / 8)
    assert quoted["fallback_level"] == pytest.approx(2 / 2)
    # recorded, never asserted: the report carries the verdicts either way
    assert set(rep["targets_met"]) == {"entropy_quarter", "transport_eighth", "half_level"}
    assert all(isinstance(v, bool) for v in rep["targets_met"].values())
    assert "n/4-vs-n/2" in rep["note"]

    s3 = constants_report(build_example("symmetric_group", 3), restarts=8, seed=0)
    assert s3["entropy_ratio"] > 0
    assert s3["chain_constant"] == pytest.approx(2.0 * s3["entropy_ratio"])


def test_worked_reports_share_the_constants_block():
    survey = hypercube_report(2, restarts=4, samples=10)
    block = constants_report(build_example("hypercube", 2), restarts=4)
    for key in ("poincare", "entropy_ratio", "chain_constant"):
        assert survey[key] == block[key]
