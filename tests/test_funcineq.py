import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakhj import funcineq, transport
from weakhj.calculus import lipschitz_seminorm
from weakhj.cost import power, quadratic, quadratic_linear
from weakhj.funcineq import (
    entropy_exp,
    hypercontractivity_check,
    hypercontractivity_sweep,
    mlsi_verify,
    poincare_estimate,
    variance,
)
from weakhj.space import MetricSpace, build_example, uniform_measure
from weakhj.transport import check_transport_entropy, dual_check

from randspaces import example_spaces


def entropy_reference(f, mu, dps=50):
    """Ent(e^f) at high precision; the weight vector is renormalized so
    the result reflects an exact probability measure."""
    with mpmath.workdps(dps):
        mm = [mpmath.mpf(float(v)) for v in mu]
        total = mpmath.fsum(mm)
        mm = [v / total for v in mm]
        ws = [mpmath.e**mpmath.mpf(float(v)) for v in f]
        big_w = mpmath.fsum(w * m for w, m in zip(ws, mm))
        a = mpmath.fsum(w * mpmath.mpf(float(v)) * m for w, v, m in zip(ws, f, mm))
        return float(a - big_w * mpmath.log(big_w))


def test_variance_closed_form():
    mu = np.array([0.25, 0.75])
    f = np.array([2.0, -1.0])
    mean = 0.25 * 2 - 0.75
    assert_allclose(variance(f, mu), 0.25 * (2 - mean) ** 2 + 0.75 * (-1 - mean) ** 2,
                    rtol=1e-14)
    assert variance(np.full(2, 3.3), mu) == 0.0


def test_entropy_matches_high_precision_at_all_ranges():
    rng = np.random.default_rng(8)
    for scale in (1e-12, 1e-6, 9e-4, 2e-3, 1e-2, 0.5, 1.0, 5.0, 30.0):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            mu = rng.dirichlet(np.ones(n))
            f = rng.standard_normal(n)
            f *= scale / np.ptp(f)
            got = entropy_exp(f, mu)
            want = entropy_reference(f, mu)
            assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def test_entropy_nonnegative_zero_at_constants():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        mu = rng.dirichlet(np.ones(n))
        assert entropy_exp(rng.standard_normal(n), mu) >= 0.0
        assert entropy_exp(np.full(n, rng.normal()), mu) == 0.0


def test_log_norms_and_entropy_skip_mu_null_points():
    # the max of f sits where mu = 0: taken over every point, it would
    # make every charged term underflow to 0
    sp = build_example("path", 3)
    mu, f = [1.0, 0.0, 0.0], [0.0, 0.0, 900.0]
    assert entropy_exp([0.0, 800.0], [1.0, 0.0]) == 0.0
    out = dual_check(mu, 0.5, f, quadratic(), sp)
    assert out["holds"] and out["log_lhs"] == 0.0 and out["log_rhs"] == 0.0
    out = hypercontractivity_check(mu, 0.5, f, 0.5, 1.0, sp)
    assert out["holds"] and out["log_lhs"] == 0.0 and out["log_rhs"] == 0.0


def test_poincare_two_point_is_half():
    rep = poincare_estimate(uniform_measure(2), build_example("two_point"), seed=0)
    assert_allclose(rep.best_ratio, 0.5, atol=1e-9)
    assert rep.verdict == "certified-no-violation"
    assert rep.constant == 0.5


def test_poincare_dirac_mass_is_zero():
    mu = np.array([1.0, 0.0, 0.0])
    rep = poincare_estimate(mu, build_example("path", n=3), seed=0)
    assert rep.best_ratio == 0.0


def test_poincare_complete_graph_exceeds_half_diameter_square():
    # the indicator of one point already gives variance 3/16 against
    # energy 1/4, so the ratio reaches 3/4 while the reference constant
    # D^2/2 is only 1/2; the report must say so
    rep = poincare_estimate(uniform_measure(4), build_example("complete", n=4), seed=0)
    assert_allclose(rep.best_ratio, 0.75, atol=1e-9)
    assert rep.constant == 0.5
    assert rep.verdict == "violated"


def test_poincare_hypercube_value():
    rep = poincare_estimate(uniform_measure(4), build_example("hypercube", n=2),
                            restarts=32, seed=0)
    assert_allclose(rep.best_ratio, 0.8201940124410461, rtol=1e-6)
    assert rep.verdict == "certified-no-violation"


def test_poincare_bounded_by_diameter_square():
    rng = np.random.default_rng(21)
    for sp in example_spaces():
        if sp.n < 2:
            continue
        mu = rng.dirichlet(np.ones(sp.n))
        rep = poincare_estimate(mu, sp, restarts=16, seed=1)
        assert rep.best_ratio <= sp.diameter**2 + 1e-9


def test_mlsi_two_point_certified_at_half():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = mlsi_verify(mu, 0.5, quadratic(), type="I", space=sp, restarts=16, seed=0)
    assert rep.verdict == "certified-no-violation"
    assert 0.4999 < rep.best_ratio <= 0.5 + 1e-9
    tighter = mlsi_verify(mu, 0.45, quadratic(), type="I", space=sp, restarts=16, seed=0)
    assert tighter.verdict == "violated"
    assert tighter.witness is not None


def test_mlsi_two_point_scalar_family():
    # on two points the ratio only depends on the gap u = f(0) - f(1);
    # the family value at any u is a certified lower bound for the
    # estimator, and analytically the family never reaches 1/2
    sp = build_example("two_point")
    mu = uniform_measure(2)

    def family(u):
        num = entropy_exp(np.array([u, 0.0]), mu)
        den = 0.5 * (u**2 / 2) * math.exp(u)
        return num / den

    grid = np.logspace(-6, 1, 200)
    vals = np.array([family(u) for u in grid])
    assert vals.max() < 0.5
    rep = mlsi_verify(mu, 0.5, quadratic(), type="I", space=sp, restarts=16, seed=0)
    assert rep.best_ratio >= vals.max() - 1e-9


def test_mlsi_type_two_blows_up():
    # reversing the gradient direction leaves an exponentially heavy
    # numerator against a quadratic denominator: no constant works
    sp = build_example("two_point")
    mu = uniform_measure(2)
    rep = mlsi_verify(mu, 100.0, quadratic(), type="II", space=sp, restarts=8, seed=0)
    assert rep.verdict == "violated"
    assert rep.best_ratio > 1e6
    assert rep.details["cost"] == quadratic().label()


def test_mlsi_validation():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    with pytest.raises(ValueError, match="positive"):
        mlsi_verify(mu, 0.0, quadratic(), "I", sp)
    with pytest.raises(ValueError, match="type"):
        mlsi_verify(mu, 1.0, quadratic(), type="III", space=sp)
    # the space is required: without it Python rejects the call itself
    with pytest.raises(TypeError, match="space"):
        mlsi_verify(mu, 1.0, quadratic())






def test_hypercontractivity_time_zero_is_identity():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    out = hypercontractivity_check(mu, 1.0, np.array([1.0, 0.0]), 2.0, 0.0, sp)
    assert out["holds"]
    assert out["q"] == 2.0
    assert abs(out["margin"]) < 1e-14


def test_hypercontractivity_agrees_with_dual_form():
    # with rho = 0, t = 1, C = 2 the target exponent is 1, which is the
    # exponential dual inequality verbatim
    sp = build_example("cycle", n=5)
    mu = uniform_measure(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(5)
        hc = hypercontractivity_check(mu, 2.0, f, 0.0, 1.0, sp)
        du = dual_check(mu, 2.0, f, quadratic(), sp)
        assert hc["holds"] == du["holds"]
        assert_allclose(hc["log_lhs"], du["log_lhs"], rtol=1e-12, atol=1e-12)
        assert_allclose(hc["log_rhs"], du["log_rhs"], rtol=1e-12, atol=1e-12)
    # at any C the norm-growth exponent is 2/C and the dual logs are the
    # norm-growth logs times 2/C: one inequality, so one chain leg
    for C in (0.5, 2.0, 3.0):
        for _ in range(20):
            f = rng.standard_normal(5)
            hc = hypercontractivity_check(mu, C, f, 0.0, 1.0, sp)
            du = dual_check(mu, C, f, quadratic(), sp)
            assert_allclose(du["log_lhs"], 2.0 / C * hc["log_lhs"], rtol=0, atol=1e-12)
            assert_allclose(du["log_rhs"], 2.0 / C * hc["log_rhs"], rtol=0, atol=1e-12)


def test_hypercontractivity_hypercube_sweep():
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    rng = np.random.default_rng(12)
    for _ in range(50):
        f = rng.standard_normal(4)
        for rho, t in ((0.0, 0.3), (1.0, 0.3), (1.0, 1.0), (0.0, 1.0)):
            assert hypercontractivity_check(mu, 2.0, f, rho, t, sp)["holds"]


def test_hypercontractivity_negative_exponent_leg_fails():
    # the reverse leg with negative starting exponent does not survive
    # at the chain constant: this input is a genuine counterexample
    sp = build_example("two_point")
    mu = uniform_measure(2)
    out = hypercontractivity_check(mu, 1.0, np.array([1.0, 0.0]), -1.0, 0.15, sp)
    assert not out["holds"]
    assert_allclose(out["q"], -0.7, rtol=1e-14)
    assert_allclose(out["log_lhs"], 0.38890523802593424, atol=1e-9)
    assert_allclose(out["log_rhs"], 0.3798854930417225, atol=1e-9)


def test_hypercontractivity_validation():
    sp = build_example("two_point")
    mu = uniform_measure(2)
    with pytest.raises(ValueError):
        hypercontractivity_check(mu, 1.0, np.zeros(2), 1.0, -0.5, sp)
    with pytest.raises(ValueError):
        hypercontractivity_check(mu, 1.0, np.zeros(2), -1.0, 0.9, sp)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            hypercontractivity_check(mu, 1.0, np.zeros(2), 1.0, t, sp)









def test_sweeps_count_evaluated_samples(monkeypatch):
    # `iterations` counts the samples a sweep evaluated, not its draws.
    # Every third test function is constant, which the norm-growth sweep
    # still evaluates
    seed_function = funcineq._seed_function

    def draw(rng, space, k):
        f = seed_function(rng, space, k)
        return np.zeros_like(f) if k % 3 == 0 else f

    monkeypatch.setattr(funcineq, "_seed_function", draw)
    sp = build_example("two_point")
    mu = uniform_measure(2)
    assert hypercontractivity_sweep(mu, 1.0, 0.0, 1.0, quadratic(), sp,
                                    n_samples=30).iterations == 30
    # a one-point space has nu = mu only, of zero entropy: nothing is evaluated
    point = MetricSpace(np.zeros((1, 1)))
    rep = check_transport_entropy(np.ones(1), 1.0, quadratic(), point, n_samples=30)
    assert rep.iterations == 0
    assert rep.verdict == "inconclusive" and rep.witness is None
    # nu = mu has zero entropy and is skipped
    nus = itertools.cycle([mu, np.array([0.9, 0.1]), np.array([1.0, 0.0])])
    monkeypatch.setattr(transport, "_sample_measure", lambda rng, n, k: next(nus))
    rep = check_transport_entropy(mu, 1.0, quadratic(), sp, n_samples=30)
    assert rep.iterations == rep.details["solver"]["calls"] == 20


def test_report_serialization():
    rep = poincare_estimate(uniform_measure(2), build_example("two_point"), seed=0)
    data = rep.to_json_dict()
    assert data["inequality"] == "poincare"
    assert data["verdict"] == rep.verdict
    assert data["witness"] is not None
    assert not rep.violated


def test_estimators_are_reproducible():
    sp = build_example("hypercube", n=2)
    mu = uniform_measure(4)
    a = poincare_estimate(mu, sp, restarts=16, seed=5)
    b = poincare_estimate(mu, sp, restarts=16, seed=5)
    assert a.best_ratio == b.best_ratio
    assert np.array_equal(a.witness, b.witness)


def _null_point_measure(n):
    mu = np.zeros(n)
    mu[1:] = 1.0 / (n - 1)
    return mu


@pytest.mark.parametrize("cost", [quadratic(), power(3.0), quadratic_linear(0.25, 2.0)],
                         ids=lambda c: c.label())
def test_stacked_rescan_matches_per_function_ratios(cost):
    # the rescan reads one gradient of the unit shape; each of its 240
    # ratios must be the value-and-gradient ratio at that amplitude, with
    # the same finiteness: -inf where the denominator vanishes (a null
    # point) and, for qlin, where the conjugate is infinite (slope past 1)
    rng = np.random.default_rng(4)
    past_slope_bound = 0
    for sp in example_spaces():
        for mu in (uniform_measure(sp.n), _null_point_measure(sp.n)):
            for sign in (1.0, -1.0):
                vg = funcineq._mlsi_value_and_grad(mu, cost, sign, sp)
                rescan = funcineq._mlsi_rescan(mu, cost, sign, sp)
                for k in range(3):
                    f = funcineq._seed_function(rng, sp, k)
                    if np.ptp(f) == 0:
                        continue
                    unit = (f - f.min()) / np.ptp(f)
                    stacked = rescan(unit)
                    single = np.array([vg(s * unit)[0] for s in funcineq._AMPLITUDES])
                    finite = np.isfinite(single)
                    steep = funcineq._AMPLITUDES * lipschitz_seminorm(unit, sp) > 1.0
                    if cost.kind == "qlin":
                        past_slope_bound += int(steep.sum())
                        assert not finite[steep].any()
                    assert np.array_equal(np.isfinite(stacked), finite)
                    assert np.all(stacked[~finite] == -np.inf)
                    assert_allclose(stacked[finite], single[finite], rtol=1e-12, atol=0)
                    assert np.argmax(stacked) == np.argmax(single)
    assert past_slope_bound > 0 or cost.kind != "qlin"


# the search's best ratio and witness at restarts 4 and seed 0 (uniform mu,
# quadratic cost, C = 1 for mlsi), recorded before the inner loop was made
# lean: a speed-up must not move the search
PINNED = {
    ("hypercube", 2, "poincare"): (0.8201910387123691,
        [0.10559671731352188, 0.0, 0.4790283555190882, 0.10559671736491809]),
    ("hypercube", 2, "I"): (0.8123397498200385,
        [2.7948769977985273e-10, 0.0, 1e-09, 2.794877945795269e-10]),
    ("hypercube", 2, "II"): (4.639938662104941e+39, [100.0, 100.0, 0.0, 100.0]),
    ("cycle", 6, "poincare"): (1.228686841894405,
        [0.0, 0.07564242654958259, 0.24090396858805893, 0.4790283555190882,
         0.24090506267515258, 0.07570092708661812]),
    ("cycle", 6, "I"): (1.2206673501439618,
        [0.0, 1.85228444614684e-10, 5.379906358762267e-10, 1e-09,
         5.412035044195071e-10, 1.8212262440584994e-10]),
    ("cycle", 6, "II"): (382.96472190023957,
        [2.0185633550651487, 13.293333613649597, 13.351283339486878, 0.0,
         13.349954937764313, 13.291143915814592]),
    ("path", 5, "poincare"): (2.5414100622096023,
        [3.0000000000000004, 2.1860600976022213, 1.3728575462029629,
         0.5619921003704155, 0.0]),
    ("path", 5, "I"): (2.533109715300849,
        [0.0, 2.047516158256544e-10, 4.683090873051781e-10, 7.320528387794101e-10, 1e-09]),
    ("path", 5, "II"): (45.36555459998518,
        [8.738212344285607, 8.738212344285607, 8.48832777357466, 0.0,
         0.07496537121328414]),
}


@pytest.mark.parametrize("kind, n, estimator", sorted(PINNED))
def test_estimators_reproduce_pinned_search(kind, n, estimator):
    sp = build_example(kind, n)
    mu = uniform_measure(sp.n)
    if estimator == "poincare":
        rep = poincare_estimate(mu, sp, restarts=4, seed=0)
    else:
        rep = mlsi_verify(mu, 1.0, quadratic(), estimator, sp, restarts=4, seed=0)
    ratio, witness = PINNED[kind, n, estimator]
    assert_allclose(rep.best_ratio, ratio, rtol=1e-12, atol=0)
    assert_allclose(rep.witness, witness, rtol=1e-12, atol=0)


def test_estimators_report_steps_taken_and_winning_restart(monkeypatch):
    # `iterations` is the number of value-and-gradient evaluations of the
    # ascents (the rescan makes none), and rerunning with best_restart + 1
    # restarts replays the winning restart
    calls = []

    def counting(factory):
        def make(*args):
            vg = factory(*args)
            return lambda f: calls.append(1) or vg(f)
        return make

    for name in ("_poincare_value_and_grad", "_mlsi_value_and_grad"):
        monkeypatch.setattr(funcineq, name, counting(getattr(funcineq, name)))
    sp = build_example("cycle", 6)
    dirac = np.eye(6)[2]
    early = 0
    for mu in (uniform_measure(6), _null_point_measure(6), dirac):
        for run in (lambda r: poincare_estimate(mu, sp, restarts=r, seed=2),
                    lambda r: mlsi_verify(mu, 1.0, quadratic(), "I", sp, restarts=r, seed=2)):
            calls.clear()
            rep = run(6)
            assert rep.iterations == len(calls) <= 6 * funcineq._ITERATIONS
            early += rep.iterations < 6 * funcineq._ITERATIONS
            best = rep.details["best_restart"]
            if rep.witness is None:
                assert best is None
                continue
            replay = run(best + 1)
            assert replay.details["best_restart"] == best
            assert replay.best_ratio == rep.best_ratio
            assert np.array_equal(replay.witness, rep.witness)
    assert early > 0


def test_rescan_takes_first_maximum_only_above_the_ascent():
    sp = build_example("cycle", 6)
    vg = funcineq._poincare_value_and_grad(uniform_measure(6), sp)
    ascent, shape, _, _ = funcineq._run_restarts(vg, sp, 2, 0)
    unit = (shape - shape.min()) / np.ptp(shape)
    tied = np.full(240, -np.inf)
    tied[[7, 30, 200]] = ascent + 1.0
    ratio, witness, _, _ = funcineq._run_restarts(vg, sp, 2, 0, lambda u: tied)
    assert ratio == ascent + 1.0
    assert np.array_equal(witness, funcineq._AMPLITUDES[7] * unit)
    tied[[7, 30, 200]] = ascent
    assert np.array_equal(funcineq._run_restarts(vg, sp, 2, 0, lambda u: tied)[1], shape)
