import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from weakhj import funcineq, transport
from weakhj.calculus import _gradient_argmax, lipschitz_seminorm
from weakhj.cost import parse_cost_spec, power, quadratic, quadratic_linear
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


@pytest.mark.parametrize("type_", ["I", "II"])
def test_mlsi_power_cost_near_one_does_not_overflow(type_):
    # under power(1.002) the conjugate y^q / q (q = 501) passes the largest
    # float; that row is +inf, scored -inf, with no overflow warning
    sp = build_example("path", 5)
    rep = mlsi_verify(uniform_measure(5), 1.0, power(1.002), type_, sp, restarts=2)
    assert math.isfinite(rep.best_ratio)


def test_phi2_series_keeps_the_power_form_bits():
    # x2 * x and x2 * x2 in place of x ** 3 and x ** 4: the same sum, bit
    # for bit, on 10^6 draws of |x| < 1e-3 at scales down to 1e-15, and on
    # 10^5 draws whose square is subnormal
    rng = np.random.default_rng(23)
    x = np.concatenate([
        rng.uniform(-1e-3, 1e-3, 10 ** 6) * 10.0 ** -rng.integers(0, 13, 10 ** 6),
        rng.uniform(-1.0, 1.0, 10 ** 5) * 10.0 ** -rng.uniform(154, 162, 10 ** 5)])
    want = 0.5 * x * x * (1.0 + x / 3.0 + x * x / 12.0 + x ** 3 / 60.0 + x ** 4 / 360.0)
    assert np.abs(x[:10 ** 6]).min() < 1e-14
    assert funcineq._phi2_series(x).tobytes() == want.tobytes()


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



@pytest.mark.parametrize("C", [0.5, 3.0, 8.0])
def test_dual_check_takes_the_norm_growth_verdict(C):
    # one rule judges (rho, t) = (0, 1): dual_check's verdict is
    # hypercontractivity_check's, also for a phi scaled by bisection on its
    # amplitude until the norm-growth excess lies between 1e-10 and
    # 1e-10 * C / 2, where the slack 1e-10 on logs scaled by 2/C judged
    # the other way
    sp = MetricSpace(3.0 * build_example("path", 5).dist)
    mu = uniform_measure(5)
    shape = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    rng = np.random.default_rng(4)
    target = 0.25e-10 * (2.0 + C)               # the middle of the band

    def excess(phi):
        hc = hypercontractivity_check(mu, C, phi, 0.0, 1.0, sp)
        return hc["log_lhs"] - hc["log_rhs"]

    lo, hi = 0.0, 1.0
    assert excess(hi * shape) > target
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid * shape) > target else (mid, hi)
    banded = hi * shape
    assert min(1.0, C / 2.0) < excess(banded) / 1e-10 <= max(1.0, C / 2.0)
    for phi in [rng.standard_normal(5) for _ in range(10)] + [banded]:
        hc = hypercontractivity_check(mu, C, phi, 0.0, 1.0, sp)
        du = dual_check(mu, C, phi, quadratic(), sp)
        assert du["holds"] == hc["holds"]
    # the banded phi: the slack on the scaled logs judges the other way
    assert du["holds"] != (du["log_lhs"] <= du["log_rhs"] + 1e-10)


def test_norm_growth_sweep_takes_its_checks_verdict(monkeypatch):
    # one judge: a phi whose norm-growth excess lies between 1e-10 and 1e-9
    # fails hypercontractivity_check and dual_check, and so fails the sweep
    # that samples only it
    sp = MetricSpace(3.0 * build_example("path", 5).dist)
    mu = uniform_measure(5)
    shape = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    C, target = 3.0, 5e-10

    def excess(phi):
        hc = hypercontractivity_check(mu, C, phi, 0.0, 1.0, sp)
        return hc["log_lhs"] - hc["log_rhs"]

    lo, hi = 0.0, 1.0
    assert excess(hi * shape) > target
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid * shape) > target else (mid, hi)
    banded = hi * shape
    assert 1e-10 < excess(banded) < 1e-9
    assert not dual_check(mu, C, banded, quadratic(), sp)["holds"]
    monkeypatch.setattr(funcineq, "_seed_function", lambda rng, space, k: banded.copy())
    rep = hypercontractivity_sweep(mu, C, 0.0, 1.0, quadratic(), sp, n_samples=5)
    assert rep.verdict == "violated"
    assert np.array_equal(rep.witness, banded)
    assert rep.details["best_log_ratio"] == excess(banded)


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
    # the rescan reads one gradient of the unit shape and scales it; each of
    # the 240 ratios of that stack must be the one-row ratio of the
    # value-and-gradient at that amplitude, with the same finiteness: -inf
    # where the denominator vanishes (a null point) and, for qlin, where the
    # conjugate is infinite (slope past 1)
    rng = np.random.default_rng(4)
    amplitudes = funcineq._AMPLITUDES[:, None]
    past_slope_bound = 0
    for sp in example_spaces():
        for mu in (uniform_measure(sp.n), _null_point_measure(sp.n)):
            for sign in (1.0, -1.0):
                vg = funcineq._mlsi_value_and_grad(mu, cost, sign, sp)
                for k in range(3):
                    f = funcineq._seed_function(rng, sp, k)
                    if np.ptp(f) == 0:
                        continue
                    unit = (f - f.min()) / np.ptp(f)
                    g = _gradient_argmax(sign * unit, sp)[0]
                    stacked = funcineq._mlsi_ratio(amplitudes * unit, amplitudes * g,
                                                   mu, cost)[-1]
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



# best_ratio, the first 16 hex digits of the SHA-256 of the witness bytes,
# iterations and details.best_restart of every report on a grid of spaces,
# measures, costs, types and restart counts (seed 0, mlsi at C = 1),
# recorded before the estimator step was trimmed (gradient read at its
# argmax, series on the whole array, the kernel's ratio as a Python
# float): a faster step must leave every ascent iterate as it was, so the
# test asserts ==, not closeness
BITS_SPACES = ("hypercube:2", "cycle:6", "path:5", "hypercube:5")
ESTIMATOR_BITS = {
    ("hypercube:2", "uniform", 1, "poincare"): (0.6417360464437383, "7e3d6de37aea8297", 500, 0),
    ("hypercube:2", "uniform", 1, "quadratic:I"): (0.6326017786282568, "c7d552c1c068bdc9", 500, 0),
    ("hypercube:2", "uniform", 1, "quadratic:II"):
        (163419895761.61307, "2bdc2a58d6d281d0", 500, 0),
    ("hypercube:2", "uniform", 1, "power:p=3:I"): (0.3747139458865216, "ab25a1e0f231673e", 500, 0),
    ("hypercube:2", "uniform", 1, "power:p=3:II"):
        (6.2243505555822995, "f844f34a8ebff5e6", 500, 0),
    ("hypercube:2", "uniform", 1, "qlin:a=0.25,h=2:I"):
        (0.3163008893141284, "c7d552c1c068bdc9", 500, 0),
    ("hypercube:2", "uniform", 1, "qlin:a=0.25,h=2:II"):
        (0.4305056625532746, "63b0a7d791db7523", 500, 0),
    ("hypercube:2", "uniform", 4, "poincare"): (0.8201910387123691, "673b246a64af87eb", 2000, 1),
    ("hypercube:2", "uniform", 4, "quadratic:I"):
        (0.8123397498200385, "f5465ccfd774ee03", 2000, 1),
    ("hypercube:2", "uniform", 4, "quadratic:II"):
        (4.639938662104941e+39, "bf57915de9fc4530", 2000, 3),
    ("hypercube:2", "uniform", 4, "power:p=3:I"):
        (0.39094441129265606, "aaaf84c4424cb7d4", 2000, 3),
    ("hypercube:2", "uniform", 4, "power:p=3:II"):
        (9215.178954265764, "d7b513159ef9aadd", 2000, 2),
    ("hypercube:2", "uniform", 4, "qlin:a=0.25,h=2:I"):
        (0.40616987491001927, "f5465ccfd774ee03", 2000, 1),
    ("hypercube:2", "uniform", 4, "qlin:a=0.25,h=2:II"):
        (0.5924883260113989, "cf80a8b13e235bd5", 2000, 1),
    ("hypercube:2", "null_point", 1, "poincare"): (0.5071613010919036, "b064e1812ae2463a", 500, 0),
    ("hypercube:2", "null_point", 1, "quadratic:I"):
        (0.4987192103918245, "5f442ee0e5cfca52", 500, 0),
    ("hypercube:2", "null_point", 1, "quadratic:II"):
        (242.74583190359894, "a479c261fe16c5fe", 500, 0),
    ("hypercube:2", "null_point", 1, "power:p=3:I"):
        (0.439983831823502, "76d7ff4652e77b7a", 500, 0),
    ("hypercube:2", "null_point", 1, "power:p=3:II"):
        (2.0899305043645747e+19, "41d1f292f6baf737", 500, 0),
    ("hypercube:2", "null_point", 1, "qlin:a=0.25,h=2:I"):
        (0.24935960519591224, "5f442ee0e5cfca52", 500, 0),
    ("hypercube:2", "null_point", 1, "qlin:a=0.25,h=2:II"):
        (0.452533149743362, "71c08582c35fb99a", 500, 0),
    ("hypercube:2", "null_point", 4, "poincare"):
        (1.0000000000000002, "2c6a87b4d027d91e", 2000, 1),
    ("hypercube:2", "null_point", 4, "quadratic:I"):
        (0.9999925652881766, "3c1666f07b149f05", 2000, 1),
    ("hypercube:2", "null_point", 4, "quadratic:II"):
        (94533.46705925984, "f26081d7638dbea1", 2000, 2),
    ("hypercube:2", "null_point", 4, "power:p=3:I"):
        (0.4400853842158016, "d59f059312f1e012", 2000, 3),
    ("hypercube:2", "null_point", 4, "power:p=3:II"):
        (8667.830909017668, "c10c13a1d91ea158", 2000, 2),
    ("hypercube:2", "null_point", 4, "qlin:a=0.25,h=2:I"):
        (0.4999962826440883, "3c1666f07b149f05", 2000, 1),
    ("hypercube:2", "null_point", 4, "qlin:a=0.25,h=2:II"):
        (0.7279734430158719, "304bebdebe9ac0d6", 2000, 1),
    ("hypercube:2", "skewed", 1, "poincare"): (0.8780423300602097, "bb1b47697b8ef125", 500, 0),
    ("hypercube:2", "skewed", 1, "quadratic:I"): (0.8397571630530846, "a35b2b3fb6424d15", 500, 0),
    ("hypercube:2", "skewed", 1, "quadratic:II"): (5039445648.418756, "06da3602c3f1d638", 500, 0),
    ("hypercube:2", "skewed", 1, "power:p=3:I"): (0.361539645942951, "635f476d5c982029", 500, 0),
    ("hypercube:2", "skewed", 1, "power:p=3:II"): (4.851599721254749, "9f94224d74137ccb", 500, 0),
    ("hypercube:2", "skewed", 1, "qlin:a=0.25,h=2:I"):
        (0.4198785815265423, "a35b2b3fb6424d15", 500, 0),
    ("hypercube:2", "skewed", 1, "qlin:a=0.25,h=2:II"):
        (0.531582280581939, "e9906d2b11c9dfc9", 500, 0),
    ("hypercube:2", "skewed", 4, "poincare"): (1.0453538373497195, "122f483b70912f0b", 2000, 1),
    ("hypercube:2", "skewed", 4, "quadratic:I"): (1.0327443246525263, "9fb2efcc8228d295", 2000, 1),
    ("hypercube:2", "skewed", 4, "quadratic:II"):
        (5.0007338003849766e+39, "bf57915de9fc4530", 2000, 3),
    ("hypercube:2", "skewed", 4, "power:p=3:I"):
        (0.46462195712827387, "c58bab01d9c991fd", 2000, 1),
    ("hypercube:2", "skewed", 4, "power:p=3:II"):
        (3.7505503502887336e+40, "bf57915de9fc4530", 2000, 3),
    ("hypercube:2", "skewed", 4, "qlin:a=0.25,h=2:I"):
        (0.5163721623262632, "9fb2efcc8228d295", 2000, 1),
    ("hypercube:2", "skewed", 4, "qlin:a=0.25,h=2:II"):
        (0.5664901506545963, "2f0b3849bf5885d8", 2000, 1),
    ("cycle:6", "uniform", 1, "poincare"): (1.165520576663933, "b60db8dd6e67b6e8", 500, 0),
    ("cycle:6", "uniform", 1, "quadratic:I"): (1.1124396740465636, "4aeb3ef7396495ae", 500, 0),
    ("cycle:6", "uniform", 1, "quadratic:II"): (388.52227587005143, "88f7457f6429912c", 500, 0),
    ("cycle:6", "uniform", 1, "power:p=3:I"): (0.4621774526647135, "0f360a75bba486bd", 500, 0),
    ("cycle:6", "uniform", 1, "power:p=3:II"): (1507.0062281325277, "c36e0625e82365c9", 500, 0),
    ("cycle:6", "uniform", 1, "qlin:a=0.25,h=2:I"):
        (0.5562198370232818, "4aeb3ef7396495ae", 500, 0),
    ("cycle:6", "uniform", 1, "qlin:a=0.25,h=2:II"):
        (0.7502269848751395, "279a56ab400bdbb6", 500, 0),
    ("cycle:6", "uniform", 4, "poincare"): (1.228686841894405, "f467edf1ae4b9a30", 2000, 1),
    ("cycle:6", "uniform", 4, "quadratic:I"): (1.2206673501439615, "b3b063c5bfb33cdd", 2000, 1),
    ("cycle:6", "uniform", 4, "quadratic:II"): (382.9647219002372, "69cf21f0d21276c7", 2000, 2),
    ("cycle:6", "uniform", 4, "power:p=3:I"): (0.5953410291777822, "c82f3234bd240c9f", 2000, 3),
    ("cycle:6", "uniform", 4, "power:p=3:II"): (2369.767608548791, "cb03da0592565038", 2000, 2),
    ("cycle:6", "uniform", 4, "qlin:a=0.25,h=2:I"):
        (0.6103336750719808, "b3b063c5bfb33cdd", 2000, 1),
    ("cycle:6", "uniform", 4, "qlin:a=0.25,h=2:II"):
        (0.791463079067824, "e5298de7ccc79be2", 2000, 1),
    ("cycle:6", "null_point", 1, "poincare"): (1.256739041145651, "3f44c5166b1d1a21", 500, 0),
    ("cycle:6", "null_point", 1, "quadratic:I"): (1.3793513089614988, "1a23530236580558", 500, 0),
    ("cycle:6", "null_point", 1, "quadratic:II"): (11497.855222326625, "091c656f144849a5", 500, 0),
    ("cycle:6", "null_point", 1, "power:p=3:I"): (0.550493726363474, "bcca3ba5ba18f1fa", 500, 0),
    ("cycle:6", "null_point", 1, "power:p=3:II"): (28.213509518131797, "375359707f19d7a3", 500, 0),
    ("cycle:6", "null_point", 1, "qlin:a=0.25,h=2:I"):
        (0.6896756544807494, "1a23530236580558", 500, 0),
    ("cycle:6", "null_point", 1, "qlin:a=0.25,h=2:II"):
        (0.9616996782856347, "6f0cfb7449fc002e", 500, 0),
    ("cycle:6", "null_point", 4, "poincare"): (1.8810241449056597, "186d070ad7c28781", 2000, 3),
    ("cycle:6", "null_point", 4, "quadratic:I"): (1.3793513089614988, "1a23530236580558", 2000, 0),
    ("cycle:6", "null_point", 4, "quadratic:II"): (86.63855344487543, "8a40211b668fe7a9", 2000, 2),
    ("cycle:6", "null_point", 4, "power:p=3:I"): (0.7419243795989955, "d021808038b963df", 2000, 3),
    ("cycle:6", "null_point", 4, "power:p=3:II"):
        (1186.5589786913515, "d73382293e7873e5", 2000, 2),
    ("cycle:6", "null_point", 4, "qlin:a=0.25,h=2:I"):
        (0.6896756544807494, "1a23530236580558", 2000, 0),
    ("cycle:6", "null_point", 4, "qlin:a=0.25,h=2:II"):
        (1.4247096319572603, "3d6c1c6c7f5234f9", 2000, 1),
    ("cycle:6", "skewed", 1, "poincare"): (0.7293412593372733, "0de7f3f3d51b34d5", 500, 0),
    ("cycle:6", "skewed", 1, "quadratic:I"): (0.7313887844828911, "7d77336a2a530962", 500, 0),
    ("cycle:6", "skewed", 1, "quadratic:II"): (4.452751555027675e+29, "31e6a937bae50849", 500, 0),
    ("cycle:6", "skewed", 1, "power:p=3:I"): (0.6578096159130571, "f0848d02294b506a", 500, 0),
    ("cycle:6", "skewed", 1, "power:p=3:II"): (65.67902157668256, "3369a0198b3c17c9", 500, 0),
    ("cycle:6", "skewed", 1, "qlin:a=0.25,h=2:I"):
        (0.36569439224144556, "7d77336a2a530962", 500, 0),
    ("cycle:6", "skewed", 1, "qlin:a=0.25,h=2:II"):
        (0.6084727250131707, "efb5365c6a561c67", 500, 0),
    ("cycle:6", "skewed", 4, "poincare"): (2.1716557705054464, "4e0833a4a1d52966", 2000, 1),
    ("cycle:6", "skewed", 4, "quadratic:I"): (1.9194101595707036, "78938795f981d46f", 2000, 1),
    ("cycle:6", "skewed", 4, "quadratic:II"): (28.871827563616797, "e9053a5db005ca61", 2000, 3),
    ("cycle:6", "skewed", 4, "power:p=3:I"): (0.9555019930580169, "2f193a7ad47f4f02", 2000, 1),
    ("cycle:6", "skewed", 4, "power:p=3:II"): (4.660089110189751e+40, "b7175ba5b1a6b639", 2000, 3),
    ("cycle:6", "skewed", 4, "qlin:a=0.25,h=2:I"):
        (0.9597050797853518, "78938795f981d46f", 2000, 1),
    ("cycle:6", "skewed", 4, "qlin:a=0.25,h=2:II"):
        (0.5644098306139503, "7f8b9ae5e3a74185", 2000, 1),
    ("path:5", "uniform", 1, "poincare"): (1.0874359366862585, "026a1a83dbc77708", 500, 0),
    ("path:5", "uniform", 1, "quadratic:I"): (1.1883492069037043, "3199f3f9f260ad9c", 500, 0),
    ("path:5", "uniform", 1, "quadratic:II"): (32.72107737085795, "eb17b46a4c6f12bf", 500, 0),
    ("path:5", "uniform", 1, "power:p=3:I"): (0.7902215850126, "e56771d773dd84bb", 500, 0),
    ("path:5", "uniform", 1, "power:p=3:II"): (10409484.283762591, "3f19f2c4984df83a", 500, 0),
    ("path:5", "uniform", 1, "qlin:a=0.25,h=2:I"):
        (0.5941746034518521, "3199f3f9f260ad9c", 500, 0),
    ("path:5", "uniform", 1, "qlin:a=0.25,h=2:II"):
        (1.3314822057843243, "2d6f15481438dd6d", 500, 0),
    ("path:5", "uniform", 4, "poincare"): (2.5414100622096023, "17aad4d67458caf4", 2000, 3),
    ("path:5", "uniform", 4, "quadratic:I"): (2.533109715300849, "90f6dbd98b498040", 2000, 1),
    ("path:5", "uniform", 4, "quadratic:II"): (45.365554599985, "6ec5e3512d6f3393", 2000, 3),
    ("path:5", "uniform", 4, "power:p=3:I"): (0.9848616545134721, "b64f52f6dec07f73", 2000, 3),
    ("path:5", "uniform", 4, "power:p=3:II"): (4.565180851898908e+40, "1f9f78e1853562a5", 2000, 3),
    ("path:5", "uniform", 4, "qlin:a=0.25,h=2:I"):
        (1.2665548576504244, "90f6dbd98b498040", 2000, 1),
    ("path:5", "uniform", 4, "qlin:a=0.25,h=2:II"):
        (1.7617062164552022, "8940fd5d24139c82", 2000, 1),
    ("path:5", "null_point", 1, "poincare"): (0.7070762765142382, "d070c53248758383", 500, 0),
    ("path:5", "null_point", 1, "quadratic:I"): (0.706005643556571, "7f6a76d5852b3015", 500, 0),
    ("path:5", "null_point", 1, "quadratic:II"): (109666.42745852361, "c1aba79b6ddd6570", 500, 0),
    ("path:5", "null_point", 1, "power:p=3:I"): (0.5286674890957322, "646a2757c1f7b527", 500, 0),
    ("path:5", "null_point", 1, "power:p=3:II"): (526036.5736742273, "112d7a9915da8941", 500, 0),
    ("path:5", "null_point", 1, "qlin:a=0.25,h=2:I"):
        (0.3530028217782855, "7f6a76d5852b3015", 500, 0),
    ("path:5", "null_point", 1, "qlin:a=0.25,h=2:II"):
        (0.7871194014910542, "547690574ecc52f6", 500, 0),
    ("path:5", "null_point", 4, "poincare"): (1.6780531728918076, "b8176b77dd146ab6", 2000, 3),
    ("path:5", "null_point", 4, "quadratic:I"): (1.6666780965519465, "08c7b38072e0e8d2", 2000, 3),
    ("path:5", "null_point", 4, "quadratic:II"): (89.38097246588343, "f08f54c1bb21ebe0", 2000, 2),
    ("path:5", "null_point", 4, "power:p=3:I"): (0.695757935155176, "37049f45dea8721d", 2000, 3),
    ("path:5", "null_point", 4, "power:p=3:II"): (4561.759954526589, "a856758736aede61", 2000, 2),
    ("path:5", "null_point", 4, "qlin:a=0.25,h=2:I"):
        (0.47483589583938973, "f6ea8ce6fa86c020", 2000, 1),
    ("path:5", "null_point", 4, "qlin:a=0.25,h=2:II"):
        (1.1998922838097412, "36378132f639b3b5", 2000, 1),
    ("path:5", "skewed", 1, "poincare"): (0.7612585596914823, "193d9058f782f806", 500, 0),
    ("path:5", "skewed", 1, "quadratic:I"): (0.7634312351650926, "3c951ba3127db12a", 500, 0),
    ("path:5", "skewed", 1, "quadratic:II"): (4.8081782520959386e+17, "e89f7cf71ed3cfb1", 500, 0),
    ("path:5", "skewed", 1, "power:p=3:I"): (0.858351852574479, "1a2cb86e42c2bb93", 500, 0),
    ("path:5", "skewed", 1, "power:p=3:II"): (38994.36458772043, "00dccaf4935ace79", 500, 0),
    ("path:5", "skewed", 1, "qlin:a=0.25,h=2:I"): (0.3817156175825463, "3c951ba3127db12a", 500, 0),
    ("path:5", "skewed", 1, "qlin:a=0.25,h=2:II"):
        (0.8228192487710666, "defdf15ffe869c09", 500, 0),
    ("path:5", "skewed", 4, "poincare"): (2.8054857146613337, "2d9a68d56b313e4d", 2000, 1),
    ("path:5", "skewed", 4, "quadratic:I"): (2.798027050936019, "68dad16b21bd89b3", 2000, 1),
    ("path:5", "skewed", 4, "quadratic:II"): (23.760408962954934, "385409d5eab94384", 2000, 3),
    ("path:5", "skewed", 4, "power:p=3:I"): (1.4728393196871474, "f7b19a3066a5ffd5", 2000, 1),
    ("path:5", "skewed", 4, "power:p=3:II"): (4.882557527332911e+40, "1f9f78e1853562a5", 2000, 3),
    ("path:5", "skewed", 4, "qlin:a=0.25,h=2:I"):
        (1.3990135254680094, "68dad16b21bd89b3", 2000, 1),
    ("path:5", "skewed", 4, "qlin:a=0.25,h=2:II"):
        (1.3528895795460163, "3df9ed941727ca8d", 2000, 1),
    ("hypercube:5", "uniform", 1, "poincare"): (0.8684583919624022, "35d1b57bfc094aaa", 500, 0),
    ("hypercube:5", "uniform", 1, "quadratic:I"): (0.9452301690451511, "54a440bb0645345b", 500, 0),
    ("hypercube:5", "uniform", 1, "quadratic:II"):
        (2.4387586502264096, "6224fc7ba3c41b01", 500, 0),
    ("hypercube:5", "uniform", 1, "power:p=3:I"):
        (0.36580245698711367, "f04759fd0ad55b30", 500, 0),
    ("hypercube:5", "uniform", 1, "power:p=3:II"):
        (22.544607781801385, "51366add60508e8f", 500, 0),
    ("hypercube:5", "uniform", 1, "qlin:a=0.25,h=2:I"):
        (0.47261508452257556, "54a440bb0645345b", 500, 0),
    ("hypercube:5", "uniform", 1, "qlin:a=0.25,h=2:II"):
        (0.6009877263709553, "bc9935dc6d3e1aff", 500, 0),
    ("hypercube:5", "uniform", 4, "poincare"): (1.578932004709483, "f3b2e8553c5539d4", 2000, 1),
    ("hypercube:5", "uniform", 4, "quadratic:I"):
        (1.3658229701086484, "afab508ba9d2cd55", 2000, 1),
    ("hypercube:5", "uniform", 4, "quadratic:II"):
        (5.248108709486917e+39, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "uniform", 4, "power:p=3:I"):
        (0.9020765310091712, "dac074379a95af11", 2000, 3),
    ("hypercube:5", "uniform", 4, "power:p=3:II"):
        (3.738917067233429e+40, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "uniform", 4, "qlin:a=0.25,h=2:I"):
        (0.6829114850543242, "afab508ba9d2cd55", 2000, 1),
    ("hypercube:5", "uniform", 4, "qlin:a=0.25,h=2:II"):
        (0.9216877336534384, "9948297df510e361", 2000, 1),
    ("hypercube:5", "null_point", 1, "poincare"): (0.8503944278510174, "5e0035f9a140067b", 500, 0),
    ("hypercube:5", "null_point", 1, "quadratic:I"):
        (0.8615466518465948, "d0c771a8991aea9c", 500, 0),
    ("hypercube:5", "null_point", 1, "quadratic:II"):
        (3.7594531595916068, "d443bbf6a5243332", 500, 0),
    ("hypercube:5", "null_point", 1, "power:p=3:I"):
        (0.3733546160806946, "ecb4232f249dbd51", 500, 0),
    ("hypercube:5", "null_point", 1, "power:p=3:II"):
        (16.181839923919927, "6365320df9d9681f", 500, 0),
    ("hypercube:5", "null_point", 1, "qlin:a=0.25,h=2:I"):
        (0.4307733259232974, "d0c771a8991aea9c", 500, 0),
    ("hypercube:5", "null_point", 1, "qlin:a=0.25,h=2:II"):
        (0.5456617865678071, "7917f42ee6f00889", 500, 0),
    ("hypercube:5", "null_point", 4, "poincare"):
        (1.5040705107765644, "e498c9ca1724a498", 2000, 1),
    ("hypercube:5", "null_point", 4, "quadratic:I"):
        (1.6112770477732048, "88af4e5bdeb70dc7", 2000, 1),
    ("hypercube:5", "null_point", 4, "quadratic:II"):
        (5.152850853022232e+39, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "null_point", 4, "power:p=3:I"):
        (0.9250162188644585, "6bb402d699f5b5fd", 2000, 3),
    ("hypercube:5", "null_point", 4, "power:p=3:II"):
        (3.671052385871159e+40, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "null_point", 4, "qlin:a=0.25,h=2:I"):
        (0.8056385238866024, "88af4e5bdeb70dc7", 2000, 1),
    ("hypercube:5", "null_point", 4, "qlin:a=0.25,h=2:II"):
        (0.9618444606101644, "e600122fe9c56102", 2000, 1),
    ("hypercube:5", "skewed", 1, "poincare"): (0.8161372131572757, "19fd732be50b922a", 500, 0),
    ("hypercube:5", "skewed", 1, "quadratic:I"): (0.8369139825050541, "261901e8db44d04c", 500, 0),
    ("hypercube:5", "skewed", 1, "quadratic:II"): (313648.9102746789, "66ae140ba055c854", 500, 0),
    ("hypercube:5", "skewed", 1, "power:p=3:I"): (0.3555922365333832, "b81efe25e721d847", 500, 0),
    ("hypercube:5", "skewed", 1, "power:p=3:II"): (127.12470658081367, "7b9c02652279acb0", 500, 0),
    ("hypercube:5", "skewed", 1, "qlin:a=0.25,h=2:I"):
        (0.41845699125252706, "261901e8db44d04c", 500, 0),
    ("hypercube:5", "skewed", 1, "qlin:a=0.25,h=2:II"):
        (0.6453579029704267, "e801a18d574c0189", 500, 0),
    ("hypercube:5", "skewed", 4, "poincare"): (1.0480671974233078, "52b7dd3438f4c942", 2000, 1),
    ("hypercube:5", "skewed", 4, "quadratic:I"): (1.1153538476689422, "f2b23eaed252c775", 2000, 1),
    ("hypercube:5", "skewed", 4, "quadratic:II"):
        (5.07395556147058e+39, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "skewed", 4, "power:p=3:I"):
        (0.46980519855590797, "df4b1ddd29801951", 2000, 1),
    ("hypercube:5", "skewed", 4, "power:p=3:II"):
        (3.786568229559094e+40, "90b2f3d4eeb211b5", 2000, 3),
    ("hypercube:5", "skewed", 4, "qlin:a=0.25,h=2:I"):
        (0.5576769238344711, "f2b23eaed252c775", 2000, 1),
    ("hypercube:5", "skewed", 4, "qlin:a=0.25,h=2:II"):
        (0.6453579029704267, "e801a18d574c0189", 2000, 0),
}


def _bits_measure(kind, n):
    if kind == "uniform":
        return uniform_measure(n)
    if kind == "null_point":
        return _null_point_measure(n)
    skewed = 0.5 ** np.arange(n)
    return skewed / skewed.sum()


def _bits(rep):
    witness = (None if rep.witness is None else
               hashlib.sha256(np.asarray(rep.witness, dtype=float).tobytes()).hexdigest()[:16])
    return rep.best_ratio, witness, rep.iterations, rep.details["best_restart"]


@pytest.mark.parametrize("spec", BITS_SPACES)
def test_estimator_bits_unchanged(spec):
    kind, n = spec.split(":")
    sp = build_example(kind, int(n))
    rows = [(key, want) for key, want in ESTIMATOR_BITS.items() if key[0] == spec]
    assert len(rows) == 3 * 2 * 7
    for (_, measure, restarts, estimator), want in rows:
        mu = _bits_measure(measure, sp.n)
        if estimator == "poincare":
            rep = poincare_estimate(mu, sp, restarts=restarts, seed=0)
        else:
            cost, type_ = estimator.rsplit(":", 1)
            rep = mlsi_verify(mu, 1.0, parse_cost_spec(cost), type_, sp,
                              restarts=restarts, seed=0)
        assert _bits(rep) == want, (measure, restarts, estimator)


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


def test_rescan_takes_first_maximum_only_above_the_ascent(monkeypatch):
    # mlsi_verify rescans the ascents' best shape at the 240 amplitudes: the
    # first of the largest rescan ratios replaces the ascent's only when it
    # is larger, keeps the winning restart and adds no iterations
    sp = build_example("cycle", 6)
    mu = uniform_measure(6)
    ratio_of = funcineq._mlsi_ratio
    rescan = np.full(240, -np.inf)

    def stub(F, G, mu, cost):
        out = ratio_of(F, G, mu, cost)
        return out if len(F) == 1 else (*out[:-1], rescan.copy())

    monkeypatch.setattr(funcineq, "_mlsi_ratio", stub)

    def run():
        return mlsi_verify(mu, 1.0, quadratic(), "I", sp, restarts=2, seed=0)

    ascent = run()
    shape = ascent.witness
    assert ascent.best_ratio > 0
    unit = (shape - shape.min()) / np.ptp(shape)
    rescan[[7, 30, 200]] = ascent.best_ratio + 1.0
    rep = run()
    assert rep.best_ratio == ascent.best_ratio + 1.0
    assert np.array_equal(rep.witness, funcineq._AMPLITUDES[7] * unit)
    assert rep.iterations == ascent.iterations
    assert rep.details["best_restart"] == ascent.details["best_restart"]
    rescan[[7, 30, 200]] = ascent.best_ratio
    rep = run()
    assert rep.best_ratio == ascent.best_ratio
    assert np.array_equal(rep.witness, shape)
