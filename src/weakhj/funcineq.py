"""Functional inequalities on finite metric spaces.

Variance and exponential-entropy functionals, multi-start subgradient
search for the best Poincare and modified log-Sobolev ratios of the
nonlinear gradient, hypercontractive norm growth of the weak
inf-convolution semigroup and its sampled sweep (at (rho, t) = (0, 1)
the exponential dual bound of the transport inequality), the bridge
from Markov-kernel Dirichlet forms, and the constant bookkeeping that
links a Poincare constant to a quadratic-linear entropy bound.

Every estimator returns an :class:`InequalityReport`.  A
"certified-no-violation" verdict is an empirical statement at the
configured search budget, never a proof; a "violated" verdict always
carries a witness function whose ratio re-evaluates above the tested
constant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .calculus import _gradient_argmax, lipschitz_seminorm, tilde_gradient, weak_infconv
from .cost import CostFunction, quadratic
from .space import (as_count, as_function, as_measure, as_positive, check_detailed_balance,
                     jsonable, kernel_moment_L)

RATIO_SLACK = 1e-9

_E2 = math.exp(2.0)
_E4 = math.exp(4.0)

# search-budget defaults shared by all estimators
_RESTART_SCALES = (1e-4, 0.1, 1.0, 3.0, 10.0)
_ITERATIONS = 500
_STEP0 = 0.1
_AMPLITUDES = np.logspace(-9.0, 2.0, 240)     # mlsi_verify's rescan of the best shape


# ---------------------------------------------------------------------------
# basic functionals


def variance(f, mu):
    """Var_mu(f) = int f^2 dmu - (int f dmu)^2, computed in centered form."""
    f = np.asarray(f, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if np.ptp(f) == 0:
        return 0.0
    m = float(mu @ f)
    return float(mu @ (f - m) ** 2)


def _phi2(x, e1):
    # e^x - 1 - x without cancellation near 0, given e1 = expm1(x): a
    # series where |x| < 1e-3
    out = e1 - x
    small = np.abs(x) < 1e-3
    if small.any():
        xs = x[small]
        out[small] = 0.5 * xs * xs * (1.0 + xs / 3.0 + xs * xs / 12.0 + xs ** 3 / 60.0
                                      + xs ** 4 / 360.0)
    return out


def _entropy_scaled(F, mu):
    """(ref, value) per row f of the stack F, with Ent_mu(e^f) = e^ref * value
    and value >= 0.

    Rows of range below 1 are assembled from expm1/log1p pieces that are
    individually sign-definite, so the relative error stays at machine
    level even when the entropy itself is O(range^2).  Wider rows subtract
    their max before exponentiating (overflow guard).  A branch runs only
    when some row needs it, and the per-row logs are math's, so a one-row
    stack has the bits of the one-function formula.
    """
    hi = F.max(1)
    near = hi - F.min(1) < 1.0
    if near.all():
        return _entropy_near(F, mu)
    value = np.empty(len(F))
    if near.any():
        hi[near], value[near] = _entropy_near(F[near], mu)
    value[~near] = _entropy_wide(F[~near] - hi[~near, None], mu)
    return hi, value


def _entropy_near(F, mu):
    # rows of range below 1, centred at their mean
    mean = F @ mu
    delta = F - mean[:, None]
    e1 = np.expm1(delta)
    s = e1 @ mu
    t3 = np.array([(1.0 + v) * math.log1p(v) - v for v in s])
    return mean, np.maximum((delta * e1) @ mu - _phi2(delta, e1) @ mu - t3, 0.0)


def _entropy_wide(shifted, mu):
    # rows shifted to max 0
    w = np.exp(shifted)
    total = w @ mu
    logs = np.array([math.log(v) for v in total])
    return np.maximum((w * shifted) @ mu - total * logs, 0.0)


def entropy_exp(f, mu):
    """Ent_mu(e^f) = int f e^f dmu - (int e^f dmu) log int e^f dmu.

    Only supp(mu) enters, and the max of f over it is subtracted before
    exponentiating, so the value is finite whenever e^{max f} is; small
    ranges are evaluated by a compensated expansion to avoid
    cancellation.
    """
    mu = np.asarray(mu, dtype=float)
    supp = mu > 0
    f, mu = np.asarray(f, dtype=float)[supp], mu[supp]
    if np.ptp(f) == 0:
        return 0.0
    ref, value = _entropy_scaled(f[None], mu)
    return math.exp(ref[0]) * float(value[0])


def _log_lp_norm_exp(f, mu, q):
    # log ||e^f||_q without forming e^f; q = 0 is the log-mean.  The max
    # is taken over supp(mu): at a mu-null point it could make every
    # charged term underflow to 0
    f = np.asarray(f, dtype=float)
    if q == 0:
        return float(mu @ f)
    supp = mu > 0
    qf = q * f[supp]
    m = float(np.max(qf))
    return (m + math.log(float(mu[supp] @ np.exp(qf - m)))) / q


# ---------------------------------------------------------------------------
# reports


@dataclass
class InequalityReport:
    """Outcome of an inequality sweep or constant search.

    `best_ratio` is the largest LHS/RHS ratio found and `witness` the
    function (or measure) achieving it.  The verdict is "violated" only
    when the witness re-evaluates above `constant` + RATIO_SLACK, and
    "inconclusive" when a sampled sweep evaluated no sample or, short of
    a violation, rested on an unconverged transport solve.
    """

    inequality: str
    constant: float
    best_ratio: float
    witness: np.ndarray | None
    verdict: str
    restarts: int
    iterations: int
    seed: int
    details: dict = field(default_factory=dict)

    @property
    def violated(self):
        return self.verdict == "violated"

    def to_json_dict(self):
        return jsonable(asdict(self))


def verdict(ratio, constant):
    """The verdict of a report whose best ratio is tested against `constant`."""
    return "violated" if ratio > constant + RATIO_SLACK else "certified-no-violation"


def _sweep(inequality, constant, samples, seed, evaluate, details, threshold=None):
    """The loop of every sampled verifier.

    `evaluate(rng, k)` draws the k-th sample from one generator seeded
    with `seed` and returns None to skip it, else (score, ratio,
    witness).  The first sample of highest score wins: its ratio is the
    report's `best_ratio`, and its score is tested against `threshold`
    (default `constant`) and passed to `details(score)`.  `iterations`
    counts the evaluated samples; a sweep that evaluated none is
    "inconclusive".
    """
    samples = as_count(samples, "samples")
    rng = np.random.default_rng(seed)
    best, ratio, witness, evaluated = -math.inf, 0.0, None, 0
    for k in range(samples):
        out = evaluate(rng, k)
        if out is None:
            continue
        evaluated += 1
        if out[0] > best:
            best, ratio, witness = out
    tested = "inconclusive" if not evaluated else verdict(
        best, constant if threshold is None else threshold)
    return InequalityReport(inequality, constant, ratio, witness, tested, 1,
                            evaluated, seed, details(best))


# ---------------------------------------------------------------------------
# subgradient ascent machinery


def _seed_function(rng, space, k):
    # the k-th test function of every restart loop and sampled sweep: a
    # Gaussian profile or the indicator of a proper metric ball
    scale = _RESTART_SCALES[k % len(_RESTART_SCALES)]
    n = space.n
    if n > 1 and rng.random() < 0.5:
        center = int(rng.integers(n))
        row = space.dist[center]
        radii = np.unique(row)[:-1]
        if radii.size:
            radius = float(rng.choice(radii))
            return scale * (row <= radius).astype(float)
    return scale * rng.standard_normal(n)


def _ascend(value_and_grad, f0, iterations, range_target):
    # range_target pins the amplitude so the ascent optimizes shape only;
    # the caller rescans amplitudes along the best shape afterwards.  The
    # last value is the number of gradients evaluated: the ascent stops at
    # a vanishing or non-finite one
    f = np.array(f0, dtype=float)
    best_r = -np.inf
    best_f = f
    for it in range(1, iterations + 1):
        r, gr = value_and_grad(f)
        if r > best_r:
            best_r, best_f = r, f
        norm = math.sqrt(float(gr @ gr))
        if not math.isfinite(norm) or norm < 1e-15:
            break
        f = f + (_STEP0 / math.sqrt(it)) * gr / norm
        if range_target is not None:
            lo, hi = float(f.min()), float(f.max())
            if hi > lo:
                f = range_target * (f - lo) / (hi - lo)
    return best_r, best_f, it


def _run_restarts(value_and_grad, space, restarts, seed, rescan=None):
    # each restart ascends at the amplitude of its seed function; `rescan`
    # maps the unit-range best shape to its ratios at the _AMPLITUDES, and
    # the first of the largest replaces the best ratio if it is larger.
    # Returns (ratio, witness, gradients evaluated, index of the winning
    # restart or None)
    best_r, best_f, best_k, steps = -np.inf, None, None, 0
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        f0 = _seed_function(rng, space, k)
        r, fb, taken = _ascend(value_and_grad, f0, _ITERATIONS, float(np.ptp(f0)) or None)
        steps += taken
        if r > best_r:
            best_r, best_f, best_k = r, fb, k
    if rescan is not None and best_f is not None and np.ptp(best_f) > 0:
        unit = (best_f - best_f.min()) / np.ptp(best_f)
        ratios = rescan(unit)
        j = int(np.argmax(ratios))
        if ratios[j] > best_r:
            best_r, best_f = float(ratios[j]), _AMPLITUDES[j] * unit
    return best_r, best_f, steps, best_k


def _poincare_value_and_grad(mu, space):
    d = space.dist

    def vg(f):
        g, ys = _gradient_argmax(f, space)
        energy = float(mu @ g ** 2)
        if energy <= 1e-300:
            return -np.inf, -f
        centered = f - float(mu @ f)
        ratio = float(mu @ centered ** 2) / energy
        grad = 2.0 * mu * centered
        active = np.flatnonzero(g > 0)
        coef = 2.0 * ratio * mu[active] * g[active] / d[active, ys[active]]
        grad[active] -= coef
        np.add.at(grad, ys[active], coef)
        return ratio, grad

    return vg


def _mlsi_ratio(F, G, mu, cost):
    # (ref, w, conj, ratio) per row f of the stack F with gradient rows G:
    # Ent_mu(e^f) / int conj(|grad f|) e^f dmu, w = e^(f - ref).  The ratio
    # is -inf where the conjugate is infinite (that row's conj is zeroed)
    # or the denominator vanishes
    conj = cost.conjugate(G)
    conj[~np.isfinite(conj).all(1)] = 0.0
    ref, numer = _entropy_scaled(F, mu)
    w = np.exp(F - ref[:, None])
    denom = (conj * w) @ mu
    ratio = np.divide(numer, denom, out=np.full(len(F), -np.inf), where=denom > 1e-300)
    return ref, w, conj, ratio


def _mlsi_value_and_grad(mu, cost, sign, space):
    d = space.dist

    def vg(f):
        if f.max() == f.min():
            return -np.inf, f
        g, ys = _gradient_argmax(sign * f, space)
        ref, w, conj, ratio = _mlsi_ratio(f[None], g[None], mu, cost)
        ratio = float(ratio[0])
        if ratio == -np.inf:
            return ratio, -f
        ref, w, conj = float(ref[0]), w[0], conj[0]
        mw = mu * w
        grad_n = mw * (f - ref - math.log(float(mu @ w)))
        grad_d = mu * conj * w
        active = np.flatnonzero(g > 0)
        coef = sign * mw[active] * cost.conjugate_deriv(g[active]) / d[active, ys[active]]
        grad_d[active] += coef
        np.subtract.at(grad_d, ys[active], coef)
        return ratio, grad_n - ratio * grad_d

    return vg


def _mlsi_rescan(mu, cost, sign, space):
    # the ratio of vg at every s * unit, s in _AMPLITUDES, from one gradient:
    # |grad (s u)| = s |grad u|
    def ratios(unit):
        g = _gradient_argmax(sign * unit, space)[0]
        return _mlsi_ratio(_AMPLITUDES[:, None] * unit, _AMPLITUDES[:, None] * g, mu, cost)[3]

    return ratios


# ---------------------------------------------------------------------------
# constant estimators


def poincare_estimate(mu, space, restarts=64, seed=0):
    """Best ratio Var_mu(f) / int |grad f|^2 dmu found by multi-start ascent.

    The ratio is scale and shift invariant, so each restart's iterates
    keep the range of its seed function.  The report tests the ratio
    against the diameter bound D^2/2.  `iterations` counts the gradients
    the ascents evaluated (at most 500 a restart) and `details.best_restart`
    is the index of the restart that found the witness.
    """
    restarts = as_count(restarts, "restarts")
    mu = as_measure(mu, space.n)
    diameter = space.diameter
    bound = 0.5 * diameter * diameter
    ratio, witness, iterations, best_k = 0.0, None, 0, None
    if np.count_nonzero(mu) > 1:
        ratio, witness, iterations, best_k = _run_restarts(
            _poincare_value_and_grad(mu, space), space, restarts, seed)
        ratio = max(ratio, 0.0)
    return InequalityReport("poincare", bound, ratio, witness, verdict(ratio, bound),
                            restarts, iterations, seed,
                            {"diameter": diameter, "best_restart": best_k})


def mlsi_verify(mu, C, cost, type="I", space=None, restarts=64, seed=0):
    """Search for f with Ent_mu(e^f) > C int alpha*(|grad (+/-f)|) e^f dmu.

    Type I uses the gradient of f, type II the gradient of -f.  The
    ratio is not scale invariant, so the best function found is also
    rescanned at 240 amplitudes from 1e-9 to 1e2 of its unit-range shape.
    `iterations` and `details.best_restart` are as in poincare_estimate;
    the rescan is not counted, and keeps the restart of its shape.
    """
    C = as_positive(C, "mlsi constant")
    restarts = as_count(restarts, "restarts")
    if type not in ("I", "II"):
        raise ValueError(f"mlsi type must be 'I' or 'II', got {type!r}")
    mu = as_measure(mu, space.n)
    sign = 1.0 if type == "I" else -1.0
    ratio, witness, iterations, best_k = _run_restarts(
        _mlsi_value_and_grad(mu, cost, sign, space), space, restarts, seed,
        _mlsi_rescan(mu, cost, sign, space))
    ratio = max(ratio, 0.0)
    won = ratio > 0
    return InequalityReport(
        "mlsi-" + type,
        float(C),
        ratio,
        witness if won else None,
        verdict(ratio, C),
        restarts,
        iterations,
        seed,
        {"cost": cost.label(), "best_restart": best_k if won else None},
    )


# ---------------------------------------------------------------------------
# Markov-kernel Dirichlet forms and the bridge to the nonlinear gradient


def classical_mlsi_rhs(f, mu, K):
    """sum_{x,y} (e^{f(y)} - e^{f(x)}) (f(y) - f(x)) mu(x) K(x,y)."""
    f = np.asarray(f, dtype=float)
    k = K.matrix
    if f.shape != (k.shape[0],):
        raise ValueError(f"function has shape {f.shape}, kernel is {k.shape}")
    ef = np.exp(f)
    df = f[None, :] - f[:, None]
    de = ef[None, :] - ef[:, None]
    return float(np.sum(de * df * mu[:, None] * k))


def toto_bridge_check(mu, K, space, samples=200, seed=0):
    """Sampled check that the kernel Dirichlet form is dominated by the
    nonlinear-gradient form:

        classical_mlsi_rhs(f) <= 2 L sum_x |grad f|^2(x) e^{f(x)} mu(x)

    with L the second distance moment of K.  Detailed balance is a
    premise and is checked first.
    """
    mu = as_measure(mu, space.n)
    balance = check_detailed_balance(mu, K)
    if not balance["holds"]:
        raise ValueError(
            f"detailed balance fails at {balance['witness']} "
            f"(asymmetry {balance['max_asymmetry']:.3e})"
        )
    L = kernel_moment_L(space, K)

    def evaluate(rng, k):
        f = _seed_function(rng, space, k)
        denom = float(mu @ (tilde_gradient(f, space) ** 2 * np.exp(f)))
        if denom <= 1e-14:
            return None
        ratio = classical_mlsi_rhs(f, mu, K) / denom
        return ratio, ratio, f

    return _sweep("kernel-bridge", 2.0 * L, samples, seed, evaluate,
                  lambda _: {"L": L})


# ---------------------------------------------------------------------------
# hypercontractivity


def hypercontractivity_check(mu, C, f, rho, t, space, cost=None):
    """Compare ||e^{Q_t f}||_{rho + 2t/C} with ||e^f||_rho (default cost:
    quadratic).

    Allowed ranges: rho >= 0 with t >= 0, or rho < 0 with
    0 <= t <= -rho C / 2.  Norms are evaluated in log space, with the
    q = 0 norm the exponential of the mean log.  At (rho, t) = (0, 1) this
    is the exponential dual bound of the transport inequality, whose logs
    are 2/C times these (`transport.dual_check`).
    """
    mu = as_measure(mu, space.n)
    f = as_function(f, space.n)
    C = as_positive(C, "C")
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    if rho < 0 and t > -rho * C / 2 + 1e-12:
        raise ValueError(
            f"with rho={rho} the admissible range is t <= {-rho * C / 2:.6g}, got {t}"
        )
    q = rho + 2.0 * t / C
    if t == 0:
        value = _log_lp_norm_exp(f, mu, rho)
        return {"holds": True, "q": q, "log_lhs": value, "log_rhs": value, "margin": 0.0}
    qtf = weak_infconv(f, t, quadratic() if cost is None else cost, space).values
    log_lhs = _log_lp_norm_exp(qtf, mu, q)
    log_rhs = _log_lp_norm_exp(f, mu, rho)
    return {
        "holds": bool(log_lhs <= log_rhs + 1e-10),
        "q": q,
        "log_lhs": log_lhs,
        "log_rhs": log_rhs,
        "margin": log_rhs - log_lhs,
    }


def hypercontractivity_sweep(mu, C, rho, t, cost, space, n_samples=1000, seed=0):
    """Run hypercontractivity_check over the estimators' test functions
    (Gaussian profiles and indicators of metric balls at several
    amplitudes).  `best_ratio` is the largest norm ratio
    ||e^{Q_t f}||_q / ||e^f||_rho found, against the constant 1; the
    verdict tests its log, `details.best_log_ratio`, against 0."""
    mu = as_measure(mu, space.n)

    def evaluate(rng, k):
        f = _seed_function(rng, space, k)
        check = hypercontractivity_check(mu, C, f, rho, t, space, cost)
        log_ratio = check["log_lhs"] - check["log_rhs"]
        return log_ratio, math.exp(min(log_ratio, 700.0)), f

    return _sweep("hypercontractivity", 1.0, n_samples, seed, evaluate,
                  lambda best_log: {"C": float(C), "cost": cost.label(), "rho": rho,
                                    "t": t, "q": rho + 2.0 * t / C,
                                    "best_log_ratio": best_log},
                  threshold=0.0)


# ---------------------------------------------------------------------------
# quadratic-linear constants


def _bobkov_ledoux_factor(C, c):
    # (2 + 2e^2 + c sqrt(C)) / (2 - c sqrt(C)), positive for c sqrt(C) < 2
    return (2.0 + 2.0 * _E2 + c * math.sqrt(C)) / (2.0 - c * math.sqrt(C))


def bobkov_ledoux_K(C, c):
    """Entropy constant K(c) produced from a Poincare constant C for
    c-Lipschitz functions, valid for 0 < c < 2/sqrt(C):

        K = (C/2) ((2 + 2e^2 + c sqrt(C)) / (2 - c sqrt(C)))^2 e^{c sqrt(5C)}
    """
    C = as_positive(C, "Poincare constant")
    root = math.sqrt(C)
    if not 0 < c < 2.0 / root:
        raise ValueError(f"Lipschitz bound must lie in (0, {2.0 / root:.6g}), got {c}")
    frac = _bobkov_ledoux_factor(C, c)
    return 0.5 * C * frac * frac * math.exp(c * math.sqrt(5.0 * C))


def bobkov_ledoux_params(C, c):
    """Companion constants: the quadratic-linear cost alpha_a^h with
    a = 1/(4K), h = 2cK, and the transport constant C2 = K/2."""
    K = bobkov_ledoux_K(C, c)
    return {"K": K, "a": 1.0 / (4.0 * K), "h": 2.0 * c * K, "C2": K / 2.0}


def qlin_scaling_check(f, t, a, h, space):
    """Check the scaling identity Q_1(t f) = t Q_t f for the
    quadratic-linear cost, valid while t < a h / Lip(f)."""
    f = as_function(f, space.n)
    t = as_positive(t, "time")
    lip = lipschitz_seminorm(f, space)
    if lip > 0 and t >= a * h / lip:
        raise ValueError(
            f"scaling identity needs t < a h / Lip(f) = {a * h / lip:.6g}, got {t}"
        )
    cost = CostFunction("qlin", a=a, h=h)
    lhs = weak_infconv(t * f, 1.0, cost, space).values
    rhs = t * weak_infconv(f, t, cost, space).values
    diff = float(np.max(np.abs(lhs - rhs)))
    return {"holds": bool(diff <= 1e-10), "max_diff": diff, "lhs": lhs, "rhs": rhs}


def appendix_checks(mu, C, f, c, space):
    """Evaluate the three auxiliary inequalities that turn a Poincare
    constant C into an entropy bound for c-Lipschitz functions.

    * variance-exponential:  Var(f e^{f/2}) against
      C int |grad f|^2 (1 + e^4 + f + f^2/4) e^f dmu  (any f);
    * second-moment-exponential:  int f^2 e^f dmu against
      C ((2+2e^2+c sqrt(C))/(2-c sqrt(C)))^2 int |grad f|^2 e^f dmu
      (needs int f dmu = 0, Lip(f) <= c, c < 2/sqrt(C));
    * second-moment-tilt:  int f^2 dmu against
      e^{c sqrt(5C)} int f^2 e^{-|f|} dmu  (needs the same premises
      except the bound on c).

    C must itself be a certified Poincare constant for mu; that premise
    is the caller's responsibility.  Premise failures on f are reported
    per inequality rather than raised.
    """
    mu = as_measure(mu, space.n)
    f = as_function(f, space.n)
    g = tilde_gradient(f, space)
    ef = np.exp(f)

    def compare(lhs, rhs):
        return {"premise": "ok", "holds": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12),
                "lhs": lhs, "rhs": rhs}

    def failed(premises):
        return {"premise": "; ".join(premises), "holds": None}

    out = {"variance-exponential": compare(
        variance(f * np.exp(f / 2.0), mu),
        C * float(mu @ (g ** 2 * (1.0 + _E4 + f + f ** 2 / 4.0) * ef)))}

    mean = float(mu @ f)
    lip = lipschitz_seminorm(f, space)
    premises = []
    if abs(mean) > 1e-9:
        premises.append(f"mean {mean:.3e} != 0")
    if lip > c * (1.0 + 1e-12):
        premises.append(f"Lip(f) = {lip:.6g} exceeds c = {c:.6g}")

    root = math.sqrt(C)
    steep = [f"c = {c:.6g} not below 2/sqrt(C) = {2.0 / root:.6g}"] if c * root >= 2.0 else []
    if premises or steep:
        out["second-moment-exponential"] = failed(premises + steep)
    else:
        frac = _bobkov_ledoux_factor(C, c)
        out["second-moment-exponential"] = compare(
            float(mu @ (f ** 2 * ef)), C * frac * frac * float(mu @ (g ** 2 * ef)))

    out["second-moment-tilt"] = failed(premises) if premises else compare(
        float(mu @ f ** 2),
        math.exp(c * math.sqrt(5.0 * C)) * float(mu @ (f ** 2 * np.exp(-np.abs(f)))))
    return out


# ---------------------------------------------------------------------------
# concentration


def herbst_tail_check(mu, C, space, samples=200, seed=0):
    """Sampled check of the Gaussian tail bound mu(f >= h) <= e^{-h^2/(4C)}
    for centered 1-Lipschitz functions; C is a certified transport or
    entropy constant.  The reported ratio is tail mass over bound."""
    mu = as_measure(mu, space.n)

    def evaluate(rng, k):
        f = _seed_function(rng, space, k)
        lip = lipschitz_seminorm(f, space)
        if lip <= 1e-14:
            return None
        f = f / lip
        f = f - float(mu @ f)
        ratio = max((float(mu @ (f >= h - 1e-12)) / math.exp(-h * h / (4.0 * C))
                     for h in np.unique(f[f > 1e-12])), default=0.0)
        return ratio, ratio, f

    return _sweep("herbst-tail", 1.0, samples, seed, evaluate,
                  lambda _: {"C": float(C)})
