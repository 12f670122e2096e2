"""Functional inequalities on finite metric spaces.

Variance and exponential-entropy functionals, multi-start subgradient
search for the best Poincare and modified log-Sobolev ratios of the
nonlinear gradient, hypercontractive norm growth of the weak
inf-convolution semigroup and its sampled sweep (at (rho, t) = (0, 1)
the exponential dual bound of the transport inequality).

Every estimator returns an :class:`InequalityReport`, judged by one rule
per inequality: `verdict` for a constant search, the samples' own checks
for a sampled sweep (`_sweep`).  A "certified-no-violation" verdict is an
empirical statement at the configured search budget, never a proof; a
"violated" verdict always carries a witness that its check rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _gradient_argmax, _gradient_pullback, weak_infconv
from .cost import quadratic
from .space import as_count, as_function, as_measure, as_positive, jsonable

RATIO_SLACK = 1e-9

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
    # series where |x| < 1e-3, on the whole array when it holds everywhere
    small = np.abs(x) < 1e-3
    if small.all():
        return _phi2_series(x)
    out = e1 - x
    if small.any():
        out[small] = _phi2_series(x[small])
    return out


def _phi2_series(x):
    # x2 * x and x2 * x2 give the sum the bits of x ** 3 and x ** 4 for
    # every |x| < 1e-3 tried, without np.power; the leading factor stays
    # 0.5 * x * x, since 0.5 * x2 rounds twice where x2 is subnormal
    x2 = x * x
    return 0.5 * x * x * (1.0 + x / 3.0 + x2 / 12.0 + x2 * x / 60.0 + x2 * x2 / 360.0)


def _entropy_scaled(F, mu):
    """(ref, w, total, value) per row f of the stack F, with
    w = e^(f - ref), total = int w dmu and Ent_mu(e^f) = e^ref * value,
    value >= 0.

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
    w, total, value = np.empty_like(F), np.empty(len(F)), np.empty(len(F))
    if near.any():
        hi[near], w[near], total[near], value[near] = _entropy_near(F[near], mu)
    w[~near], total[~near], value[~near] = _entropy_wide(F[~near] - hi[~near, None], mu)
    return hi, w, total, value


def _entropy_near(F, mu):
    # rows of range below 1, centred at their mean
    mean = F @ mu
    delta = F - mean[:, None]
    e1 = np.expm1(delta)
    s = e1 @ mu
    t3 = np.array([(1.0 + v) * math.log1p(v) - v for v in s.tolist()])
    value = np.maximum((delta * e1) @ mu - _phi2(delta, e1) @ mu - t3, 0.0)
    w = np.exp(delta)
    return mean, w, w @ mu, value


def _entropy_wide(shifted, mu):
    # rows shifted to max 0
    w = np.exp(shifted)
    total = w @ mu
    logs = np.array([math.log(v) for v in total.tolist()])
    return w, total, np.maximum((w * shifted) @ mu - total * logs, 0.0)


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
    ref, _, _, value = _entropy_scaled(f[None], mu)
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
    function (or measure) achieving it.  A constant search is "violated"
    when its best ratio exceeds `constant` by more than RATIO_SLACK
    (`verdict`); a sampled sweep is "violated" when its best-scoring
    sample fails that sample's own check, and "inconclusive" when it
    evaluated no sample or, short of a violation, some sample's check was
    inconclusive (`_sweep`).
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
        return jsonable(self)


def verdict(ratio, constant):
    """The verdict of a report whose best ratio is tested against `constant`."""
    return "violated" if ratio > constant + RATIO_SLACK else "certified-no-violation"


def _sweep(inequality, constant, samples, seed, evaluate, details):
    """The loop of every sampled verifier.

    `evaluate(rng, k)` draws the k-th sample from one generator seeded
    with `seed` and returns None to skip it, else (score, verdict, ratio,
    witness), the verdict by that sample's own check.  The first sample
    of highest score wins: its ratio is the report's `best_ratio` and its
    score is passed to `details(score)`.  The report is "violated" when
    the winner is, else "inconclusive" when some sample was or none was
    evaluated, else "certified-no-violation".  `iterations` counts the
    evaluated samples.
    """
    samples = as_count(samples, "samples")
    rng = np.random.default_rng(seed)
    best, tested, ratio, witness, evaluated, unsure = -math.inf, None, 0.0, None, 0, False
    for k in range(samples):
        out = evaluate(rng, k)
        if out is None:
            continue
        evaluated += 1
        unsure = unsure or out[1] == "inconclusive"
        if out[0] > best:
            best, tested, ratio, witness = out
    if tested != "violated":
        tested = "inconclusive" if unsure or not evaluated else "certified-no-violation"
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
            values = f.tolist()
            lo, hi = min(values), max(values)
            if hi > lo:
                f = range_target * (f - lo) / (hi - lo)
    return best_r, best_f, it


def _run_restarts(value_and_grad, space, restarts, seed):
    # each restart ascends at the amplitude of its seed function.  Returns
    # (ratio, witness, gradients evaluated, index of the winning restart
    # or None)
    best_r, best_f, best_k, steps = -np.inf, None, None, 0
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        f0 = _seed_function(rng, space, k)
        r, fb, taken = _ascend(value_and_grad, f0, _ITERATIONS, float(np.ptp(f0)) or None)
        steps += taken
        if r > best_r:
            best_r, best_f, best_k = r, fb, k
    return best_r, best_f, steps, best_k


def _poincare_value_and_grad(mu, space):
    def vg(f):
        g, ys = _gradient_argmax(f, space)
        energy = float(mu @ g ** 2)
        if energy <= 1e-300:
            return -np.inf, -f
        centered = f - float(mu @ f)
        ratio = float(mu @ centered ** 2) / energy
        grad = 2.0 * mu * centered
        _gradient_pullback(grad, (-2.0 * ratio) * mu * g, g, ys, space)
        return ratio, grad

    return vg


def _mlsi_ratio(F, G, mu, cost):
    # (ref, w, total, conj, ratio) per row f of the stack F with gradient
    # rows G: Ent_mu(e^f) / int conj(|grad f|) e^f dmu, with w = e^(f - ref)
    # and total = int w dmu.  The ratio is -inf where the conjugate is
    # infinite (that row's conj is zeroed before the product, where inf * 0
    # is invalid) or the denominator vanishes, as for a constant f.  Masks
    # are built only when some row needs them
    conj = cost.conjugate(G)
    if not np.isfinite(conj).all():
        conj[~np.isfinite(conj).all(1)] = 0.0
    ref, w, total, numer = _entropy_scaled(F, mu)
    denom = (conj * w) @ mu
    if min(denom.tolist()) > 1e-300:
        return ref, w, total, conj, numer / denom
    ratio = np.divide(numer, denom, out=np.full(len(F), -np.inf), where=denom > 1e-300)
    return ref, w, total, conj, ratio


def _mlsi_value_and_grad(mu, cost, sign, space):
    # the one-row ratio of _mlsi_ratio as a Python float, and its gradient;
    # at -inf the ascent is sent along -f
    def vg(f):
        g, ys = _gradient_argmax(f if sign > 0 else -f, space)
        ref, w, total, conj, ratio = _mlsi_ratio(f[None], g[None], mu, cost)
        ratio = float(ratio[0])
        if ratio == -math.inf:
            return ratio, -f
        w = w[0]
        mw = mu * w
        grad_n = mw * (f - float(ref[0]) - math.log(float(total[0])))
        grad_d = mu * conj[0] * w
        _gradient_pullback(grad_d, sign * mw * cost.conjugate_deriv(g), g, ys, space)
        return ratio, grad_n - ratio * grad_d

    return vg


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


def mlsi_verify(mu, C, cost, type, space, restarts=64, seed=0):
    """Search for f with Ent_mu(e^f) > C int alpha*(|grad (+/-f)|) e^f dmu.

    Type I uses the gradient of f, type II the gradient of -f.  The
    ratio is not scale invariant, so the best function found is also
    rescanned at 240 amplitudes from 1e-9 to 1e2 of its unit-range shape,
    one gradient for all (|grad (s u)| = s |grad u|); the first largest
    ratio wins if it beats the ascent.  `iterations` and
    `details.best_restart` are as in poincare_estimate; the rescan is not
    counted, and keeps the restart of its shape.
    """
    C = as_positive(C, "mlsi constant")
    restarts = as_count(restarts, "restarts")
    if type not in ("I", "II"):
        raise ValueError(f"mlsi type must be 'I' or 'II', got {type!r}")
    mu = as_measure(mu, space.n)
    sign = 1.0 if type == "I" else -1.0
    # a conjugate past the largest float is +inf, which scores its row -inf
    with np.errstate(over="ignore"):
        ratio, witness, iterations, best_k = _run_restarts(
            _mlsi_value_and_grad(mu, cost, sign, space), space, restarts, seed)
        if witness is not None and np.ptp(witness) > 0:
            unit = (witness - witness.min()) / np.ptp(witness)
            g = _gradient_argmax(sign * unit, space)[0]
            ratios = _mlsi_ratio(_AMPLITUDES[:, None] * unit, _AMPLITUDES[:, None] * g,
                                 mu, cost)[-1]
            j = int(np.argmax(ratios))
            if ratios[j] > ratio:
                ratio, witness = float(ratios[j]), _AMPLITUDES[j] * unit
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
    ||e^{Q_t f}||_q / ||e^f||_rho found, against the constant 1, and
    `details.best_log_ratio` its log; each sample is judged by its
    check's `holds`, so the sweep is "violated" when the sample of largest
    ratio fails that check."""
    mu = as_measure(mu, space.n)

    def evaluate(rng, k):
        f = _seed_function(rng, space, k)
        check = hypercontractivity_check(mu, C, f, rho, t, space, cost)
        log_ratio = check["log_lhs"] - check["log_rhs"]
        tested = "certified-no-violation" if check["holds"] else "violated"
        return log_ratio, tested, math.exp(min(log_ratio, 700.0)), f

    return _sweep("hypercontractivity", 1.0, n_samples, seed, evaluate,
                  lambda best_log: {"C": float(C), "cost": cost.label(), "rho": rho,
                                    "t": t, "q": rho + 2.0 * t / C,
                                    "best_log_ratio": best_log})
