"""Assembled verification reports for the worked example spaces.

Each function runs a library verification suite and returns a dict of
numbers, strings, lists and arrays; the command-line layer serializes it
through `space.jsonable`.
The two-point report checks every closed-form value of the smallest
space.  `constants_report` is the one routine that turns a space into
Poincare and entropy ratio estimates and the chain constant 2 C_m; the
hypercube report returns its block plus its own keys, recording the
measured ratios, which sit between n/4 and n/2 on small cubes, against
the commonly quoted n/4 and n/8 targets without asserting them.
`chain_report` wires one certified entropy constant through the
transport, dual and hypercontractivity consequences with consistent
bookkeeping: a certified ratio sup C_m in the form Ent(e^f) <= C_m int
alpha*(|grad f|) e^f dmu yields the chain constant C = 2 C_m, transport
checks at C/2 = C_m, and norm growth with exponent rho + 2t/C, whose
(rho, t) = (0, 1) case is the dual bound at C.  Every leg is an
`InequalityReport`.
"""

from __future__ import annotations

import numpy as np

from .cost import quadratic
from .funcineq import hypercontractivity_sweep, mlsi_verify, poincare_estimate, verdict
from .hj import _residual_pass, hj_boundary
from .space import as_measure, build_example, uniform_measure
from .transport import check_transport_entropy


def two_point_report(restarts=64, seed=0):
    """Closed-form verification on the two-point space, f = (1, 0).

    Expected values: Q~_t f = (1 - t/2, 0) on (0, 1); d/dt Q~_t f(0) =
    -1/2; the subsolution residual at 0 equals -1/2 + (1 - t/2)^2/2 and
    stays strictly negative; the boundary limit is -1/2; the Poincare
    ratio is 1/2.
    """
    space = build_example("two_point")
    mu = uniform_measure(2)
    cost = quadratic()
    f = np.array([1.0, 0.0])

    table = []
    value_err = 0.0
    deriv_err = 0.0
    strict = True
    ts = np.linspace(0.1, 0.9, 9)
    for t, q, dq, hj in zip(ts, *_residual_pass(f, ts, cost, space)):
        expected = [1.0 - t / 2.0, 0.0]
        residual0 = -0.5 + (1.0 - t / 2.0) ** 2 / 2.0
        value_err = max(value_err, float(np.max(np.abs(q - expected))))
        deriv_err = max(deriv_err, abs(float(dq[0]) + 0.5))
        strict = strict and hj.residuals[0] < 0.0 and hj.holds
        table.append({
            "t": t,
            "values": q,
            "expected": expected,
            "derivative": dq,
            "residual": hj.residuals,
            "residual_expected": [residual0, 0.0],
        })

    boundary = hj_boundary(f, cost, space)
    poincare = poincare_estimate(mu, space, restarts=restarts, seed=seed)
    return {
        "space": "two_point",
        "f": [1.0, 0.0],
        "cost": cost.label(),
        "table": table,
        "max_value_error": value_err,
        "max_derivative_error": deriv_err,
        "residual_strictly_negative": bool(strict),
        "boundary": boundary.to_json_dict(),
        "poincare": poincare.to_json_dict(),
        "poincare_expected": 0.5,
        "holds": bool(value_err <= 1e-12 and deriv_err <= 1e-12 and strict
                      and boundary.holds
                      and abs(poincare.best_ratio - 0.5) <= 1e-6),
        "seed": seed,
    }


def chain_report(space, mu=None, C=None, restarts=24, samples=300, seed=0):
    """Entropy constant and its transport/dual/norm-growth consequences.

    With C_m the supplied constant of Ent(e^f) <= C_m int alpha*(|grad
    f|) e^f dmu for the quadratic cost, or without C the largest ratio
    the entropy search finds (the `mlsi` leg is then tested at it,
    `mlsi.constant` = `entropy_constant`), the chain runs
    at C = 2 C_m: sampled transport-entropy checks in both directions
    at C_m, and hypercontractive norm growth with exponent rho + 2t/C
    sampled by `hypercontractivity_sweep` at (rho, t) = (0, 1), the
    exponential dual bound at C (the `dual` leg), and at (0.5, 1) and
    (1, 0.5) (the `hypercontractivity` legs).  Every leg is an
    `InequalityReport` over `samples` draws (restarts for `mlsi`) from
    `seed`; a norm-growth leg's `witness` is the function of largest norm
    ratio.  `coherent` is True when every leg certifies: a violated or an
    inconclusive leg makes it False.  Without C, a search that
    finds no ratio above 1e-12 (every Ent_mu(e^f) vanishes, as under a
    Dirac mu) raises ValueError: there is no constant to run the chain
    at.
    """
    cost = quadratic()
    mu = uniform_measure(space.n) if mu is None else as_measure(mu, space.n)
    estimated = C is None
    est = mlsi_verify(mu, 1.0 if estimated else C, cost, "I", space,
                      restarts=restarts, seed=seed)
    if estimated and est.best_ratio <= 1e-12:
        raise ValueError(
            "the entropy search found no ratio above 1e-12, so no entropy "
            "constant can be estimated (Ent_mu(e^f) vanishes, as under a "
            "Dirac mu); supply C (--C)")
    c_m = est.best_ratio if estimated else float(C)
    # an estimated C_m is the largest ratio found: the leg is tested at it
    est.constant, est.verdict = c_m, verdict(est.best_ratio, c_m)
    chain_c = 2.0 * c_m

    te = {d: check_transport_entropy(mu, c_m, cost, space, direction=d,
                                     n_samples=samples, seed=seed)
          for d in ("I", "II")}
    # norm growth at (rho, t) = (0, 1) is the exponential dual bound
    dual, *growth = (hypercontractivity_sweep(mu, chain_c, rho, t, cost, space,
                                              n_samples=samples, seed=seed)
                     for rho, t in ((0.0, 1.0), (0.5, 1.0), (1.0, 0.5)))
    legs = (est, te["I"], te["II"], dual, *growth)
    return {
        "space": {"n": space.n, "diameter": space.diameter},
        "cost": cost.label(),
        "entropy_constant": c_m,
        "entropy_constant_estimated": bool(estimated),
        "entropy_ratio": est.best_ratio,
        "chain_constant": chain_c,
        "mlsi": est.to_json_dict(),
        "transport": {d: r.to_json_dict() for d, r in te.items()},
        "dual": dual.to_json_dict(),
        "hypercontractivity": [leg.to_json_dict() for leg in growth],
        "coherent": all(leg.verdict == "certified-no-violation" for leg in legs),
        "samples": samples,
        "seed": seed,
    }


def constants_report(space, mu=None, restarts=24, seed=0):
    """Multi-start Poincare and entropy ratio estimates (quadratic cost,
    with the entropy witness) and the chain constant C = 2 C_m, with C_m
    the entropy ratio found: 0 when every Ent_mu(e^f) vanishes."""
    mu = uniform_measure(space.n) if mu is None else as_measure(mu, space.n)
    poincare = poincare_estimate(mu, space, restarts=restarts, seed=seed)
    est = mlsi_verify(mu, 1.0, quadratic(), "I", space, restarts=restarts, seed=seed)
    return {
        "space": {"n": space.n, "diameter": space.diameter},
        "poincare": poincare.to_json_dict(),
        "diameter_bound": 0.5 * space.diameter ** 2,
        "entropy_ratio": est.best_ratio,
        "entropy_witness": est.witness,
        "chain_constant": 2.0 * est.best_ratio,
        "restarts": restarts,
        "seed": seed,
    }


def hypercube_report(n=2, restarts=24, samples=300, seed=0):
    """Measured tight constants on the n-cube against quoted targets.

    Records the `constants_report` block and whether the quoted n/4
    (entropy), n/8 (transport) and n/2 levels are met: the entropy ratio
    judged by `funcineq.verdict` at n/4 and n/2, and the transport level
    by the verdict of its own sweep at n/8 (`transport_sampled`), which
    an unconverged solve leaves unmet.  The n/4-vs-n/2
    bookkeeping discrepancy is recorded here, never asserted: measured
    tight entropy ratios on small cubes sit between the n/4 quote and the
    n/2 level (0.82, 1.07 and 1.36 for n = 2, 3, 4).
    """
    space = build_example("hypercube", n)
    report = constants_report(space, restarts=restarts, seed=seed)
    ratio = report["entropy_ratio"]
    certified = "certified-no-violation"
    te = check_transport_entropy(uniform_measure(space.n), n / 8.0, quadratic(),
                                 space, direction="I", n_samples=samples, seed=seed)
    return {
        **report,
        "space": f"hypercube({n})",
        "vertices": space.n,
        "quoted_targets": {"entropy": n / 4.0, "transport": n / 8.0,
                           "fallback_level": n / 2.0},
        "targets_met": {
            "entropy_quarter": verdict(ratio, n / 4.0) == certified,
            "transport_eighth": te.verdict == certified,
            "half_level": verdict(ratio, n / 2.0) == certified,
        },
        "transport_sampled": te.to_json_dict(),
        "note": ("the quoted n/4 entropy and n/8 transport targets are "
                 "recorded against measured tight ratios; on small cubes the "
                 "entropy ratio sits between n/4 and n/2; the n/4-vs-n/2 "
                 "discrepancy is recorded, not asserted"),
    }

