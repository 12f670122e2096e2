"""Convex cost functions for inf-convolution operators.

Two formulas on [0, infinity):

* power(p)         x^p / p          (p > 1); quadratic is p = 2
* qlin(a, h)       a x^2 on [0, h], then the tangent line 2 a h x - a h^2

All are convex, increasing, C^1, with alpha(0) = alpha'(0) = 0.  Conjugate
values outside the finite domain are returned as math.inf; callers must
branch on finiteness before doing arithmetic with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CostFunction:
    kind: str
    p: float = 2.0
    a: float = 0.5
    h: float = math.inf

    def __post_init__(self):
        if self.kind not in ("quadratic", "power", "qlin"):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == "quadratic" and self.p != 2.0:
            raise ValueError(f"quadratic cost has p = 2, got {self.p}")
        if self.kind == "power" and not 1 < self.p < math.inf:
            raise ValueError(f"power cost needs finite p > 1, got {self.p}")
        if self.kind == "qlin" and not (0 < self.a < math.inf and 0 < self.h < math.inf):
            raise ValueError(f"qlin cost needs finite a > 0 and h > 0, got a={self.a} h={self.h}")

    # -- evaluation ---------------------------------------------------------

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "qlin":
            a, h = self.a, self.h
            out = np.where(x <= h, a * x * x, 2 * a * h * x - a * h * h)
        else:
            out = x ** self.p / self.p
        return out if out.ndim else float(out)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "qlin":
            a, h = self.a, self.h
            out = np.where(x <= h, 2 * a * x, 2 * a * h)
        else:
            out = x ** (self.p - 1.0)
        return out if out.ndim else float(out)

    def conjugate(self, y):
        """Legendre transform sup_{x>=0} (xy - alpha(x)); +inf past the
        slope bound of the qlin variant."""
        y = np.asarray(y, dtype=float)
        if self.kind == "qlin":
            a, h = self.a, self.h
            out = np.where(y <= 2 * a * h, y * y / (4 * a), math.inf)
        else:
            q = self.p / (self.p - 1.0)
            out = y ** q / q
        return out if out.ndim else float(out)

    def beta(self, x):
        """beta(x) = x alpha'(x) - alpha(x) = alpha*(alpha'(x)); non-negative
        and non-decreasing on [0, infinity)."""
        x = np.asarray(x, dtype=float)
        out = x * self.deriv(x) - self.eval(x)
        return out if out.ndim else float(out)

    def conjugate_deriv(self, y):
        """Derivative of the conjugate; +inf past the qlin slope bound."""
        y = np.asarray(y, dtype=float)
        if self.kind == "qlin":
            a, h = self.a, self.h
            out = np.where(y <= 2 * a * h, y / (2 * a), math.inf)
        else:
            q = self.p / (self.p - 1.0)
            out = y ** (q - 1.0)
        return out if out.ndim else float(out)

    def conjugate_domain_bound(self):
        """Supremum slope l = lim alpha'(x); the conjugate is finite on [0, l]
        and +inf beyond.  Infinite for quadratic and power costs."""
        if self.kind == "qlin":
            return 2 * self.a * self.h
        return math.inf

    def label(self):
        if self.kind == "power":
            return f"power:p={self.p:g}"
        if self.kind == "qlin":
            return f"qlin:a={self.a:g},h={self.h:g}"
        return self.kind


def quadratic():
    return CostFunction("quadratic")


def power(p):
    return CostFunction("power", p=float(p))


def quadratic_linear(a, h):
    return CostFunction("qlin", a=float(a), h=float(h))


def parse_cost_spec(spec):
    """Parse CLI cost strings: 'quadratic', 'power:p=3', 'qlin:a=0.25,h=2'."""
    spec = spec.strip()
    if spec == "quadratic":
        return quadratic()
    if ":" not in spec:
        raise ValueError(f"bad cost spec {spec!r}")
    kind, _, args = spec.partition(":")
    kv = {}
    for part in args.split(","):
        k, eq, v = part.partition("=")
        if not eq:
            raise ValueError(f"bad cost parameter {part!r} in {spec!r}")
        try:
            kv[k.strip()] = float(v)
        except ValueError:
            raise ValueError(f"non-numeric value {v!r} in {spec!r}") from None
    try:
        if kind == "power":
            return power(kv["p"])
        if kind == "qlin":
            return quadratic_linear(kv["a"], kv["h"])
    except KeyError as missing:
        raise ValueError(f"cost spec {spec!r} is missing parameter {missing}") from None
    raise ValueError(f"unknown cost kind {kind!r} in {spec!r}")
