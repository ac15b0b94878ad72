"""Double-exponential quadrature for the left Caputo derivative of u^p.

Evaluates

    D^alpha u^p (x) = 1/Gamma(1-alpha) * int_0^x (x - s)^(-alpha) p s^(p-1) ds

for ``p > 0`` and ``alpha`` in (0, 1) directly from the defining integral,
independently of the closed-form power rule in :mod:`akstar.expr`.  The
substitution ``s = x w`` with ``w = 1/(1 + exp(-pi sinh t))`` (the
double-exponential map of Takahasi and Mori, Publ. RIMS 9, 1974) turns it
into

    p x^(p-alpha) / Gamma(1-alpha) * int w^p (1-w)^(1-alpha) pi cosh t dt

over the real line.  This integrand is bounded and decays double
exponentially at both ends, so neither endpoint singularity needs special
care.  It is cut at ``|t| = T``, where ``min(p, 1-alpha) pi sinh T = 45``,
and ``w^p (1-w)^(1-alpha)`` is formed from logarithms, so a weight that
underflows still contributes its power.  The trapezoid rule on
``[-T, T]`` halves its step until two successive estimates agree to ``REL_TOL``,
and the last change is reported as the error estimate.

The prefactor 1/Gamma(1-alpha) comes from ``math.gamma``, so the oracle
shares no Gamma code with the power rule it checks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import MalformedInputError, QuadratureFailureError
from .expr import power_rule_factor

# the integrand at the cut |t| = T is below (_TAIL / min(p, 1-alpha)) * exp(-_TAIL)
_TAIL = 45.0
REL_TOL = 1e-8
MAX_INTERVALS = 1 << 20


class QuadResult(NamedTuple):
    """A quadrature value and its error estimate."""

    value: float
    error: float


def caputo_quad(p: float, x: float, alpha: float) -> QuadResult:
    """Left Caputo derivative of ``u^p`` at ``x`` by tanh-sinh quadrature.

    ``p = 0`` (a constant) gives 0 without quadrature.
    Raises :class:`QuadratureFailureError` (carrying the last two
    estimates) if halving the step reaches ``MAX_INTERVALS`` on ``[-T, T]``
    before the estimates agree to ``REL_TOL``.
    """
    if not (0.0 < alpha < 1.0):
        raise MalformedInputError(f"alpha must be in (0, 1), got {alpha}")
    if not (x > 0.0):
        raise MalformedInputError(f"x must be positive, got {x}")
    if not (p >= 0.0):
        raise MalformedInputError(f"p must be >= 0, got {p}")
    if p == 0.0:
        return QuadResult(0.0, 0.0)

    one_m = 1.0 - alpha
    t_max = math.asinh(_TAIL / (math.pi * min(p, one_m)))

    def integrand(t):
        u = math.pi * math.sinh(t)
        near = -math.log1p(math.exp(-abs(u)))  # log of max(w, 1 - w)
        far = near - abs(u)  # log of min(w, 1 - w)
        log_w, log_wc = (near, far) if u >= 0.0 else (far, near)
        return math.exp(p * log_w + one_m * log_wc) * math.pi * math.cosh(t)

    front = p * x ** (p - alpha) / math.gamma(one_m)
    n = 16
    h = 2.0 * t_max / n
    total = sum(integrand(-t_max + k * h) for k in range(1, n)) + 0.5 * (
        integrand(-t_max) + integrand(t_max)
    )
    prev = h * total
    while True:
        n *= 2
        h *= 0.5
        total += sum(integrand(-t_max + k * h) for k in range(1, n, 2))
        cur = h * total
        err = abs(cur - prev)
        if err <= REL_TOL * abs(cur):
            return QuadResult(front * cur, front * err)
        if n >= MAX_INTERVALS:
            raise QuadratureFailureError(
                f"no convergence at {n} intervals: last estimates "
                f"{front * prev:.16e}, {front * cur:.16e}",
                estimates=(front * prev, front * cur),
            )
        prev = cur


def power_rule_residual(p: float, alpha: float, x: float) -> float:
    """Relative disagreement between the power rule and the quadrature.

    Only meaningful on the convergent region ``p > 0``, where the defining
    integral exists; the analytic continuation below zero has no integral
    to check against.
    """
    if not (p > 0.0):
        raise MalformedInputError(f"power_rule_residual needs p > 0, got {p}")
    quad = caputo_quad(p, x, alpha).value
    closed = power_rule_factor(p, alpha) * x ** (p - alpha)
    return abs(closed - quad) / max(abs(quad), 1e-300)
