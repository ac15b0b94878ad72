"""Singularity-aware quadrature for the left Caputo derivative.

Evaluates

    D^alpha f(x) = 1/Gamma(1-alpha) * int_0^x (x - s)^(-alpha) f'(s) ds

for ``alpha`` in (0, 1) directly from the defining integral, independently
of the closed-form power rule in :mod:`akstar.expr`.  One scheme: substitute
``t = (x - s)^(1-alpha)``, which absorbs the kernel singularity at ``s = x``
exactly, then integrate the transformed integrand with a composite midpoint
rule on a mesh graded toward the ``s -> 0`` end (where ``f'`` itself may
blow up, e.g. ``f = s^p`` with ``p < 1``).  The open midpoint rule never
evaluates at the interval endpoints, so ``f`` is only called inside
``(0, x)``.

The mesh doubles until successive estimates agree to the requested
relative tolerance, and the last increment is reported as the error
estimate.  ``f'`` is reconstructed by Richardson-extrapolated central
differences (falling back to a one-sided stencil where the central one
would leave ``(0, x]``).

The prefactor 1/Gamma(1-alpha) comes from the pure-Python Cephes port in
:mod:`akstar.expr`, which returns the same bits as ``scipy.special.gamma``.
numpy is imported by the functions that call it, not with the module: the
CLI loads this module on every invocation, but only the fractional
(alpha < 1) check suite runs the quadrature.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from .errors import MalformedInputError, QuadratureFailureError
from .expr import _gamma, power_rule_factor

_EPS = sys.float_info.epsilon
# optimal steps for 4th/3rd order finite-difference stencils
_H_CENTRAL = _EPS ** 0.2
_H_ONESIDED = _EPS ** 0.25
# mesh grading exponent toward the s -> 0 end
_GRADING = 6.0


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    intervals: int


def _numeric_derivative(f: Callable, x_max: float) -> Callable:
    """Vectorized f' on (0, x_max] from values of f on (0, x_max] only."""
    import numpy as np

    def fp(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        out = np.empty_like(y)
        hc = _H_CENTRAL * y
        central = y + hc <= x_max
        if np.any(central):
            yc, h = y[central], hc[central]
            d1 = (f(yc + h) - f(yc - h)) / (2.0 * h)
            d2 = (f(yc + 0.5 * h) - f(yc - 0.5 * h)) / h
            out[central] = (4.0 * d2 - d1) / 3.0
        if np.any(~central):
            yb = y[~central]
            h = _H_ONESIDED * yb
            # third-order backward stencil keeps all nodes at or below y
            out[~central] = (
                11.0 * f(yb) - 18.0 * f(yb - h) + 9.0 * f(yb - 2.0 * h) - 2.0 * f(yb - 3.0 * h)
            ) / (6.0 * h)
        return out

    return fp


def _graded_pass(fp, x, alpha, n_intervals):
    import numpy as np

    one_m = 1.0 - alpha
    big_x = x ** one_m
    k = np.arange(n_intervals + 1, dtype=float) / n_intervals
    # s measures distance from the singular end t = X; grading clusters there
    s_edges = big_x * k ** _GRADING
    mids = 0.5 * (s_edges[:-1] + s_edges[1:])
    widths = np.diff(s_edges)
    t_mid = big_x - mids
    points = x - t_mid ** (1.0 / one_m)
    points = np.clip(points, 0.0, x)
    good = points > 0.0
    total = float(np.sum(widths[good] * fp(points[good])))
    return total / one_m


def caputo_quad(
    f: Callable, x: float, alpha: float, *, rel_tol: float = 1e-8, max_intervals: int = 1 << 20
) -> QuadResult:
    """Left Caputo derivative of ``f`` at ``x`` by adaptive quadrature.

    ``f`` must accept numpy arrays of points in ``(0, x]``; its derivative
    is recovered numerically.  Raises :class:`QuadratureFailureError`
    (carrying the last two estimates) if doubling reaches ``max_intervals``
    before the estimates agree to ``rel_tol``.
    """
    if not (0.0 < alpha < 1.0):
        raise MalformedInputError(f"alpha must be in (0, 1), got {alpha}")
    if not (x > 0.0):
        raise MalformedInputError(f"x must be positive, got {x}")
    if not (rel_tol > 0.0):
        raise MalformedInputError(f"rel_tol must be positive, got {rel_tol}")
    if max_intervals < 16:
        raise MalformedInputError(f"max_intervals must be >= 16, got {max_intervals}")

    fp = _numeric_derivative(f, x)
    front = 1.0 / _gamma(1.0 - alpha)

    n = 64
    prev = _graded_pass(fp, x, alpha, n)
    while True:
        n *= 2
        cur = _graded_pass(fp, x, alpha, n)
        err = abs(cur - prev) / 3.0
        if err <= rel_tol * max(abs(cur), 1e-12):
            return QuadResult(front * cur, front * err, n)
        if n >= max_intervals:
            raise QuadratureFailureError(
                f"no convergence at {n} intervals: last estimates "
                f"{front * prev:.16e}, {front * cur:.16e}",
                estimates=(front * prev, front * cur),
            )
        prev = cur


def power_rule_closed_form(p: float, alpha: float, x: float) -> float:
    """Closed-form Caputo derivative of u^p, for cross-checks."""
    return power_rule_factor(p, alpha) * x ** (p - alpha)


def power_rule_residual(p: float, alpha: float, x: float) -> float:
    """Relative disagreement between the power rule and the quadrature.

    Only meaningful on the convergent region ``p > 0``, where the defining
    integral exists; the analytic continuation below zero has no integral
    to check against.
    """
    if not (p > 0.0):
        raise MalformedInputError(f"power_rule_residual needs p > 0, got {p}")
    quad = caputo_quad(lambda u: u ** p, x, alpha).value
    closed = power_rule_closed_form(p, alpha, x)
    return abs(closed - quad) / max(abs(quad), 1e-300)
