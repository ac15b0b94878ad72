"""Quadrature oracle for the left Caputo integral."""

import numpy as np
import pytest

from akstar.caputo_quad import (
    _EPS,
    _graded_pass,
    _numeric_derivative,
    caputo_quad,
    power_rule_closed_form,
    power_rule_residual,
)
from akstar.errors import MalformedInputError, QuadratureFailureError
from akstar.expr import _gamma


def test_eps_is_numpy_machine_epsilon():
    # the finite-difference steps _H_CENTRAL and _H_ONESIDED derive from it
    assert _EPS == float(np.finfo(float).eps)


def test_constant_integrand_is_zero():
    r = caputo_quad(lambda u: np.full_like(u, 3.0), 1.0, 0.5)
    assert abs(r.value) <= r.error + 1e-12


def test_quadratic_matches_closed_form():
    r = caputo_quad(lambda u: u ** 2, 1.0, 0.5)
    assert r.value == pytest.approx(1.50450555612735, rel=1e-7)


def test_linear_matches_closed_form():
    r = caputo_quad(lambda u: u, 1.0, 0.5)
    assert r.value == pytest.approx(1.1283791670955126, rel=1e-7)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_power_rule_residual_grid(p, alpha, x):
    assert power_rule_residual(p, alpha, x) < 1e-6


def test_doubling_changes_less_than_reported_error():
    for p, alpha in [(0.5, 0.5), (2.0, 0.3), (3.7, 0.9)]:
        fp = _numeric_derivative(lambda u, p=p: u ** p, 1.0)
        r = caputo_quad(lambda u: u ** p, 1.0, alpha, rel_tol=1e-7)
        front = 1.0 / _gamma(1.0 - alpha)
        refined = front * _graded_pass(fp, 1.0, alpha, 2 * r.intervals)
        assert abs(refined - r.value) <= r.error


def test_error_estimate_is_honest_on_grid():
    for p in (0.5, 2.0):
        for alpha in (0.3, 0.9):
            r = caputo_quad(lambda u: u ** p, 1.0, alpha)
            truth = power_rule_closed_form(p, alpha, 1.0)
            assert abs(r.value - truth) <= max(20.0 * r.error, 1e-6 * abs(truth))


def test_budget_exhaustion_raises_with_estimates():
    with pytest.raises(QuadratureFailureError) as info:
        caputo_quad(lambda u: u ** 0.5, 1.0, 0.9, rel_tol=1e-15, max_intervals=256)
    assert len(info.value.estimates) == 2


def test_parameter_validation():
    with pytest.raises(MalformedInputError):
        caputo_quad(lambda u: u, 1.0, 1.2)
    with pytest.raises(MalformedInputError):
        caputo_quad(lambda u: u, 0.0, 0.5)
    with pytest.raises(MalformedInputError):
        caputo_quad(lambda u: u, 1.0, 0.5, rel_tol=0.0)
    with pytest.raises(MalformedInputError):
        caputo_quad(lambda u: u, 1.0, 0.5, max_intervals=8)


def test_power_rule_residual_rejects_nonpositive_exponent():
    with pytest.raises(MalformedInputError):
        power_rule_residual(-0.5, 0.5, 1.0)
