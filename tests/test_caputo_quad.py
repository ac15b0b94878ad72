"""Quadrature oracle for the left Caputo integral."""

import pytest

from akstar import caputo_quad as quad_module
from akstar.caputo_quad import caputo_quad, power_rule_residual
from akstar.errors import MalformedInputError, QuadratureFailureError
from akstar.expr import power_rule_factor


def test_constant_integrand_is_zero():
    r = caputo_quad(0.0, 1.0, 0.5)
    assert r.value == 0.0 and r.error == 0.0


def test_quadratic_matches_closed_form():
    r = caputo_quad(2.0, 1.0, 0.5)
    assert r.value == pytest.approx(1.50450555612735, rel=1e-7)


def test_linear_matches_closed_form():
    r = caputo_quad(1.0, 1.0, 0.5)
    assert r.value == pytest.approx(1.1283791670955126, rel=1e-7)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_power_rule_residual_grid(p, alpha, x):
    assert power_rule_residual(p, alpha, x) < 1e-6


def test_doubling_changes_less_than_reported_error(monkeypatch):
    for p, alpha in [(0.5, 0.5), (2.0, 0.3), (3.7, 0.9)]:
        monkeypatch.setattr(quad_module, "REL_TOL", 1e-7)
        r = caputo_quad(p, 1.0, alpha)
        monkeypatch.setattr(quad_module, "REL_TOL", 1e-14)
        refined = caputo_quad(p, 1.0, alpha)
        assert abs(refined.value - r.value) <= r.error


def test_error_estimate_is_honest_on_grid():
    for p in (0.5, 2.0):
        for alpha in (0.3, 0.9):
            r = caputo_quad(p, 1.0, alpha)
            truth = power_rule_factor(p, alpha)
            assert abs(r.value - truth) <= max(20.0 * r.error, 1e-6 * abs(truth))


def test_small_exponents_keep_their_underflowing_tails():
    # u^0.01 and alpha = 0.99 put weight at |t| > 6, where w or 1 - w
    # underflows to 0.0; the logarithmic form keeps their powers
    for p, alpha in [(0.01, 0.5), (0.5, 0.99), (0.01, 0.99)]:
        assert power_rule_residual(p, alpha, 1.0) < 1e-12


def test_budget_exhaustion_raises_with_estimates(monkeypatch):
    monkeypatch.setattr(quad_module, "REL_TOL", 1e-15)
    monkeypatch.setattr(quad_module, "MAX_INTERVALS", 32)
    with pytest.raises(QuadratureFailureError) as info:
        caputo_quad(0.5, 1.0, 0.9)
    assert len(info.value.estimates) == 2


def test_parameter_validation():
    with pytest.raises(MalformedInputError):
        caputo_quad(1.0, 1.0, 1.2)
    with pytest.raises(MalformedInputError):
        caputo_quad(1.0, 0.0, 0.5)
    with pytest.raises(MalformedInputError):
        caputo_quad(-0.5, 1.0, 0.5)


def test_power_rule_residual_rejects_nonpositive_exponent():
    with pytest.raises(MalformedInputError):
        power_rule_residual(-0.5, 0.5, 1.0)
