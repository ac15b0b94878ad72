"""Characteristic-form layer: exterior derivative, gamma, mu/lam/kappa, c0."""

import numpy as np
import pytest

from akstar.chern import (
    adapted_form,
    c0_representative,
    chern_weyl,
    curvature_trace,
    exterior_derivative,
    lemma_forms,
)
from akstar.errors import MalformedInputError
from akstar.expr import Signomial
from akstar.fedosov import FedosovMachine
from akstar.wick import WickElement

from _configs import make_bundle, probe_fields, sample_points


def as_zero_form(f):
    return WickElement.from_signomial(f)


def test_form_construction_canonicalizes():
    dim = 2
    one = Signomial.constant(dim, 1.0)
    f = adapted_form(dim, [((1, 0), one)])
    assert f.terms == {(0, (0, 0), (0, 1)): one.scale(-1.0)}
    assert adapted_form(dim, [((0, 0), one)]).is_zero
    with pytest.raises(MalformedInputError):
        WickElement.from_term(dim, 0, (0,), (0, 1), one)  # fiber part of the key too short


def test_d_of_constant_vanishes_any_alpha():
    for alpha in (0.5, 1.0):
        m = FedosovMachine(make_bundle("flat", 1, alpha))
        d = exterior_derivative(as_zero_form(Signomial.constant(2, 3.0)), m)
        assert d.is_zero


def test_d_of_x_e_x_flat():
    m = FedosovMachine(make_bundle("flat", 1, 1.0))
    x = Signomial.coordinate(2, 0)
    form = adapted_form(2, [((0,), x)])
    d = exterior_derivative(form, m)
    assert d.is_zero  # e_x(x) e^x ^ e^x with no structure functions


def test_d_squared_vanishes_classically():
    m = FedosovMachine(make_bundle("coupled", 2, 1.0))
    for f in probe_fields(2):
        dd = exterior_derivative(exterior_derivative(as_zero_form(f), m), m)
        assert dd.sample_norm(sample_points(2)) < 1e-10


def test_d_squared_fractional_is_reported_not_asserted():
    m = FedosovMachine(make_bundle("coupled", 1, 0.45))
    worst = 0.0
    for f in probe_fields(1):
        dd = exterior_derivative(exterior_derivative(as_zero_form(f), m), m)
        worst = max(worst, dd.sample_norm(sample_points(1)))
    assert np.isfinite(worst)


def test_theta_is_d_of_canonical_one_form_classically():
    # diagnostic only: the canonical 1-form differentiates to theta at
    # alpha = 1 with the engine's orientation
    from akstar.geometry import lagrange_one_form

    for kind, n in (("coupled", 1), ("cross", 2)):
        b = make_bundle(kind, n, 1.0)
        comps = {}
        for i, c in enumerate(lagrange_one_form(b.spec)):
            if not c.is_zero:
                comps[(i,)] = c
        domega = exterior_derivative(adapted_form(2 * n, comps.items()), FedosovMachine(b))
        theta = adapted_form(
            2 * n,
            [
                ((a, c), b.theta_lower[a][c])
                for a in range(2 * n)
                for c in range(a + 1, 2 * n)
                if not b.theta_lower[a][c].is_zero
            ],
        )
        assert (domega - theta).sample_norm(sample_points(n)) < 1e-10


# -- gamma -------------------------------------------------------------------


def test_gamma_zero_on_flat_config():
    b = make_bundle("flat", 1, 1.0)
    gamma = chern_weyl(b, curvature_trace(b))
    assert gamma.is_zero
    assert c0_representative(gamma).is_zero


def test_gamma_closed_classically():
    for kind, n in (("coupled", 1), ("coupled", 2), ("cross", 2)):
        b = make_bundle(kind, n, 1.0)
        gamma = chern_weyl(b, curvature_trace(b))
        dgamma = exterior_derivative(gamma, FedosovMachine(b))
        assert dgamma.sample_norm(sample_points(n)) < 1e-8


# Every config kind at alpha = 1 and, where its bundle builds, at alpha =
# 0.45 (cross and w4 hit a Gamma pole at every fractional alpha), with
# whether its frame curvature has a non-zero entry.
BLOCK_CASES = [
    ("flat", 1, 1.0, False),
    ("flat", 1, 0.45, False),
    ("flat", 2, 1.0, False),
    ("flat", 2, 0.45, False),
    ("coupled", 1, 1.0, False),
    ("coupled", 1, 0.45, True),
    ("coupled", 2, 1.0, False),
    ("coupled", 2, 0.45, True),
    ("cross", 2, 1.0, False),
    ("y4", 1, 1.0, False),
    ("y4", 1, 0.45, False),
    ("x2y3", 1, 1.0, False),
    ("x2y3", 1, 0.45, True),
    ("w4", 2, 1.0, True),
]


@pytest.mark.parametrize(
    "kind,n,alpha,curved", BLOCK_CASES, ids=[f"{k}-{n}-{a}" for k, n, a, _ in BLOCK_CASES]
)
def test_gamma_vanishes_by_block_structure(kind, n, alpha, curved):
    # the almost-complex matrix swaps the h/v blocks while the
    # d-connection curvature preserves them, so the trace defining gamma
    # is empty even where the curvature itself is not
    b = make_bundle(kind, n, alpha)
    dim = 2 * n
    mixed = [(t, f) for t in range(dim) for f in range(dim) if (t < n) != (f < n)]
    for t, f in mixed:
        assert all(entry.is_zero for row in b.curvature[t][f] for entry in row), (t, f)
    assert {(r, c) for r in range(dim) for c in range(dim) if b.J[r][c]} <= set(mixed)
    assert any(not entry.is_zero for block in b.curvature for row in block for col in row
               for entry in col) == curved
    trace = curvature_trace(b)
    assert trace.is_zero
    gamma = chern_weyl(b, trace)
    assert gamma.is_zero
    assert exterior_derivative(gamma, FedosovMachine(b)).sample_norm(sample_points(n)) == 0.0


# -- lemma forms ----------------------------------------------------------------


def test_lemma_forms_zero_on_flat_config():
    b = make_bundle("flat", 1, 1.0)
    mu, lam, kappa = lemma_forms(FedosovMachine(b), curvature_trace(b))
    assert mu.is_zero and lam.is_zero and kappa.is_zero


def test_mu_from_fractional_torsion():
    b = make_bundle("flat", 1, 0.5)
    mu, lam, kappa = lemma_forms(FedosovMachine(b), curvature_trace(b))
    assert {key[2] for key in mu.terms} <= {(0,), (1,)}
    assert not mu.is_zero
    # single torsion component C y^{-1/2} contracts against the constant J
    (key, coeff), = [(k, c) for k, c in mu.terms.items()]
    assert dict(coeff.sorted_terms()).keys() == {(0.0, -0.5)}
    assert abs(dict(coeff.sorted_terms())[(0.0, -0.5)]) == pytest.approx(
        0.5641895835477563 / 6.0, rel=1e-12
    )


def test_kappa_assembly_identity():
    # kappa + i lam = (i/2) gamma; lemma_forms builds kappa from the same
    # curvature trace that gamma scales, so this pins the assembly (the
    # -i/8 and -1/4 factors and the sign of lam), not an independent value
    for kind, n, alpha in (
        ("coupled", 1, 1.0),
        ("cross", 2, 1.0),
        ("coupled", 1, 0.45),
        ("flat", 1, 0.5),
        ("y4", 1, 1.0),
    ):
        b = make_bundle(kind, n, alpha)
        gamma = chern_weyl(b, curvature_trace(b))
        mu, lam, kappa = lemma_forms(FedosovMachine(b), curvature_trace(b))
        lhs = kappa + lam.scale(1j)
        rhs = gamma.scale(0.5j)
        assert (lhs - rhs).sample_norm(sample_points(n)) < 1e-8
    # on y^4 the two cancelling terms are of order one, so the last case is not 0 = 0
    assert kappa.sample_norm(sample_points(1)) > 0.5
    assert lam.sample_norm(sample_points(1)) > 0.5


def test_lambda_is_exact_by_construction():
    m = FedosovMachine(make_bundle("coupled", 1, 1.0))
    mu, lam, kappa = lemma_forms(m, curvature_trace(m.bundle))
    dlam = exterior_derivative(lam, m)
    assert dlam.sample_norm(sample_points(1)) < 1e-10


def test_d_lambda_is_d_squared_mu_on_w4():
    # n = 2 with non-zero torsion: lam is a genuine 2-form and d lam has
    # 3-form components that cancel only numerically
    m = FedosovMachine(make_bundle("w4", 2, 1.0))
    mu, lam, kappa = lemma_forms(m, curvature_trace(m.bundle))
    assert len(lam.terms) == 6
    dlam = exterior_derivative(lam, m)
    assert len(dlam.terms) == 4
    assert dlam.sample_norm(sample_points(2)) < 1e-10


# -- c0 ----------------------------------------------------------------------------


def test_c0_scales_linearly_and_matches_pointwise():
    # gamma is zero on every config (see test_gamma_vanishes_by_block_structure),
    # so the map is exercised on a non-zero adapted 2-form instead
    x, y = Signomial.coordinate(4, 0), Signomial.coordinate(4, 3)
    gamma = adapted_form(4, [((0, 1), x * y + Signomial.constant(4, 2.0)), ((3, 2), y.scale(0.5j))])
    rep = c0_representative(gamma)
    assert len(rep.terms) == 2
    rep2 = c0_representative(gamma.scale(2.0))
    assert (rep2 - rep.scale(2.0)).coeff_norm() <= 1e-13
    for key, c in rep.terms.items():
        for p in sample_points(2):
            assert c.eval_at(p) == pytest.approx(0.5j * gamma.terms[key].eval_at(p))
            assert c.eval_at(p) != 0
