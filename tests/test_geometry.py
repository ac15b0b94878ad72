"""Geometric construction chain: metric through curvature and J/theta."""

import dataclasses

import numpy as np
import pytest

from akstar.errors import ExpressionClassError, FractionalDomainError, RegularityError
from akstar.expr import AlphaContext, Signomial, coeff_distance
from akstar import geometry as geo

from _configs import (
    coupled_lagrangian,
    cross_lagrangian,
    flat_lagrangian,
    make_bundle,
    make_spec,
    probe_fields,
    sample_points,
)

C_VYY = 0.5641895835477563  # 1 / (2 Gamma(1.5))
ALPHAS = (0.3, 0.5, 0.9, 1.0)


# -- Hessian metric ---------------------------------------------------------


def test_hessian_flat_classical():
    b = make_bundle("flat", 1, 1.0)
    assert b.g_lower[0][0] == Signomial.constant(2, 1.0)


def test_hessian_flat_fractional():
    b = make_bundle("flat", 1, 0.5)
    assert dict(b.g_lower[0][0].sorted_terms()) == {(0.0, 1.0): pytest.approx(1.0)}


def test_hessian_coupled_classical():
    b = make_bundle("coupled", 1, 1.0)
    assert dict(b.g_lower[0][0].sorted_terms()) == {(2.0, 0.0): pytest.approx(2.0 * 0.5)}


def test_hessian_rejects_off_diagonal():
    ctx = AlphaContext(alpha=1.0, n=2)
    L = Signomial.from_terms(4, [(1.0, [0, 0, 1, 1])])  # y1*y2
    with pytest.raises(ExpressionClassError, match="off-diagonal"):
        geo.build_geometry(geo.LagrangianSpec(L=L, ctx=ctx))


def test_hessian_rejects_multiterm_diagonal():
    ctx = AlphaContext(alpha=1.0, n=1)
    L = Signomial.from_terms(2, [(1.0, [0, 2]), (1.0, [0, 3])])
    with pytest.raises(ExpressionClassError, match="single-monomial"):
        geo.build_geometry(geo.LagrangianSpec(L=L, ctx=ctx))


def test_hessian_regularity_check():
    ctx = AlphaContext(alpha=1.0, n=1)
    L = Signomial.from_terms(2, [(1e-13, [0, 2])])
    with pytest.raises(RegularityError):
        geo.build_geometry(geo.LagrangianSpec(L=L, ctx=ctx))


def test_build_geometry_builds_the_hessian_once(monkeypatch):
    calls = []
    hessian = geo.hessian_metric
    monkeypatch.setattr(geo, "hessian_metric", lambda spec: calls.append(spec) or hessian(spec))
    geo.build_geometry(make_spec("coupled", 1, 1.0))
    assert len(calls) == 1


# -- semi-spray and N-connection --------------------------------------------


def _omega(b):
    # the N-connection curvature Omega^a_{ij}, the anholonomy[n + a][i][j] block
    n = b.ctx.n
    return [b.anholonomy[n + a][i][j] for a in range(n) for i in range(n) for j in range(n)]


def test_semi_spray_vanishes_without_base_coupling():
    b = make_bundle("flat", 1, 0.5)
    assert all(g.is_zero for g in b.G)
    assert all(n_.is_zero for row in b.N for n_ in row)
    assert all(o.is_zero for o in _omega(b))


def test_semi_spray_coupled_classical_hand_value():
    b = make_bundle("coupled", 1, 1.0)
    assert dict(b.G[0].sorted_terms()) == {(-1.0, 2.0): pytest.approx(0.5)}
    assert dict(b.N[0][0].sorted_terms()) == {(-1.0, 1.0): pytest.approx(1.0)}


def test_semi_spray_coupled_classical_finite_difference():
    # Euler-Lagrange reading: along a curve with x' = y the acceleration is
    # x'' = -2 G; for L = x^2 y^2 the energy x^2 y^2 conservation gives an
    # independent numeric slope check at (1, 1).
    b = make_bundle("coupled", 1, 1.0)
    g_val = b.G[0].eval_at((1.0, 1.0)).real
    # d/dt (dL/dy) = dL/dx along (x(t), y(t) = x'(t)):
    # 2 x^2 y' + 4 x y^2 = 2 x y^2  =>  y' = -x^{-1} y^2 = -2 G
    assert g_val == pytest.approx(0.5)
    assert -2.0 * g_val == pytest.approx(-1.0)


def test_semi_spray_fractional_matches_scripted_expansion():
    spec = make_spec("coupled", 1, 0.5)
    ctx = spec.ctx
    _, h_inv = geo.hessian_metric(spec)
    d_x = ctx.deriv(spec.L, 0)
    y = Signomial.coordinate(2, 1)
    expected = (h_inv[0][0] * (y * ctx.deriv(d_x, 1) - d_x)).scale(0.25)
    got = geo.semi_spray(spec, h_inv)[0]
    assert coeff_distance(got, expected) <= 1e-14
    exps = {k[0] for k, _ in got.sorted_terms()}
    assert exps == {-0.5} and len(got.terms) == 2


def test_omega_zero_for_single_base_coordinate():
    b = make_bundle("coupled", 1, 0.5)
    assert all(o.is_zero for o in _omega(b))


def test_cross_config_has_off_diagonal_n():
    # cross coupling fills the off-diagonal N slots while the canonical
    # semi-spray keeps the horizontal distribution integrable (Omega = 0)
    b = make_bundle("cross", 2, 1.0)
    assert not b.N[0][1].is_zero
    assert all(o.is_zero for o in _omega(b))


# -- adapted derivative ------------------------------------------------------


def test_adapted_derivative_reduces_to_plain_without_n():
    b = make_bundle("flat", 1, 0.5)
    f = Signomial.from_terms(2, [(1.0, [1.0, 2.0])])
    assert coeff_distance(b.e(f, 0), b.ctx.deriv(f, 0)) == 0.0


def test_adapted_derivative_subtracts_transport():
    b = make_bundle("coupled", 1, 1.0)  # N^y_x = y/x
    y = Signomial.coordinate(2, 1)
    expected = Signomial.from_terms(2, [(-1.0, [-1.0, 1.0])])
    assert coeff_distance(b.e(y, 0), expected) == 0.0
    x = Signomial.coordinate(2, 0)
    assert b.e(x, 1).is_zero


def test_adapted_derivative_matches_finite_differences_classically():
    b = make_bundle("coupled", 2, 1.0)
    h = 1e-6
    for f in probe_fields(2):
        for idx in range(4):
            ef = b.e(f, idx)
            for p in sample_points(2):
                up = list(p)
                dn = list(p)
                up[idx] += h
                dn[idx] -= h
                fd = (f.eval_at(up) - f.eval_at(dn)) / (2 * h)
                if idx < 2:
                    for a in range(2):
                        nai = b.N[a][idx].eval_at(p)
                        up2 = list(p)
                        dn2 = list(p)
                        up2[2 + a] += h
                        dn2[2 + a] -= h
                        fd -= nai * (f.eval_at(up2) - f.eval_at(dn2)) / (2 * h)
                assert abs(ef.eval_at(p) - fd) < 5e-6


# -- canonical d-connection ---------------------------------------------------


def test_dconnection_flat_classical_is_zero():
    b = make_bundle("flat", 1, 1.0)
    assert all(
        b.gamma[t][d][s].is_zero for t in range(2) for d in range(2) for s in range(2)
    )


def test_dconnection_fractional_c_coefficient():
    b = make_bundle("flat", 1, 0.5)
    c = b.gamma[0][1][0]  # C^y_{yy}: target y, direction y, source y
    assert dict(c.sorted_terms()).keys() == {(0.0, -0.5)}
    assert dict(c.sorted_terms())[(0.0, -0.5)] == pytest.approx(C_VYY, rel=1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", ["flat", "coupled"])
def test_metric_compatibility_termwise(kind, alpha):
    b = make_bundle(kind, 1, alpha)
    scale = max(1.0, b.g_lower[0][0].max_abs_coeff())
    assert geo.metric_compat_residual(b) <= 1e-13 * scale


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", ["flat", "coupled"])
def test_j_compatibility_termwise(kind, alpha):
    b = make_bundle(kind, 1, alpha)
    assert geo.jcompat_residual(b) <= 1e-13


def test_compatibilities_n2_and_cross():
    for b in (make_bundle("flat", 2, 1.0), make_bundle("coupled", 2, 0.5),
              make_bundle("cross", 2, 1.0)):
        assert geo.metric_compat_residual(b) <= 1e-12
        assert geo.jcompat_residual(b) <= 1e-12


def test_koszul_coefficients_match_finite_differences():
    # independent numeric assembly of the Koszul formula at a point
    b = make_bundle("coupled", 1, 1.0)
    p = (1.3, 0.9)
    h = 1e-6

    def e_num(f, idx, at):
        up = list(at)
        dn = list(at)
        up[idx] += h
        dn[idx] -= h
        val = (f.eval_at(up) - f.eval_at(dn)) / (2 * h)
        if idx < 1:
            for a in range(1):
                up2 = list(at)
                dn2 = list(at)
                up2[1 + a] += h
                dn2[1 + a] -= h
                val -= b.N[a][idx].eval_at(at) * (
                    f.eval_at(up2) - f.eval_at(dn2)
                ) / (2 * h)
        return val

    g = b.g_lower[0][0]
    lhs = b.gamma[0][0][0].eval_at(p)  # L^x_{xx}
    rhs = 0.5 * b.g_upper[0][0].eval_at(p) * e_num(g, 0, p)
    assert abs(lhs - rhs) < 1e-5


# -- torsion -------------------------------------------------------------------


def test_torsion_zero_on_flat_config():
    b = make_bundle("flat", 1, 1.0)
    assert geo.torsion_pure_blocks_residual(b) == 0.0
    assert all(
        b.torsion[g][a][c].is_zero
        for g in range(2)
        for a in range(2)
        for c in range(2)
    )


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("kind", ["flat", "coupled"])
def test_torsion_pure_blocks_vanish(kind, alpha):
    assert geo.torsion_pure_blocks_residual(make_bundle(kind, 1, alpha)) == 0.0


def test_torsion_fractional_single_component():
    b = make_bundle("flat", 1, 0.5)
    t = b.torsion[0][1][0]  # table component T^x_{xy}
    assert dict(t.sorted_terms()).keys() == {(0.0, -0.5)}
    assert dict(t.sorted_terms())[(0.0, -0.5)] == pytest.approx(C_VYY, rel=1e-12)
    others = [
        b.torsion[g][a][c]
        for g in range(2)
        for a in range(2)
        for c in range(2)
        if (g, a, c) not in ((0, 1, 0), (0, 0, 1))
    ]
    assert all(o.is_zero for o in others)


def test_torsion_identically_zero_at_alpha_one_coupled():
    b = make_bundle("coupled", 2, 1.0)
    assert all(
        b.torsion[g][a][c].is_zero
        for g in range(4)
        for a in range(4)
        for c in range(4)
    )


# -- curvature ------------------------------------------------------------------


def test_curvature_flat_config_zero():
    b = make_bundle("flat", 1, 1.0)
    assert all(
        b.curvature[t][f][a][c].is_zero
        for t in range(2) for f in range(2) for a in range(2) for c in range(2)
    )


def test_curvature_s_block_zero_for_n1():
    for alpha in ALPHAS:
        b = make_bundle("coupled", 1, alpha)
        assert b.curvature[1][1][1][1].is_zero  # S^y_{yyy}


@pytest.mark.parametrize("kind,alpha", [("coupled", 1.0), ("coupled", 0.5), ("cross", 1.0)])
def test_curvature_antisymmetry(kind, alpha):
    n = 2 if kind == "cross" else 1
    assert geo.curvature_antisymmetry_residual(make_bundle(kind, n, alpha)) == 0.0


def test_curvature_matches_finite_difference_assembly_classically():
    # re-evaluate the frame-curvature formula with numeric derivatives of
    # the connection coefficients; alpha = 1 so frame derivatives are local
    for kind in ("coupled", "cross"):
        b = make_bundle(kind, 2, 1.0)
        dim = 4
        p = (1.1, 0.9, 1.2, 0.8)
        h = 1e-5

        def e_num(f, idx, at):
            up, dn = list(at), list(at)
            up[idx] += h
            dn[idx] -= h
            val = (f.eval_at(up) - f.eval_at(dn)) / (2 * h)
            if idx < 2:
                for a in range(2):
                    up2, dn2 = list(at), list(at)
                    up2[2 + a] += h
                    dn2[2 + a] -= h
                    val -= b.N[a][idx].eval_at(at) * (
                        f.eval_at(up2) - f.eval_at(dn2)
                    ) / (2 * h)
            return val

        for t in range(dim):
            for f_ in range(dim):
                for a in range(dim):
                    for c in range(a + 1, dim):
                        num = e_num(b.gamma[t][c][f_], a, p) - e_num(
                            b.gamma[t][a][f_], c, p
                        )
                        for s in range(dim):
                            num += (
                                b.gamma[s][c][f_].eval_at(p) * b.gamma[t][a][s].eval_at(p)
                                - b.gamma[s][a][f_].eval_at(p) * b.gamma[t][c][s].eval_at(p)
                                - b.anholonomy[s][a][c].eval_at(p)
                                * b.gamma[t][s][f_].eval_at(p)
                            )
                        eng = b.curvature[t][f_][a][c].eval_at(p)
                        assert abs(eng - num) < 1e-4 * max(1.0, abs(num))


def test_curvature_nonzero_fractional_coupled():
    b = make_bundle("coupled", 1, 0.5)
    mx = max(
        b.curvature[t][f][a][c].max_abs_coeff()
        for t in range(2) for f in range(2) for a in range(2) for c in range(2)
    )
    assert mx > 0.1


def test_fractional_cross_config_hits_gamma_pole():
    ctx = AlphaContext(alpha=0.5, n=2)
    with pytest.raises(FractionalDomainError, match="coordinate"):
        geo.build_geometry(geo.LagrangianSpec(L=cross_lagrangian(), ctx=ctx))


# -- almost symplectic structure ---------------------------------------------


@pytest.mark.parametrize("alpha", ALPHAS)
def test_j_squared_and_inverses(alpha):
    b = make_bundle("coupled", 1, alpha)
    assert geo.j_squared_residual(b) == 0.0
    assert geo.matrix_inverse_residual(b) <= 1e-13
    assert geo.theta_compat_residual(b) == 0.0


def test_flat_lambda_entries():
    b = make_bundle("flat", 1, 1.0)
    lam = b.lam
    assert lam[0][1].terms == {(0.0, 0.0): 1 + 0j}
    assert lam[1][0].terms == {(0.0, 0.0): -1 + 0j}
    assert lam[0][0].terms == {(0.0, 0.0): -1j}
    assert lam[1][1].terms == {(0.0, 0.0): -1j}


def test_theta_orientation_through_bracket():
    b = make_bundle("flat", 1, 1.0)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    assert geo.poisson_bracket(x, y, b).terms == {(0.0, 0.0): 1 + 0j}


# -- canonical one-form ---------------------------------------------------------


def test_one_form_classical():
    spec = make_spec("flat", 1, 1.0)
    (omega,) = geo.lagrange_one_form(spec)
    assert dict(omega.sorted_terms()) == {(0.0, 1.0): 1 + 0j}


def test_one_form_fractional():
    spec = make_spec("flat", 1, 0.5)
    (omega,) = geo.lagrange_one_form(spec)
    assert dict(omega.sorted_terms()).keys() == {(0.0, 1.5)}
    assert dict(omega.sorted_terms())[(0.0, 1.5)] == pytest.approx(0.75225277806368, rel=1e-12)


def test_one_form_of_constant_lagrangian():
    ctx = AlphaContext(alpha=0.5, n=1)
    # constant L is outside the regular class; call the operation directly
    class Spec:
        L = Signomial.constant(2, 5.0)
    Spec.ctx = ctx
    assert all(c.is_zero for c in geo.lagrange_one_form(Spec))


# -- Poisson bracket -------------------------------------------------------------


def test_bracket_antisymmetry_and_self():
    b = make_bundle("coupled", 1, 1.0)
    f = Signomial.from_terms(2, [(1.0, [2, 0]), (2.0, [0, 1])])
    g = Signomial.from_terms(2, [(1.0, [1, 1])])
    assert geo.poisson_bracket(f, f, b).max_abs_coeff() <= 1e-13
    s = geo.poisson_bracket(f, g, b) + geo.poisson_bracket(g, f, b)
    assert s.max_abs_coeff() <= 1e-13


def test_bracket_bilinearity():
    b = make_bundle("coupled", 1, 0.5)
    f = Signomial.from_terms(2, [(1.0, [2, 0])])
    g = Signomial.from_terms(2, [(0.5, [0, 1])])
    h = Signomial.from_terms(2, [(1.0, [1, 1])])
    lhs = geo.poisson_bracket(f + g.scale(2.0), h, b)
    rhs = geo.poisson_bracket(f, h, b) + geo.poisson_bracket(g, h, b).scale(2.0)
    assert coeff_distance(lhs, rhs) <= 1e-12


def test_bracket_x2_y():
    b = make_bundle("flat", 1, 1.0)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    got = geo.poisson_bracket(x * x, y, b)
    assert coeff_distance(got, Signomial.from_terms(2, [(2.0, [1, 0])])) <= 1e-13


def test_bracket_leibniz_classical_only():
    bc = make_bundle("coupled", 1, 1.0)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    f, g, h_ = x, y, x * y
    lhs = geo.poisson_bracket(f, g * h_, bc)
    rhs = geo.poisson_bracket(f, g, bc) * h_ + g * geo.poisson_bracket(f, h_, bc)
    assert coeff_distance(lhs, rhs) <= 1e-12


# -- anholonomy and Nijenhuis -----------------------------------------------------


def test_anholonomy_zero_without_n():
    b = make_bundle("flat", 1, 1.0)
    assert all(
        b.anholonomy[g][a][c].is_zero for g in range(2) for a in range(2) for c in range(2)
    )
    assert geo.anholonomy_residual(b, probe_fields(1), sample_points(1)) == 0.0


def test_anholonomy_coupled_classical():
    b = make_bundle("coupled", 1, 1.0)
    # [e_x, e_y] = (D_y N^y_x) e_y, so the (source y, x) slot is -1/x
    assert dict(b.anholonomy[1][1][0].sorted_terms()) == {(-1.0, 0.0): -1 + 0j}
    res = geo.anholonomy_residual(b, probe_fields(1), sample_points(1))
    assert res < 1e-10


def test_anholonomy_fractional_defect_is_reported():
    b = make_bundle("coupled", 1, 0.5)
    res = geo.anholonomy_residual(b, probe_fields(1), sample_points(1))
    assert np.isfinite(res)
    assert res > 1e-3  # Caputo frame operators are not derivations


@pytest.mark.parametrize(
    "kind,n", [("flat", 1), ("coupled", 1), ("coupled", 2), ("y4", 1), ("x2y3", 1), ("w4", 2)]
)
def test_nijenhuis_matches_four_torsion_classically(kind, n):
    # N_J = 4 T^(0,2); y^4, x^2 y^3 and W4 carry torsion whose J-invariant
    # part is non-zero, and W4 also has N_J != 0
    b = make_bundle(kind, n, 1.0)
    assert geo.nijenhuis_residual(b, sample_points(n)) < 1e-8


def _torsion_parts(b, p):
    """Full torsion and 4 T^(0,2) at a point, assembled with the J matrix."""
    dim = b.ctx.dim
    J = np.array(b.J)
    T = np.array([[[b.torsion[g][a][c].eval_at(p) for c in range(dim)]
                   for a in range(dim)] for g in range(dim)])
    # T(JX, JY) - J T(JX, Y) - J T(X, JY) in frame components
    tjj = np.einsum("ra,sb,grs->gab", J, J, T)
    jtj = np.einsum("gc,ra,crb->gab", J, J, T) + np.einsum("gc,sb,cas->gab", J, J, T)
    return T, T - tjj + jtj


@pytest.mark.parametrize("kind,n", [("y4", 1), ("x2y3", 1), ("w4", 2)])
def test_nijenhuis_identity_is_not_trivial(kind, n):
    # the torsion is non-zero, so comparing N_J with 4 T would fail; on W4
    # the anti-invariant part, and with it N_J, is non-zero as well
    b = make_bundle(kind, n, 1.0)
    p = sample_points(n)[1]
    full, anti = _torsion_parts(b, p)
    assert np.abs(full).max() > 0.1
    assert (np.abs(anti).max() > 0.1) == (kind == "w4")


def test_nijenhuis_reads_j_from_the_bundle():
    # J2 e_0 = -e_3, J2 e_3 = e_0, J2 e_1 = -e_2, J2 e_2 = e_1: a complex
    # structure other than +-J, so N_J2 - 4 T^(0,2)_J2 must be measured
    # against J2, not against the J that build_geometry wrote
    b = make_bundle("w4", 2, 1.0)
    J2 = [[0.0] * 4 for _ in range(4)]
    J2[3][0], J2[0][3], J2[2][1], J2[1][2] = -1.0, 1.0, -1.0, 1.0
    assert (np.array(J2) @ np.array(J2) == -np.eye(4)).all()
    assert J2 != b.J and J2 != [[-v for v in row] for row in b.J]
    pts = sample_points(2)
    other = geo.nijenhuis_residual(dataclasses.replace(b, J=J2), pts)
    assert other != geo.nijenhuis_residual(b, pts)


def test_nijenhuis_fractional_reported_only():
    b = make_bundle("coupled", 1, 0.5)
    res = geo.nijenhuis_residual(b, sample_points(1))
    assert np.isfinite(res)


def test_nijenhuis_on_cross_config():
    b = make_bundle("cross", 2, 1.0)
    assert geo.nijenhuis_residual(b, sample_points(2)) < 1e-8


# -- theta-lowered curvature symmetry ----------------------------------------------


@pytest.mark.parametrize("kind,n", [("coupled", 1), ("coupled", 2), ("cross", 2)])
def test_acp_symmetry_classical(kind, n):
    b = make_bundle(kind, n, 1.0)
    assert geo.acp_residual(b, sample_points(n)) < 1e-8


def test_acp_fractional_diagnostic():
    b = make_bundle("coupled", 1, 0.5)
    assert np.isfinite(geo.acp_residual(b, sample_points(1)))
