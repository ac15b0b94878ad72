"""Grading-shift operators, flatness recursion, lift, and star product."""

import dataclasses

import numpy as np
import pytest

from akstar.checks import Suite, fedosov_checks
from akstar.errors import FractionalDomainError, MalformedInputError
from akstar.expr import Signomial, coeff_distance
from akstar.geometry import poisson_bracket
from akstar.fedosov import (
    FedosovMachine,
    delta,
    delta_inv,
    flat_d,
    flat_d_squared_residual,
    flat_section_residual,
    generator_probes,
    make_probes,
    sigma,
    sigma_series,
    star,
    star_series,
    tau_components,
    tau_lift,
)
from akstar.wick import WickElement

from _configs import exact, make_bundle, sample_points, z_var

ALPHAS_FRACTIONAL = (0.3, 0.45, 0.9)


def machine(kind, n, alpha):
    return FedosovMachine(make_bundle(kind, n, alpha))


def solved(kind, n, K):
    """Recursion at alpha = 1, with its defect gated as ``fedosov_r_residual`` gates it."""
    st = machine(kind, n, 1.0).solve_r(K)
    assert st.max_residual() <= 1e-9
    return st


def rand_wick(rng, dim, max_s=4, max_forms=2):
    out = WickElement.zero(dim)
    for _ in range(int(rng.integers(1, 4))):
        v = int(rng.integers(0, 2))
        z = [0] * dim
        for _ in range(int(rng.integers(0, max_s + 1))):
            z[int(rng.integers(dim))] += 1
        nf = int(rng.integers(0, max_forms + 1))
        forms = tuple(sorted(rng.choice(dim, size=nf, replace=False).tolist()))
        coeff = Signomial.monomial(
            dim, complex(rng.normal(), rng.normal()), [0.5 * rng.integers(3) for _ in range(dim)]
        )
        out = out + WickElement.from_term(dim, v, tuple(z), forms, coeff)
    return out


# -- delta / delta_inv / sigma -------------------------------------------------


def test_delta_and_inverse_on_generators():
    zx = z_var(2, 0)
    d = delta(zx)
    assert d.terms.keys() == {(0, (0, 0), (0,))}
    back = delta_inv(d)
    assert (back - zx).coeff_norm() == 0.0


def test_grading_shift_bookkeeping():
    # delta maps (p, q) -> (p-1, q+1); delta_inv maps (p, q) -> (p+1, q-1)
    a = WickElement.from_term(2, 1, (2, 1), (0,), Signomial.constant(2, 1.0))
    for (v, z, forms) in delta(a).terms:
        assert (sum(z), len(forms)) == (2, 2) and v == 1
    for (v, z, forms) in delta_inv(a).terms:
        assert (sum(z), len(forms)) == (4, 0) and v == 1


def test_delta_squared_zero_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        w = rand_wick(rng, 2)
        assert delta(delta(w)).coeff_norm() <= 1e-13


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9, 1.0))
def test_hodge_identity_random(alpha):
    # exact decomposition a = (delta delta_inv + delta_inv delta + sigma)(a)
    rng = np.random.default_rng(int(alpha * 100) + 1)
    for _ in range(25):
        w = rand_wick(rng, 2)
        back = delta(delta_inv(w)) + delta_inv(delta(w)) + sigma(w)
        assert (back - w).coeff_norm() <= 1e-12


def test_hodge_identity_worked_example():
    a = WickElement.from_term(2, 0, (1, 0), (1,), Signomial.constant(2, 1.0))
    back = delta(delta_inv(a)) + delta_inv(delta(a)) + sigma(a)
    assert (back - a).coeff_norm() == 0.0
    assert sigma(a).is_zero


def test_sigma_keeps_v_series():
    w = WickElement.from_term(2, 3, (0, 0), (), Signomial.constant(2, 2.0)) + z_var(2, 0)
    series = sigma_series(w)
    assert set(series) == {3}
    assert series[3].terms == {(0.0, 0.0): 2 + 0j}


@pytest.mark.parametrize("alpha", (0.3, 0.5, 0.9, 1.0))
def test_delta_is_graded_derivation(alpha):
    alg = machine("flat", 1, alpha).algebra
    rng = np.random.default_rng(int(alpha * 317))
    for _ in range(20):
        a = rand_wick(rng, 2, max_s=3, max_forms=1)
        b = rand_wick(rng, 2, max_s=3, max_forms=1)
        ae, ao = a.split_form_parity()
        for part, sign in ((ae, 1.0), (ao, -1.0)):
            if part.is_zero:
                continue
            lhs = delta(alg.product(part, b))
            rhs = alg.product(delta(part), b) + alg.product(part, delta(b)).scale(sign)
            assert (lhs - rhs).coeff_norm() <= 1e-12


# -- connection lift -------------------------------------------------------------


def test_dconn_flat_annihilates_fiber_generator():
    m = machine("flat", 1, 1.0)
    assert m.dconn_apply(z_var(2, 0)).is_zero


def test_dconn_on_scalar_is_frame_gradient():
    m = machine("coupled", 1, 1.0)
    b = m.bundle
    f = Signomial.from_terms(2, [(1.0, [1, 1])])
    got = m.dconn_apply(WickElement.from_signomial(f))
    expect = WickElement.zero(2)
    for al in range(2):
        expect = expect + WickElement.from_term(2, 0, (0, 0), (al,), b.e(f, al))
    assert (got - expect).coeff_norm() <= 1e-14


def test_dconn_transport_matches_independent_koszul_values():
    # coefficients of D-check z_y are minus the connection entries; check
    # them against a finite-difference Koszul assembly at a point
    m = machine("coupled", 1, 1.0)
    b = m.bundle
    p = (1.0, 1.0)
    h = 1e-6
    got = m.dconn_apply(z_var(2, 1))

    def e_num(f, idx, at):
        up, dn = list(at), list(at)
        up[idx] += h
        dn[idx] -= h
        val = (f.eval_at(up) - f.eval_at(dn)) / (2 * h)
        if idx < 1:
            up2, dn2 = list(at), list(at)
            up2[1] += h
            dn2[1] -= h
            val -= b.N[0][0].eval_at(at) * (f.eval_at(up2) - f.eval_at(dn2)) / (2 * h)
        return val

    g = b.g_lower[0][0]
    gl_num = 0.5 * b.g_upper[0][0].eval_at(p) * e_num(g, 0, p)  # L^x_xx at p
    # slot: wedge direction x, fiber z_y shifted to z_y (src y, tgt y): -L^y_yx
    key = (0, (0, 1), (0,))
    assert key in got.terms
    assert abs(got.terms[key].eval_at(p) + gl_num) < 1e-8


def test_dconn_preserves_total_degree():
    m = machine("coupled", 1, 0.45)
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = rand_wick(rng, 2, max_s=3, max_forms=1)
        for d in w.total_degrees():
            out = m.dconn_apply(w.component(d))
            assert out.total_degrees() <= {d}


# -- torsion / curvature elements --------------------------------------------------


def test_elements_vanish_on_flat_config():
    m = machine("flat", 1, 1.0)
    assert m.t_hat.is_zero and m.r_hat.is_zero


def test_torsion_element_fractional_structure():
    m = machine("flat", 1, 0.5)
    assert set(m.t_hat.terms.keys()) == {(0, (0, 1), (0, 1))}
    coeff = m.t_hat.terms[(0, (0, 1), (0, 1))]
    assert dict(coeff.sorted_terms()).keys() == {(0.0, 0.5)}
    assert abs(dict(coeff.sorted_terms())[(0.0, 0.5)]) == pytest.approx(0.5641895835477563, rel=1e-12)
    assert m.t_hat.total_degrees() == {1}


def test_curvature_element_cancels_by_block_mirror():
    # the h- and v-block curvatures of the mirrored d-connection coincide
    # term-wise, so the theta-lowered tensor is antisymmetric in the two
    # fiber slots and the symmetrized quadratic element vanishes exactly
    m = machine("coupled", 1, 0.45)
    b = m.bundle
    assert coeff_distance(b.curvature[0][0][0][1], b.curvature[1][1][0][1]) == 0.0
    assert not b.curvature[0][0][0][1].is_zero
    assert m.r_hat.is_zero


def test_curvature_element_grading_on_asymmetric_blocks():
    # grading bookkeeping of the assembly, on a bundle whose v-block
    # curvature is artificially rescaled so the contraction survives
    import dataclasses

    b = make_bundle("coupled", 1, 0.45)
    full = [[[ [b.curvature[t][f][a][c] for c in range(2)] for a in range(2)]
             for f in range(2)] for t in range(2)]
    full[1][1][0][1] = full[1][1][0][1].scale(2.0)
    full[1][1][1][0] = full[1][1][1][0].scale(2.0)
    doctored = dataclasses.replace(b, curvature=full)
    m = FedosovMachine(doctored)
    assert not m.r_hat.is_zero
    assert m.r_hat.total_degrees() == {2}
    for (v, z, forms) in m.r_hat.terms:
        assert v == 0 and sum(z) == 2 and len(forms) == 2


# -- operator identities --------------------------------------------------------------


@pytest.mark.parametrize("kind,n", [("flat", 1), ("coupled", 1), ("coupled", 2), ("cross", 2)])
def test_comf_identities_classical(kind, n):
    m = machine(kind, n, 1.0)
    pts = sample_points(n)
    for probe in make_probes(m.bundle, seed=42, count=8):
        assert m.comf_delta_residual(probe, pts) < 1e-8
        assert m.comf_dsq_residual(probe, pts) < 1e-8


@pytest.mark.parametrize("kind,n", [("flat", 1), ("coupled", 1), ("coupled", 2), ("cross", 2)])
def test_proof_identities_classical(kind, n):
    m = machine(kind, n, 1.0)
    pts = sample_points(n)
    assert m.delta_torsion_residual(pts) < 1e-8
    assert m.delta_curvature_residual(pts) < 1e-8


@pytest.mark.parametrize("alpha", ALPHAS_FRACTIONAL)
def test_operator_identities_fractional_are_finite(alpha):
    m = machine("flat", 1, alpha)
    probes = make_probes(m.bundle, seed=5, count=4)
    pts = sample_points(1)
    vals = [m.comf_delta_residual(p, pts) for p in probes]
    vals += [m.comf_dsq_residual(p, pts) for p in probes]
    vals += [m.delta_torsion_residual(pts), m.delta_curvature_residual(pts)]
    assert all(np.isfinite(v) for v in vals)


# -- recursion -------------------------------------------------------------------------


def test_solve_r_flat_config_gives_zero():
    st = machine("flat", 1, 1.0).solve_r(4)
    assert all(w.is_zero for w in st.r_components.values())
    assert st.max_residual() == 0.0


def test_first_component_is_delta_inv_torsion():
    m = machine("flat", 1, 0.45)
    st = m.solve_r(2)
    assert (st.r_components[2] - delta_inv(m.t_hat)).coeff_norm() == 0.0


def test_r2_grading_fractional():
    m = machine("flat", 1, 0.45)
    st = m.solve_r(3)
    r2 = st.r_components[2]
    assert r2.total_degrees() == {2}
    for (v, z, forms) in r2.terms:
        assert v == 0 and sum(z) == 2 and len(forms) == 1


def test_r2_grading_at_alpha_half():
    # the first recursion step is still inside the class at alpha = 1/2
    # (the exit happens two degrees later); its grading is forced
    m = machine("flat", 1, 0.5)
    r2 = delta_inv(m.t_hat)
    assert r2.total_degrees() == {2}
    for (v, z, forms) in r2.terms:
        assert v == 0 and sum(z) == 2 and len(forms) == 1


def test_gauge_normalization():
    st = machine("flat", 1, 0.45).solve_r(3)
    assert st.gauge_residual() <= 1e-13


@pytest.mark.parametrize("kind,n", [("coupled", 1), ("coupled", 2), ("cross", 2)])
def test_residuals_classical(kind, n):
    st = machine(kind, n, 1.0).solve_r(4)
    assert st.max_residual() < 1e-9


@pytest.mark.parametrize("alpha", ALPHAS_FRACTIONAL)
def test_residuals_fractional_reported(alpha):
    st = machine("flat", 1, alpha).solve_r(3)
    assert set(st.residuals) == {1, 2, 3, 4}
    assert all(np.isfinite(v) for v in st.residuals.values())


def test_alpha_half_recursion_exits_the_class():
    # the Deg-3 right side contains a coefficient with fiber exponent
    # exactly -1 (two twist contractions cancel the alpha dependence), and
    # its frame derivative sits on the numerator Gamma pole
    m = machine("flat", 1, 0.5)
    with pytest.raises(FractionalDomainError) as info:
        m.solve_r(2)
    assert info.value.degree == 3


def test_truncation_order_validated():
    with pytest.raises(MalformedInputError):
        machine("flat", 1, 1.0).solve_r(1)


# -- flat connection ---------------------------------------------------------------------


def test_flat_d_on_flat_config():
    st = solved("flat", 1, 3)
    zx = z_var(2, 0)
    once = flat_d(zx, st)
    assert (once + delta(zx)).coeff_norm() == 0.0  # D-hat = -delta here
    assert flat_d(once, st).coeff_norm() == 0.0


@pytest.mark.parametrize("kind,n", [("coupled", 1), ("coupled", 2)])
def test_flat_d_squared_classical(kind, n):
    st = solved(kind, n, 4)
    for probe in make_probes(st.bundle, seed=42, count=8):
        assert flat_d_squared_residual(probe, st, sample_points(n)) < 1e-8


def test_generator_probes_are_the_fiber_and_coframe_generators():
    one = Signomial.constant(4, 1.0)
    keys = [next(iter(p.terms.items())) for p in generator_probes(4)]
    assert [k for k, _ in keys] == (
        [(0, tuple(int(j == i) for j in range(4)), ()) for i in range(4)]
        + [(0, (0, 0, 0, 0), (a,)) for a in range(4)]
    )
    assert all(coeff_distance(c, one) == 0.0 for _, c in keys)


def _certificate(bundle):
    """The generator D-hat^2 defect and the D-check Leibniz defect, as the suite reports them."""
    m = FedosovMachine(bundle)
    probes = make_probes(bundle, seed=7, count=8)
    suite = Suite(bundle.ctx.alpha, "diagnostic", {})
    fedosov_checks(suite, m, m.solve_r(3), sample_points(1), probes)
    values = {entry["name"]: entry["value"] for entry in suite.entries}
    return values["fedosov_dsq_probe"], values["fedosov_dconn_derivation"]


def test_planted_connection_defect_fails_the_certificate():
    # each wrong-sign Gamma entry of x^2 y^3 breaks D-hat^2 = 0 on the
    # generators or the Leibniz rule of D-check; the intact bundle passes both
    bundle = make_bundle("x2y3", 1, 1.0)
    assert max(_certificate(bundle)) <= 1e-8
    entries = [
        (t, d, s)
        for t in range(2)
        for d in range(2)
        for s in range(2)
        if not bundle.gamma[t][d][s].is_zero
    ]
    assert len(entries) == 4
    for t, d, s in entries:
        gamma = [[list(row) for row in block] for block in bundle.gamma]
        gamma[t][d][s] = gamma[t][d][s].scale(-1.0)
        planted = dataclasses.replace(bundle, gamma=gamma)
        assert max(_certificate(planted)) > 1e-8, (t, d, s)


@pytest.mark.parametrize("alpha", ALPHAS_FRACTIONAL)
def test_flat_d_squared_fractional_diagnostic(alpha):
    # per probe the diagnostic either evaluates finitely or identifies a
    # class exit; both outcomes are legitimate measurements here
    st = machine("flat", 1, alpha).solve_r(3)
    finite = 0
    for p in make_probes(st.bundle, seed=3, count=8):
        try:
            v = flat_d_squared_residual(p, st, sample_points(1))
        except FractionalDomainError:
            continue
        assert np.isfinite(v)
        finite += 1
    assert finite >= 1


@pytest.mark.parametrize("kind,alpha", [("y4", 1.0), ("flat", 0.45)])
def test_capped_flat_d_is_exact_truncation(kind, alpha):
    st = machine(kind, 1, alpha).solve_r(3)
    assert not st.r_total().is_zero
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(12):
        w = rand_wick(rng, 2)
        try:
            full = flat_d(w, st)
        except FractionalDomainError:
            continue
        for d in range(max(full.total_degrees(), default=0) + 1):
            assert exact(flat_d(w, st, max_deg=d)) == exact(full.truncate(d))
        checked += 1
    assert checked >= 6


# -- lift -------------------------------------------------------------------------------


def test_tau_of_coordinate_on_flat_config():
    st = solved("flat", 1, 4)
    x = Signomial.coordinate(2, 0)
    lift = tau_lift(x, st, 4)
    expect = WickElement.from_signomial(x) + z_var(2, 0)
    assert (lift - expect).coeff_norm() == 0.0


def test_tau_of_unit_is_unit():
    st = solved("coupled", 1, 4)
    one = Signomial.constant(2, 1.0)
    assert (tau_lift(one, st, 4) - WickElement.from_signomial(one)).coeff_norm() == 0.0


@pytest.mark.parametrize("kind,alpha,order", [("coupled", 1.0, 6), ("flat", 0.45, 3)])
def test_sigma_tau_is_identity(kind, alpha, order):
    # fractional lifts are computable through Deg 3 in this configuration
    # family; one degree deeper the coefficients leave the class
    st = machine(kind, 1, alpha).solve_r(max(order - 1, 2))
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f in (x, y, x * y, x * x + y):
        lift = tau_lift(f, st, order)
        s = sigma_series(lift)
        assert set(s) <= {0}
        assert coeff_distance(s.get(0, Signomial.zero(2)), f) == 0.0


def test_tau_components_are_deg_homogeneous():
    st = solved("coupled", 1, 5)
    comps = tau_components(Signomial.coordinate(2, 0), st, 5)
    for k, comp in comps.items():
        assert comp.total_degrees() <= {k}


def test_flat_section_residual_classical():
    st = solved("coupled", 1, 7)
    for f in (Signomial.coordinate(2, 0), Signomial.coordinate(2, 1)):
        assert flat_section_residual(f, st, 6, sample_points(1)) < 1e-9


def test_tau_lift_memo_keeps_signed_zeros_apart():
    st = solved("y4", 1, 3)
    y = Signomial.coordinate(2, 1)
    lift = tau_lift(y, st, 3)
    assert tau_lift(y, st, 3) is lift
    assert exact(tau_lift(y, st, 2)) == exact(lift.truncate(2))
    # equal values whose zeros differ in sign, and reports serialize -0.0
    plus, minus = y.scale(-1j), y.scale(1j).scale(-1)
    assert plus.terms == minus.terms and repr(plus.terms) != repr(minus.terms)
    tau_lift(plus, st, 3)
    fresh = solved("y4", 1, 3)
    assert exact(tau_lift(minus, st, 3)) == exact(tau_lift(minus, fresh, 3))
    assert exact(tau_lift(minus, st, 3)) != exact(tau_lift(plus, st, 3))


def test_tau_lift_pole_names_the_lift_degree():
    st = machine("flat", 1, 0.45).solve_r(3)
    with pytest.raises(FractionalDomainError) as info:
        tau_components(Signomial.coordinate(2, 0), st, 4)
    # building the Deg-4 component needs D-check of a term x^0.55 y^-2
    assert info.value.degree == 4
    assert (info.value.coordinate, info.value.exponents) == (1, (0.55, -2.0))


def test_tau_lift_failures_are_not_memoised():
    st = machine("flat", 1, 0.45).solve_r(3)
    x = Signomial.coordinate(2, 0)
    for _ in range(2):
        with pytest.raises(FractionalDomainError):
            tau_lift(x, st, 4)
        with pytest.raises(MalformedInputError):
            tau_lift(x, st, 5)


def test_tau_order_guard():
    st = solved("flat", 1, 3)
    with pytest.raises(MalformedInputError):
        tau_lift(Signomial.coordinate(2, 0), st, 6)


# -- star product --------------------------------------------------------------------------


def test_unit_is_star_neutral_to_all_orders():
    st = solved("coupled", 1, 7)
    one = Signomial.constant(2, 1.0)
    f = Signomial.from_terms(2, [(1.0, [2, 0]), (0.5, [1, 1])])
    left = star(one, f, st, 4)
    right = star(f, one, st, 4)
    assert coeff_distance(left[0], f) == 0.0
    assert coeff_distance(right[0], f) == 0.0
    for r in range(1, 5):
        assert left[r].is_zero
        assert right[r].is_zero


def test_c0_is_pointwise_product_exactly():
    st = solved("coupled", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (x * y, x), (y, y)):
        sc = star(f, g, st, 2)
        assert coeff_distance(sc[0], f * g) == 0.0


def test_flat_second_order_coefficient_hand_value():
    # flat configuration reduces to the twisted fiberwise product of full
    # Taylor lifts; for f = x^2, g = y^2 the hand expansion gives
    # C_1 = 2i x y (one contraction through Lambda^{xy} = 1) and
    # C_2 = (1/2)(i/2)^2 * (Lambda^{xy})^2 * f'' g'' = -1/2
    st = solved("flat", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    sc = star(x * x, y * y, st, 2)
    assert coeff_distance(sc[1], (x * y).scale(2j)) <= 1e-14
    assert coeff_distance(sc[2], Signomial.constant(2, -0.5)) <= 1e-14


def test_flat_commutator_is_iv_exactly():
    st = solved("flat", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    fwd = star(x, y, st, 2)
    rev = star(y, x, st, 2)
    c1 = fwd[1] - rev[1]
    assert c1.terms == {(0.0, 0.0): 1j}
    assert (fwd[2] - rev[2]).is_zero


def test_first_order_commutator_is_poisson_bracket():
    st = solved("coupled", 1, 5)
    b = st.bundle
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (x * x, y), (x * y, x)):
        fwd = star(f, g, st, 1)
        rev = star(g, f, st, 1)
        anti = fwd[1] - rev[1]
        expect = poisson_bracket(f, g, b).scale(1j)
        assert coeff_distance(anti, expect) < 1e-10


@pytest.mark.parametrize("kind,alpha", [("flat", 1.0), ("coupled", 1.0)])
def test_star_associativity_low_order(kind, alpha):
    st = machine(kind, 1, alpha).solve_r(5)
    assert st.max_residual() <= 1e-9
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    obs = (x, y, x * y)
    for f in obs:
        for g in obs:
            for h in obs:
                left = star_series(star(f, g, st, 2), (h,), st, 2)
                right = star_series((f,), star(g, h, st, 2), st, 2)
                for s in range(3):
                    assert coeff_distance(left[s], right[s]) < 1e-10


def test_star_fractional_first_order():
    # fractional stars are exact through v^1 here (order 2 would need
    # Deg-4 lifts, which exit the differentiable class)
    st = machine("flat", 1, 0.45).solve_r(3)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    sc = star(x, y, st, 1)
    rev = star(y, x, st, 1)
    assert coeff_distance(sc[0], x * y) == 0.0
    from akstar.geometry import poisson_bracket
    anti = sc[1] - rev[1]
    expect = poisson_bracket(x, y, st.bundle).scale(1j)
    assert coeff_distance(anti, expect) < 1e-10


def test_star_equals_sigma_of_full_product_exactly():
    # star asks for the sigma-projected product capped at Deg 2 * order
    st = solved("y4", 1, 3)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (y * y, x), (x * y, y)):
        full = st.machine.algebra.product(tau_lift(f, st, 4), tau_lift(g, st, 4))
        series = sigma_series(full)
        assert max(series) > 2  # the full product runs past the order kept
        expect = [series.get(r, Signomial.zero(2)) for r in range(3)]
        got = star(f, g, st, 2)
        assert [exact(c) for c in got] == [exact(c) for c in expect]


def test_star_order_guard():
    st = solved("flat", 1, 3)
    with pytest.raises(MalformedInputError, match=r"solve with K >= 5 \(have 3\)"):
        star(Signomial.coordinate(2, 0), Signomial.coordinate(2, 1), st, 3)


def test_probe_generation_is_deterministic():
    b = make_bundle("coupled", 1, 1.0)
    p1 = make_probes(b, seed=11, count=6)
    p2 = make_probes(b, seed=11, count=6)
    assert len(p1) == len(p2)
    for a, c in zip(p1, p2):
        assert (a - c).coeff_norm() == 0.0


def test_probes_are_single_nonzero_terms():
    # a unit coefficient on a fiber monomial with at most one co-frame index
    # never cancels, so no draw needs a fallback
    b = make_bundle("coupled", 2, 1.0)
    for seed in range(20):
        for probe in make_probes(b, seed=seed, count=8):
            assert len(probe.terms) == 1 and not probe.is_zero
