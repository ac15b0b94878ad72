"""Grading-shift operators, flatness recursion, lift, and star product."""

from pathlib import Path

import numpy as np
import pytest

from akstar.checks import Suite, fedosov_checks
from akstar.cli import Pipeline, parse_config
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

from _configs import exact, make_bundle, probe_fields, sample_points, z_var

ALPHAS_FRACTIONAL = (0.3, 0.45, 0.9)
GOLDEN = Path(__file__).parent / "golden"


def machine(kind, n, alpha):
    return FedosovMachine(make_bundle(kind, n, alpha))


def solved(kind, n, K):
    """Recursion at alpha = 1, with its defect gated as ``fedosov_r_residual`` gates it."""
    m = machine(kind, n, 1.0).solve_r(K)
    assert m.max_residual() <= 1e-9
    return m


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
    assert series[3].sorted_terms() == [((0.0, 0.0), 2 + 0j)]


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


# The wedge sign of delta and D-check is applied once, by WickElement.from_terms, to
# the word with the new index in front.  Each expected coefficient below is written
# out by hand for a W4 element; applying the sign twice or not at all flips it.


def test_delta_sign_for_an_index_landing_mid_word():
    w = WickElement.from_term(4, 0, (0, 2, 1, 1), (0, 2), Signomial.constant(4, 3.0))
    got = delta(w)
    assert got.terms.keys() == {(0, (0, 1, 1, 1), (0, 1, 2)), (0, (0, 2, 1, 0), (0, 2, 3))}
    # e^1 passes e^0 (one swap, -) with weight z^1 degree 2; e^3 passes two (+)
    assert got.terms[(0, (0, 1, 1, 1), (0, 1, 2))] == Signomial.constant(4, -6.0)
    assert got.terms[(0, (0, 2, 1, 0), (0, 2, 3))] == Signomial.constant(4, 3.0)


def test_dconn_frame_and_anholonomy_signs_for_mid_word_indices():
    m = machine("w4", 2, 1.0)
    b = m.bundle
    W = b.anholonomy
    f = Signomial.from_terms(4, [(1.0, [1, 0, 2, 0])])
    got = m.dconn_apply(WickElement.from_term(4, 0, (0, 0, 0, 0), (1, 3), f))
    z = (0, 0, 0, 0)
    expect = {
        # frame derivative e_0 f e^0 e^1 e^3 (+); anholonomy: e^3 -> -(1/2) w^3_ab e^a e^b,
        # and (0, 3) + (1,) sorts with one swap (-), past e^1 (-): -w^3_03 f
        (0, z, (0, 1, 3)): b.e(f, 0) - W[3][0][3] * f,
        # frame derivative e^2 passes e^1 (-)
        (0, z, (1, 2, 3)): -b.e(f, 2),
        # (0, 2) + (1,) sorts with one swap (-), past e^1 (-): -w^3_02 f
        (0, z, (0, 1, 2)): -(W[3][0][2] * f),
    }
    assert got.terms.keys() == expect.keys()
    for key, coeff in expect.items():
        assert not coeff.is_zero
        assert coeff_distance(got.terms[key], coeff) <= 1e-14 * coeff.max_abs_coeff()


def test_dconn_transport_sign_for_an_index_landing_mid_word():
    m = machine("w4", 2, 1.0)
    b = m.bundle
    G, W = b.gamma, b.anholonomy
    one = Signomial.constant(4, 1.0)
    got = m.dconn_apply(WickElement.from_term(4, 0, (0, 1, 0, 0), (0, 2), one))
    # e_a of a constant is zero, so only transport -G^1_{1 src} z^src d/dz^1 along e^1
    # (e^1 passes e^0: -, so +G) and the anholonomy of e^2 (past e^0: +) remain
    expect = {
        (0, (1, 0, 0, 0), (0, 1, 2)): G[1][1][0],
        (0, (0, 1, 0, 0), (0, 1, 2)): G[1][1][1] + W[2][1][2],
        (0, (0, 1, 0, 0), (0, 1, 3)): W[2][1][3],
    }
    assert got.terms.keys() == expect.keys()
    for key, coeff in expect.items():
        assert not coeff.is_zero
        assert coeff_distance(got.terms[key], coeff) <= 1e-14 * coeff.max_abs_coeff()


def test_a_repeated_index_drops_the_term_before_its_coefficient(monkeypatch):
    m = machine("w4", 2, 1.0)
    f = Signomial.from_terms(4, [(1.0, [1, 1, 2, 1])])
    # every new index repeats one of e^0 e^1 e^2 e^3, so every term drops
    top = WickElement.from_term(4, 0, (1, 2, 0, 1), (0, 1, 2, 3), f)
    built = []
    for name in ("__mul__", "scale", "caputo"):
        def counted(self, *args, _orig=getattr(Signomial, name), _name=name):
            built.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(Signomial, name, counted)
    assert delta(top).is_zero
    assert m.dconn_apply(top).is_zero
    assert built == []


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
    b = make_bundle("coupled", 1, 0.45)
    full = [[[ [b.curvature[t][f][a][c] for c in range(2)] for a in range(2)]
             for f in range(2)] for t in range(2)]
    full[1][1][0][1] = full[1][1][0][1].scale(2.0)
    full[1][1][1][0] = full[1][1][1][0].scale(2.0)
    doctored = b._replace(curvature=full)
    m = FedosovMachine(doctored)
    assert not m.r_hat.is_zero
    assert m.r_hat.total_degrees() == {2}
    for (v, z, forms) in m.r_hat.terms:
        assert v == 0 and sum(z) == 2 and len(forms) == 2


# -- operator identities --------------------------------------------------------------


# on W4 both sides of each identity are of order 0.1 to 10 on most probes,
# so its residuals (at most 4.6e-16) are cancellations, not 0 = 0
@pytest.mark.parametrize(
    "kind,n", [("flat", 1), ("coupled", 1), ("coupled", 2), ("cross", 2), ("w4", 2)]
)
def test_comf_identities_classical(kind, n):
    m = machine(kind, n, 1.0)
    pts = sample_points(n)
    for probe in make_probes(m.bundle, seed=42, count=8):
        assert m.comf_delta_residual(probe, pts) < 1e-8
        assert m.comf_dsq_residual(probe, pts) < 1e-8


@pytest.mark.parametrize(
    "kind,n", [("flat", 1), ("coupled", 1), ("coupled", 2), ("cross", 2), ("w4", 2)]
)
def test_proof_identities_classical(kind, n):
    m = machine(kind, n, 1.0)
    pts = sample_points(n)
    assert m.delta_torsion_residual(pts) < 1e-8
    assert m.delta_curvature_residual(pts) < 1e-8


def test_w4_delta_curvature_identity_is_not_trivial():
    # on W4 both sides of delta R-hat = D-check T-hat are of order 10, so the
    # residual above is a cancellation, not 0 = 0; delta T-hat vanishes term-wise
    m = machine("w4", 2, 1.0)
    pts = sample_points(2)
    assert delta(m.r_hat).sample_norm(pts) > 1.0
    assert m.dconn_apply(m.t_hat).sample_norm(pts) > 1.0
    assert delta(m.t_hat).is_zero


# w4p, the n = 2 config with non-zero torsion, curvature and Omega at
# fractional alpha, builds its geometry at each of these alphas
FRACTIONAL_IDENTITY_CASES = [pytest.param("flat", 1, a, id=str(a)) for a in ALPHAS_FRACTIONAL] + [
    pytest.param("w4p", 2, a, id=f"w4p-{a}") for a in ALPHAS_FRACTIONAL
]


@pytest.mark.parametrize("kind,n,alpha", FRACTIONAL_IDENTITY_CASES)
def test_operator_identities_fractional_are_finite(kind, n, alpha):
    m = machine(kind, n, alpha)
    probes = make_probes(m.bundle, seed=5, count=4)
    pts = sample_points(n)
    vals = [m.comf_delta_residual(p, pts) for p in probes]
    vals += [m.comf_dsq_residual(p, pts) for p in probes]
    vals += [m.delta_torsion_residual(pts), m.delta_curvature_residual(pts)]
    assert all(np.isfinite(v) for v in vals)


# -- recursion -------------------------------------------------------------------------


def test_solve_r_flat_config_gives_zero():
    m = machine("flat", 1, 1.0).solve_r(4)
    assert all(w.is_zero for w in m.r_components.values())
    assert m.max_residual() == 0.0


def test_first_component_is_delta_inv_torsion():
    m = machine("flat", 1, 0.45).solve_r(2)
    assert (m.r_components[2] - delta_inv(m.t_hat)).coeff_norm() == 0.0


def test_r2_grading_fractional():
    m = machine("flat", 1, 0.45).solve_r(3)
    r2 = m.r_components[2]
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
    m = machine("flat", 1, 0.45).solve_r(3)
    assert m.gauge <= 1e-13


def test_solve_r_records_its_sum_and_gauge():
    # r_total and tau_lift are unions of Deg components, with the bits and
    # the key order of summing those in degree order
    m = solved("w4", 2, 3)
    f = Signomial.coordinate(4, 0) * Signomial.coordinate(4, 3)
    comps = tau_components(f, m, 4)
    assert sum(not c.is_zero for c in comps) > 2
    for whole, parts in (
        (m.r_total, [m.r_components[d] for d in sorted(m.r_components)]),
        (tau_lift(f, m, 4), comps),
    ):
        total = WickElement.zero(4)
        for part in parts:
            total = total + part
        assert exact(whole) == exact(total)
    gauge = max(delta_inv(c).coeff_norm() for c in m.r_components.values())
    assert m.gauge == gauge


@pytest.mark.parametrize("kind,alpha,K", [("w4", 1.0, 3), ("w4p", 0.45, 2)], ids=["w4", "w4p-0.45"])
def test_convolution_v0_part_is_round_off(kind, alpha, K):
    # solve_r drops the v^0 part of sum_j r_j o r_{m+2-j} when it applies
    # -(i/v): with every r_j a 1-form that part is r wedge r = 0, so all it
    # may hold is float cancellation
    m = machine(kind, 2, alpha)
    r = m.solve_r(K).r_components
    assert all(len(forms) == 1 for w in r.values() for _, _, forms in w.terms)
    v0_keys = 0
    for deg in range(2, K + 2):
        conv = WickElement.zero(m.dim)
        for j in range(2, deg + 1):
            conv = conv + m.algebra.product(r[j], r[deg + 2 - j])
        v0 = [c.max_abs_coeff() for (v, _, _), c in conv.terms.items() if v == 0]
        assert v0 and max(v0) <= 1e-12 * conv.coeff_norm()
        v0_keys += len(v0)
    # not 0 = 0: W4 leaves 191 such keys, W4' 169
    assert v0_keys >= 100


@pytest.mark.parametrize("kind,n", [("coupled", 1), ("coupled", 2), ("cross", 2)])
def test_residuals_classical(kind, n):
    m = machine(kind, n, 1.0).solve_r(4)
    assert m.max_residual() < 1e-9


@pytest.mark.parametrize(
    "kind,n,alpha,order",
    [pytest.param("flat", 1, a, 3, id=str(a)) for a in ALPHAS_FRACTIONAL]
    + [pytest.param("w4p", 2, 0.45, 2, id="w4p-0.45")],
)
def test_residuals_fractional_reported(kind, n, alpha, order):
    m = machine(kind, n, alpha).solve_r(order)
    assert set(m.residuals) == set(range(1, order + 2))
    assert all(np.isfinite(v) for v in m.residuals.values())


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
    m = solved("flat", 1, 3)
    zx = z_var(2, 0)
    once = flat_d(zx, m, max_deg=3)
    assert (once + delta(zx)).coeff_norm() == 0.0  # D-hat = -delta here
    assert flat_d(once, m, max_deg=3).coeff_norm() == 0.0


# W4 runs at K = 2: D-hat of its probes is of order 1 to 40, and K = 4
# would take about 13 s; the ids name the configuration only
@pytest.mark.parametrize(
    "kind,n,K",
    [("coupled", 1, 4), ("coupled", 2, 4), ("w4", 2, 2)],
    ids=["coupled-1", "coupled-2", "w4-2"],
)
def test_flat_d_squared_classical(kind, n, K):
    m = solved(kind, n, K)
    for probe in make_probes(m.bundle, seed=42, count=8):
        assert flat_d_squared_residual(probe, m, K, sample_points(n)) < 1e-8


def test_flat_d_squared_of_the_zero_element_is_zero():
    # an element with no terms has no Deg, and so no window to report on
    m = solved("coupled", 1, 3)
    assert flat_d_squared_residual(WickElement.zero(2), m, 3, sample_points(1)) == 0.0


def test_d_hat_squared_solves_the_r_it_reads():
    # a fresh machine reads as the eager solve_r(K) does
    m = solved("x2y3", 1, 3)
    lazy = machine("x2y3", 1, 1.0)
    for p in generator_probes(2):
        got = flat_d_squared_residual(p, lazy, 3, sample_points(1))
        assert got == flat_d_squared_residual(p, m, 3, sample_points(1))
    assert sorted(lazy.r_components) == [2, 3, 4, 5]


def test_flat_d_solves_the_r_it_reads():
    # through Deg 3, D-hat z^1 reads r through Deg 3 - 1 + 2 = 4; a fresh
    # machine solves it and gives the bits of one solved by solve_r(3)
    z1 = generator_probes(2)[0]
    fresh = machine("x2y3", 1, 1.0)
    got = flat_d(z1, fresh, 3)
    assert sorted(fresh.r_components) == [2, 3, 4]
    assert exact(got) == exact(flat_d(z1, solved("x2y3", 1, 3), 3))


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
    suite = Suite(bundle.ctx.classical, "diagnostic", {})
    fedosov_checks(suite, m.solve_r(3), 3, sample_points(1), probes)
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
        planted = bundle._replace(gamma=gamma)
        assert max(_certificate(planted)) > 1e-8, (t, d, s)


@pytest.mark.parametrize("alpha", ALPHAS_FRACTIONAL)
def test_flat_d_squared_fractional_diagnostic(alpha):
    # per probe the diagnostic either evaluates finitely or identifies a
    # class exit; both outcomes are legitimate measurements here
    m = machine("flat", 1, alpha).solve_r(3)
    finite = 0
    for p in make_probes(m.bundle, seed=3, count=8):
        try:
            v = flat_d_squared_residual(p, m, 3, sample_points(1))
        except FractionalDomainError:
            continue
        assert np.isfinite(v)
        finite += 1
    assert finite >= 1


@pytest.mark.parametrize("kind,alpha", [("y4", 1.0), ("flat", 0.45)])
def test_capped_flat_d_is_exact_truncation(kind, alpha):
    m = machine(kind, 1, alpha).solve_r(3)
    assert not m.r_total.is_zero
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(12):
        w = rand_wick(rng, 2)
        try:
            # r through Deg K + 2 = 5 reaches no Deg past max Deg(w) + 3;
            # this cap solves r deeper, and the lower caps skip what it adds
            full = flat_d(w, m, max_deg=max(w.total_degrees()) + 3)
        except FractionalDomainError:
            continue
        for d in range(max(full.total_degrees(), default=0) + 1):
            assert exact(flat_d(w, m, max_deg=d)) == exact(full.truncate(d))
        checked += 1
    assert checked >= 6


# -- lift -------------------------------------------------------------------------------


def test_tau_of_coordinate_on_flat_config():
    m = solved("flat", 1, 4)
    x = Signomial.coordinate(2, 0)
    lift = tau_lift(x, m, 4)
    expect = WickElement.from_signomial(x) + z_var(2, 0)
    assert (lift - expect).coeff_norm() == 0.0


def test_tau_of_unit_is_unit():
    m = solved("coupled", 1, 4)
    one = Signomial.constant(2, 1.0)
    assert (tau_lift(one, m, 4) - WickElement.from_signomial(one)).coeff_norm() == 0.0


@pytest.mark.parametrize("kind,alpha,order", [("coupled", 1.0, 6), ("flat", 0.45, 3)])
def test_sigma_tau_is_identity(kind, alpha, order):
    # fractional lifts are computable through Deg 3 in this configuration
    # family; one degree deeper the coefficients leave the class
    m = machine(kind, 1, alpha).solve_r(max(order - 1, 2))
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f in (x, y, x * y, x * x + y):
        lift = tau_lift(f, m, order)
        s = sigma_series(lift)
        assert set(s) <= {0}
        assert coeff_distance(s.get(0, Signomial.zero(2)), f) == 0.0


def test_tau_components_are_deg_homogeneous():
    m = solved("coupled", 1, 5)
    comps = tau_components(Signomial.coordinate(2, 0), m, 5)
    assert len(comps) == 6
    for k, comp in enumerate(comps):
        assert comp.total_degrees() <= {k}


def test_flat_section_residual_classical():
    m = solved("coupled", 1, 7)
    for f in (Signomial.coordinate(2, 0), Signomial.coordinate(2, 1)):
        assert flat_section_residual(f, m, 6, sample_points(1)) < 1e-9


def test_tau_lift_memo_keeps_signed_zeros_apart():
    m = solved("y4", 1, 3)
    y = Signomial.coordinate(2, 1)
    lift = tau_lift(y, m, 3)
    assert exact(tau_lift(y, m, 3)) == exact(lift)
    assert exact(tau_lift(y, m, 2)) == exact(lift.truncate(2))
    # equal values whose zeros differ in sign, and reports serialize -0.0
    plus, minus = y.scale(-1j), y.scale(1j).scale(-1)
    assert plus.terms == minus.terms and repr(plus.terms) != repr(minus.terms)
    tau_lift(plus, m, 3)
    fresh = solved("y4", 1, 3)
    assert exact(tau_lift(minus, m, 3)) == exact(tau_lift(minus, fresh, 3))
    assert exact(tau_lift(minus, m, 3)) != exact(tau_lift(plus, m, 3))


def test_a_field_is_lifted_once(monkeypatch):
    # each lift component depends only on the lower ones, so a lower order
    # reads a prefix of the components already built
    m = solved("x2y3", 1, 5)
    x = Signomial.coordinate(2, 0)
    calls = []
    original = FedosovMachine.dconn_apply

    def counted(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(FedosovMachine, "dconn_apply", counted)
    lifts = {order: tau_lift(x, m, order) for order in (6, 4, 2)}
    assert len(calls) == 6
    for order in (4, 2):
        assert exact(lifts[order]) == exact(lifts[6].truncate(order))


def test_tau_lift_pole_names_the_lift_degree():
    m = machine("flat", 1, 0.45).solve_r(3)
    with pytest.raises(FractionalDomainError) as info:
        tau_components(Signomial.coordinate(2, 0), m, 4)
    # building the Deg-4 component needs D-check of a term x^0.55 y^-2
    assert info.value.degree == 4
    assert (info.value.coordinate, info.value.exponents) == (1, (0.55, -2.0))


def test_tau_lift_failures_are_not_memoised():
    # a lift through Deg 6 first solves r_6, which exists here, then fails
    # at the same Deg-4 lift component as the lift through Deg 4
    m = machine("flat", 1, 0.45).solve_r(3)
    x = Signomial.coordinate(2, 0)
    for order in (4, 6, 4, 6):
        with pytest.raises(FractionalDomainError) as info:
            tau_lift(x, m, order)
        assert info.value.degree == 4
    assert sorted(m.r_components) == [2, 3, 4, 5, 6]


def test_tau_lift_solves_the_r_degrees_it_reads():
    # the lift through Deg k reads r through Deg k, and solves it there
    # with the bits of the eager recursion
    m = solved("x2y3", 1, 2)
    x = Signomial.coordinate(2, 0)
    lift = tau_lift(x, m, 7)
    assert sorted(m.r_components) == list(range(2, 8))
    eager = solved("x2y3", 1, 5)
    assert [exact(c) for c in m.r_components.values()] == [
        exact(c) for c in eager.r_components.values()
    ]
    assert m.residuals == eager.residuals and m.gauge == eager.gauge
    assert exact(m.r_total) == exact(eager.r_total)
    assert exact(lift) == exact(tau_lift(x, eager, 7))


# every config kind at alpha = 1, and at alpha = 0.45 each one whose geometry
# builds there (cross and w4 meet a Gamma pole at every fractional alpha);
# a fractional lift through Deg 4 meets one too, so the lifts stop at Deg 3
TAU_ZERO_CASES = [
    pytest.param(kind, n, alpha, id=f"{kind}{n}-{alpha}")
    for kind, n in [("flat", 1), ("coupled", 1), ("coupled", 2), ("cross", 2), ("y4", 1),
                    ("x2y3", 1), ("w4", 2), ("w4p", 2)]
    for alpha in (1.0, 0.45)
    if alpha == 1.0 or kind not in ("cross", "w4")
]


@pytest.mark.parametrize("kind,n,alpha", TAU_ZERO_CASES)
def test_tau_lift_skips_the_bracket_with_tau_zero(kind, n, alpha):
    # tau_0 = f carries no z, so (i/v)[r_m, tau_0] is the zero element for
    # every r_m, and the lift through Deg k reads r only through Deg k
    eager = machine(kind, n, alpha).solve_r(2)
    fields = probe_fields(n)
    for f in fields:
        for r_m in eager.r_components.values():
            assert eager.algebra.commutator(r_m, WickElement.from_signomial(f)).terms == {}
    for k in (1, 2, 3):
        fresh = machine(kind, n, alpha)
        lifts = [exact(tau_lift(f, fresh, k)) for f in fields]
        assert sorted(fresh.r_components) == list(range(2, k + 1))
        assert lifts == [exact(tau_lift(f, eager, k)) for f in fields]


def _lift_case(name):
    """(machine, fields, lift depth): W4 and x^2 y^3 at alpha = 1 through
    the Deg 2p of their benchmark and golden stars, and the fractional
    golden x2y3_a0.7 through Deg 3, below the poles of its deeper lifts."""
    if name == "x2y3_a0.7":
        spec = parse_config(str(GOLDEN / "x2y3_a0.7.config.json"))
        pipeline = Pipeline(spec)
        pipeline.run(("geometry",))
        fields = [spec.observable_f, spec.observable_g] + probe_fields(1)
        return pipeline.machine, fields, 3
    n, depth = {"w4": (2, 4), "x2y3": (1, 6)}[name]
    return machine(name, n, 1.0), probe_fields(n), depth


@pytest.mark.parametrize("name", ["w4", "x2y3", "x2y3_a0.7"])
def test_lift_components_past_tau_zero_carry_z(name):
    # every tau_k with k >= 1 is a delta_inv output, so none of its terms
    # has deg_s = 0 and only tau_0 = f can pair with a z-free term
    m, fields, depth = _lift_case(name)
    for f in fields:
        comps = tau_components(f, m, depth)
        assert len(comps) == depth + 1 and not comps[depth].is_zero
        assert all(sum(z) > 0 for comp in comps[1:] for _, z, _ in comp.terms)


@pytest.mark.parametrize("kind,n,order", [("w4", 2, 2), ("x2y3", 1, 3)])
def test_star_leaves_out_the_top_lift_component(kind, n, order):
    # under the Deg 2p cap tau_2p pairs only with tau_0 = f, which carries no
    # z, so star's lifts through Deg 2p - 1 give the bits of lifts through 2p
    m = machine(kind, n, 1.0)
    fields = probe_fields(n)
    got = [exact(c) for f in fields for g in fields for c in star(f, g, m, order)]
    assert sorted(m.r_components) == list(range(2, 2 * order))
    deep = 2 * order
    expect = []
    for f in fields:
        for g in fields:
            prod = m.algebra.product(
                tau_lift(f, m, deep), tau_lift(g, m, deep), max_deg=deep, sigma_only=True
            )
            series = sigma_series(prod)
            expect += [exact(series.get(r, Signomial.zero(m.dim))) for r in range(order + 1)]
    assert got == expect


# -- star product --------------------------------------------------------------------------


def test_unit_is_star_neutral_to_all_orders():
    m = solved("coupled", 1, 7)
    one = Signomial.constant(2, 1.0)
    f = Signomial.from_terms(2, [(1.0, [2, 0]), (0.5, [1, 1])])
    left = star(one, f, m, 4)
    right = star(f, one, m, 4)
    assert coeff_distance(left[0], f) == 0.0
    assert coeff_distance(right[0], f) == 0.0
    for r in range(1, 5):
        assert left[r].is_zero
        assert right[r].is_zero


def test_c0_is_pointwise_product_exactly():
    m = solved("coupled", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (x * y, x), (y, y)):
        sc = star(f, g, m, 2)
        assert coeff_distance(sc[0], f * g) == 0.0


def test_flat_second_order_coefficient_hand_value():
    # flat configuration reduces to the twisted fiberwise product of full
    # Taylor lifts; for f = x^2, g = y^2 the hand expansion gives
    # C_1 = 2i x y (one contraction through Lambda^{xy} = 1) and
    # C_2 = (1/2)(i/2)^2 * (Lambda^{xy})^2 * f'' g'' = -1/2
    m = solved("flat", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    sc = star(x * x, y * y, m, 2)
    assert coeff_distance(sc[1], (x * y).scale(2j)) <= 1e-14
    assert coeff_distance(sc[2], Signomial.constant(2, -0.5)) <= 1e-14


def test_flat_commutator_is_iv_exactly():
    m = solved("flat", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    fwd = star(x, y, m, 2)
    rev = star(y, x, m, 2)
    c1 = fwd[1] - rev[1]
    assert c1.sorted_terms() == [((0.0, 0.0), 1j)]
    assert (fwd[2] - rev[2]).is_zero


def test_first_order_commutator_is_poisson_bracket():
    m = solved("coupled", 1, 5)
    b = m.bundle
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (x * x, y), (x * y, x)):
        fwd = star(f, g, m, 1)
        rev = star(g, f, m, 1)
        anti = fwd[1] - rev[1]
        expect = poisson_bracket(f, g, b).scale(1j)
        assert coeff_distance(anti, expect) < 1e-10


@pytest.mark.parametrize("kind,alpha", [("flat", 1.0), ("coupled", 1.0)])
def test_star_associativity_low_order(kind, alpha):
    m = machine(kind, 1, alpha).solve_r(5)
    assert m.max_residual() <= 1e-9
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    obs = (x, y, x * y)
    for f in obs:
        for g in obs:
            for h in obs:
                left = star_series(star(f, g, m, 2), (h,), m, 2)
                right = star_series((f,), star(g, h, m, 2), m, 2)
                for s in range(3):
                    assert coeff_distance(left[s], right[s]) < 1e-10


def test_star_fractional_first_order():
    # fractional stars are exact through v^1 here (order 2 would need
    # Deg-4 lifts, which exit the differentiable class)
    m = machine("flat", 1, 0.45).solve_r(3)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    sc = star(x, y, m, 1)
    rev = star(y, x, m, 1)
    assert coeff_distance(sc[0], x * y) == 0.0
    from akstar.geometry import poisson_bracket
    anti = sc[1] - rev[1]
    expect = poisson_bracket(x, y, m.bundle).scale(1j)
    assert coeff_distance(anti, expect) < 1e-10


def test_star_equals_sigma_of_full_product_exactly():
    # star asks for the sigma-projected product capped at Deg 2 * order
    m = solved("y4", 1, 3)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (y * y, x), (x * y, y)):
        full = m.algebra.product(tau_lift(f, m, 4), tau_lift(g, m, 4))
        series = sigma_series(full)
        assert max(series) > 2  # the full product runs past the order kept
        expect = [series.get(r, Signomial.zero(2)) for r in range(3)]
        got = star(f, g, m, 2)
        assert [exact(c) for c in got] == [exact(c) for c in expect]


def test_star_through_v2_is_a_prefix():
    # the Deg > 4 lift components and products reach no sigma key below v^3
    m = solved("x2y3", 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (y, x), (x * y, y * y)):
        short = star(f, g, m, 2)
        long = star(f, g, m, 3)
        assert not long[2].is_zero and not long[3].is_zero
        assert [exact(c) for c in short] == [exact(c) for c in long[:3]]


@pytest.mark.parametrize("kind", ["coupled", "x2y3"])
def test_star_deeper_than_k_equals_the_eager_recursion(kind):
    # through v^4 the lifts go through Deg 7 and read r that deep, past the
    # K + 2 = 5 that solve_r(3) holds; star solves the rest and matches
    # solve_r(5) bit for bit
    m = solved(kind, 1, 3)
    eager = solved(kind, 1, 5)
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    for f, g in ((x, y), (y, x)):
        got = star(f, g, m, 4)
        assert not got[4].is_zero
        assert [exact(c) for c in got] == [exact(c) for c in star(f, g, eager, 4)]
    assert sorted(m.r_components) == list(range(2, 8))


@pytest.mark.parametrize("kind", ["coupled", "x2y3"])
def test_deep_star_leaves_the_d_hat_squared_read(kind):
    # the Deg caps of the D-hat^2 read drop every r_j with j > K + 2, so
    # extending r for a deeper star moves none of its bits
    m = solved(kind, 1, 3)
    points = sample_points(1)
    probes = generator_probes(2)

    def reads():
        return [
            (flat_d_squared_residual(p, m, 3, points), exact(flat_d(p, m, max_deg=3)))
            for p in probes
        ]

    before = reads()
    star(Signomial.coordinate(2, 0), Signomial.coordinate(2, 1), m, 4)
    assert sorted(m.r_components) == list(range(2, 8))
    assert reads() == before


def test_star_negative_order_raises():
    m = solved("flat", 1, 3)
    with pytest.raises(MalformedInputError, match="nonnegative"):
        star(Signomial.coordinate(2, 0), Signomial.coordinate(2, 1), m, -1)


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
