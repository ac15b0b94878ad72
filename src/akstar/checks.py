"""Invariant suite: check registry, tiers, and execution policy.

Tiers encode where an identity is provable:

* ``EXACT``     — pure term-level algebra, enforced at every alpha;
* ``ALGEBRA``   — finite combinatorial expansions, enforced at every alpha
                  up to float round-off;
* ``CLASSICAL`` — identities whose proofs need the Leibniz rule: enforced
                  at alpha = 1, recorded as diagnostics for alpha < 1
                  (a config tolerance entry upgrades them to gates);
* ``ORACLE``    — closed form versus quadrature (fractional runs only);
* ``INFO``      — reported, never gated.

A fractional-domain pole inside a CLASSICAL/INFO diagnostic is contained
and recorded with status ``flagged`` (the offending term identified in the
note); poles inside construction stages are not containable and abort the
pipeline.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .caputo_quad import power_rule_residual
from .chern import adapted_form, c0_representative, chern_weyl, exterior_derivative, lemma_forms
from .errors import FractionalDomainError
from .expr import Signomial, coeff_distance
from .fedosov import (
    FedosovMachine,
    FedosovState,
    delta,
    delta_inv,
    flat_d_squared_residual,
    flat_section_residual,
    generator_probes,
    sigma,
    sigma_series,
    star,
    star_series,
    tau_lift,
)
from .geometry import (
    GeometryBundle,
    acp_residual,
    anholonomy_residual,
    curvature_antisymmetry_residual,
    j_squared_residual,
    jcompat_residual,
    lagrange_one_form,
    matrix_inverse_residual,
    metric_compat_residual,
    nijenhuis_residual,
    poisson_bracket,
    theta_compat_residual,
    torsion_pure_blocks_residual,
)
from .wick import WickElement


class Tier(enum.Enum):
    EXACT = "exact"
    ALGEBRA = "algebra"
    CLASSICAL = "classical"
    ORACLE = "oracle"
    INFO = "info"


DEFAULT_TOLERANCES = {
    Tier.EXACT: 1e-12,
    Tier.ALGEBRA: 1e-12,
    Tier.CLASSICAL: 1e-8,
    Tier.ORACLE: 1e-6,
}

# Every name a suite section can emit; a config tolerance must name one of them.
CHECK_NAMES = frozenset({
    "caputo_power_rule",
    "algebra_delta_squared", "algebra_hodge_identity", "algebra_delta_derivation",
    "algebra_wick_associativity", "algebra_graded_jacobi",
    "geometry_metric_compat", "geometry_j_compat", "geometry_inverses", "geometry_j_squared",
    "geometry_theta_compat", "geometry_torsion_blocks", "geometry_curvature_antisym",
    "geometry_acp", "geometry_anholonomy", "geometry_nijenhuis",
    "fedosov_comf_delta", "fedosov_comf_dsq", "fedosov_delta_torsion",
    "fedosov_delta_curvature", "fedosov_r_residual", "fedosov_gauge", "fedosov_dsq_probe",
    "fedosov_dconn_derivation",
    "star_c0_exact", "star_sigma_tau", "star_unit_neutral", "star_c1_bracket",
    "fedosov_flat_section", "star_associativity",
    "chern_d_squared", "chern_d_gamma", "chern_kappa_identity", "chern_flat_zero",
    "chern_theta_d_omega",
})


@dataclass
class CheckResult:
    name: str
    tier: str
    value: float | None
    threshold: float | None
    status: str  # pass | fail | diagnostic | flagged
    note: str = ""


def _decide(name, tier, value, alpha, mode, tolerances, default=None, note=""):
    user_tol = tolerances.get(name)
    if tier is Tier.INFO:
        threshold = user_tol
    elif tier is Tier.CLASSICAL and alpha < 1.0:
        threshold = user_tol  # diagnostic unless explicitly gated
    else:
        threshold = user_tol if user_tol is not None else (
            default if default is not None else DEFAULT_TOLERANCES[tier]
        )
    if value is None:
        status = "flagged"
    elif threshold is None:
        status = "diagnostic"
    elif value <= threshold:
        status = "pass"
    else:
        status = "fail" if mode == "strict" else "diagnostic"
    return CheckResult(
        name=name,
        tier=tier.value,
        value=value,
        threshold=threshold,
        status=status,
        note=note,
    )


def _contained(fn):
    """Run a diagnostic; a fractional pole becomes (None, message)."""
    try:
        return float(fn()), ""
    except FractionalDomainError as err:
        return None, f"left the differentiable class: {err}"


# -- suite sections ----------------------------------------------------------


def caputo_checks(alpha, mode, tolerances):
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.7):
        for x in (0.5, 1.0, 2.0):
            worst = max(worst, power_rule_residual(p, alpha, x))
    return [_decide("caputo_power_rule", Tier.ORACLE, worst, alpha, mode, tolerances)]


def algebra_checks(machine: FedosovMachine, seed: int, mode, tolerances):
    import numpy as np

    alg = machine.algebra
    dim = machine.dim
    alpha = machine.bundle.ctx.alpha
    rng = np.random.default_rng(seed)

    def rand_elem(max_s=3, max_forms=2):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            v = int(rng.integers(0, 2))
            z = [0] * dim
            for _ in range(int(rng.integers(0, max_s + 1))):
                z[int(rng.integers(dim))] += 1
            nf = int(rng.integers(0, max_forms + 1))
            forms = tuple(sorted(rng.choice(dim, size=nf, replace=False).tolist()))
            coeff = Signomial.monomial(
                dim,
                complex(rng.normal(), rng.normal()),
                [0.5 * int(rng.integers(3)) for _ in range(dim)],
            )
            terms.append((v, z, forms, coeff))
        return WickElement.from_terms(dim, terms)

    w_dsq = w_hodge = w_deriv = w_assoc = w_jacobi = 0.0
    for _ in range(20):
        a = rand_elem()
        b = rand_elem()
        c = rand_elem()
        w_dsq = max(w_dsq, delta(delta(a)).coeff_norm())
        back = delta(delta_inv(a)) + delta_inv(delta(a)) + sigma(a)
        w_hodge = max(w_hodge, (back - a).coeff_norm())
        ae, ao = a.split_form_parity()
        for part, sign in ((ae, 1.0), (ao, -1.0)):
            if part.is_zero:
                continue
            lhs = delta(alg.product(part, b))
            rhs = alg.product(delta(part), b) + alg.product(part, delta(b)).scale(sign)
            w_deriv = max(w_deriv, (lhs - rhs).coeff_norm())
        left = alg.product(alg.product(a, b), c)
        right = alg.product(a, alg.product(b, c))
        w_assoc = max(w_assoc, (left - right).coeff_norm())
        parts = []
        for e in (a, b, c):
            ee, eo = e.split_form_parity()
            parts.append(ee if not ee.is_zero else eo)
        pa, pb, pc = [
            (0 if not p.terms or len(next(iter(p.terms))[2]) % 2 == 0 else 1)
            for p in parts
        ]
        t1 = alg.commutator(parts[0], alg.commutator(parts[1], parts[2])).scale((-1.0) ** (pa * pc))
        t2 = alg.commutator(parts[1], alg.commutator(parts[2], parts[0])).scale((-1.0) ** (pb * pa))
        t3 = alg.commutator(parts[2], alg.commutator(parts[0], parts[1])).scale((-1.0) ** (pc * pb))
        w_jacobi = max(w_jacobi, (t1 + t2 + t3).coeff_norm())

    args = (alpha, mode, tolerances)
    return [
        _decide("algebra_delta_squared", Tier.ALGEBRA, w_dsq, *args),
        _decide("algebra_hodge_identity", Tier.ALGEBRA, w_hodge, *args),
        _decide("algebra_delta_derivation", Tier.ALGEBRA, w_deriv, *args),
        _decide("algebra_wick_associativity", Tier.ALGEBRA, w_assoc, *args),
        _decide("algebra_graded_jacobi", Tier.ALGEBRA, w_jacobi, *args),
    ]


def geometry_checks(bundle: GeometryBundle, points, probes, mode, tolerances):
    alpha = bundle.ctx.alpha
    args = (alpha, mode, tolerances)
    out = [
        _decide("geometry_metric_compat", Tier.EXACT, metric_compat_residual(bundle), *args),
        _decide("geometry_j_compat", Tier.EXACT, jcompat_residual(bundle), *args),
        _decide("geometry_inverses", Tier.EXACT, matrix_inverse_residual(bundle), *args),
        _decide("geometry_j_squared", Tier.EXACT, j_squared_residual(bundle), *args),
        _decide("geometry_theta_compat", Tier.EXACT, theta_compat_residual(bundle), *args),
        _decide("geometry_torsion_blocks", Tier.EXACT, torsion_pure_blocks_residual(bundle), *args),
        _decide(
            "geometry_curvature_antisym",
            Tier.EXACT,
            curvature_antisymmetry_residual(bundle),
            *args,
        ),
    ]
    val, note = _contained(lambda: acp_residual(bundle, points))
    out.append(_decide("geometry_acp", Tier.CLASSICAL, val, *args, note=note))
    val, note = _contained(lambda: anholonomy_residual(bundle, probes, points))
    out.append(
        _decide("geometry_anholonomy", Tier.CLASSICAL, val, *args, default=1e-10, note=note)
    )
    val, note = _contained(lambda: nijenhuis_residual(bundle, points))
    out.append(_decide("geometry_nijenhuis", Tier.CLASSICAL, val, *args, note=note))
    return out


def fedosov_checks(machine: FedosovMachine, state: FedosovState, points, probes, mode, tolerances):
    """Operator identities of the recursion, on ``probes`` (seeded monomials).

    ``fedosov_dsq_probe`` certifies D-hat^2 = 0 at alpha = 1 on the 4n
    generators of ``generator_probes`` (see ``flat_d_squared_residual``):
    the certificate rests on the gated checks ``algebra_delta_derivation``,
    ``algebra_wick_associativity``, ``geometry_anholonomy`` (d^2 f = 0) and
    ``fedosov_dconn_derivation``, the Leibniz defect of D-check over all
    ordered pairs of ``probes``.  At alpha < 1 the frame operators are not
    derivations, so no generator set suffices and D-hat^2 runs on ``probes``.
    """
    alpha = machine.bundle.ctx.alpha
    args = (alpha, mode, tolerances)
    out = []

    def probe_worst(fn, items=probes):
        worst = 0.0
        completed = 0
        note = ""
        for p in items:
            try:
                worst = max(worst, fn(p))
                completed += 1
            except FractionalDomainError as err:
                note = f"some probes left the differentiable class: {err}"
        if completed == 0:
            return None, note
        return worst, note

    val, note = probe_worst(lambda p: machine.comf_delta_residual(p, points))
    out.append(_decide("fedosov_comf_delta", Tier.CLASSICAL, val, *args, note=note))
    val, note = probe_worst(lambda p: machine.comf_dsq_residual(p, points))
    out.append(_decide("fedosov_comf_dsq", Tier.CLASSICAL, val, *args, note=note))
    val, note = _contained(lambda: machine.delta_torsion_residual(points))
    out.append(_decide("fedosov_delta_torsion", Tier.CLASSICAL, val, *args, note=note))
    val, note = _contained(lambda: machine.delta_curvature_residual(points))
    out.append(_decide("fedosov_delta_curvature", Tier.CLASSICAL, val, *args, note=note))
    out.append(
        _decide("fedosov_r_residual", Tier.CLASSICAL, state.max_residual(), *args, default=1e-9)
    )
    out.append(_decide("fedosov_gauge", Tier.EXACT, state.gauge_residual(), *args))
    classical = machine.bundle.ctx.classical
    val, note = probe_worst(
        lambda p: flat_d_squared_residual(p, state, points),
        generator_probes(machine.dim) if classical else probes,
    )
    if classical:
        note = f"certified on the {2 * machine.dim} generators z^i, e^a"
    out.append(_decide("fedosov_dsq_probe", Tier.CLASSICAL, val, *args, note=note))

    dconn_memo = {}

    def dconn_probe(i):
        if i not in dconn_memo:
            dconn_memo[i] = machine.dconn_apply(probes[i])
        return dconn_memo[i]

    def leibniz(pair):
        alg = machine.algebra
        a, b = probes[pair[0]], probes[pair[1]]
        db = dconn_probe(pair[1])
        # D-check raises the form degree by one: it takes a's even part to
        # the odd part of D-check a, and a's odd part to the even part
        ae, ao = a.split_form_parity()
        dae, dao = reversed(dconn_probe(pair[0]).split_form_parity())
        worst = 0.0
        for part, dpart, sign in ((ae, dae, 1.0), (ao, dao, -1.0)):
            if part.is_zero:
                continue
            lhs = machine.dconn_apply(alg.product(part, b))
            rhs = alg.product(dpart, b) + alg.product(part, db).scale(sign)
            worst = max(worst, (lhs - rhs).sample_norm(points))
        return worst

    val, note = probe_worst(leibniz, itertools.product(range(len(probes)), repeat=2))
    out.append(_decide("fedosov_dconn_derivation", Tier.CLASSICAL, val, *args, note=note))
    return out


def star_checks(state: FedosovState, f, g, fwd, points, mode, tolerances):
    """Checks of the star product, given ``fwd``, the coefficients of f * g."""
    bundle = state.bundle
    alpha = bundle.ctx.alpha
    dim = bundle.ctx.dim
    order = len(fwd) - 1
    args = (alpha, mode, tolerances)
    out = []

    rev = star(g, f, state, order)
    out.append(
        _decide("star_c0_exact", Tier.EXACT, coeff_distance(fwd[0], f * g), *args, default=0.0)
    )

    lift = tau_lift(f, state, 2 * order if order else 2)
    series = sigma_series(lift)
    resid = 0.0
    for r, c in series.items():
        resid = max(resid, coeff_distance(c, f) if r == 0 else c.max_abs_coeff())
    out.append(_decide("star_sigma_tau", Tier.EXACT, resid, *args, default=0.0))

    one = Signomial.constant(dim, 1.0)
    left = star(one, f, state, order)
    right = star(f, one, state, order)
    unit_resid = max(
        coeff_distance(left[0], f), coeff_distance(right[0], f)
    )
    for r in range(1, order + 1):
        unit_resid = max(unit_resid, left[r].max_abs_coeff(), right[r].max_abs_coeff())
    out.append(_decide("star_unit_neutral", Tier.EXACT, unit_resid, *args, default=0.0))

    if order >= 1:
        anti = fwd[1] - rev[1]
        expect = poisson_bracket(f, g, bundle).scale(1j)
        diff = anti - expect
        val = max(abs(diff.eval_at(p)) for p in points) if not diff.is_zero else 0.0
        out.append(_decide("star_c1_bracket", Tier.CLASSICAL, val, *args))

    val, note = _contained(lambda: flat_section_residual(f, state, 2 * order if order else 2, points))
    out.append(_decide("fedosov_flat_section", Tier.CLASSICAL, val, *args, default=1e-9, note=note))

    if order >= 2:
        def assoc():
            worst = 0.0
            for h in (f, g):
                left_s = star_series(star(f, g, state, 2), (h,), state, 2)
                right_s = star_series((f,), star(g, h, state, 2), state, 2)
                for s in range(3):
                    d = left_s[s] - right_s[s]
                    if not d.is_zero:
                        worst = max(worst, max(abs(d.eval_at(p)) for p in points))
            return worst

        val, note = _contained(assoc)
        out.append(_decide("star_associativity", Tier.CLASSICAL, val, *args, note=note))
    return out


def chern_checks(bundle: GeometryBundle, machine: FedosovMachine, points, probes_scalar, mode, tolerances):
    alpha = bundle.ctx.alpha
    dim = bundle.ctx.dim
    args = (alpha, mode, tolerances)
    out = []
    gamma = chern_weyl(bundle)
    mu, lam, kappa = lemma_forms(machine)

    def dd():
        worst = 0.0
        for fsig in probes_scalar:
            zero_form = WickElement.from_signomial(fsig)
            ddf = exterior_derivative(exterior_derivative(zero_form, machine), machine)
            worst = max(worst, ddf.sample_norm(points))
        return worst

    val, note = _contained(dd)
    out.append(_decide("chern_d_squared", Tier.CLASSICAL, val, *args, default=1e-10, note=note))
    val, note = _contained(lambda: exterior_derivative(gamma, machine).sample_norm(points))
    out.append(_decide("chern_d_gamma", Tier.CLASSICAL, val, *args, note=note))
    lhs = kappa + lam.scale(1j) - gamma.scale(0.5j)
    out.append(_decide("chern_kappa_identity", Tier.CLASSICAL, lhs.sample_norm(points), *args))
    if machine.t_hat.is_zero and machine.r_hat.is_zero:
        flat_resid = max(
            gamma.coeff_norm(), mu.coeff_norm(), lam.coeff_norm(), kappa.coeff_norm()
        )
        out.append(_decide("chern_flat_zero", Tier.EXACT, flat_resid, *args, default=0.0))
    if bundle.ctx.classical:
        omega = adapted_form(dim, [((i,), c) for i, c in enumerate(lagrange_one_form(bundle.spec))])
        domega = exterior_derivative(omega, machine)
        theta = adapted_form(
            dim,
            [
                ((a, b), bundle.theta_lower[a][b])
                for a in range(dim)
                for b in range(a + 1, dim)
            ],
        )
        out.append(
            _decide(
                "chern_theta_d_omega",
                Tier.INFO,
                (domega - theta).sample_norm(points),
                *args,
            )
        )
    forms = {"gamma": gamma, "mu": mu, "lambda": lam, "kappa": kappa, "c0": c0_representative(gamma)}
    return out, forms
