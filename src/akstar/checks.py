"""Invariant suite: the check table and the verdicts of one run.

``CHECKS`` maps each check name to its tier and default gate, in report
order.  Tiers encode where an identity is provable:

* ``exact``     — pure term-level algebra, enforced at every alpha;
* ``algebra``   — finite combinatorial expansions, enforced at every alpha
                  up to float round-off;
* ``classical`` — identities whose proofs need the Leibniz rule: enforced
                  at alpha = 1, recorded as diagnostics for alpha < 1;
* ``oracle``    — closed form versus quadrature (fractional runs only);
* ``info``      — reported, not gated by default.

A config tolerance entry replaces the gate of its check in every tier, so
it also gates a ``classical`` check below alpha = 1 and an ``info`` check.

A fractional-domain pole inside a diagnostic is contained by
``Suite.measure`` and recorded without a value, the offending term named
in the note: with status ``flagged``, or ``fail`` when the check is gated
in strict mode.  Poles inside construction stages are not containable and
abort the pipeline.
"""

from __future__ import annotations

import itertools

from .caputo_quad import power_rule_residual
from .chern import (
    adapted_form,
    c0_representative,
    chern_weyl,
    curvature_trace,
    exterior_derivative,
    lemma_forms,
)
from .errors import FractionalDomainError
from .expr import Signomial, coeff_distance
from .fedosov import (
    FedosovMachine,
    delta,
    delta_inv,
    flat_d_squared_residual,
    flat_section_residual,
    generator_probes,
    seeded_draws,
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


# Every check a suite section can emit, in report order: name -> (tier, gate).
# A config tolerance must name one of them and replaces its gate.
CHECKS = {
    "caputo_power_rule": ("oracle", 1e-6),
    "algebra_delta_squared": ("algebra", 1e-12),
    "algebra_hodge_identity": ("algebra", 1e-12),
    "algebra_delta_derivation": ("algebra", 1e-12),
    "algebra_wick_associativity": ("algebra", 1e-12),
    "algebra_graded_jacobi": ("algebra", 1e-12),
    "geometry_metric_compat": ("exact", 1e-12),
    "geometry_j_compat": ("exact", 1e-12),
    "geometry_inverses": ("exact", 1e-12),
    "geometry_j_squared": ("exact", 1e-12),
    "geometry_theta_compat": ("exact", 1e-12),
    "geometry_torsion_blocks": ("exact", 1e-12),
    "geometry_curvature_antisym": ("exact", 1e-12),
    "geometry_acp": ("classical", 1e-8),
    "geometry_anholonomy": ("classical", 1e-10),
    "geometry_nijenhuis": ("classical", 1e-8),
    "fedosov_comf_delta": ("classical", 1e-8),
    "fedosov_comf_dsq": ("classical", 1e-8),
    "fedosov_delta_torsion": ("classical", 1e-8),
    "fedosov_delta_curvature": ("classical", 1e-8),
    "fedosov_r_residual": ("classical", 1e-9),
    "fedosov_gauge": ("exact", 1e-12),
    "fedosov_dsq_probe": ("classical", 1e-8),
    "fedosov_dconn_derivation": ("classical", 1e-8),
    "star_c0_exact": ("exact", 0.0),
    "star_sigma_tau": ("exact", 0.0),
    "star_unit_neutral": ("exact", 0.0),
    "star_c1_bracket": ("classical", 1e-8),
    "fedosov_flat_section": ("classical", 1e-9),
    "star_associativity": ("classical", 1e-8),
    "chern_d_squared": ("classical", 1e-10),
    "chern_d_gamma": ("classical", 1e-8),
    "chern_kappa_identity": ("classical", 1e-8),
    "chern_theta_d_omega": ("info", None),
}


class Suite:
    """The check verdicts of one run, as report entries in the order recorded."""

    def __init__(self, classical: bool, mode: str, tolerances: dict):
        self.classical = classical
        self.mode = mode
        self.tolerances = tolerances
        self.entries = []

    def record(self, name: str, value, note: str = "") -> dict:
        """Add and return the report entry of ``value``, None for a contained pole."""
        tier, gate = CHECKS[name]
        threshold = self.tolerances.get(name)
        # without a tolerance a classical check gates only at alpha = 1
        if threshold is None and (tier != "classical" or self.classical):
            threshold = gate
        if threshold is not None and value is not None and value <= threshold:
            status = "pass"
        elif threshold is not None and self.mode == "strict":
            status = "fail"
        else:
            status = "flagged" if value is None else "diagnostic"
        entry = {
            "name": name,
            "tier": tier,
            "value": value,
            "threshold": threshold,
            "status": status,
            "note": note,
        }
        self.entries.append(entry)
        return entry

    def measure(self, name: str, fn, items=None) -> dict:
        """Record ``fn()`` or, over ``items``, the worst ``fn(item)``, containing Gamma poles.

        A pole on the single call records no value; over ``items`` the
        value is the worst over the items that finished, and none if none did.
        """
        if items is None:
            try:
                value = float(fn())
            except FractionalDomainError as err:
                return self.record(name, None, f"left the differentiable class: {err}")
            return self.record(name, value)
        worst, completed, note = 0.0, 0, ""
        for item in items:
            try:
                worst = max(worst, fn(item))
                completed += 1
            except FractionalDomainError as err:
                note = f"some probes left the differentiable class: {err}"
        return self.record(name, worst if completed else None, note)


# -- suite sections ----------------------------------------------------------


def _leibniz_defects(D, alg, a, b, da, db):
    """Yield D(a_p o b) - (D a_p o b + (-1)^p a_p o D b) for the nonzero even
    (p = 0) and odd (p = 1) parts a_p of ``a``, given ``da`` = D a and
    ``db`` = D b.  D raises the form degree by one, so D a_p is the part of
    ``da`` of the other parity."""
    ae, ao = a.split_form_parity()
    dao, dae = da.split_form_parity()
    for part, dpart, sign in ((ae, dae, 1.0), (ao, dao, -1.0)):
        if not part.is_zero:
            # D first: where it hits a Gamma pole, the right side is never formed
            lhs = D(alg.product(part, b))
            yield lhs - (alg.product(dpart, b) + alg.product(part, db).scale(sign))


def caputo_checks(suite: Suite, alpha: float):
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.7):
        for x in (0.5, 1.0, 2.0):
            worst = max(worst, power_rule_residual(p, alpha, x))
    suite.record("caputo_power_rule", worst)


def algebra_checks(suite: Suite, machine: FedosovMachine, seed: int):
    alg = machine.algebra
    dim = machine.dim
    # coefficients are uniform in [-1, 1)
    draw, uniform = seeded_draws(seed)

    def rand_elem(max_s=3, max_forms=2):
        terms = []
        for _ in range(1 + draw(3)):
            v = draw(2)
            z = [0] * dim
            for _ in range(draw(max_s + 1)):
                z[draw(dim)] += 1
            unused = list(range(dim))
            nf = draw(max_forms + 1)
            forms = tuple(sorted(unused.pop(draw(len(unused))) for _ in range(nf)))
            coeff = Signomial.monomial(
                dim,
                complex(2.0 * uniform() - 1.0, 2.0 * uniform() - 1.0),
                [0.5 * draw(3) for _ in range(dim)],
            )
            terms.append((v, z, forms, coeff))
        return WickElement.from_terms(dim, terms)

    w_dsq = w_hodge = w_deriv = w_assoc = w_jacobi = 0.0
    for _ in range(20):
        a = rand_elem()
        b = rand_elem()
        c = rand_elem()
        da = delta(a)
        w_dsq = max(w_dsq, delta(da).coeff_norm())
        back = delta(delta_inv(a)) + delta_inv(da) + sigma(a)
        w_hodge = max(w_hodge, (back - a).coeff_norm())
        for defect in _leibniz_defects(delta, alg, a, b, da, delta(b)):
            w_deriv = max(w_deriv, defect.coeff_norm())
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

    suite.record("algebra_delta_squared", w_dsq)
    suite.record("algebra_hodge_identity", w_hodge)
    suite.record("algebra_delta_derivation", w_deriv)
    suite.record("algebra_wick_associativity", w_assoc)
    suite.record("algebra_graded_jacobi", w_jacobi)


def geometry_checks(suite: Suite, bundle: GeometryBundle, points, probes):
    suite.record("geometry_metric_compat", metric_compat_residual(bundle))
    suite.record("geometry_j_compat", jcompat_residual(bundle))
    suite.record("geometry_inverses", matrix_inverse_residual(bundle))
    suite.record("geometry_j_squared", j_squared_residual(bundle))
    suite.record("geometry_theta_compat", theta_compat_residual(bundle))
    suite.record("geometry_torsion_blocks", torsion_pure_blocks_residual(bundle))
    suite.record("geometry_curvature_antisym", curvature_antisymmetry_residual(bundle))
    suite.measure("geometry_acp", lambda: acp_residual(bundle, points))
    suite.measure("geometry_anholonomy", lambda: anholonomy_residual(bundle, probes, points))
    suite.measure("geometry_nijenhuis", lambda: nijenhuis_residual(bundle, points))


def fedosov_checks(suite: Suite, machine: FedosovMachine, K: int, points, probes):
    """Operator identities of the recursion, on ``probes`` (seeded monomials).

    ``fedosov_dsq_probe`` certifies D-hat^2 = 0 at alpha = 1 on the 4n
    generators of ``generator_probes`` (see ``flat_d_squared_residual``):
    the certificate rests on the gated checks ``algebra_delta_derivation``,
    ``algebra_wick_associativity``, ``geometry_anholonomy`` (d^2 f = 0) and
    ``fedosov_dconn_derivation``, the Leibniz defect of D-check over all
    ordered pairs of ``probes``.  At alpha < 1 the frame operators are not
    derivations, so no generator set suffices and D-hat^2 runs on ``probes``.
    """
    suite.measure("fedosov_comf_delta", lambda p: machine.comf_delta_residual(p, points), probes)
    suite.measure("fedosov_comf_dsq", lambda p: machine.comf_dsq_residual(p, points), probes)
    suite.measure("fedosov_delta_torsion", lambda: machine.delta_torsion_residual(points))
    suite.measure("fedosov_delta_curvature", lambda: machine.delta_curvature_residual(points))
    suite.record("fedosov_r_residual", machine.max_residual())
    suite.record("fedosov_gauge", machine.gauge)
    classical = machine.bundle.ctx.classical
    entry = suite.measure(
        "fedosov_dsq_probe",
        lambda p: flat_d_squared_residual(p, machine, K, points),
        generator_probes(machine.dim) if classical else probes,
    )
    if classical:
        entry["note"] = f"certified on the {2 * machine.dim} generators z^i, e^a"

    dconn_memo = {}

    def dconn_probe(i):
        if i not in dconn_memo:
            dconn_memo[i] = machine.dconn_apply(probes[i])
        return dconn_memo[i]

    def leibniz(pair):
        i, j = pair
        defects = _leibniz_defects(
            machine.dconn_apply, machine.algebra, probes[i], probes[j],
            dconn_probe(i), dconn_probe(j),
        )
        return max((d.sample_norm(points) for d in defects), default=0.0)

    suite.measure(
        "fedosov_dconn_derivation", leibniz, itertools.product(range(len(probes)), repeat=2)
    )


def star_checks(suite: Suite, machine: FedosovMachine, f, g, fwd, points):
    """Checks of the star product, given ``fwd``, the coefficients of f * g
    through an order >= 1 (``run`` asks for (K + 1) // 2, or 1 at alpha < 1)."""
    bundle = machine.bundle
    dim = bundle.ctx.dim
    order = len(fwd) - 1

    rev = star(g, f, machine, order)
    suite.record("star_c0_exact", coeff_distance(fwd[0], f * g))

    lift = tau_lift(f, machine, 2 * order)
    series = sigma_series(lift)
    resid = 0.0
    for r, c in series.items():
        resid = max(resid, coeff_distance(c, f) if r == 0 else c.max_abs_coeff())
    suite.record("star_sigma_tau", resid)

    one = Signomial.constant(dim, 1.0)
    left = star(one, f, machine, order)
    right = star(f, one, machine, order)
    unit_resid = max(
        coeff_distance(left[0], f), coeff_distance(right[0], f)
    )
    for r in range(1, order + 1):
        unit_resid = max(unit_resid, left[r].max_abs_coeff(), right[r].max_abs_coeff())
    suite.record("star_unit_neutral", unit_resid)

    diff = fwd[1] - rev[1] - poisson_bracket(f, g, bundle).scale(1j)
    suite.record("star_c1_bracket", diff.sample_norm(points))

    suite.measure(
        "fedosov_flat_section",
        lambda: flat_section_residual(f, machine, 2 * order, points),
    )

    if order >= 2:
        def assoc():
            # through v^2, f * g is fwd[:3] and g * f is rev[:3]; only g * g is new
            worst = 0.0
            for h, gh in ((f, rev[:3]), (g, star(g, g, machine, 2))):
                left_s = star_series(fwd[:3], (h,), machine, 2)
                right_s = star_series((f,), gh, machine, 2)
                for s in range(3):
                    worst = max(worst, (left_s[s] - right_s[s]).sample_norm(points))
            return worst

        suite.measure("star_associativity", assoc)


def chern_checks(suite: Suite, machine: FedosovMachine, points, probes_scalar):
    """Record the chern checks and return the characteristic forms by report name."""
    bundle = machine.bundle
    dim = bundle.ctx.dim
    trace = curvature_trace(bundle)
    gamma = chern_weyl(trace)
    mu, lam, kappa = lemma_forms(machine, trace)

    def dd():
        worst = 0.0
        for fsig in probes_scalar:
            zero_form = WickElement.from_signomial(fsig)
            ddf = exterior_derivative(exterior_derivative(zero_form, machine), machine)
            worst = max(worst, ddf.sample_norm(points))
        return worst

    suite.measure("chern_d_squared", dd)
    suite.measure("chern_d_gamma", lambda: exterior_derivative(gamma, machine).sample_norm(points))
    lhs = kappa + lam.scale(1j) - gamma.scale(0.5j)
    suite.record("chern_kappa_identity", lhs.sample_norm(points))
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
        suite.record("chern_theta_d_omega", (domega - theta).sample_norm(points))
    return {"gamma": gamma, "mu": mu, "lambda": lam, "kappa": kappa, "c0": c0_representative(gamma)}
