"""Characteristic forms from the curvature and torsion traces.

A differential form is a Wick element with v = 0 and z = 0: its terms are
keyed ``(0, (0,) * dim, A)`` with ``A`` the strictly increasing tuple of
co-frame labels, so forms share the Wick element's accumulation, scaling
and norms.  The curvature-trace 2-form

    gamma = -(1/4) J^a'_t R^t_{a' a b} e^a ^ e^b

is assembled directly from the constant almost-complex matrix and the
frame curvature (the holomorphic-projector trace collapses to exactly this
contraction, so projectors never materialize).  Alongside it the auxiliary
forms

    mu    = (1/6) J^a'_t T^t_{a' b} e^b
    lam   = d mu
    kappa = -(i/8) J^g'_t R^t_{g' g b} e^g ^ e^b - i lam

satisfy kappa + i lam = (i/2) gamma identically, and the zero-degree
class datum is the representative -(1/(2i)) gamma.  Only the representative
is computed; no cohomology machinery exists at this scale.

The exterior derivative is D-check (``FedosovMachine.dconn_apply``) on the
v = 0, z = 0 part: the frame derivative of the coefficients plus the
anholonomy realization d e^g = -(1/2) w^g_{ab} e^a ^ e^b, so d^2 = 0 is
assertable at alpha = 1 only and measured otherwise.
"""

from __future__ import annotations

from .expr import Signomial
from .fedosov import FedosovMachine
from .geometry import GeometryBundle
from .wick import WickElement


def adapted_form(dim: int, entries) -> WickElement:
    """Sum of (co-frame index word, coefficient) terms, with sign tracking."""
    zero_z = (0,) * dim
    return WickElement.from_terms(dim, ((0, zero_z, word, coeff) for word, coeff in entries))


def exterior_derivative(form: WickElement, machine: FedosovMachine) -> WickElement:
    """d on the adapted co-frame: D-check acting on a v = 0, z = 0 element."""
    return machine.dconn_apply(form)


def _j_trace(bundle: GeometryBundle, component) -> Signomial:
    """Sum over t, a' of J^a'_t X^t_{a' ...}, where ``component(t, a')`` is that X entry."""
    J = bundle.J
    acc = Signomial.zero(bundle.ctx.dim)
    for t in range(bundle.ctx.dim):
        for ap in range(bundle.ctx.dim):
            if J[ap][t] == 0.0:
                continue
            x = component(t, ap)
            if not x.is_zero:
                acc = acc + x.scale(J[ap][t])
    return acc


def _curvature_trace(bundle: GeometryBundle) -> WickElement:
    """The 2-form J^a'_t R^t_{a' a b} e^a ^ e^b behind both gamma and kappa."""
    dim = bundle.ctx.dim
    entries = []
    for a in range(dim):
        for b in range(a + 1, dim):
            acc = _j_trace(bundle, lambda t, ap: bundle.curvature[t][ap][a][b])
            if not acc.is_zero:
                entries.append(((a, b), acc))
    return adapted_form(dim, entries)


def chern_weyl(bundle: GeometryBundle) -> WickElement:
    """Curvature-trace 2-form gamma."""
    return _curvature_trace(bundle).scale(-0.25)


def lemma_forms(machine: FedosovMachine):
    """The (mu, lam, kappa) triple built from torsion and curvature traces."""
    bundle = machine.bundle
    dim = bundle.ctx.dim
    mu_entries = []
    for b in range(dim):
        acc = _j_trace(bundle, lambda t, ap: bundle.torsion[t][ap][b])
        if not acc.is_zero:
            mu_entries.append(((b,), acc.scale(1.0 / 6.0)))
    mu = adapted_form(dim, mu_entries)
    lam = exterior_derivative(mu, machine)
    kappa = _curvature_trace(bundle).scale(-0.125j) - lam.scale(1j)
    return mu, lam, kappa


def c0_representative(gamma: WickElement) -> WickElement:
    """Representative 2-form of the zero-degree class datum: -(1/(2i)) gamma.

    Only the representative is emitted; extracting the de Rham class is out
    of reach (and out of scope) for this engine.
    """
    return gamma.scale(0.5j)
