"""Flat-connection recursion and the star product.

The graded operators on Wick-algebra-valued forms:

* ``delta``      : e^a wedge d/dz^a           (deg_s -> deg_s - 1, deg_a + 1)
* ``delta_inv``  : (p+q)^{-1} z^a i(e_a)      on (p, q)-bihomogeneous terms
* ``sigma``      : projection on deg_s = deg_a = 0 (the v-series part)
* ``dconn_apply``: lift of the canonical d-connection — frame derivative on
  coefficients, linear transport on fiber variables, anholonomic exterior
  action on the form factor.

``delta_inv`` uses the interior product and carries no imaginary unit: that
is the unique normalization under which
``a = (delta delta_inv + delta_inv delta + sigma)(a)`` holds identically,
and that identity is what the recursion rests on.

From the frame torsion and curvature the machine builds the quadratic
elements T-hat and R-hat, solves

    delta r = T-hat + R-hat + D-check r - (i/v) r o r

degree by degree in Deg = 2 deg_v + deg_s (gauge: delta_inv r = 0, deg_a
r = 1), records the per-degree defect of that equation, and exposes the
flat connection D-hat = -delta + D-check - (i/v) ad(r), the recursive lift
tau inverting sigma on flat sections, and the star product
f * g = sigma(tau(f) o tau(g)) with coefficients per power of v.

For alpha = 1 the recursion closes to round-off; for alpha < 1 the frame
operators are not derivations, the closure argument is unavailable, and
the residuals are the measurement of that obstruction.  ``solve_r`` only
records the residuals at every alpha; the ``fedosov_r_residual`` check is
where they are gated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import FractionalDomainError, MalformedInputError
from .expr import Signomial
from .geometry import GeometryBundle
from .wick import WickAlgebra, WickElement, sort_word


# ---------------------------------------------------------------------------
# grading-shift operators (geometry-free)
# ---------------------------------------------------------------------------


def delta(w: WickElement) -> WickElement:
    def terms():
        for (v, z, forms), c in w.terms.items():
            for g in range(w.dim):
                if z[g] == 0:
                    continue
                merged = sort_word((g,) + forms)
                if merged is None:
                    continue
                sign, nf = merged
                nz = list(z)
                nz[g] -= 1
                yield v, nz, nf, c.scale(sign * z[g])

    return WickElement.from_terms(w.dim, terms())


def delta_inv(w: WickElement) -> WickElement:
    def terms():
        for (v, z, forms), c in w.terms.items():
            p = sum(z)
            q = len(forms)
            if p + q == 0:
                continue
            for m, g in enumerate(forms):
                sign = -1.0 if m % 2 else 1.0
                nz = list(z)
                nz[g] += 1
                yield v, nz, forms[:m] + forms[m + 1:], c.scale(sign / (p + q))

    return WickElement.from_terms(w.dim, terms())


def sigma(w: WickElement) -> WickElement:
    """deg_s = deg_a = 0 part; the v-series of scalar coefficients."""
    zero_z = (0,) * w.dim
    return WickElement(
        w.dim,
        {k: c for k, c in w.terms.items() if k[1] == zero_z and k[2] == ()},
    )


def sigma_series(w: WickElement) -> dict:
    """v-power -> signomial coefficient of the scalar part."""
    out = {}
    for (v, z, forms), c in sigma(w).terms.items():
        out[v] = out.get(v, Signomial.zero(w.dim)) + c
    return out


# ---------------------------------------------------------------------------
# machine bound to one geometry
# ---------------------------------------------------------------------------


class FedosovMachine:
    """Operator package for one configuration.

    Precomputes the Wick algebra, the nonzero connection/anholonomy entries
    used by the connection lift, and the torsion/curvature elements.
    """

    def __init__(self, bundle: GeometryBundle):
        self.bundle = bundle
        self.dim = bundle.ctx.dim
        self.algebra = WickAlgebra(bundle.lam)
        # nonzero Gamma entries grouped by wedge direction:
        # transport term  - Gamma(tgt, dir, src) z^src d/dz^tgt
        self.gamma_by_dir = []
        for al in range(self.dim):
            entries = []
            for tgt in range(self.dim):
                for src in range(self.dim):
                    gam = bundle.gamma[tgt][al][src]
                    if not gam.is_zero:
                        entries.append((tgt, src, gam))
            self.gamma_by_dir.append(entries)
        # nonzero anholonomy entries with ordered index pairs, grouped by
        # the form index they replace
        self.w_by_form = []
        for g in range(self.dim):
            entries = []
            for a in range(self.dim):
                for b in range(a + 1, self.dim):
                    wgab = bundle.anholonomy[g][a][b]
                    if not wgab.is_zero:
                        entries.append((a, b, wgab))
            self.w_by_form.append(entries)
        self.t_hat = self._torsion_element()
        self.r_hat = self._curvature_element()

    # -- quadratic elements --------------------------------------------------

    def _theta_lower(self, g: int, column: list) -> Signomial:
        """sum_t theta_{gt} X^t for the column X^t, skipping zero factors."""
        coeff = Signomial.zero(self.dim)
        for t, x in enumerate(column):
            th = self.bundle.theta_lower[g][t]
            if th.is_zero or x.is_zero:
                continue
            coeff = coeff + th * x
        return coeff

    def _torsion_element(self) -> WickElement:
        T = self.bundle.torsion
        dim = self.dim

        def terms():
            for a in range(dim):
                for b in range(a + 1, dim):
                    column = [T[t][a][b] for t in range(dim)]
                    for g in range(dim):
                        z = [0] * dim
                        z[g] = 1
                        yield 0, z, (a, b), self._theta_lower(g, column)

        return WickElement.from_terms(dim, terms())

    def _curvature_element(self) -> WickElement:
        R = self.bundle.curvature
        dim = self.dim

        def terms():
            for a in range(dim):
                for b in range(a + 1, dim):
                    columns = [[R[t][f][a][b] for t in range(dim)] for f in range(dim)]
                    for g in range(dim):
                        for f in range(dim):
                            z = [0] * dim
                            z[g] += 1
                            z[f] += 1
                            yield 0, z, (a, b), self._theta_lower(g, columns[f]).scale(0.5)

        return WickElement.from_terms(dim, terms())

    # -- connection lift -------------------------------------------------------

    def dconn_apply(self, w: WickElement) -> WickElement:
        """D-check: raises deg_a by one, preserves the total degree."""
        bundle = self.bundle

        def terms():
            for (v, z, forms), c in w.terms.items():
                for al in range(self.dim):
                    merged = sort_word((al,) + forms)
                    if merged is None:
                        continue
                    sign, nf = merged
                    yield v, z, nf, bundle.e(c, al).scale(sign)
                    for tgt, src, gam in self.gamma_by_dir[al]:
                        if z[tgt] == 0:
                            continue
                        nz = list(z)
                        nz[tgt] -= 1
                        nz[src] += 1
                        yield v, nz, nf, (gam * c).scale(-sign * z[tgt])
                for m, g in enumerate(forms):
                    rest = forms[:m] + forms[m + 1:]
                    msign = -1.0 if m % 2 else 1.0
                    for a, b, wgab in self.w_by_form[g]:
                        srt = sort_word((a, b) + rest)
                        if srt is None:
                            continue
                        ssign, nf = srt
                        yield v, z, nf, (wgab * c).scale(-msign * ssign)

        return WickElement.from_terms(self.dim, terms())

    def i_over_v_commutator(self, a: WickElement, b: WickElement, max_deg=None) -> WickElement:
        """(i/v)[a, b], through Deg ``max_deg`` of [a, b] if given; v^0 debris
        of [a, b] is judged against |a|*|b| (see ``div_v``)."""
        comm = self.algebra.commutator(a, b, max_deg=max_deg)
        if comm.is_zero:
            return comm
        return comm.scale(1j).div_v(a.coeff_norm() * b.coeff_norm())

    # -- operator-identity residuals, each the largest value at ``points`` -----

    def comf_delta_residual(self, probe: WickElement, points) -> float:
        """[D-check, delta] - (i/v) ad(T-hat) on a probe."""
        lhs = self.dconn_apply(delta(probe)) + delta(self.dconn_apply(probe))
        return (lhs - self.i_over_v_commutator(self.t_hat, probe)).sample_norm(points)

    def comf_dsq_residual(self, probe: WickElement, points) -> float:
        """D-check^2 + (i/v) ad(R-hat) on a probe."""
        lhs = self.dconn_apply(self.dconn_apply(probe))
        return (lhs + self.i_over_v_commutator(self.r_hat, probe)).sample_norm(points)

    def delta_torsion_residual(self, points) -> float:
        return delta(self.t_hat).sample_norm(points)

    def delta_curvature_residual(self, points) -> float:
        return (delta(self.r_hat) - self.dconn_apply(self.t_hat)).sample_norm(points)

    # -- recursion ---------------------------------------------------------------

    def solve_r(self, K: int):
        """Solve the flatness equation degree by degree up to Deg K + 2.

        The per-degree defect of the equation is recorded in
        ``residuals``, never raised on; callers gate
        ``FedosovState.max_residual()``.
        """
        if K < 2:
            raise MalformedInputError(f"truncation order must be >= 2, got {K}")
        dim = self.dim
        r_comp: dict[int, WickElement] = {}
        rhs_store: dict[int, WickElement] = {}

        def rhs_at(m: int) -> WickElement:
            rhs = self.t_hat.component(m) + self.r_hat.component(m)
            prev = r_comp.get(m)
            if prev is not None and not prev.is_zero:
                rhs = rhs + self.dconn_apply(prev)
            conv = WickElement.zero(dim)
            pair_scale = 0.0
            for j in range(2, m + 1):
                k = m + 2 - j
                rj = r_comp.get(j)
                rk = r_comp.get(k)
                if rj is None or rk is None or rj.is_zero or rk.is_zero:
                    continue
                pair_scale = max(pair_scale, rj.coeff_norm() * rk.coeff_norm())
                conv = conv + self.algebra.product(rj, rk)
            if not conv.is_zero:
                rhs = rhs + conv.scale(-1j).div_v(pair_scale)
            return rhs

        for m in range(1, K + 2):
            try:
                rhs = rhs_at(m)
            except FractionalDomainError as err:
                err.degree = m
                raise
            rhs_store[m] = rhs
            r_comp[m + 1] = delta_inv(rhs)

        residuals = {
            m: (delta(r_comp[m + 1]) - rhs_store[m]).coeff_norm() for m in range(1, K + 2)
        }
        return FedosovState(
            machine=self,
            K=K,
            r_components={d: r_comp[d] for d in range(2, K + 3)},
            residuals=residuals,
        )


@dataclass
class FedosovState:
    """Solved recursion data: r per total degree plus equation defects.

    Safe to share once solved; the only mutation is an idempotent memo:
    the summed element and the tau lifts computed so far.
    """

    machine: FedosovMachine
    K: int
    r_components: dict
    residuals: dict
    _r_total: WickElement | None = field(default=None, repr=False)
    _tau_memo: dict = field(default_factory=dict, repr=False)

    @property
    def bundle(self) -> GeometryBundle:
        return self.machine.bundle

    def r_total(self) -> WickElement:
        if self._r_total is None:
            total = WickElement.zero(self.machine.dim)
            for d in sorted(self.r_components):
                total = total + self.r_components[d]
            self._r_total = total
        return self._r_total

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def gauge_residual(self) -> float:
        """delta_inv r = 0 normalization, checked component-wise."""
        return max(
            (delta_inv(c).coeff_norm() for c in self.r_components.values()),
            default=0.0,
        )


# ---------------------------------------------------------------------------
# flat connection, lift, star product
# ---------------------------------------------------------------------------


def flat_d(w: WickElement, state: FedosovState, max_deg=None) -> WickElement:
    """D-hat = -delta + D-check - (i/v) ad(r), through Deg ``max_deg`` if given.

    Dividing by v lowers Deg by 2, so the commutator is capped at
    ``max_deg + 2``.
    """
    machine = state.machine
    out = -delta(w) + machine.dconn_apply(w)
    r = state.r_total()
    if not r.is_zero and not w.is_zero:
        cap = None if max_deg is None else max_deg + 2
        out = out - machine.i_over_v_commutator(r, w, max_deg=cap)
    return out if max_deg is None else out.truncate(max_deg)


def flat_d_squared_residual(probe: WickElement, state: FedosovState, points) -> float:
    """Defect of D-hat^2 = 0 on a probe at ``points``, on degrees the
    truncation covers.

    With r solved through Deg K + 2, the Deg-m component of D-hat^2 a is
    complete only for m <= Deg(a) + K - 1; higher components would need
    deeper recursion data and are excluded rather than misreported.  The
    intermediate result is truncated before the second application so that
    the excluded degrees are never differentiated (for fractional alpha
    they can carry exponents outside the differentiable class).

    At alpha = 1 the defect on the z^i and e^a of ``generator_probes``
    certifies D-hat^2 = 0 on every element: D-hat^2 = (i/v) ad(Omega) is
    then a C-infinity-linear even derivation, and D-hat^2 f = 0 on a
    function f.  The derivation property rests on the gated checks
    ``algebra_delta_derivation`` (delta), ``algebra_wick_associativity``
    (ad(r)), ``fedosov_dconn_derivation`` (D-check) and
    ``geometry_anholonomy`` (d^2 f = 0).  A Deg-3 monomial needs D-hat^2
    z^i only through Deg K, the window reported here for Deg 1.
    """
    degs = probe.total_degrees()
    if not degs:
        return 0.0
    bound = max(degs) + state.K - 1
    first = flat_d(probe, state, max_deg=bound + 1)
    # of the top slice only -delta reaches the reported window; applying
    # the full operator there would differentiate coefficients whose fate
    # is to be discarded
    top = first.component(bound + 1)
    val = flat_d(first.truncate(bound), state, max_deg=bound) - delta(top)
    return val.sample_norm(points)


def tau_components(f: Signomial, state: FedosovState, order: int) -> dict:
    """Deg-homogeneous components of the lift, 0 through ``order``."""
    if order > state.K + 1:
        raise MalformedInputError(
            f"lift order {order} needs the recursion solved through Deg {order + 1}; "
            f"solve with K >= {order - 1} (have {state.K})"
        )
    machine = state.machine
    comps = {0: WickElement.from_signomial(f)}
    for k in range(order):
        try:
            rhs = machine.dconn_apply(comps[k])
            for l in range(0, k + 1):
                rl = state.r_components.get(l + 2)
                tk = comps.get(k - l)
                if rl is None or rl.is_zero or tk is None or tk.is_zero:
                    continue
                rhs = rhs - machine.i_over_v_commutator(rl, tk)
        except FractionalDomainError as err:
            err.degree = k + 1
            raise
        comps[k + 1] = delta_inv(rhs)
    return comps


def tau_lift(f: Signomial, state: FedosovState, order: int) -> WickElement:
    # repr tells -0.0 from 0.0 apart, which reports serialize differently
    key = (order, repr(list(f.terms.items())))
    out = state._tau_memo.get(key)
    if out is None:
        comps = tau_components(f, state, order)
        out = WickElement.zero(state.machine.dim)
        for k in sorted(comps):
            out = out + comps[k]
        state._tau_memo[key] = out
    return out


def flat_section_residual(f: Signomial, state: FedosovState, order: int, points) -> float:
    """Defect of D-hat tau(f) = 0 through Deg ``order - 1``, at ``points``."""
    lift = tau_lift(f, state, order)
    return flat_d(lift, state, max_deg=order - 1).sample_norm(points)


def star(f: Signomial, g: Signomial, state: FedosovState, order: int) -> tuple:
    """Star product through v^order: sigma(tau(f) o tau(g)).

    Returns the coefficients (C_0, ..., C_order) of f * g = sum_r C_r v^r.

    Exactness through the requested order needs lifts through Deg 2*order,
    hence a state solved with K >= 2*order - 1; ``tau_components`` raises
    otherwise.  At order 0 the lifts are the fields themselves.
    """
    if order < 0:
        raise MalformedInputError("order must be nonnegative")
    lift_deg = 2 * order
    tf = tau_lift(f, state, lift_deg)
    tg = tau_lift(g, state, lift_deg)
    prod = state.machine.algebra.product(tf, tg, max_deg=lift_deg, sigma_only=True)
    series = sigma_series(prod)
    dim = state.machine.dim
    return tuple(series.get(r, Signomial.zero(dim)) for r in range(order + 1))


def star_series(series_a: tuple, series_b: tuple, state: FedosovState, order: int) -> tuple:
    """Star product of two v-series of signomials through v^order, v-bilinearly."""
    dim = state.machine.dim
    out = [Signomial.zero(dim) for _ in range(order + 1)]
    for i, a in enumerate(series_a[: order + 1]):
        if a.is_zero:
            continue
        for j, b in enumerate(series_b[: order + 1 - i]):
            if b.is_zero:
                continue
            inner = star(a, b, state, order - i - j)
            for r, c in enumerate(inner):
                out[i + j + r] = out[i + j + r] + c
    return tuple(out)


def make_probes(bundle: GeometryBundle, seed: int, count: int):
    """Seeded monomial probes with deg_s <= 3 and deg_a <= 1.

    Coefficients are drawn from the coordinate observables, matching the
    fields the star product is exercised on.  Every draw is
    ``int(u * k)`` for ``u`` from ``random.Random(seed).random()``, the
    one stream Python promises to repeat across versions.
    """
    dim = bundle.ctx.dim
    rng = random.Random(seed)

    def draw(k):
        return int(rng.random() * k)

    pool = [Signomial.constant(dim, 1.0)] + [
        Signomial.coordinate(dim, i) for i in range(dim)
    ]
    probes = []
    for _ in range(count):
        z = [0] * dim
        for _ in range(draw(4)):
            z[draw(dim)] += 1
        forms = (draw(dim),) if draw(2) else ()
        coeff = pool[draw(len(pool))]
        probes.append(WickElement.from_term(dim, 0, tuple(z), forms, coeff))
    return probes


def generator_probes(dim: int):
    """The 2 * dim unit-coefficient generators: each z^i, then each e^a.

    At alpha = 1, D-hat^2 = (i/v) ad(Omega) is a C-infinity-linear graded
    derivation, so it vanishes on every element iff it vanishes on these.
    """
    one = Signomial.constant(dim, 1.0)
    zero_z = (0,) * dim
    fibers = [
        WickElement.from_term(dim, 0, tuple(int(j == i) for j in range(dim)), (), one)
        for i in range(dim)
    ]
    coframes = [WickElement.from_term(dim, 0, zero_z, (a,), one) for a in range(dim)]
    return fibers + coframes
