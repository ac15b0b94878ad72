"""Flat-connection recursion and the star product.

The graded operators on Wick-algebra-valued forms:

* ``delta``      : e^a wedge d/dz^a           (deg_s -> deg_s - 1, deg_a + 1)
* ``delta_inv``  : (p+q)^{-1} z^a i(e_a)      on (p, q)-bihomogeneous terms
* ``sigma``      : projection on deg_s = deg_a = 0 (the v-series part)
* ``dconn_apply``: lift of the canonical d-connection — frame derivative on
  coefficients, linear transport on fiber variables, anholonomic exterior
  action on the form factor.

``delta`` puts the new co-frame index in front of the word and leaves its
wedge sign to ``WickElement.from_terms``; ``dconn_apply`` inserts e^al
into the sorted word itself and folds that sign into the one scale of each
coefficient.  A term whose new index repeats one in the word is skipped
before its coefficient is built.

``delta_inv`` uses the interior product and carries no imaginary unit: that
is the unique normalization under which
``a = (delta delta_inv + delta_inv delta + sigma)(a)`` holds identically,
and that identity is what the recursion rests on.

From the frame torsion and curvature the machine builds the quadratic
elements T-hat and R-hat, solves

    delta r = T-hat + R-hat + D-check r - (i/v) r o r

degree by degree in Deg = 2 deg_v + deg_s (gauge: delta_inv r = 0, deg_a
r = 1) as deep as its reader asks, records the per-degree defect of that
equation, and exposes the flat connection D-hat = -delta + D-check -
(i/v) ad(r), the recursive lift tau inverting sigma on flat sections, and
the star product f * g = sigma(tau(f) o tau(g)) with coefficients per
power of v.  Each (i/v) ad is one ``WickAlgebra.commutator`` call, which
returns (i/v)[a, b]; the recursion applies -(i/v) to its r o r convolution
itself, dropping that sum's v^0 part, r wedge r = 0 up to round-off.

For alpha = 1 the recursion closes to round-off; for alpha < 1 the frame
operators are not derivations, the closure argument is unavailable, and
the residuals, which the recursion only records, measure that
obstruction; the ``fedosov_r_residual`` check gates them at every alpha.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import combinations

from .errors import FractionalDomainError, MalformedInputError
from .expr import Signomial
from .geometry import GeometryBundle
from .wick import WickAlgebra, WickElement


# ---------------------------------------------------------------------------
# grading-shift operators (geometry-free)
# ---------------------------------------------------------------------------


def delta(w: WickElement) -> WickElement:
    def terms():
        for (v, z, forms), c in w.terms.items():
            for g in range(w.dim):
                if z[g] == 0 or g in forms:
                    continue
                nz = list(z)
                nz[g] -= 1
                yield v, nz, (g,) + forms, c.scale(z[g])

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
    return {v: c for (v, z, forms), c in sigma(w).terms.items()}


# ---------------------------------------------------------------------------
# machine bound to one geometry
# ---------------------------------------------------------------------------


class FedosovMachine:
    """Operator package and recursion for one configuration.

    Precomputes the Wick algebra, the nonzero connection/anholonomy entries
    used by the connection lift, and the torsion/curvature elements.  r
    depends on the geometry alone, so the machine holds it, solved on
    demand: r per total degree and summed in degree order (``r_total``),
    the equation defects, the gauge defect (the largest ||delta_inv r_m||)
    and the tau memo.  Safe to share: ``solve_through`` and
    ``tau_components`` only append components fixed by the lower ones.
    """

    def __init__(self, bundle: GeometryBundle):
        self.bundle = bundle
        self.dim = bundle.ctx.dim
        self.algebra = WickAlgebra(bundle.lam)
        dim = self.dim
        G, W = bundle.gamma, bundle.anholonomy
        # nonzero Gamma entries grouped by wedge direction:
        # transport term  - Gamma(tgt, dir, src) z^src d/dz^tgt
        self.gamma_by_dir = [
            [(t, s, G[t][al][s]) for t in range(dim) for s in range(dim) if not G[t][al][s].is_zero]
            for al in range(dim)
        ]
        # nonzero anholonomy entries with ordered index pairs, grouped by
        # the form index they replace
        self.w_by_form = [
            [(a, b, W[g][a][b]) for a, b in combinations(range(dim), 2) if not W[g][a][b].is_zero]
            for g in range(dim)
        ]
        self.t_hat = self._torsion_element()
        self.r_hat = self._curvature_element()
        self.r_components = {}
        self.residuals = {}
        self.r_total = WickElement.zero(dim)
        self.gauge = 0.0
        self._tau_memo = {}

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

        def terms():
            for (v, z, forms), c in w.terms.items():
                for al in range(self.dim):
                    if al in forms:
                        continue
                    # e^al, put in front, moves past the ``below`` smaller indices
                    below = bisect_left(forms, al)
                    word = forms[:below] + (al,) + forms[below:]
                    sign = -1 if below % 2 else 1
                    ec = self.bundle.e(c, al)
                    yield v, z, word, ec.scale(-1) if sign < 0 else ec
                    for tgt, src, gam in self.gamma_by_dir[al]:
                        if z[tgt] == 0:
                            continue
                        nz = list(z)
                        nz[tgt] -= 1
                        nz[src] += 1
                        yield v, nz, word, (gam * c).scale(-z[tgt] * sign)
                for m, g in enumerate(forms):
                    rest = forms[:m] + forms[m + 1:]
                    msign = -1.0 if m % 2 else 1.0
                    for a, b, wgab in self.w_by_form[g]:
                        if a in rest or b in rest:
                            continue
                        yield v, z, (a, b) + rest, (wgab * c).scale(-msign)

        return WickElement.from_terms(self.dim, terms())

    # -- operator-identity residuals, each the largest value at ``points`` -----

    def comf_delta_residual(self, probe: WickElement, points) -> float:
        """[D-check, delta] - (i/v) ad(T-hat) on a probe."""
        lhs = self.dconn_apply(delta(probe)) + delta(self.dconn_apply(probe))
        return (lhs - self.algebra.commutator(self.t_hat, probe)).sample_norm(points)

    def comf_dsq_residual(self, probe: WickElement, points) -> float:
        """D-check^2 + (i/v) ad(R-hat) on a probe."""
        lhs = self.dconn_apply(self.dconn_apply(probe))
        return (lhs + self.algebra.commutator(self.r_hat, probe)).sample_norm(points)

    def delta_torsion_residual(self, points) -> float:
        return delta(self.t_hat).sample_norm(points)

    def delta_curvature_residual(self, points) -> float:
        return (delta(self.r_hat) - self.dconn_apply(self.t_hat)).sample_norm(points)

    # -- recursion ---------------------------------------------------------------

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    def solve_r(self, K: int) -> "FedosovMachine":
        """The machine, solved eagerly through Deg K + 2, as ``run`` reports r."""
        if K < 2:
            raise MalformedInputError(f"truncation order must be >= 2, got {K}")
        self.solve_through(K + 2)
        return self

    def solve_through(self, deg: int) -> None:
        """Solve the flatness equation for each r_m, m <= ``deg``, not yet solved.

        At Deg m the right-hand side is T-hat_m + R-hat_m + D-check r_m
        - (i/v) sum_{j=2..m} r_j o r_{m+2-j}; every r_j it reads is solved
        by then, and r_{m+1} = delta_inv of it.  The convolution's v^0 part
        is r wedge r, zero for the 1-form r, so -(i/v) drops it and moves
        every other key one power of v down.  The per-degree defect of
        the equation is recorded in ``residuals``, never raised on; callers
        gate ``max_residual()``.  ``r_total`` gains keys no r_m shares, so
        its bits do not depend on when it is extended.
        """
        r = self.r_components
        for m in range(len(r) + 1, deg):
            try:
                rhs = self.t_hat.component(m) + self.r_hat.component(m)
                if m > 1:
                    rhs = rhs + self.dconn_apply(r[m])
                conv = WickElement.zero(self.dim)
                for j in range(2, m + 1):
                    conv = conv + self.algebra.product(r[j], r[m + 2 - j])
                rhs = rhs + WickElement(self.dim, {
                    (v - 1, z, a): c.scale(-1j) for (v, z, a), c in conv.terms.items() if v
                })
            except FractionalDomainError as err:
                err.degree = m
                raise
            r[m + 1] = delta_inv(rhs)
            self.residuals[m] = (delta(r[m + 1]) - rhs).coeff_norm()
            self.r_total = self.r_total + r[m + 1]
            self.gauge = max(self.gauge, delta_inv(r[m + 1]).coeff_norm())


# ---------------------------------------------------------------------------
# flat connection, lift, star product
# ---------------------------------------------------------------------------


def flat_d(w: WickElement, machine: FedosovMachine, max_deg: int) -> WickElement:
    """D-hat = -delta + D-check - (i/v) ad(r), through Deg ``max_deg``.

    (i/v) ad(r_l) takes Deg d to d + l - 2, so the cap reads r through Deg
    ``max_deg`` - min Deg(w) + 2, which is solved first."""
    degs = w.total_degrees()
    if degs:
        machine.solve_through(max_deg - min(degs) + 2)
    out = -delta(w) + machine.dconn_apply(w)
    out = out - machine.algebra.commutator(machine.r_total, w, max_deg=max_deg)
    return out.truncate(max_deg)


def flat_d_squared_residual(probe: WickElement, machine: FedosovMachine, K: int, points) -> float:
    """Defect of D-hat^2 = 0 on a probe at ``points``, on degrees the
    truncation order ``K`` covers.

    On a Deg-homogeneous probe it reads r through Deg K + 2, so the Deg-m
    component of D-hat^2 a is complete only for m <= Deg(a) + K - 1;
    higher ones would need deeper r and are excluded, not misreported.  The
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
    bound = max(degs) + K - 1
    first = flat_d(probe, machine, bound + 1)
    # of the top slice only -delta reaches the reported window; applying
    # the full operator there would differentiate coefficients whose fate
    # is to be discarded
    top = first.component(bound + 1)
    val = flat_d(first.truncate(bound), machine, bound) - delta(top)
    return val.sample_norm(points)


def tau_components(f: Signomial, machine: FedosovMachine, order: int) -> list:
    """Deg-homogeneous components of the lift, the k-th of Deg k, 0 through
    ``order``: a prefix of the field's list in the machine's tau memo, which
    is extended on demand, since component k + 1 needs only 0 through k and
    r through Deg k + 1.  The bracket with r_{k+2} is left out: tau_0 = f
    carries no z, so (i/v)[r, tau_0] = 0.  Every component past tau_0 is a
    ``delta_inv`` output, so each of its terms carries z; that is why
    ``star`` of order p lifts through Deg 2p - 1 only.  A pole met in r
    carries the recursion's degree."""
    machine.solve_through(order)
    # repr tells -0.0 from 0.0 apart, which reports serialize differently
    comps = machine._tau_memo.setdefault(repr(list(f.terms.items())), [WickElement.from_signomial(f)])
    for k in range(len(comps) - 1, order):
        try:
            rhs = machine.dconn_apply(comps[k])
            for l in range(k):
                rhs = rhs - machine.algebra.commutator(machine.r_components[l + 2], comps[k - l])
        except FractionalDomainError as err:
            err.degree = k + 1
            raise
        comps.append(delta_inv(rhs))
    return comps[: order + 1]


def tau_lift(f: Signomial, machine: FedosovMachine, order: int) -> WickElement:
    """The lift through Deg ``order``: its components share no key, so it is their union."""
    comps = tau_components(f, machine, order)
    return WickElement(machine.dim, {k: c for comp in comps for k, c in comp.terms.items()})


def flat_section_residual(f: Signomial, machine: FedosovMachine, order: int, points) -> float:
    """Defect of D-hat tau(f) = 0 through Deg ``order - 1``, at ``points``."""
    lift = tau_lift(f, machine, order)
    return flat_d(lift, machine, order - 1).sample_norm(points)


def star(f: Signomial, g: Signomial, machine: FedosovMachine, order: int) -> tuple:
    """Star product through v^order: sigma(tau(f) o tau(g)).

    Returns the coefficients (C_0, ..., C_order) of f * g = sum_r C_r v^r.

    The product is capped at Deg 2*order, the Deg of v^order, and its lifts
    go through Deg 2*order - 1, which solves r through Deg 2*order - 1 if
    the machine does not hold it yet.  tau_{2*order} would add nothing: a
    sigma key is reached only by fully contracting two 0-form terms of
    equal deg_s, every term of a tau_k with k >= 1 is a ``delta_inv``
    output and carries z, and the cap pairs tau_{2*order} only with
    tau_0 = f, which carries none.  At order 0 the lifts are the fields
    themselves.
    """
    if order < 0:
        raise MalformedInputError("order must be nonnegative")
    lift_deg = max(2 * order - 1, 0)
    tf = tau_lift(f, machine, lift_deg)
    tg = tau_lift(g, machine, lift_deg)
    prod = machine.algebra.product(tf, tg, max_deg=2 * order, sigma_only=True)
    series = sigma_series(prod)
    return tuple(series.get(r, Signomial.zero(machine.dim)) for r in range(order + 1))


def star_series(series_a: tuple, series_b: tuple, machine: FedosovMachine, order: int) -> tuple:
    """Star product of two v-series of signomials through v^order, v-bilinearly."""
    out = [Signomial.zero(machine.dim) for _ in range(order + 1)]
    for i, a in enumerate(series_a[: order + 1]):
        if a.is_zero:
            continue
        for j, b in enumerate(series_b[: order + 1 - i]):
            if b.is_zero:
                continue
            inner = star(a, b, machine, order - i - j)
            for r, c in enumerate(inner):
                out[i + j + r] = out[i + j + r] + c
    return tuple(out)


def seeded_draws(seed: int):
    """``(draw, uniform)`` over ``random.Random(seed)``: ``uniform()`` is its
    next ``random()`` in [0, 1), the one stream Python promises to repeat
    across versions, and ``draw(k)`` is ``int(uniform() * k)``."""
    uniform = random.Random(seed).random
    return (lambda k: int(uniform() * k)), uniform


def make_probes(bundle: GeometryBundle, seed: int, count: int):
    """Seeded monomial probes with deg_s <= 3 and deg_a <= 1, drawn by
    ``seeded_draws`` with coefficients from the coordinate observables,
    matching the fields the star product is exercised on."""
    dim = bundle.ctx.dim
    draw, _ = seeded_draws(seed)
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
