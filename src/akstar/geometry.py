"""Canonical almost-Kahler geometry of a regular (fractional) Lagrangian.

Coordinates are indexed 0..2n-1: the first n are base coordinates x^j, the
last n are fiber coordinates y^a.  From a Lagrangian L(x, y) the builder
derives, in order:

* the Sasaki-type metric  g_ij = (1/4)(D_i D_j + D_j D_i) L  in the fiber
  derivatives, with the v-block given by the same formulas,
* the semi-spray  G^k = (1/4) h^{kk} [ y^m D_{x^m}(D_{y^k} L) - D_{x^k} L ]
  and the nonlinear connection  N^a_j = D_{y^j} G^a,
* the adapted frames  e_j = D_j - N^a_j D_a,  e_b = D_b,
* the canonical metric d-connection: one Koszul rule, applied along the h-
  and along the v-directions (L^i_{jk} and C^a_{bc}), with cross blocks by
  the h/v index identification,
* the anholonomy coefficients of the adapted frame, whose h-h block is the
  N-connection curvature  Omega^a_{ij} = e_j(N^a_i) - e_i(N^a_j),
* torsion and curvature of that connection, computed as the honest frame
  torsion/curvature so that the operator identities of the quantization
  layer close,
* the compatible almost-complex structure J, the 2-form theta fixed by
  theta(X, Y) = g(JX, Y), its inverse, and Lambda = theta^{-1} - i g^{-1}.

:func:`build_geometry` stores each of them once, as plain nested lists, in
one :class:`GeometryBundle` with the fields ``spec``, ``ctx``, ``G``,
``N``, ``gamma``, ``anholonomy``, ``torsion``, ``curvature``, ``J``,
``theta_lower``, ``theta_upper``, ``g_lower``, ``g_upper`` and ``lam``; its
docstring gives the index conventions.  The diagnostics below compare those
tensors, among them the Nijenhuis tensor with four times the
J-anti-invariant torsion.

Everything is exact term-level signomial arithmetic; the only tolerance in
this module is the coefficient dead zone.  All objects are immutable once
built (treat the nested lists as read-only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ExpressionClassError, RegularityError
from .expr import AlphaContext, Signomial

Matrix = list[list[Signomial]]


def _zeros(ctx: AlphaContext, *shape: int) -> list:
    if len(shape) == 1:
        return [Signomial.zero(ctx.dim) for _ in range(shape[0])]
    return [_zeros(ctx, *shape[1:]) for _ in range(shape[0])]


@dataclass(frozen=True)
class LagrangianSpec:
    """A regular Lagrangian along with its differentiation context.

    Construction checks only the dimension.  :func:`build_geometry` checks
    the engine's exact-invertibility class when it builds the fiber Hessian:
    it raises :class:`ExpressionClassError` unless the Hessian is diagonal
    with single-monomial entries, and :class:`RegularityError` if an entry
    vanishes at a configured regularity point.
    """

    L: Signomial
    ctx: AlphaContext
    regularity_points: tuple = ()

    def __post_init__(self):
        if self.L.dim != self.ctx.dim:
            raise ExpressionClassError(
                f"Lagrangian dimension {self.L.dim} != context dimension {self.ctx.dim}"
            )
        points = self.regularity_points or ((1.0,) * self.ctx.dim,)
        object.__setattr__(self, "regularity_points", tuple(tuple(p) for p in points))


@dataclass(frozen=True)
class GeometryBundle:
    """Every derived geometric object for one configuration.

    Frame indices run over 0..2n-1: h-labels 0..n-1 (base, e_j = D_j -
    N^a_j D_a) and v-labels n..2n-1 (fiber, e_{n+a} = D_{n+a}).  ``G`` and
    ``N`` label base and fiber indices alike 0..n-1; every other table uses
    frame indices.  Each object is stored once, in one table:

    * ``g_lower``, ``g_upper``: the block-diagonal Sasaki metric and its
      inverse; the v-block equals the h-block entrywise, so the fiber
      Hessian h_ij is ``g_lower[i][j]`` for i, j < n.
    * ``G[k]``: semi-spray; ``N[a][j]``: N^a_j.
    * ``gamma[tgt][direction][src]``: the covariant derivative of e_src
      along e_direction has e_tgt component ``gamma[tgt][direction][src]``.
      L^i_{jk} (source j, direction k) is ``gamma[i][k][j]`` and C^a_{bc}
      (source b, direction c) is ``gamma[a][n + c][b]``; the v-v
      target/source block holds the same entries under the h/v index
      identification, and mixed target/source entries are one shared zero.
    * ``anholonomy[g][a][b]``: [e_a, e_b] = w^g_{ab} e_g at alpha = 1.  Its
      block ``anholonomy[n + a][i][j]`` is Omega^a_{ij} = e_j(N^a_i) -
      e_i(N^a_j), the curvature of the N-connection.
    * ``torsion[g][a][b]``: T(e_a, e_b)^g.  The classical component tables
      (T^i_{ja} = C^i_{ja}, T^a_{ij} = Omega^a_{ij}, T^a_{ib} = e_b N^a_i -
      L^a_{bi}) list the same data with the argument pair in the opposite
      order: T^i_{ja} is ``torsion[i][n + a][j]``.  The h-h->h and v-v->v
      parts vanish identically.
    * ``curvature[t][f][a][b]``: R(e_a, e_b) e_f = curvature[t][f][a][b]
      e_t; antisymmetric in (a, b), and zero for mixed target/source.
    * ``J``: 2n x 2n floats with column action (J v)^r = J[r][c] v^c, J e_j
      = -e_{n+j}, J e_{n+j} = e_j.  ``theta_lower`` is theta(X, Y) =
      g(JX, Y), which makes the flat Poisson bracket of the first base/fiber
      pair +1; ``theta_upper`` is its inverse; ``lam[a][b]`` is Lambda^{ab}
      = theta^{ab} - i g^{ab}.

    Treat every nested list as read-only.
    """

    spec: LagrangianSpec
    ctx: AlphaContext
    G: list
    N: Matrix
    gamma: list
    anholonomy: list
    torsion: list
    curvature: list
    J: list
    theta_lower: Matrix
    theta_upper: Matrix
    g_lower: Matrix
    g_upper: Matrix
    lam: Matrix

    def e(self, f: Signomial, idx: int) -> Signomial:
        return adapted_derivative(f, idx, self.N, self.ctx)


# ---------------------------------------------------------------------------
# construction operations
# ---------------------------------------------------------------------------


def hessian_metric(spec: LagrangianSpec) -> tuple:
    """Fiber Hessian of L, symmetrized, with exact diagonal inversion: (h, h_inv)."""
    ctx = spec.ctx
    n = ctx.n
    first = [ctx.deriv(spec.L, n + i) for i in range(n)]
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            dij = ctx.deriv(first[i], n + j)
            # Caputo derivatives do not commute at alpha < 1: keep both orders
            dji = dij if i == j else ctx.deriv(first[j], n + i)
            g = (dij + dji).scale(0.25)
            h[i][j] = g
            h[j][i] = g
    for i in range(n):
        for j in range(n):
            if i != j and not h[i][j].is_zero:
                raise ExpressionClassError(
                    f"Hessian entry ({i},{j}) is not zero: off-diagonal metrics "
                    "are outside the invertible class"
                )
    for i in range(n):
        if len(h[i][i].terms) != 1:
            raise ExpressionClassError(
                f"Hessian entry ({i},{i}) has {len(h[i][i].terms)} terms; "
                "only single-monomial diagonals are invertible exactly"
            )
        for p in spec.regularity_points:
            if abs(h[i][i].eval_at(p)) < 1e-12:
                raise RegularityError(
                    f"Hessian entry ({i},{i}) degenerates at sample point {p}"
                )
    h_inv = [[Signomial.zero(ctx.dim) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        h_inv[i][i] = h[i][i].reciprocal()
    return h, h_inv


def semi_spray(spec: LagrangianSpec, h_inv: Matrix) -> list:
    """Semi-spray of the Lagrangian's Euler-Lagrange dynamics.

    G^k = (1/4) h^{kk} [ y^m D_{x^m}(D_{y^k} L) - D_{x^k} L ], with h^{-1}
    diagonal (:func:`hessian_metric` rejects any other): the base
    derivative is contracted against y^m and the fiber derivative carries
    the free index, which is what the equations of motion produce.  (For
    diagonal mixed Hessians the transposed contraction is identical; for
    cross-coupled Lagrangians only this reading keeps the induced 2-form
    closed at alpha = 1.)
    """
    ctx = spec.ctx
    n = ctx.n
    out = []
    for k in range(n):
        dyk = ctx.deriv(spec.L, n + k)
        inner = Signomial.zero(ctx.dim)
        for m in range(n):
            ym = Signomial.coordinate(ctx.dim, n + m)
            inner = inner + ym * ctx.deriv(dyk, m)
        inner = inner - ctx.deriv(spec.L, k)
        out.append((h_inv[k][k] * inner).scale(0.25))
    return out


def adapted_derivative(f: Signomial, idx: int, N: Matrix, ctx: AlphaContext) -> Signomial:
    """Frame derivative e_idx: horizontal directions subtract N^a_idx D_a."""
    n = ctx.n
    if idx >= n:
        return ctx.deriv(f, idx)
    out = ctx.deriv(f, idx)
    for a in range(n):
        coef = N[a][idx]
        if not coef.is_zero:
            out = out - coef * ctx.deriv(f, n + a)
    return out


def n_connection(spec: LagrangianSpec, G: list) -> Matrix:
    """Connection coefficients N^a_j = D_{y^j} G^a."""
    ctx = spec.ctx
    n = ctx.n
    return [[ctx.deriv(G[a], n + j) for j in range(n)] for a in range(n)]


def canonical_d_connection(h: Matrix, h_inv: Matrix, N: Matrix, ctx: AlphaContext) -> list:
    """Koszul coefficients of the metric d-connection in the adapted frame: gamma.

    One Koszul rule serves both direction blocks, o = 0 (h: L^i_{jk}) and
    o = n (v: C^a_{bc}); with h diagonal (:func:`hessian_metric` rejects
    any other) it reads
        K^i_{jk} = (1/2) h^{ii} (e_{o+k} h_{ji} + e_{o+j} h_{ki} - e_{o+i} h_{jk}).
    K^i_{jk} is the e_i component of the derivative of e_j along e_{o+k}.
    Under the h/v index identification the same entry fills the h-h and the
    v-v target/source block; mixed target/source entries are one shared zero.
    """
    n = ctx.n
    dim = ctx.dim
    zero = Signomial.zero(dim)
    gamma = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for o in (0, n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    term = (
                        adapted_derivative(h[j][i], o + k, N, ctx)
                        + adapted_derivative(h[k][i], o + j, N, ctx)
                        - adapted_derivative(h[j][k], o + i, N, ctx)
                    )
                    entry = (h_inv[i][i] * term).scale(0.5)
                    gamma[i][o + k][j] = gamma[n + i][o + k][n + j] = entry
    return gamma


def anholonomy(N: Matrix, ctx: AlphaContext) -> list:
    """Structure coefficients of the adapted frame.

    w^a_{ij} = Omega^a_{ij} = e_j(N^a_i) - e_i(N^a_j), the curvature of the
    N-connection, and w^a_{ib} = +D_b N^a_i (so that [e_a, e_b] = w^g_{ab}
    e_g holds exactly at alpha = 1; for alpha < 1 the frame operators are
    not derivations and the defect is reported by
    :func:`anholonomy_residual` instead of assumed away).
    """
    n = ctx.n
    dim = ctx.dim
    w = _zeros(ctx, dim, dim, dim)
    for a in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                o = adapted_derivative(N[a][i], j, N, ctx) - adapted_derivative(
                    N[a][j], i, N, ctx
                )
                w[n + a][i][j] = o
                w[n + a][j][i] = -o
            for b in range(n):
                d = ctx.deriv(N[a][i], n + b)
                w[n + a][i][n + b] = d
                w[n + a][n + b][i] = -d
    return w


def torsion(gamma: list, anhol: list, ctx: AlphaContext) -> list:
    """Frame torsion T^g_{ab} = gamma[g][a][b] - gamma[g][b][a] - w^g_{ab}."""
    dim = ctx.dim
    full = _zeros(ctx, dim, dim, dim)
    for g in range(dim):
        for a in range(dim):
            for b in range(a + 1, dim):
                t = gamma[g][a][b] - gamma[g][b][a] - anhol[g][a][b]
                full[g][a][b] = t
                full[g][b][a] = -t
    return full


def curvature(gamma: list, N: Matrix, anhol: list, ctx: AlphaContext) -> list:
    """Frame curvature of the d-connection.

    R^t_{f ab} = e_a(G^t_{bf}) - e_b(G^t_{af})
                 + G^s_{bf} G^t_{as} - G^s_{af} G^t_{bs}
                 - w^s_{ab} G^t_{sf},
    with G^t_{direction source} = gamma[t][direction][source].  This is the
    unique realization under which the flat-connection operator identities
    of the quantization layer close at alpha = 1.
    """
    dim = ctx.dim
    zero = Signomial.zero(dim)
    full = [[[[zero] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for t in range(dim):
        for f in range(dim):
            # mixed target/source blocks vanish for a d-connection
            if (t < ctx.n) != (f < ctx.n):
                continue
            for a in range(dim):
                for b in range(a + 1, dim):
                    acc = adapted_derivative(gamma[t][b][f], a, N, ctx) - adapted_derivative(
                        gamma[t][a][f], b, N, ctx
                    )
                    for s in range(dim):
                        gbf = gamma[s][b][f]
                        if not gbf.is_zero:
                            acc = acc + gbf * gamma[t][a][s]
                        gaf = gamma[s][a][f]
                        if not gaf.is_zero:
                            acc = acc - gaf * gamma[t][b][s]
                        wab = anhol[s][a][b]
                        if not wab.is_zero:
                            acc = acc - wab * gamma[t][s][f]
                    full[t][f][a][b] = acc
                    full[t][f][b][a] = -acc
    return full


def build_geometry(spec: LagrangianSpec) -> GeometryBundle:
    """Run the full construction chain for one configuration.

    The fiber Hessian is built once, first, so a Lagrangian outside the
    invertible class raises :class:`ExpressionClassError`, and one that
    degenerates at a regularity point :class:`RegularityError`, before any
    other tensor is built.
    """
    ctx = spec.ctx
    n = ctx.n
    dim = ctx.dim
    zero = Signomial.zero(dim)

    def blocks(m):
        # an n x n block on the h-h and v-v diagonal, zero elsewhere
        return [[m[a % n][b % n] if (a < n) == (b < n) else zero for b in range(dim)]
                for a in range(dim)]

    h, h_inv = hessian_metric(spec)
    G = semi_spray(spec, h_inv)
    N = n_connection(spec, G)
    gamma = canonical_d_connection(h, h_inv, N, ctx)
    anhol = anholonomy(N, ctx)

    J = [[0.0] * dim for _ in range(dim)]
    theta_lower = [[zero] * dim for _ in range(dim)]
    theta_upper = [[zero] * dim for _ in range(dim)]
    # h and h^{-1} are diagonal, so theta pairs each e_i with e_{n+i} only
    for i in range(n):
        J[n + i][i] = -1.0
        J[i][n + i] = 1.0
        theta_lower[i][n + i] = -h[i][i]
        theta_lower[n + i][i] = h[i][i]
        theta_upper[i][n + i] = h_inv[i][i]
        theta_upper[n + i][i] = -h_inv[i][i]
    g_upper = blocks(h_inv)
    lam = [[theta_upper[a][b] + g_upper[a][b].scale(-1j) for b in range(dim)] for a in range(dim)]
    return GeometryBundle(
        spec=spec,
        ctx=ctx,
        G=G,
        N=N,
        gamma=gamma,
        anholonomy=anhol,
        torsion=torsion(gamma, anhol, ctx),
        curvature=curvature(gamma, N, anhol, ctx),
        J=J,
        theta_lower=theta_lower,
        theta_upper=theta_upper,
        g_lower=blocks(h),
        g_upper=g_upper,
        lam=lam,
    )


# ---------------------------------------------------------------------------
# derived scalars and diagnostics
# ---------------------------------------------------------------------------


def lagrange_one_form(spec: LagrangianSpec) -> list:
    """Components of the canonical 1-form (1/2) D_{y^i} L on the h co-frame."""
    ctx = spec.ctx
    return [ctx.deriv(spec.L, ctx.n + i).scale(0.5) for i in range(ctx.n)]


def poisson_bracket(f: Signomial, g: Signomial, bundle: GeometryBundle) -> Signomial:
    """{f, g} = theta^{ab} e_a(f) e_b(g) in the adapted frame."""
    ctx = bundle.ctx
    dim = ctx.dim
    ef = [bundle.e(f, a) for a in range(dim)]
    eg = [bundle.e(g, b) for b in range(dim)]
    out = Signomial.zero(dim)
    for a in range(dim):
        if ef[a].is_zero:
            continue
        for b in range(dim):
            th = bundle.theta_upper[a][b]
            if th.is_zero or eg[b].is_zero:
                continue
            out = out + th * ef[a] * eg[b]
    return out


def metric_compat_residual(bundle: GeometryBundle) -> float:
    """Largest coefficient of D g, which cancels exactly term-wise."""
    ctx = bundle.ctx
    dim = ctx.dim
    worst = 0.0
    for al in range(dim):
        for a in range(dim):
            for b in range(dim):
                g_ab = bundle.g_lower[a][b]
                res = bundle.e(g_ab, al)
                for s in range(dim):
                    res = res - bundle.gamma[s][al][a] * bundle.g_lower[s][b]
                    res = res - bundle.gamma[s][al][b] * bundle.g_lower[a][s]
                worst = max(worst, res.max_abs_coeff())
    return worst


def jcompat_residual(bundle: GeometryBundle) -> float:
    """Largest coefficient of D J (J is constant in the adapted frame)."""
    ctx = bundle.ctx
    dim = ctx.dim
    J = bundle.J
    worst = 0.0
    for al in range(dim):
        for g in range(dim):
            for b in range(dim):
                res = Signomial.zero(dim)
                for s in range(dim):
                    if J[s][b] != 0.0:
                        res = res + bundle.gamma[g][al][s].scale(J[s][b])
                    if J[g][s] != 0.0:
                        res = res - bundle.gamma[s][al][b].scale(J[g][s])
                worst = max(worst, res.max_abs_coeff())
    return worst


def theta_compat_residual(bundle: GeometryBundle) -> float:
    """theta_{ab} - g(J e_a, e_b), term-wise."""
    dim = bundle.ctx.dim
    J = bundle.J
    worst = 0.0
    for a in range(dim):
        for b in range(dim):
            res = bundle.theta_lower[a][b]
            for s in range(dim):
                if J[s][a] != 0.0:
                    res = res - bundle.g_lower[s][b].scale(J[s][a])
            worst = max(worst, res.max_abs_coeff())
    return worst


def matrix_inverse_residual(bundle: GeometryBundle) -> float:
    """g g^{-1} - 1 and theta theta^{-1} - 1, term-wise."""
    dim = bundle.ctx.dim
    worst = 0.0
    one = Signomial.constant(dim, 1.0)
    for lower, upper in (
        (bundle.g_lower, bundle.g_upper),
        (bundle.theta_lower, bundle.theta_upper),
    ):
        for a in range(dim):
            for c in range(dim):
                acc = Signomial.zero(dim)
                for b in range(dim):
                    if not upper[a][b].is_zero and not lower[b][c].is_zero:
                        acc = acc + upper[a][b] * lower[b][c]
                if a == c:
                    acc = acc - one
                worst = max(worst, acc.max_abs_coeff())
    return worst


def j_squared_residual(bundle: GeometryBundle) -> float:
    dim = bundle.ctx.dim
    J = bundle.J
    worst = 0.0
    for a in range(dim):
        for c in range(dim):
            val = sum(J[a][b] * J[b][c] for b in range(dim))
            val += 1.0 if a == c else 0.0
            worst = max(worst, abs(val))
    return worst


def torsion_pure_blocks_residual(bundle: GeometryBundle) -> float:
    """T^i_{jk} and T^a_{bc} vanish identically; report the worst coefficient."""
    n = bundle.ctx.n
    worst = 0.0
    for g in range(n):
        for a in range(n):
            for b in range(n):
                worst = max(worst, bundle.torsion[g][a][b].max_abs_coeff())
    for g in range(n, 2 * n):
        for a in range(n, 2 * n):
            for b in range(n, 2 * n):
                worst = max(worst, bundle.torsion[g][a][b].max_abs_coeff())
    return worst


def curvature_antisymmetry_residual(bundle: GeometryBundle) -> float:
    dim = bundle.ctx.dim
    worst = 0.0
    for t in range(dim):
        for f in range(dim):
            for a in range(dim):
                for b in range(dim):
                    res = bundle.curvature[t][f][a][b] + bundle.curvature[t][f][b][a]
                    worst = max(worst, res.max_abs_coeff())
    return worst


def acp_residual(bundle: GeometryBundle, points: Sequence) -> float:
    """theta-lowered curvature symmetry, evaluated at sample points."""
    dim = bundle.ctx.dim
    worst = 0.0
    for f in range(dim):
        for g in range(f + 1, dim):
            for a in range(dim):
                for b in range(a + 1, dim):
                    res = Signomial.zero(dim)
                    for t in range(dim):
                        th_f = bundle.theta_lower[f][t]
                        if not th_f.is_zero:
                            res = res + th_f * bundle.curvature[t][g][a][b]
                        th_g = bundle.theta_lower[g][t]
                        if not th_g.is_zero:
                            res = res - th_g * bundle.curvature[t][f][a][b]
                    for p in points:
                        worst = max(worst, abs(res.eval_at(p)))
    return worst


def anholonomy_residual(
    bundle: GeometryBundle, probes: Sequence[Signomial], points: Sequence
) -> float:
    """Defect of [e_a, e_b] = w^g_{ab} e_g on probe fields at sample points.

    Zero (to round-off) at alpha = 1; genuinely nonzero for alpha < 1
    because Caputo frame operators are not derivations.
    """
    ctx = bundle.ctx
    dim = ctx.dim
    worst = 0.0
    for f in probes:
        ef = [bundle.e(f, a) for a in range(dim)]
        for a in range(dim):
            for b in range(a + 1, dim):
                res = bundle.e(ef[b], a) - bundle.e(ef[a], b)
                for g in range(dim):
                    w = bundle.anholonomy[g][a][b]
                    if not w.is_zero:
                        res = res - w * ef[g]
                for p in points:
                    worst = max(worst, abs(res.eval_at(p)))
    return worst


def nijenhuis_residual(bundle: GeometryBundle, points: Sequence) -> float:
    """Max pointwise defect of N_J = 4 T^(0,2) under the bracket realization.

    For a connection with nabla J = 0 the Nijenhuis tensor sees only the
    J-anti-invariant part of the torsion (Kobayashi-Nomizu, Foundations II,
    ch. IX): N_J(X, Y) = 4 T^(0,2)(X, Y) = T(X, Y) - T(JX, JY)
    + J T(JX, Y) + J T(X, JY).  The Nijenhuis components are assembled from
    the constant J and the anholonomy coefficients ([e_a, e_b] = w^g_{ab}
    e_g, exact at alpha = 1, the measured realization otherwise), the
    right side from the frame torsion.  J is read from ``bundle.J``, which
    must have one non-zero entry per column (a signed permutation).
    """
    dim = bundle.ctx.dim
    w = bundle.anholonomy
    T = bundle.torsion
    J = bundle.J
    # J e_c = s e_r for (r, s) = jmap[c]; J^2 = -1 then gives J e_r = -s e_c
    jmap = [next((r, J[r][c]) for r in range(dim) if J[r][c]) for c in range(dim)]

    worst = 0.0
    for a in range(dim):
        ja, sa = jmap[a]
        for b in range(a + 1, dim):
            jb, sb = jmap[b]
            for g in range(dim):
                jg, sg = jmap[g]
                # component g of J V is -s_g * V^{jg}
                acc = w[g][ja][jb].scale(sa * sb)
                acc = acc + w[jg][ja][b].scale(sa * sg)
                acc = acc + w[jg][a][jb].scale(sb * sg)
                acc = acc - w[g][a][b]
                t02 = T[g][a][b] - T[g][ja][jb].scale(sa * sb)
                t02 = t02 - T[jg][ja][b].scale(sa * sg) - T[jg][a][jb].scale(sb * sg)
                res = acc - t02
                for p in points:
                    worst = max(worst, abs(res.eval_at(p)))
    return worst
