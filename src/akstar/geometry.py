"""Canonical almost-Kahler geometry of a regular (fractional) Lagrangian.

Coordinates are indexed 0..2n-1: the first n are base coordinates x^j, the
last n are fiber coordinates y^a.  From a Lagrangian L(x, y) the builder
derives, in order:

* the Sasaki-type metric  g_ij = (1/4)(D_i D_j + D_j D_i) L  in the fiber
  derivatives, with the v-block given by the same formulas,
* the semi-spray  G^k = (1/4) g^{kj} [ y^m D_{y^m}(D_{x^j} L) - D_{x^j} L ]
  and the nonlinear connection  N^a_j = D_{y^j} G^a,
* the adapted frames  e_j = D_j - N^a_j D_a,  e_b = D_b  and their
  anholonomy coefficients,
* the canonical metric d-connection (Koszul form in the adapted frame,
  cross blocks by the h/v index identification),
* torsion and curvature of that connection, computed as the honest frame
  torsion/curvature so that the operator identities of the quantization
  layer close,
* the compatible almost-complex structure J, the 2-form theta fixed by
  theta(X, Y) = g(JX, Y), its inverse, and Lambda = theta^{-1} - i g^{-1}.

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

    Construction verifies the engine's exact-invertibility class: the fiber
    Hessian must be diagonal with single-monomial entries, each nonzero at
    every configured regularity point.
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
        hessian_metric(self)  # raises on class or regularity violations


@dataclass(frozen=True)
class MetricBlocks:
    """Sasaki metric blocks; the v-block equals the h-block entrywise."""

    h: Matrix
    h_inv: Matrix
    n: int

    def lower(self, a: int, b: int) -> Signomial:
        n = self.n
        if a < n and b < n:
            return self.h[a][b]
        if a >= n and b >= n:
            return self.h[a - n][b - n]
        return Signomial.zero(2 * n)

    def upper(self, a: int, b: int) -> Signomial:
        n = self.n
        if a < n and b < n:
            return self.h_inv[a][b]
        if a >= n and b >= n:
            return self.h_inv[a - n][b - n]
        return Signomial.zero(2 * n)


@dataclass(frozen=True)
class NConnection:
    """Semi-spray G, coefficients N^a_j, and curvature Omega^a_ij."""

    G: list
    N: Matrix
    omega: list  # omega[a][i][j] = e_j(N^a_i) - e_i(N^a_j)


@dataclass(frozen=True)
class DConnection:
    """Canonical metric d-connection.

    ``l_hh[i][j][k]`` is the h-block coefficient (source j, direction k);
    ``c_vv[a][b][c]`` the v-block (source b, direction c), both with
    h-labels.  The cross blocks are these same arrays under the h/v index
    identification.
    """

    l_hh: list
    c_vv: list
    n: int

    def gamma(self, tgt: int, direction: int, src: int) -> Signomial:
        """Connection coefficient: covariant derivative of e_src along
        e_direction has e_tgt component gamma(tgt, direction, src)."""
        n = self.n
        if tgt < n and src < n:
            if direction < n:
                return self.l_hh[tgt][src][direction]
            return self.c_vv[tgt][src][direction - n]
        if tgt >= n and src >= n:
            if direction < n:
                return self.l_hh[tgt - n][src - n][direction]
            return self.c_vv[tgt - n][src - n][direction - n]
        return Signomial.zero(2 * n)


@dataclass(frozen=True)
class TorsionTensor:
    """Frame torsion T(e_a, e_b)^g stored as ``full[g][a][b]``.

    The classical component tables (T^i_{ja} = C^i_{ja}, T^a_{ij} =
    Omega^a_{ij}, T^a_{ib} = e_b N^a_i - L^a_{bi}) list the same data with
    the argument pair in the opposite order, i.e. they equal
    ``full[g][b][a]``; the named accessor below returns T^i_{ja} in table
    convention.  Both h-h->h and v-v->v parts vanish identically.
    """

    full: list

    def _n(self) -> int:
        return len(self.full) // 2

    def h_mixed(self, i: int, j: int, a: int) -> Signomial:
        """Table component T^i_{ja} (equals the cross C coefficient)."""
        return self.full[i][self._n() + a][j]


@dataclass(frozen=True)
class CurvatureTensor:
    """Frame curvature R(e_a, e_b) e_f = full[t][f][a][b] e_t.

    Antisymmetric in the last (form) index pair by construction; the
    h/v-preserving block structure of the d-connection makes every mixed
    target/source entry vanish.
    """

    full: list
    n: int

    def s_block(self, a, b, c, d):
        n = self.n
        return self.full[n + a][n + b][n + c][n + d]


@dataclass(frozen=True)
class AlmostSymplectic:
    """J, theta (both index positions), full metric blocks and Lambda.

    The orientation is fixed by theta(X, Y) = g(JX, Y) with J e_j = -e_{n+j},
    J e_{n+j} = e_j, which makes the flat-configuration Poisson bracket of
    the first base/fiber pair equal +1.
    """

    J: list  # 2n x 2n floats, column action: (J v)^r = J[r][c] v^c
    theta_lower: Matrix
    theta_upper: Matrix
    g_lower: Matrix
    g_upper: Matrix
    lam: Matrix  # Lambda^{ab} = theta^{ab} - i g^{ab}


@dataclass(frozen=True)
class GeometryBundle:
    """Every derived geometric object for one configuration."""

    spec: LagrangianSpec
    ctx: AlphaContext
    metric: MetricBlocks
    nconn: NConnection
    dconn: DConnection
    torsion: TorsionTensor
    curvature: CurvatureTensor
    symp: AlmostSymplectic
    anholonomy: list  # w[g][a][b] with [e_a, e_b] = w[g][a][b] e_g at alpha = 1

    def e(self, f: Signomial, idx: int) -> Signomial:
        return adapted_derivative(f, idx, self.nconn.N, self.ctx)

    def gamma(self, tgt: int, direction: int, src: int) -> Signomial:
        return self.dconn.gamma(tgt, direction, src)


# ---------------------------------------------------------------------------
# construction operations
# ---------------------------------------------------------------------------


def hessian_metric(spec: LagrangianSpec) -> MetricBlocks:
    """Fiber Hessian of L, symmetrized, with exact diagonal inversion."""
    ctx = spec.ctx
    n = ctx.n
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            dij = ctx.deriv(ctx.deriv(spec.L, n + i), n + j)
            dji = ctx.deriv(ctx.deriv(spec.L, n + j), n + i)
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
    return MetricBlocks(h=h, h_inv=h_inv, n=n)


def semi_spray(spec: LagrangianSpec, metric: MetricBlocks) -> list:
    """Semi-spray of the Lagrangian's Euler-Lagrange dynamics.

    G^k = (1/4) g^{kj} [ y^m D_{y^j} D_{x^m} L - D_{x^j} L ]: the base
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
        acc = Signomial.zero(ctx.dim)
        for j in range(n):
            gkj = metric.h_inv[k][j]
            if gkj.is_zero:
                continue
            dyj = ctx.deriv(spec.L, n + j)
            inner = Signomial.zero(ctx.dim)
            for m in range(n):
                ym = Signomial.coordinate(ctx.dim, n + m)
                inner = inner + ym * ctx.deriv(dyj, m)
            inner = inner - ctx.deriv(spec.L, j)
            acc = acc + gkj * inner
        out.append(acc.scale(0.25))
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


def n_connection(spec: LagrangianSpec, G: list) -> NConnection:
    """Connection coefficients N^a_j = D_{y^j} G^a plus their curvature."""
    ctx = spec.ctx
    n = ctx.n
    N = [[ctx.deriv(G[a], n + j) for j in range(n)] for a in range(n)]
    omega = _zeros(ctx, n, n, n)
    for a in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                o = adapted_derivative(N[a][i], j, N, ctx) - adapted_derivative(
                    N[a][j], i, N, ctx
                )
                omega[a][i][j] = o
                omega[a][j][i] = -o
    return NConnection(G=G, N=N, omega=omega)


def canonical_d_connection(
    metric: MetricBlocks, nconn: NConnection, ctx: AlphaContext
) -> DConnection:
    """Koszul coefficients of the metric d-connection in the adapted frame."""
    n = ctx.n
    N = nconn.N

    def e_h(f, k):
        return adapted_derivative(f, k, N, ctx)

    l_hh = _zeros(ctx, n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = Signomial.zero(ctx.dim)
                for r in range(n):
                    gir = metric.h_inv[i][r]
                    if gir.is_zero:
                        continue
                    term = (
                        e_h(metric.h[j][r], k)
                        + e_h(metric.h[k][r], j)
                        - e_h(metric.h[j][k], r)
                    )
                    acc = acc + gir * term
                l_hh[i][j][k] = acc.scale(0.5)

    c_vv = _zeros(ctx, n, n, n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                acc = Signomial.zero(ctx.dim)
                for d in range(n):
                    gad = metric.h_inv[a][d]
                    if gad.is_zero:
                        continue
                    term = (
                        ctx.deriv(metric.h[b][d], n + c)
                        + ctx.deriv(metric.h[c][d], n + b)
                        - ctx.deriv(metric.h[b][c], n + d)
                    )
                    acc = acc + gad * term
                c_vv[a][b][c] = acc.scale(0.5)

    return DConnection(l_hh=l_hh, c_vv=c_vv, n=n)


def anholonomy(nconn: NConnection, ctx: AlphaContext) -> list:
    """Structure coefficients of the adapted frame.

    w^a_{ij} = Omega^a_{ij} and w^a_{ib} = +D_b N^a_i (so that
    [e_a, e_b] = w^g_{ab} e_g holds exactly at alpha = 1; for alpha < 1 the
    frame operators are not derivations and the defect is reported by
    :func:`anholonomy_residual` instead of assumed away).
    """
    n = ctx.n
    dim = ctx.dim
    w = _zeros(ctx, dim, dim, dim)
    for a in range(n):
        for i in range(n):
            for j in range(n):
                w[n + a][i][j] = nconn.omega[a][i][j]
            for b in range(n):
                d = ctx.deriv(nconn.N[a][i], n + b)
                w[n + a][i][n + b] = d
                w[n + a][n + b][i] = -d
    return w


def torsion(dconn: DConnection, anhol: list, ctx: AlphaContext) -> TorsionTensor:
    """Frame torsion T^g_{ab} = gamma(g,a,b) - gamma(g,b,a) - w^g_{ab}."""
    dim = ctx.dim
    full = _zeros(ctx, dim, dim, dim)
    for g in range(dim):
        for a in range(dim):
            for b in range(a + 1, dim):
                t = dconn.gamma(g, a, b) - dconn.gamma(g, b, a) - anhol[g][a][b]
                full[g][a][b] = t
                full[g][b][a] = -t
    return TorsionTensor(full=full)


def curvature(
    dconn: DConnection, nconn: NConnection, anhol: list, ctx: AlphaContext
) -> CurvatureTensor:
    """Frame curvature of the d-connection.

    R^t_{f ab} = e_a(G^t_{bf}) - e_b(G^t_{af})
                 + G^s_{bf} G^t_{as} - G^s_{af} G^t_{bs}
                 - w^s_{ab} G^t_{sf},
    with G(t, direction, source) the connection coefficients.  This is the
    unique realization under which the flat-connection operator identities
    of the quantization layer close at alpha = 1.
    """
    dim = ctx.dim
    N = nconn.N
    dcache: dict = {}

    def e_of_gamma(t, direction, src, along):
        key = (t, direction, src, along)
        if key not in dcache:
            dcache[key] = adapted_derivative(
                dconn.gamma(t, direction, src), along, N, ctx
            )
        return dcache[key]

    full = [[[ [None] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    zero = Signomial.zero(dim)
    for t in range(dim):
        for f in range(dim):
            for a in range(dim):
                full[t][f][a][a] = zero
            # mixed target/source blocks vanish for a d-connection
            if (t < ctx.n) != (f < ctx.n):
                for a in range(dim):
                    for b in range(dim):
                        full[t][f][a][b] = zero
                continue
            for a in range(dim):
                for b in range(a + 1, dim):
                    acc = e_of_gamma(t, b, f, a) - e_of_gamma(t, a, f, b)
                    for s in range(dim):
                        gbf = dconn.gamma(s, b, f)
                        if not gbf.is_zero:
                            acc = acc + gbf * dconn.gamma(t, a, s)
                        gaf = dconn.gamma(s, a, f)
                        if not gaf.is_zero:
                            acc = acc - gaf * dconn.gamma(t, b, s)
                        wab = anhol[s][a][b]
                        if not wab.is_zero:
                            acc = acc - wab * dconn.gamma(t, s, f)
                    full[t][f][a][b] = acc
                    full[t][f][b][a] = -acc
    return CurvatureTensor(full=full, n=ctx.n)


def almost_symplectic(metric: MetricBlocks, ctx: AlphaContext) -> AlmostSymplectic:
    n = ctx.n
    dim = ctx.dim
    J = [[0.0] * dim for _ in range(dim)]
    for i in range(n):
        J[n + i][i] = -1.0
        J[i][n + i] = 1.0

    zero = Signomial.zero(dim)
    g_lower = [[metric.lower(a, b) for b in range(dim)] for a in range(dim)]
    g_upper = [[metric.upper(a, b) for b in range(dim)] for a in range(dim)]

    theta_lower = [[zero] * dim for _ in range(dim)]
    theta_upper = [[zero] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            gij = metric.h[i][j]
            if not gij.is_zero:
                theta_lower[i][n + j] = -gij
                theta_lower[n + j][i] = gij
            hij = metric.h_inv[i][j]
            if not hij.is_zero:
                theta_upper[i][n + j] = hij
                theta_upper[n + j][i] = -hij

    lam = [
        [theta_upper[a][b] + g_upper[a][b].scale(-1j) for b in range(dim)]
        for a in range(dim)
    ]
    return AlmostSymplectic(
        J=J,
        theta_lower=theta_lower,
        theta_upper=theta_upper,
        g_lower=g_lower,
        g_upper=g_upper,
        lam=lam,
    )


def build_geometry(spec: LagrangianSpec) -> GeometryBundle:
    """Run the full construction chain for one configuration."""
    ctx = spec.ctx
    metric = hessian_metric(spec)
    G = semi_spray(spec, metric)
    nconn = n_connection(spec, G)
    dconn = canonical_d_connection(metric, nconn, ctx)
    anhol = anholonomy(nconn, ctx)
    tors = torsion(dconn, anhol, ctx)
    curv = curvature(dconn, nconn, anhol, ctx)
    symp = almost_symplectic(metric, ctx)
    return GeometryBundle(
        spec=spec,
        ctx=ctx,
        metric=metric,
        nconn=nconn,
        dconn=dconn,
        torsion=tors,
        curvature=curv,
        symp=symp,
        anholonomy=anhol,
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
            th = bundle.symp.theta_upper[a][b]
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
                g_ab = bundle.symp.g_lower[a][b]
                res = bundle.e(g_ab, al)
                for s in range(dim):
                    res = res - bundle.gamma(s, al, a) * bundle.symp.g_lower[s][b]
                    res = res - bundle.gamma(s, al, b) * bundle.symp.g_lower[a][s]
                worst = max(worst, res.max_abs_coeff())
    return worst


def jcompat_residual(bundle: GeometryBundle) -> float:
    """Largest coefficient of D J (J is constant in the adapted frame)."""
    ctx = bundle.ctx
    dim = ctx.dim
    J = bundle.symp.J
    worst = 0.0
    for al in range(dim):
        for g in range(dim):
            for b in range(dim):
                res = Signomial.zero(dim)
                for s in range(dim):
                    if J[s][b] != 0.0:
                        res = res + bundle.gamma(g, al, s).scale(J[s][b])
                    if J[g][s] != 0.0:
                        res = res - bundle.gamma(s, al, b).scale(J[g][s])
                worst = max(worst, res.max_abs_coeff())
    return worst


def theta_compat_residual(bundle: GeometryBundle) -> float:
    """theta_{ab} - g(J e_a, e_b), term-wise."""
    dim = bundle.ctx.dim
    J = bundle.symp.J
    worst = 0.0
    for a in range(dim):
        for b in range(dim):
            res = bundle.symp.theta_lower[a][b]
            for s in range(dim):
                if J[s][a] != 0.0:
                    res = res - bundle.symp.g_lower[s][b].scale(J[s][a])
            worst = max(worst, res.max_abs_coeff())
    return worst


def matrix_inverse_residual(bundle: GeometryBundle) -> float:
    """g g^{-1} - 1 and theta theta^{-1} - 1, term-wise."""
    dim = bundle.ctx.dim
    worst = 0.0
    one = Signomial.constant(dim, 1.0)
    for lower, upper in (
        (bundle.symp.g_lower, bundle.symp.g_upper),
        (bundle.symp.theta_lower, bundle.symp.theta_upper),
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
    J = bundle.symp.J
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
                worst = max(worst, bundle.torsion.full[g][a][b].max_abs_coeff())
    for g in range(n, 2 * n):
        for a in range(n, 2 * n):
            for b in range(n, 2 * n):
                worst = max(worst, bundle.torsion.full[g][a][b].max_abs_coeff())
    return worst


def curvature_antisymmetry_residual(bundle: GeometryBundle) -> float:
    dim = bundle.ctx.dim
    worst = 0.0
    for t in range(dim):
        for f in range(dim):
            for a in range(dim):
                for b in range(dim):
                    res = bundle.curvature.full[t][f][a][b] + bundle.curvature.full[t][f][b][a]
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
                        th_f = bundle.symp.theta_lower[f][t]
                        if not th_f.is_zero:
                            res = res + th_f * bundle.curvature.full[t][g][a][b]
                        th_g = bundle.symp.theta_lower[g][t]
                        if not th_g.is_zero:
                            res = res - th_g * bundle.curvature.full[t][f][a][b]
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
    """Max pointwise defect of N_J = 4 T under the bracket realization.

    The Nijenhuis components are assembled from the constant J and the
    anholonomy coefficients ([e_a, e_b] = w^g_{ab} e_g, exact at alpha = 1,
    the measured realization otherwise), then compared with four times the
    frame torsion.
    """
    ctx = bundle.ctx
    n = ctx.n
    dim = ctx.dim
    w = bundle.anholonomy

    def jmap(a):
        # J e_i = -e_{n+i}; J e_{n+i} = +e_i
        return (n + a, -1.0) if a < n else (a - n, 1.0)

    worst = 0.0
    for a in range(dim):
        ja, sa = jmap(a)
        for b in range(a + 1, dim):
            jb, sb = jmap(b)
            for g in range(dim):
                jg, sg = jmap(g)
                # component g of J V is -s_g * V^{swap(g)}
                acc = w[g][ja][jb].scale(sa * sb)
                acc = acc + w[jg][ja][b].scale(sa * sg)
                acc = acc + w[jg][a][jb].scale(sb * sg)
                acc = acc - w[g][a][b]
                res = acc - bundle.torsion.full[g][a][b].scale(4.0)
                for p in points:
                    worst = max(worst, abs(res.eval_at(p)))
    return worst
