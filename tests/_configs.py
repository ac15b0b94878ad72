"""Shared configuration builders for the test suite."""

from akstar.expr import AlphaContext, Signomial
from akstar.geometry import GeometryBundle, LagrangianSpec, build_geometry

SAMPLE_POINTS_1 = (
    (1.0, 1.0),
    (1.5, 0.7),
    (0.8, 1.3),
    (2.0, 0.5),
    (1.2, 2.0),
)

SAMPLE_POINTS_2 = (
    (1.0, 1.0, 1.0, 1.0),
    (1.5, 0.7, 0.9, 1.1),
    (0.8, 1.3, 1.4, 0.6),
    (2.0, 0.5, 1.0, 1.5),
    (1.2, 2.0, 0.7, 0.9),
)


def sample_points(n):
    return SAMPLE_POINTS_1 if n == 1 else SAMPLE_POINTS_2


def flat_lagrangian(n):
    """L = sum_i (y^i)^2 — no base coupling, flat configuration."""
    dim = 2 * n
    terms = []
    for i in range(n):
        e = [0.0] * dim
        e[n + i] = 2.0
        terms.append((1.0, e))
    return Signomial.from_terms(dim, terms)


def coupled_lagrangian(n):
    """L = sum_i (x^i y^i)^2 — base-coupled, diagonal Hessian."""
    dim = 2 * n
    terms = []
    for i in range(n):
        e = [0.0] * dim
        e[i] = 2.0
        e[n + i] = 2.0
        terms.append((1.0, e))
    return Signomial.from_terms(dim, terms)


def cross_lagrangian():
    """L = x2^2 y1^2 + x1^2 y2^2 (n = 2) — nonzero N-connection curvature."""
    return Signomial.from_terms(4, [(1.0, [0, 2, 2, 0]), (1.0, [2, 0, 0, 2])])


def quartic_lagrangian():
    """L = y^4 (n = 1) — non-zero torsion, so mu, lam and kappa are non-zero."""
    return Signomial.from_terms(2, [(1.0, [0, 4])])


def w4_lagrangian():
    """L = x1^2 x2 y1^3 + x1 x2 y2^2 (n = 2) — non-zero torsion, curvature and Omega."""
    return Signomial.from_terms(4, [(1.0, [2, 1, 3, 0]), (1.0, [1, 1, 0, 2])])


def make_spec(kind, n, alpha):
    ctx = AlphaContext(alpha=alpha, n=n)
    if kind == "flat":
        L = flat_lagrangian(n)
    elif kind == "coupled":
        L = coupled_lagrangian(n)
    elif kind == "cross":
        assert n == 2
        L = cross_lagrangian()
    elif kind == "y4":
        assert n == 1
        L = quartic_lagrangian()
    elif kind == "w4":
        assert n == 2
        L = w4_lagrangian()
    else:
        raise ValueError(kind)
    return LagrangianSpec(L=L, ctx=ctx, regularity_points=sample_points(n))


_cache: dict = {}


def make_bundle(kind, n, alpha) -> GeometryBundle:
    key = (kind, n, alpha)
    if key not in _cache:
        _cache[key] = build_geometry(make_spec(kind, n, alpha))
    return _cache[key]


def probe_fields(n):
    """Small scalar probe set: coordinates and two mixed monomials."""
    dim = 2 * n
    probes = [Signomial.coordinate(dim, 0), Signomial.coordinate(dim, dim - 1)]
    e = [0.0] * dim
    e[0] = 1.0
    e[n] = 1.0
    probes.append(Signomial.from_terms(dim, [(1.0, e)]))
    e2 = [0.0] * dim
    e2[n] = 2.0
    probes.append(Signomial.from_terms(dim, [(1.0, e2)]))
    return probes
