"""Shared configuration builders and subprocess helper for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import akstar
from akstar.expr import AlphaContext, Signomial
from akstar.geometry import GeometryBundle, LagrangianSpec, build_geometry
from akstar.wick import WickElement

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


def x2y3_lagrangian():
    """L = x^2 y^3 (n = 1) — non-zero torsion and a non-zero classical r."""
    return Signomial.from_terms(2, [(1.0, [2, 3])])


def w4_lagrangian():
    """L = x1^2 x2 y1^3 + x1 x2 y2^2 (n = 2) — non-zero torsion, curvature and Omega."""
    return Signomial.from_terms(4, [(1.0, [2, 1, 3, 0]), (1.0, [1, 1, 0, 2])])


def w4p_lagrangian():
    """L = x1^2 x2 y1^2.7 + x1 x2 y2^2.7 (n = 2) — W4 with fiber exponents
    2.7, whose geometry and recursion at alpha = 0.45 stay in the
    differentiable class: non-zero torsion, curvature and Omega fractionally."""
    return Signomial.from_terms(4, [(1.0, [2, 1, 2.7, 0]), (1.0, [1, 1, 0, 2.7])])


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
    elif kind == "x2y3":
        assert n == 1
        L = x2y3_lagrangian()
    elif kind == "w4":
        assert n == 2
        L = w4_lagrangian()
    elif kind == "w4p":
        assert n == 2
        L = w4p_lagrangian()
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


def exact(x):
    """Terms of a Signomial or WickElement with key order and coefficient bits."""
    if isinstance(x, WickElement):
        # a Signomial's own repr rounds its coefficients
        return repr([(key, list(c.terms.items())) for key, c in x.terms.items()])
    return repr(list(x.terms.items()))


def z_var(dim, index):
    """The fiber coordinate z^index as a Wick element."""
    z = tuple(int(i == index) for i in range(dim))
    return WickElement.from_term(dim, 0, z, (), Signomial.constant(dim, 1.0))


def fresh_interpreter(*args):
    """Run ``python *args`` in a new process that imports this checkout's src."""
    src = str(Path(akstar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )
