"""Formal Wick algebra: gradings, product expansion, graded commutators."""

import numpy as np
import pytest

from akstar.expr import Signomial
from akstar.wick import (
    WickAlgebra,
    WickElement,
    gradings,
    sort_word,
    wedge_merge,
)

from _configs import make_bundle

ALPHAS = (0.3, 0.5, 0.9, 1.0)


def algebra(alpha=1.0, kind="flat", n=1):
    return WickAlgebra(make_bundle(kind, n, alpha).symp.lam)


def rand_element(rng, dim, max_s=3, max_forms=2, max_v=1):
    n_terms = int(rng.integers(1, 4))
    out = WickElement.zero(dim)
    exp_grid = [0.0, 0.5, 1.0]
    for _ in range(n_terms):
        v = int(rng.integers(0, max_v + 1))
        z = [0] * dim
        for _ in range(int(rng.integers(0, max_s + 1))):
            z[int(rng.integers(dim))] += 1
        n_forms = int(rng.integers(0, max_forms + 1))
        forms = tuple(sorted(rng.choice(dim, size=n_forms, replace=False).tolist()))
        exps = [exp_grid[int(rng.integers(len(exp_grid)))] for _ in range(dim)]
        coeff = Signomial.from_terms(dim, [(complex(rng.normal(), rng.normal()), exps)])
        out = out + WickElement.from_term(dim, v, tuple(z), forms, coeff)
    return out


# -- wedge utilities ---------------------------------------------------------


def test_wedge_merge_signs():
    assert wedge_merge((0,), (1,)) == (1, (0, 1))
    assert wedge_merge((1,), (0,)) == (-1, (0, 1))
    assert wedge_merge((0,), (0,)) is None
    assert wedge_merge((), (3, 5)) == (1, (3, 5))
    assert wedge_merge((0, 2), (1, 3)) == (-1, (0, 1, 2, 3))


def test_sort_word():
    assert sort_word((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_word((1, 0)) == (-1, (0, 1))
    assert sort_word((1, 1)) is None
    assert sort_word(()) == (1, ())


# -- gradings ------------------------------------------------------------------


def test_grading_examples():
    dim = 2
    v_term = WickElement.from_term(dim, 1, (0, 0), (), Signomial.constant(dim, 1.0))
    assert list(gradings(v_term).values()) == [(1, 0, 0, 2)]

    mixed = WickElement.from_term(dim, 0, (1, 1), (0,), Signomial.constant(dim, 1.0))
    assert list(gradings(mixed).values()) == [(0, 2, 1, 2)]

    z = WickElement.z_var(dim, 0)
    assert list(gradings(z).values()) == [(0, 1, 0, 1)]
    form = WickElement.from_term(dim, 0, (0, 0), (1,), Signomial.constant(dim, 1.0))
    assert list(gradings(form).values()) == [(0, 0, 1, 0)]


def test_homogeneity_detection():
    dim = 2
    w = WickElement.z_var(dim, 0) + WickElement.z_var(dim, 1)
    assert w.total_degrees() == {1}
    w2 = w + WickElement.unit(dim)
    assert w2.total_degrees() == {0, 1}
    assert w2.component(1).total_degrees() == {1}


# -- product -------------------------------------------------------------------


def test_unit_is_neutral():
    alg = algebra()
    rng = np.random.default_rng(5)
    one = WickElement.unit(2)
    for _ in range(10):
        w = rand_element(rng, 2)
        assert (alg.product(one, w) - w).coeff_norm() <= 1e-13
        assert (alg.product(w, one) - w).coeff_norm() <= 1e-13


def test_flat_zx_square():
    # z_x o z_x = z_x^2 + v/2 from the first-order contraction with
    # Lambda^{xx} = -i
    alg = algebra()
    zx = WickElement.z_var(2, 0)
    got = alg.product(zx, zx)
    expect = WickElement.from_term(2, 0, (2, 0), (), Signomial.constant(2, 1.0)) + \
        WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 0.5))
    assert (got - expect).coeff_norm() <= 1e-14


def test_flat_commutator_is_iv_theta():
    alg = algebra()
    zx = WickElement.z_var(2, 0)
    zy = WickElement.z_var(2, 1)
    comm = alg.commutator(zx, zy)
    expect = WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 1j))
    assert (comm - expect).coeff_norm() <= 1e-14


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lowest_v_antisymmetric_part_is_theta_contraction(alpha):
    b = make_bundle("flat", 1, alpha)
    alg = WickAlgebra(b.symp.lam)
    rng = np.random.default_rng(11)
    for _ in range(5):
        fa = [Signomial.from_terms(2, [(complex(rng.normal()), [0, rng.integers(3)])]) for _ in range(2)]
        ga = [Signomial.from_terms(2, [(complex(rng.normal()), [0, rng.integers(3)])]) for _ in range(2)]
        a = WickElement.zero(2)
        g = WickElement.zero(2)
        for i in range(2):
            a = a + WickElement.z_var(2, i).mul_signomial(fa[i])
            g = g + WickElement.z_var(2, i).mul_signomial(ga[i])
        comm = alg.commutator(a, g)
        expect = WickElement.zero(2)
        for i in range(2):
            for j in range(2):
                th = b.symp.theta_upper[i][j]
                if th.is_zero:
                    continue
                expect = expect + WickElement.from_signomial(th * fa[i] * ga[j]).mul_v(1).scale(1j)
        assert (comm - expect).coeff_norm() <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_product_respects_total_degree(alpha):
    alg = algebra(alpha)
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_element(rng, 2)
        b = rand_element(rng, 2)
        for da in sorted(a.total_degrees()):
            for db in sorted(b.total_degrees()):
                prod = alg.product(a.component(da), b.component(db))
                assert prod.total_degrees() <= {da + db}


@pytest.mark.parametrize("alpha", ALPHAS)
def test_associativity_seeded(alpha):
    alg = algebra(alpha)
    rng = np.random.default_rng(int(alpha * 1000))
    for _ in range(25):
        a = rand_element(rng, 2)
        b = rand_element(rng, 2)
        c = rand_element(rng, 2)
        left = alg.product(alg.product(a, b), c)
        right = alg.product(a, alg.product(b, c))
        assert (left - right).coeff_norm() <= 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_graded_jacobi_seeded(alpha):
    alg = algebra(alpha)
    rng = np.random.default_rng(int(alpha * 977))
    for _ in range(25):
        elems = []
        for _ in range(3):
            w = rand_element(rng, 2, max_s=2, max_forms=2)
            # keep each factor deg_a homogeneous
            even, odd = w.split_form_parity()
            elems.append(even if not even.is_zero else odd)
        a, b, c = elems
        pa = 0 if not a.terms or len(next(iter(a.terms))[2]) % 2 == 0 else 1
        pb = 0 if not b.terms or len(next(iter(b.terms))[2]) % 2 == 0 else 1
        pc = 0 if not c.terms or len(next(iter(c.terms))[2]) % 2 == 0 else 1
        term1 = alg.commutator(a, alg.commutator(b, c)).scale((-1.0) ** (pa * pc))
        term2 = alg.commutator(b, alg.commutator(c, a)).scale((-1.0) ** (pb * pa))
        term3 = alg.commutator(c, alg.commutator(a, b)).scale((-1.0) ** (pc * pb))
        assert (term1 + term2 + term3).coeff_norm() <= 1e-12


def test_commutator_of_even_element_with_itself_vanishes():
    alg = algebra()
    rng = np.random.default_rng(3)
    w = rand_element(rng, 2, max_forms=2)
    even, _ = w.split_form_parity()
    assert alg.commutator(even, even).coeff_norm() <= 1e-13


def test_ad_of_unit_is_zero():
    alg = algebra()
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert alg.commutator(WickElement.unit(2), rand_element(rng, 2)).coeff_norm() <= 1e-13


def test_module_level_helpers():
    lam = make_bundle("flat", 1, 1.0).symp.lam
    zx = WickElement.z_var(2, 0)
    zy = WickElement.z_var(2, 1)
    comm = WickAlgebra(lam).commutator(zx, zy)
    assert (comm - WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 1j))).coeff_norm() <= 1e-14


def test_div_v_guard():
    w = WickElement.unit(2)
    with pytest.raises(Exception):
        w.div_v()
    assert (WickElement.unit(2).mul_v(2).div_v() - WickElement.unit(2).mul_v(1)).coeff_norm() == 0.0
