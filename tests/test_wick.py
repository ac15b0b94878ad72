"""Formal Wick algebra: gradings, product expansion, graded commutators."""

import numpy as np
import pytest

from akstar.errors import MalformedInputError
from akstar.expr import Signomial
from akstar.fedosov import sigma
from akstar.wick import (
    WickAlgebra,
    WickElement,
    sort_word,
)

from _configs import exact, make_bundle, z_var

ALPHAS = (0.3, 0.5, 0.9, 1.0)


def algebra(alpha=1.0, kind="flat", n=1):
    return WickAlgebra(make_bundle(kind, n, alpha).lam)


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
    # the wedge of two sorted words is their concatenation, sorted with its sign
    assert sort_word((0,) + (1,)) == (1, (0, 1))
    assert sort_word((1,) + (0,)) == (-1, (0, 1))
    assert sort_word((0,) + (0,)) is None
    assert sort_word(() + (3, 5)) == (1, (3, 5))
    assert sort_word((0, 2) + (1, 3)) == (-1, (0, 1, 2, 3))
    assert sort_word((1, 3) + (0, 2)) == (-1, (0, 1, 2, 3))
    assert sort_word((0, 2) + (2, 3)) is None


def test_sort_word():
    assert sort_word((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_word((1, 0)) == (-1, (0, 1))
    assert sort_word((1, 1)) is None
    assert sort_word(()) == (1, ())


# -- construction ----------------------------------------------------------------


@pytest.mark.parametrize(
    "v,z", [(-1, (0, 0)), (0, (1,)), (0, (1, 0, 0)), (0, (1, -1))]
)
def test_from_terms_rejects_malformed_keys(v, z):
    one = Signomial.constant(2, 1.0)
    with pytest.raises(MalformedInputError):
        WickElement.from_terms(2, [(0, (1, 0), (), one), (v, z, (), one)])


def test_from_terms_signs_words_and_drops_repeats():
    one = Signomial.constant(2, 1.0)
    w = WickElement.from_terms(2, [(0, (1, 0), (1, 0), one), (0, (0, 1), (1, 1), one)])
    assert exact(w) == exact(WickElement.from_term(2, 0, (1, 0), (0, 1), one.scale(-1)))
    assert w.terms == {(0, (1, 0), (0, 1)): -one}


def test_from_terms_equals_chained_sums():
    rng = np.random.default_rng(17)
    one = Signomial.constant(2, 1.0)
    # unsorted words, a repeated key, a cancelling pair and a dropped term
    raw = [(0, (1, 0), (1, 0), one), (1, (0, 2), (), one.scale(2.0)), (0, (1, 0), (0, 1), one)]
    raw.append((0, (0, 0), (0, 0), one))
    for _ in range(30):
        z = tuple(int(d) for d in rng.integers(0, 3, size=2))
        word = tuple(rng.permutation(2)[: int(rng.integers(0, 3))].tolist())
        coeff = Signomial.from_terms(2, [(complex(rng.normal(), rng.normal()), [0.5, 1.0])])
        raw.append((int(rng.integers(0, 2)), z, word, coeff))
    chained = WickElement.zero(2)
    for term in raw:
        chained = chained + WickElement.from_term(2, *term)
    assert exact(WickElement.from_terms(2, raw)) == exact(chained)


# -- gradings ------------------------------------------------------------------


def test_grading_examples():
    # (deg_v, deg_s, deg_a, Deg) of single-term elements
    dim = 2
    one = Signomial.constant(dim, 1.0)
    for w, expect in (
        (WickElement.from_term(dim, 1, (0, 0), (), one), (1, 0, 0, 2)),
        (WickElement.from_term(dim, 0, (1, 1), (0,), one), (0, 2, 1, 2)),
        (z_var(dim, 0), (0, 1, 0, 1)),
        (WickElement.from_term(dim, 0, (0, 0), (1,), one), (0, 0, 1, 0)),
    ):
        (key,) = w.terms
        assert (key[0], sum(key[1]), len(key[2])) == expect[:3]
        assert w.total_degrees() == {expect[3]}


def test_homogeneity_detection():
    dim = 2
    w = z_var(dim, 0) + z_var(dim, 1)
    assert w.total_degrees() == {1}
    w2 = w + WickElement.from_signomial(Signomial.constant(dim, 1.0))
    assert w2.total_degrees() == {0, 1}
    assert w2.component(1).total_degrees() == {1}


# -- product -------------------------------------------------------------------


def test_unit_is_neutral():
    alg = algebra()
    rng = np.random.default_rng(5)
    one = WickElement.from_signomial(Signomial.constant(2, 1.0))
    for _ in range(10):
        w = rand_element(rng, 2)
        assert (alg.product(one, w) - w).coeff_norm() <= 1e-13
        assert (alg.product(w, one) - w).coeff_norm() <= 1e-13


def test_flat_zx_square():
    # z_x o z_x = z_x^2 + v/2 from the first-order contraction with
    # Lambda^{xx} = -i
    alg = algebra()
    zx = z_var(2, 0)
    got = alg.product(zx, zx)
    expect = WickElement.from_term(2, 0, (2, 0), (), Signomial.constant(2, 1.0)) + \
        WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 0.5))
    assert (got - expect).coeff_norm() <= 1e-14


def test_flat_commutator_is_iv_theta():
    alg = algebra()
    zx = z_var(2, 0)
    zy = z_var(2, 1)
    comm = alg.commutator(zx, zy)
    expect = WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 1j))
    assert (comm - expect).coeff_norm() <= 1e-14


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lowest_v_antisymmetric_part_is_theta_contraction(alpha):
    b = make_bundle("flat", 1, alpha)
    alg = WickAlgebra(b.lam)
    rng = np.random.default_rng(11)
    for _ in range(5):
        fa = [Signomial.from_terms(2, [(complex(rng.normal()), [0, rng.integers(3)])]) for _ in range(2)]
        ga = [Signomial.from_terms(2, [(complex(rng.normal()), [0, rng.integers(3)])]) for _ in range(2)]
        a = WickElement.zero(2)
        g = WickElement.zero(2)
        for i, z in enumerate(((1, 0), (0, 1))):
            a = a + WickElement.from_term(2, 0, z, (), fa[i])
            g = g + WickElement.from_term(2, 0, z, (), ga[i])
        comm = alg.commutator(a, g)
        expect = WickElement.zero(2)
        for i in range(2):
            for j in range(2):
                th = b.theta_upper[i][j]
                if th.is_zero:
                    continue
                expect = expect + WickElement.from_term(2, 1, (0, 0), (), (th * fa[i] * ga[j]).scale(1j))
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


# -- degree cap and sigma-projection --------------------------------------------


def rand_pair(rng, dim):
    # each factor gets a 0-form part, so the sigma-projection has pairs to keep
    def one():
        return rand_element(rng, dim, max_v=2) + rand_element(rng, dim, max_forms=0)

    return one(), one()


CAP_CASES = [("y4", 1, 1.0), ("y4", 1, 0.45), ("coupled", 2, 1.0), ("coupled", 2, 0.45)]


@pytest.mark.parametrize("kind,n,alpha", CAP_CASES)
def test_degree_cap_is_exact_truncation(kind, n, alpha):
    alg = algebra(alpha, kind, n)
    rng = np.random.default_rng(31)
    cut = 0
    for _ in range(12):
        x, y = rand_pair(rng, 2 * n)
        full = alg.product(x, y)
        comm = alg.commutator(x, y)
        for d in range(max(full.total_degrees() | comm.total_degrees()) + 1):
            capped = alg.product(x, y, max_deg=d)
            assert exact(capped) == exact(full.truncate(d))
            assert exact(alg.commutator(x, y, max_deg=d)) == exact(comm.truncate(d))
            cut += 0 < len(capped.terms) < len(full.terms)
    assert cut >= 20


@pytest.mark.parametrize("kind,n,alpha", CAP_CASES)
def test_sigma_projected_product_is_exact_sigma(kind, n, alpha):
    alg = algebra(alpha, kind, n)
    rng = np.random.default_rng(37)
    kept = 0
    for _ in range(12):
        x, y = rand_pair(rng, 2 * n)
        full = sigma(alg.product(x, y))
        assert exact(alg.product(x, y, sigma_only=True)) == exact(full)
        for d in range(max(full.total_degrees(), default=0) + 1):
            got = alg.product(x, y, max_deg=d, sigma_only=True)
            assert exact(got) == exact(full.truncate(d))
        kept += not full.is_zero
    assert kept >= 6


@pytest.mark.parametrize("kind,n,alpha", CAP_CASES)
def test_contraction_table_is_exact(kind, n, alpha):
    # a product read from a filled table equals one that fills it
    lam = make_bundle(kind, n, alpha).lam
    warm = WickAlgebra(lam)
    rng = np.random.default_rng(41)
    pairs = [rand_pair(rng, 2 * n) for _ in range(8)]
    for x, y in pairs:
        warm.product(y, x)
        warm.product(x, y)
    for x, y in pairs:
        fresh = WickAlgebra(lam)
        assert exact(warm.product(x, y)) == exact(fresh.product(x, y))
        assert exact(warm.product(x, y, sigma_only=True)) == exact(
            WickAlgebra(lam).product(x, y, sigma_only=True)
        )


def test_commutator_of_even_element_with_itself_vanishes():
    alg = algebra()
    rng = np.random.default_rng(3)
    w = rand_element(rng, 2, max_forms=2)
    even, _ = w.split_form_parity()
    assert alg.commutator(even, even).coeff_norm() <= 1e-13


def test_ad_of_unit_is_zero():
    alg = algebra()
    rng = np.random.default_rng(4)
    one = WickElement.from_signomial(Signomial.constant(2, 1.0))
    for _ in range(5):
        assert alg.commutator(one, rand_element(rng, 2)).coeff_norm() <= 1e-13


def test_module_level_helpers():
    lam = make_bundle("flat", 1, 1.0).lam
    zx = z_var(2, 0)
    zy = z_var(2, 1)
    comm = WickAlgebra(lam).commutator(zx, zy)
    assert (comm - WickElement.from_term(2, 1, (0, 0), (), Signomial.constant(2, 1j))).coeff_norm() <= 1e-14


def test_div_v_guard():
    w = WickElement.from_signomial(Signomial.constant(2, 1.0))
    with pytest.raises(Exception):
        w.div_v(0.0)
    one = Signomial.constant(2, 1.0)
    v2 = WickElement.from_term(2, 2, (0, 0), (), one)
    assert (v2.div_v(0.0) - WickElement.from_term(2, 1, (0, 0), (), one)).coeff_norm() == 0.0
