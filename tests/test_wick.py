"""Formal Wick algebra: gradings, product expansion, graded commutators."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest

from akstar.errors import EngineError, ExpressionClassError, MalformedInputError
from akstar.expr import Signomial, _drop_debris
from akstar.fedosov import FedosovMachine, delta_inv, sigma
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


def test_sum_rejects_a_dimension_mismatch():
    with pytest.raises(MalformedInputError, match="dimension mismatch"):
        WickElement.zero(2) + WickElement.zero(3)


def test_from_terms_signs_words_and_drops_repeats():
    one = Signomial.constant(2, 1.0)
    w = WickElement.from_terms(2, [(0, (1, 0), (1, 0), one), (0, (0, 1), (1, 1), one)])
    assert exact(w) == exact(WickElement.from_term(2, 0, (1, 0), (0, 1), one.scale(-1)))
    assert w.terms == {(0, (1, 0), (0, 1)): -one}


@pytest.mark.parametrize("factor", [0, 0j])
def test_scale_by_zero_is_the_zero_element(factor):
    one = Signomial.constant(2, 1.0)
    x = WickElement.from_terms(2, [(0, (1, 0), (), one), (1, (0, 2), (0,), one.scale(2.0))])
    got = x.scale(factor)
    assert got.dim == 2 and got.terms == {}


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
    # [z^x, z^y] = i v theta^{xy} with theta^{xy} = 1, so (i/v)[z^x, z^y] = -1
    alg = algebra()
    zx = z_var(2, 0)
    zy = z_var(2, 1)
    comm = alg.commutator(zx, zy)
    expect = WickElement.from_term(2, 0, (0, 0), (), Signomial.constant(2, -1.0))
    assert (comm - expect).coeff_norm() <= 1e-14
    assert (comm - bracket_reference(alg, zx, zy)).coeff_norm() <= 1e-14


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
                # (i/v) of i v theta^{ij} f_i g_j
                expect = expect + WickElement.from_term(2, 0, (0, 0), (), -(th * fa[i] * ga[j]))
        assert (comm - expect).coeff_norm() <= 1e-12
        assert (comm - bracket_reference(alg, a, g)).coeff_norm() <= 1e-12


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


def fiber_degrees(dim, most):
    """Every fiber multi-degree of ``dim`` entries with total at most ``most``."""
    return [z for z in itertools.product(range(most + 1), repeat=dim) if sum(z) <= most]


def brute_force_table(lam):
    """``patterns(z1, z2)``: a table entry's patterns, enumerated over every
    pair (a, b) with a non-zero Lambda entry, k from 0 up, with weights from
    factorials at the end."""
    dim = len(lam)
    pairs = [(a, b) for a in range(dim) for b in range(dim) if not lam[a][b].is_zero]

    @functools.lru_cache(maxsize=None)
    def power(a, b, k):
        return functools.reduce(operator.mul, [lam[a][b]] * k)

    def patterns(z1, z2):
        out = []
        # product varies the last pair fastest: depth-first over pairs, k ascending
        for ks in itertools.product(*(range(min(z1[a], z2[b]) + 1) for a, b in pairs)):
            rows, cols = list(z1), list(z2)
            for (a, b), k in zip(pairs, ks):
                rows[a] -= k
                cols[b] -= k
            if min(rows + cols) < 0:
                continue
            weight = math.prod(
                math.factorial(full) // math.factorial(left)
                for full, left in zip(z1 + z2, rows + cols)
            )
            denom = math.prod(map(math.factorial, ks))
            lams = tuple(power(a, b, k) for (a, b), k in zip(pairs, ks) if k)
            odd = sum(k for (a, b), k in zip(pairs, ks) if a != b) % 2 == 1
            out.append((sum(ks), tuple(map(operator.add, rows, cols)), weight, denom, lams, odd))
        return out

    return patterns


TABLE_CASES = CAP_CASES + [("w4", 2, 1.0)]


@pytest.mark.parametrize("case", TABLE_CASES, ids=str)
def test_contraction_table_matches_brute_force(case):
    lam = make_bundle(*case).lam
    alg = WickAlgebra(lam)
    brute_force = brute_force_table(lam)
    degrees = fiber_degrees(len(lam), 4)
    for z1 in degrees:
        for z2 in degrees:
            patterns, any_odd = alg._contractions(z1, z2)
            expected = brute_force(z1, z2)
            # Lambda powers compare as Signomials, by their terms
            assert list(patterns) == expected
            assert any_odd == any(e[5] for e in expected)


def inline_reference(alg, x, y, odd_only=False):
    """x o y (or, with ``odd_only``, the bracket (i/v)[x, y]) with every
    coefficient product written out on the term dicts: scale by the pattern
    scalar, then one merging product per Lambda power, a dead zone after
    each; a key keeps a single contribution as made and sums several raw."""
    dim = x.dim
    (bias,) = Signomial.constant(dim, 1.0).terms

    def times(t1, t2):
        merged = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                key = k1 - bias + k2
                merged[key] = merged.get(key, 0j) + c1 * c2
        return _drop_debris(merged)

    out, raw = {}, set()
    for (v1, z1, a1), c1 in x.terms.items():
        for (v2, z2, a2), c2 in y.terms.items():
            merged = sort_word(a1 + a2)
            if merged is None:
                continue
            wsign, forms = merged
            base = times(c1.terms, c2.terms)
            if not base:
                continue
            if not (any(z1) and any(z2)):
                if odd_only:
                    continue
                contributions = [(
                    (v1 + v2, tuple(map(operator.add, z1, z2)), forms),
                    base if wsign > 0 else {k: c * complex(wsign) for k, c in base.items()},
                )]
            else:
                contributions = []
                wsign *= 2 if odd_only else 1
                for r, z_out, weight, denom, lams, odd in alg._contractions(z1, z2)[0]:
                    if odd_only and not odd:
                        continue
                    f = complex(wsign * weight) / denom * (0.5j) ** r
                    if odd_only:
                        f *= 1j
                    terms = {k: c * f for k, c in base.items()}
                    for lam in lams:
                        terms = times(terms, lam.terms)
                    if terms:
                        contributions.append(((v1 + v2 + r - odd_only, z_out, forms), terms))
            for key, terms in contributions:
                if key not in out:
                    out[key] = terms
                    continue
                if key not in raw:
                    raw.add(key)
                    out[key] = {k: 0j + c for k, c in out[key].items()}
                for k, c in terms.items():
                    out[key][k] = out[key].get(k, 0j) + c
    kept = {}
    for key, terms in out.items():
        terms = _drop_debris(terms) if key in raw else terms
        if terms:
            kept[key] = Signomial(dim, terms)
    return WickElement(dim, kept)


def test_kernel_matches_inline_reference():
    rng = np.random.default_rng(53)
    cases = []
    for kind, n, alpha in CAP_CASES:
        cases += [(algebra(alpha, kind, n), *rand_pair(rng, 2 * n)) for _ in range(3)]
    m = w4_machine()
    r2 = delta_inv(m.t_hat)
    cases += [(m.algebra, r2, r2), (m.algebra, r2, m.r_hat)]
    shared = 0
    for alg, x, y in cases:
        for got, ref in (
            (alg.product(x, y), inline_reference(alg, x, y)),
            (alg.commutator(x, y), inline_reference(alg, x, y, odd_only=True)),
        ):
            assert exact(got) == exact(ref)
            shared += sum(len(c.terms) > 1 for c in got.terms.values())
    assert shared >= 100


def test_product_raises_only_on_a_non_finite_result():
    # z^0 z^0 o z^0 z^0 has the pattern scalar 2i at one contraction; it
    # takes the coefficient c to c * 2i, whose parts are finite but whose
    # magnitude is not, and c * 2i * Lambda^{00} = c is finite again, so
    # the product keeps that contribution
    lam = [[Signomial.constant(2, -0.5j), Signomial.constant(2, 0.25)],
           [Signomial.constant(2, -0.25), Signomial.constant(2, -0.5j)]]
    alg = WickAlgebra(lam)

    def z_squared(degrees, c):
        return WickElement.from_term(2, 0, degrees, (), Signomial.constant(2, c))

    x, one = z_squared((2, 0), 0.7e308 + 0.7e308j), z_squared((2, 0), 1.0)
    with pytest.raises(MalformedInputError):
        x.terms[(0, (2, 0), ())].scale(2j)
    assert exact(alg.product(x, one)) == exact(inline_reference(alg, x, one))
    # the bracket with z^1 z^1 contracts through Lambda^{01} with the scalar
    # -4: each part of c * -4 overflows to inf, so the contribution the
    # kernel computes is not finite and the bracket raises, as the reference
    y = z_squared((0, 2), 1.0)
    with pytest.raises(MalformedInputError):
        alg.commutator(x, y)
    with pytest.raises(MalformedInputError):
        inline_reference(alg, x, y, odd_only=True)


def test_product_drops_a_pair_whose_coefficients_underflow():
    # z^0 o 1 does not contract, so its one contribution is c1 * c2, here
    # 1e-200 * 1e-200, which underflows to no term; nothing after the pair
    # loop drops it, so the loop's own guard keeps the empty coefficient out
    alg = algebra()
    tiny = Signomial.constant(2, 1e-200)
    x = WickElement.from_term(2, 0, (1, 0), (), tiny)
    y = WickElement.from_term(2, 0, (0, 0), (), tiny)
    assert (tiny * tiny).is_zero
    assert alg.product(x, y).terms == {}


def test_from_terms_refuses_a_coefficient_over_other_coordinates():
    # Wick + adds raw term maps, so an element holding x^1 over 3
    # coordinates, added to y over 2, read as y + 1 over 2
    y = Signomial.coordinate(2, 1)
    x3 = Signomial.coordinate(3, 0)
    with pytest.raises(MalformedInputError, match="coefficient over 3 coordinates"):
        WickElement.from_terms(2, [(0, (0, 0), (), y), (0, (0, 0), (), x3)])
    with pytest.raises(MalformedInputError, match="coefficient over 3 coordinates"):
        WickElement.from_term(2, 0, (1, 0), (), Signomial.zero(3))


@pytest.mark.parametrize("v,z,word", [
    pytest.param(0.5, (1, 0, 0, 0), (), id="fractional-v"),
    pytest.param(0, (1.5, 0, 0, 0), (), id="fractional-fiber-degree"),
    pytest.param(0, (1, 0, 0, 0), (-1,), id="label-below-range"),
    pytest.param(0, (1, 0, 0, 0), (2, 4), id="label-above-range"),
    pytest.param(0, (1, 0, 0, 0), (0.5,), id="fractional-label"),
])
def test_from_terms_refuses_keys_outside_the_grading(v, z, word):
    # int() used to truncate 0.5 and 1.5, label -1 reached the last row of
    # w_by_form in dconn_apply, and label 0.5 reached it as a float index
    one = Signomial.constant(4, 1.0)
    with pytest.raises(MalformedInputError):
        WickElement.from_terms(4, [(0, (0, 0, 0, 0), (), one), (v, z, word, one)])


def test_product_and_commutator_refuse_operands_of_other_directions():
    # 4-direction elements on a 2-direction algebra, whose contractions
    # would cover directions 0 and 1 only
    alg = algebra()
    one = Signomial.constant(4, 1.0)
    x = WickElement.from_term(4, 0, (0, 0, 0, 0), (2,), one)
    y = WickElement.from_term(4, 0, (1, 0, 0, 1), (), one)
    for op in (alg.product, alg.commutator):
        for a, b in ((x, y), (y, x), (x, z_var(2, 0)), (z_var(2, 0), x)):
            with pytest.raises(MalformedInputError, match="directions, algebra of 2"):
                op(a, b)


def malformed_twists():
    """One Lambda, with the error it raises, for each way a twist can break
    the ``WickAlgebra`` contract; most are built from the flat n = 1 twist."""
    lam = make_bundle("flat", 1, 1.0).lam
    two = Signomial.from_terms(2, [(1.0, [0.0, 0.0]), (0.5j, [1.0, 0.0])])
    # every entry over 3 coordinates, so the entries agree with each other
    over_3 = [[Signomial.constant(3, c) for c in row] for row in ((-1j, 1.0), (-1.0, -1j))]
    return [
        pytest.param([row + [Signomial.zero(2)] for row in lam], MalformedInputError, id="2x3"),
        pytest.param([list(lam[0]), [lam[1][0]]], MalformedInputError, id="ragged"),
        pytest.param([[two, lam[0][1]], list(lam[1])], ExpressionClassError, id="two-terms"),
        pytest.param(over_3, MalformedInputError, id="over-3-coordinates"),
    ]


@pytest.mark.parametrize("lam,error", malformed_twists())
def test_twist_outside_the_contract_raises(lam, error):
    with pytest.raises(error, match="twist"):
        WickAlgebra(lam)


TWIST_KINDS = [("flat", 1), ("flat", 2), ("coupled", 1), ("coupled", 2), ("cross", 2),
               ("y4", 1), ("x2y3", 1), ("w4", 2), ("w4p", 2)]


def test_every_config_twist_meets_the_contract():
    built = 0
    for (kind, n), alpha in itertools.product(TWIST_KINDS, (1.0, 0.7, 0.45)):
        try:
            lam = make_bundle(kind, n, alpha).lam
        except EngineError:
            continue
        assert WickAlgebra(lam).dim == 2 * n
        built += 1
    assert built >= 20


# -- accumulation of output keys -------------------------------------------------


def pattern_terms(alg, x, y, graded=False):
    """(odd, key, coefficient) of each contribution to x o y, one per term
    pair and contraction pattern; ``graded`` applies the sign
    -(-1)^{|A1| |A2|} of the commutator's y o x half."""
    for (v1, z1, a1), c1 in x.terms.items():
        for (v2, z2, a2), c2 in y.terms.items():
            merged = sort_word(a1 + a2)
            if merged is None:
                continue
            wsign, forms = merged
            if graded and len(a1) * len(a2) % 2 == 0:
                wsign = -wsign
            for r, z_out, weight, denom, lams, odd in alg._contractions(z1, z2)[0]:
                coeff = (c1 * c2).scale(complex(wsign * weight) / denom * (0.5j) ** r)
                for lam in lams:
                    coeff = coeff * lam
                yield odd, (v1 + v2 + r, z_out, forms), coeff


def raw_sum_reference(alg, x, y):
    """x o y with each key's contributions summed raw and dead-zoned once,
    and the number of contributions per key."""
    sums, counts = {}, {}
    for _odd, key, coeff in pattern_terms(alg, x, y):
        if coeff.is_zero:
            continue
        raw = sums.setdefault(key, {})
        for k, c in coeff.terms.items():
            raw[k] = raw.get(k, 0j) + c
        counts[key] = counts.get(key, 0) + 1
    kept = {}
    for key, raw in sums.items():
        raw = _drop_debris(raw)
        if raw:
            kept[key] = Signomial(x.dim, raw)
    return WickElement(x.dim, kept), counts


def w4_machine():
    return FedosovMachine(make_bundle("w4", 2, 1.0))


def test_product_matches_raw_sum_reference():
    one = Signomial.constant(2, 1.0)
    big = Signomial.monomial(2, 1.0, [1.0, 0.0])
    tiny = Signomial.monomial(2, 1e-15, [0.0, 1.0])
    # (0, (2, 0), ()) receives big, tiny and -big in that order: a dead zone
    # after every add drops tiny beside big and then the key; summed raw,
    # tiny is what is left
    debris = (
        algebra(),
        WickElement.from_terms(2, [(0, (0, 0), (), one), (0, (1, 0), (), one), (0, (2, 0), (), one)]),
        WickElement.from_terms(2, [(0, (2, 0), (), big), (0, (1, 0), (), tiny), (0, (0, 0), (), -big)]),
    )
    m = w4_machine()
    r2 = delta_inv(m.t_hat)
    cases = [debris, (m.algebra, r2, r2), (m.algebra, r2, m.r_hat)]
    rng = np.random.default_rng(43)
    for kind, n, alpha in CAP_CASES:
        alg = algebra(alpha, kind, n)
        cases += [(alg, *rand_pair(rng, 2 * n)) for _ in range(4)]
    shared = 0
    for alg, x, y in cases:
        got = alg.product(x, y)
        ref, counts = raw_sum_reference(alg, x, y)
        assert list(got.terms) == list(ref.terms)
        # == on coefficients, since a one-contribution key keeps its
        # operand's imaginary -0.0 where the reference's 0j + c clears it
        assert got.terms == ref.terms
        shared += sum(k > 1 for k in counts.values())
    assert shared >= 100
    alg, x, y = debris
    assert alg.product(x, y).terms[(0, (2, 0), ())] == tiny


def test_product_drops_a_key_whose_contributions_cancel():
    one = Signomial.constant(2, 1.0)
    a = Signomial.monomial(2, 0.7 - 0.2j, [0.5, 1.0])
    x = WickElement.from_terms(2, [(0, (0, 0), (), one), (0, (1, 0), (), one)])
    y = WickElement.from_terms(2, [(0, (1, 0), (), a), (0, (0, 0), (), -a)])
    got = algebra().product(x, y)
    # z^0 * a and z * (-a) meet at (0, (1, 0), ()) and sum to exactly 0
    assert (0, (1, 0), ()) not in got.terms
    assert got.terms[(0, (0, 0), ())] == -a


def test_repr_lists_the_terms_in_key_order():
    # pytest prints elements this way when an assertion fails; e^1 e^0
    # sorts to e^0 e^1 with sign -1
    one = Signomial.constant(2, 1.0)
    x = Signomial.coordinate(2, 0)
    w = WickElement.from_terms(2, [(1, (0, 1), (), one), (0, (1, 0), (1, 0), x)])
    assert repr(w) == (
        "<wick v^0 z[1, 0] e[0, 1] * <signomial (-1+0j)*u0^1>"
        " + v^1 z[0, 1] e[] * <signomial (1+0j)>>"
    )
    assert repr(WickElement.zero(2)) == repr(w - w) == "<wick 0>"


def test_single_contribution_key_keeps_its_operand():
    # e^1 e^0 sorts with sign -1, and (-1) * (-1 + 0j) leaves an imaginary
    # -0.0 that 0j + c would turn into 0.0
    minus_one = Signomial.constant(2, -1.0)
    one = Signomial.constant(2, 1.0)
    x = WickElement.from_term(2, 0, (0, 0), (1,), minus_one)
    y = WickElement.from_term(2, 0, (0, 0), (0,), one)
    operand = (minus_one * one).scale(-1)
    assert repr(operand) == "<signomial (1-0j)>"
    got = algebra().product(x, y)
    assert repr(got.terms) == repr({(0, (0, 0), (0, 1)): operand})


def test_product_does_not_call_signomial_add(monkeypatch):
    m = w4_machine()
    r2 = delta_inv(m.t_hat)
    calls = []
    add = Signomial.__add__

    def counting_add(self, other):
        calls.append(None)
        return add(self, other)

    monkeypatch.setattr(Signomial, "__add__", counting_add)
    got = m.algebra.product(r2, r2)
    assert len(r2.terms) == 13 and len(got.terms) >= 33
    assert calls == []
    # the patch is live: from_terms still adds a repeated key through it
    one = Signomial.constant(2, 1.0)
    WickElement.from_terms(2, [(0, (1, 0), (), one), (0, (1, 0), (), one)])
    assert len(calls) == 1


# -- the graded commutator ---------------------------------------------------------


def over_v(w):
    """w / v, dropping w's v^0 part once it is asserted to be round-off,
    at most 1e-12 of w's coefficient norm."""
    v0 = max((c.max_abs_coeff() for (v, _, _), c in w.terms.items() if v == 0), default=0.0)
    assert v0 <= 1e-12 * w.coeff_norm()
    return WickElement(w.dim, {(v - 1, z, a): c for (v, z, a), c in w.terms.items() if v})


def bracket_reference(alg, x, y):
    """(i/v)(x o y - sum_{p,q} (-1)^{pq} y_p o x_q) from products and sums."""
    out = alg.product(x, y)
    for p, yp in enumerate(y.split_form_parity()):
        for q, xq in enumerate(x.split_form_parity()):
            out = out - alg.product(yp, xq).scale((-1) ** (p * q))
    return over_v(out.scale(1j))


def commutator_cases():
    m = w4_machine()
    r2 = delta_inv(m.t_hat)
    # r2 is a 1-form and r_hat a 2-form; their sum has both parities
    mixed = r2 + m.r_hat
    cases = [(m.algebra, r2, r2), (m.algebra, r2, m.r_hat), (m.algebra, mixed, mixed)]
    rng = np.random.default_rng(47)
    for kind, n, alpha in CAP_CASES:
        alg = algebra(alpha, kind, n)
        cases += [(alg, *rand_pair(rng, 2 * n)) for _ in range(4)]
    return cases


def test_commutator_matches_parity_reference():
    # max_deg caps the Deg of the bracket itself, two below that of x o y
    checked = 0
    for alg, x, y in commutator_cases():
        top = max(alg.commutator(x, y).total_degrees(), default=0)
        scale = max(x.coeff_norm() * y.coeff_norm(), 1.0)
        full = bracket_reference(alg, x, y)
        for max_deg in [None, *range(top + 1)]:
            got = alg.commutator(x, y, max_deg=max_deg)
            ref = full if max_deg is None else full.truncate(max_deg)
            assert (got - ref).coeff_norm() <= 1e-14 * scale
            checked += not ref.is_zero
    assert checked >= 80


def test_even_patterns_of_the_two_halves_cancel():
    # the identity the one-pass commutator rests on: each even pattern of
    # x o y meets its mirror in the graded y o x with the opposite sign
    cancelled = 0
    for alg, x, y in commutator_cases():
        scale = max(x.coeff_norm() * y.coeff_norm(), 1.0)
        halves = [pattern_terms(alg, x, y), pattern_terms(alg, y, x, graded=True)]
        even = [[(*key, c) for odd, key, c in half if not odd] for half in halves]
        both = WickElement.from_terms(x.dim, even[0] + even[1])
        assert both.coeff_norm() <= 1e-14 * scale
        cancelled += WickElement.from_terms(x.dim, even[0]).coeff_norm() > 0.1
    assert cancelled >= 15


def test_commutator_has_no_v0_key():
    # [x, y] has no v^0 key, so (i/v)[x, y], one power of v lower, has no
    # negative one, though it does reach v^0
    brackets_with_v0 = 0
    for alg, x, y in commutator_cases():
        keys = alg.commutator(x, y).terms
        assert all(v >= 0 for v, _, _ in keys)
        brackets_with_v0 += any(v == 0 for v, _, _ in keys)
    assert brackets_with_v0 >= 11


def test_twist_must_be_antisymmetric_off_the_diagonal():
    for kind, n, alpha in CAP_CASES:
        WickAlgebra(make_bundle(kind, n, alpha).lam)
    lam = [list(row) for row in make_bundle("y4", 1, 1.0).lam]
    assert not lam[0][1].is_zero
    lam[1][0] = lam[0][1]
    with pytest.raises(ExpressionClassError, match="not opposite"):
        WickAlgebra(lam)


def test_commutator_makes_no_product_or_signomial_add_call(monkeypatch):
    m = w4_machine()
    r2 = delta_inv(m.t_hat)
    calls = {"product": 0, "add": 0}
    add = Signomial.__add__
    product = WickAlgebra.product

    def counting_add(self, other):
        calls["add"] += 1
        return add(self, other)

    def counting_product(self, *args, **kwargs):
        calls["product"] += 1
        return product(self, *args, **kwargs)

    monkeypatch.setattr(Signomial, "__add__", counting_add)
    monkeypatch.setattr(WickAlgebra, "product", counting_product)
    got = m.algebra.commutator(r2, m.r_hat)
    assert not got.is_zero
    assert calls == {"product": 0, "add": 0}
    # both patches are live
    m.algebra.product(r2, r2)
    one = Signomial.constant(2, 1.0)
    WickElement.from_terms(2, [(0, (1, 0), (), one), (0, (1, 0), (), one)])
    assert calls == {"product": 1, "add": 1}


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


def test_pairs_without_an_odd_pattern_multiply_nothing(monkeypatch):
    # z^0 o z^0 contracts only through the diagonal Lambda^{00}: every
    # pattern is even, so the commutator skips the pair before c1 * c2
    alg = algebra()
    x = z_var(2, 0).scale(2.0)
    patterns, any_odd = alg._contractions((1, 0), (1, 0))
    assert patterns and not any_odd and not any(p[5] for p in patterns)
    assert alg._contractions((1, 0), (0, 1))[1]
    calls = []
    real_mul = Signomial.__mul__
    monkeypatch.setattr(Signomial, "__mul__", lambda a, b: calls.append(1) or real_mul(a, b))
    assert alg.commutator(x, x).is_zero
    assert calls == []
    assert not alg.commutator(x, z_var(2, 1)).is_zero
    assert calls
