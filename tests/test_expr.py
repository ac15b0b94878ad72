"""Signomial arithmetic and fractional differentiation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from akstar import expr
from akstar.caputo_quad import caputo_quad
from akstar.errors import (
    EvaluationDomainError,
    ExpressionClassError,
    FractionalDomainError,
    MalformedInputError,
)
from akstar.expr import (
    GRID,
    MAX_EXPONENT,
    AlphaContext,
    Signomial,
    _grid_count,
    _pack,
    _unpack,
    coeff_distance,
    power_rule_factor,
)

from _configs import exact

# frozen Gamma ratios, cross-checked against the quadrature oracle below
TWO_OVER_GAMMA_2P5 = 1.50450555612735        # Gamma(3)/Gamma(2.5)
ONE_OVER_GAMMA_1P5 = 1.1283791670955126      # Gamma(2)/Gamma(1.5)
GAMMA3_OVER_GAMMA_2P7 = 1.2947616535572537   # Gamma(3)/Gamma(2.7)


def sig(dim, *terms):
    return Signomial.from_terms(dim, [(c, e) for c, e in terms])


# -- normalize -----------------------------------------------------------


def test_like_terms_merge():
    s = sig(2, (2.0, [1, 0]), (3.0, [1, 0]))
    assert dict(s.sorted_terms()) == {(1.0, 0.0): 5.0 + 0j}


def test_cancellation_gives_zero():
    s = sig(2, (1.0, [0, 0]), (-1.0, [0, 0]))
    assert s.is_zero


def test_single_term_identity():
    s = sig(2, (1.5, [0.5, 2]))
    assert dict(s.sorted_terms()) == {(0.5, 2.0): 1.5 + 0j}


def test_non_finite_input_rejected():
    with pytest.raises(MalformedInputError):
        sig(2, (float("nan"), [0, 0]))
    with pytest.raises(MalformedInputError):
        sig(2, (1.0, [float("inf"), 0]))
    with pytest.raises(MalformedInputError):
        sig(2, (1.0, [0, 0, 0]))


def test_exponent_magnitude_bound():
    assert dict(sig(2, (1.0, [MAX_EXPONENT, 0])).sorted_terms()) == {(MAX_EXPONENT, 0.0): 1 + 0j}
    with pytest.raises(MalformedInputError):
        sig(2, (1.0, [0, -2 * MAX_EXPONENT]))


def test_exponent_sums_are_exact_on_the_grid():
    # ten float 0.1s sum to 0.9999999999999999; ten grid counts sum to 1
    tenth = sig(2, (1.0, [0.1, 0]))
    power = Signomial.constant(2, 1.0)
    for _ in range(10):
        power = power * tenth
    assert power == Signomial.coordinate(2, 0)
    # 1/3 lands on the grid once, as 0.333333333333, and three copies sum
    # exactly to 0.999999999999, which does not merge with u^1
    third = sig(2, (1.0, [1 / 3, 0]))
    cube = third * third * third
    assert [e for e, _ in cube.sorted_terms()] == [(0.999999999999, 0.0)]
    assert len((cube + Signomial.coordinate(2, 0)).terms) == 2


def test_dead_zone_drops_debris():
    s = sig(2, (1.0, [1, 0]), (1e-16, [0, 1]))
    assert [e for e, _ in s.sorted_terms()] == [(1.0, 0.0)]


# -- ring operations ------------------------------------------------------


def test_add_and_mul_examples():
    x = Signomial.coordinate(2, 0)
    y = Signomial.coordinate(2, 1)
    assert dict((x + y).sorted_terms()) == {(1.0, 0.0): 1 + 0j, (0.0, 1.0): 1 + 0j}

    root = sig(2, (1.0, [0.5, 0]))
    assert dict((root * root).sorted_terms()) == {(1.0, 0.0): 1 + 0j}

    prod = (x + y) * (x - y)
    assert dict(prod.sorted_terms()) == {(2.0, 0.0): 1 + 0j, (0.0, 2.0): -1 + 0j}


def test_overflow_raises_instead_of_erasing():
    # an infinite coefficient would make the dead-zone floor infinite and
    # drop every term, the finite ones included
    big = Signomial.constant(2, 1e308)
    with pytest.raises(MalformedInputError):
        big + big
    with pytest.raises(MalformedInputError):
        Signomial.constant(2, 1e200) * Signomial.constant(2, 1e200)
    with pytest.raises(MalformedInputError):
        # (1e200 + 1e200i)^2 has real part inf - inf = NaN
        Signomial.constant(2, 1e200 + 1e200j) * Signomial.constant(2, 1e200 + 1e200j)
    with pytest.raises(MalformedInputError):
        # an exponent beyond MAX_EXPONENT is refused where it enters
        sig(2, (1.0, [1e308, 0])) * sig(2, (1.0, [1e308, 0]))
    with pytest.raises(MalformedInputError):
        big.scale(10.0)
    with pytest.raises(MalformedInputError):
        sig(2, (1e308, [1, 0]), (1e308, [1, 0]), (1.0, [0, 1]))
    with pytest.raises(MalformedInputError):
        sig(2, (1.5e308 + 1.5e308j, [0, 0]))  # finite parts, magnitude overflows
    assert (big + big.scale(-0.5)).sorted_terms() == [((0.0, 0.0), 5e307 + 0j)]


def test_dim_mismatch_rejected():
    with pytest.raises(MalformedInputError):
        Signomial.coordinate(2, 0) + Signomial.coordinate(4, 0)


def test_repr_names_the_zero_field():
    # pytest prints fields this way when an assertion fails
    x = Signomial.coordinate(2, 0)
    assert repr(x.scale(2)) == "<signomial (2+0j)*u0^1>"
    assert repr(Signomial.zero(2)) == repr(x - x) == "<signomial 0>"


def test_constructor_validation():
    with pytest.raises(MalformedInputError, match="dimension must be >= 1"):
        Signomial(0)
    for index in (2, -1):
        with pytest.raises(MalformedInputError, match="out of range"):
            Signomial.coordinate(2, index)
    x = Signomial.coordinate(2, 0)
    for factor in (float("nan"), float("inf")):
        with pytest.raises(MalformedInputError, match="non-finite scale factor"):
            x.scale(factor)


# -- classical partials ---------------------------------------------------


def test_partial_power_rule():
    s = sig(2, (1.0, [2, 1]))
    assert dict(s.partial(0).sorted_terms()) == {(1.0, 1.0): 2 + 0j}
    assert sig(2, (1.0, [2, 0])).partial(1).is_zero
    assert dict(sig(2, (1.0, [0.5, 0])).partial(0).sorted_terms()) == {(-0.5, 0.0): 0.5 + 0j}


# -- Caputo derivatives ----------------------------------------------------


def test_caputo_y_squared_matches_oracle():
    ctx = AlphaContext(alpha=0.5, n=1)
    d = sig(2, (1.0, [0, 2])).caputo(1, ctx)
    assert dict(d.sorted_terms()).keys() == {(0.0, 1.5)}
    coeff = dict(d.sorted_terms())[(0.0, 1.5)]
    assert coeff == pytest.approx(TWO_OVER_GAMMA_2P5, rel=1e-12)
    oracle = caputo_quad(2.0, 1.0, 0.5).value
    assert abs(d.eval_at((1.0, 1.0)).real - oracle) / abs(oracle) < 1e-6


def test_caputo_constant_is_zero():
    ctx = AlphaContext(alpha=0.5, n=1)
    assert Signomial.constant(2, 7.0).caputo(0, ctx).is_zero


def test_caputo_passes_spectator_factors_through():
    ctx = AlphaContext(alpha=0.3, n=1)
    d = sig(2, (1.0, [2, 3])).caputo(0, ctx)
    assert dict(d.sorted_terms()).keys() == {(1.7, 3.0)}
    assert dict(d.sorted_terms())[(1.7, 3.0)] == pytest.approx(GAMMA3_OVER_GAMMA_2P7, rel=1e-12)
    # oracle at fixed y = 2: f(u) = u^2 * 2^3
    oracle = 8.0 * caputo_quad(2.0, 1.3, 0.3).value
    val = d.eval_at((1.3, 2.0)).real
    assert abs(val - oracle) / abs(oracle) < 1e-6


def test_caputo_alpha_one_delegates_to_partial():
    ctx = AlphaContext(alpha=1.0, n=1)
    s = sig(2, (1.0, [2, 1]))
    assert coeff_distance(s.caputo(0, ctx), s.partial(0)) == 0.0


def test_caputo_counts_alpha_once_per_context(monkeypatch):
    f = sig(2, (1.0, [2.5, 1.0]))
    calls = []
    monkeypatch.setattr(expr, "_grid_count", lambda v: calls.append(v) or round(Fraction(v) * GRID))
    ctx = AlphaContext(alpha=0.3, n=1)
    first = f.caputo(0, ctx)
    assert exact(f.caputo(0, ctx)) == exact(first)
    f.caputo(1, ctx)
    assert calls == [0.3]
    assert first.sorted_terms() == [((2.2, 1.0), power_rule_factor(2.5, 0.3) + 0j)]


def test_caputo_negative_integer_exponent_raises():
    ctx = AlphaContext(alpha=0.5, n=1)
    s = sig(2, (1.0, [-1, 0]))
    with pytest.raises(FractionalDomainError, match="coordinate 0") as info:
        s.caputo(0, ctx)
    assert info.value.coordinate == 0
    assert info.value.exponents == (-1.0, 0.0)
    assert str(info.value) == (
        "coordinate 0, term with exponents [-1.0, 0.0]: "
        "Gamma(0.0) pole: exponent -1.0 is a negative integer"
    )


def test_caputo_denominator_pole_kills_term():
    # p = -0.5, alpha = 0.5: Gamma(p+1-alpha) = Gamma(0) pole -> coefficient 0
    ctx = AlphaContext(alpha=0.5, n=1)
    s = sig(2, (1.0, [-0.5, 0]))
    assert s.caputo(0, ctx).is_zero


def test_caputo_linearity_on_random_pairs():
    rng = np.random.default_rng(7)
    ctx = AlphaContext(alpha=0.7, n=1)
    exp_grid = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    for _ in range(200):
        def rand_sig():
            k = rng.integers(1, 4)
            return sig(2, *[
                (complex(rng.normal(), rng.normal()),
                 [exp_grid[rng.integers(len(exp_grid))],
                  exp_grid[rng.integers(len(exp_grid))]])
                for _ in range(k)
            ])
        a, b = rand_sig(), rand_sig()
        c = complex(rng.normal(), rng.normal())
        lhs = (a + b).caputo(0, ctx)
        rhs = a.caputo(0, ctx) + b.caputo(0, ctx)
        scale = max(lhs.max_abs_coeff(), 1.0)
        # float distributivity leaves ulp-level residue at most
        assert coeff_distance(lhs, rhs) <= 1e-12 * scale
        lhs2 = a.scale(c).caputo(1, ctx)
        rhs2 = a.caputo(1, ctx).scale(c)
        scale2 = max(lhs2.max_abs_coeff(), 1.0)
        assert coeff_distance(lhs2, rhs2) <= 1e-12 * scale2


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("point", [0.7, 1.0, 1.5, 2.0])
def test_caputo_converges_to_classical_as_alpha_to_one(p, point):
    s = sig(2, (1.0, [p, 0]))
    classical = s.partial(0).eval_at((point, 1.0)).real
    errs = []
    for alpha in (0.9, 0.99, 0.999):
        ctx = AlphaContext(alpha=alpha, n=1)
        errs.append(abs(s.caputo(0, ctx).eval_at((point, 1.0)).real - classical))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_power_rule_against_quadrature(p, alpha):
    s = sig(2, (1.0, [p, 0]))
    ctx = AlphaContext(alpha=alpha, n=1)
    d = s.caputo(0, ctx)
    for x in (0.5, 1.0, 2.0):
        oracle = caputo_quad(p, x, alpha).value
        assert abs(d.eval_at((x, 1.0)).real - oracle) / abs(oracle) < 1e-6


# -- reciprocal ------------------------------------------------------------


def test_reciprocal_examples():
    y = Signomial.coordinate(2, 1)
    assert dict(y.reciprocal().sorted_terms()) == {(0.0, -1.0): 1 + 0j}

    s = sig(2, (2.0, [0.5, 0]))
    r = s.reciprocal()
    assert dict(r.sorted_terms()) == {(-0.5, 0.0): 0.5 + 0j}

    with pytest.raises(ExpressionClassError):
        (Signomial.constant(2, 1.0) + Signomial.coordinate(2, 0)).reciprocal()


def test_mul_reciprocal_is_one():
    rng = np.random.default_rng(3)
    one = Signomial.constant(2, 1.0)
    for _ in range(50):
        c = complex(rng.normal(), rng.normal())
        s = sig(2, (c, [rng.normal(), rng.normal()]))
        prod = s * s.reciprocal()
        assert coeff_distance(prod, one) <= 1e-15


# -- evaluation -------------------------------------------------------------


def test_eval_examples():
    s = sig(2, (1.0, [2, 0]), (1.0, [0, 1]))
    assert s.eval_at((2.0, 3.0)) == pytest.approx(7.0)
    assert sig(2, (1.0, [0.5, 0])).eval_at((4.0, 1.0)) == pytest.approx(2.0)
    with pytest.raises(EvaluationDomainError):
        s.eval_at((0.0, 1.0))
    with pytest.raises(EvaluationDomainError):
        s.eval_at((1.0,))


def test_eval_overflow_is_a_domain_error():
    with pytest.raises(EvaluationDomainError):
        sig(2, (1.0, [2000, 0])).eval_at((1.5, 1.0))  # the power overflows
    with pytest.raises(EvaluationDomainError):
        sig(2, (1e308, [1, 0]), (1e308, [0, 1])).eval_at((1.5, 1.5))  # the sum does


def test_sample_norm_is_the_largest_value_and_skips_zero(monkeypatch):
    s = sig(2, (1.0, [2, 0]), (-4.0, [0, 1]))
    points = ((2.0, 3.0), (1.0, 1.0), (3.0, 0.5))
    # values -8, -3 and 7
    assert s.sample_norm(points) == max(abs(s.eval_at(p)) for p in points) == 8.0
    calls = []
    evaluate = Signomial.eval_at
    monkeypatch.setattr(
        Signomial, "eval_at", lambda self, p: calls.append(p) or evaluate(self, p)
    )
    assert Signomial.zero(2).sample_norm(points) == 0.0
    assert calls == []
    assert s.sample_norm(points) == 8.0
    assert len(calls) == 3


# -- context -----------------------------------------------------------------


def test_alpha_context_validation():
    with pytest.raises(MalformedInputError):
        AlphaContext(alpha=1.5, n=1)
    with pytest.raises(MalformedInputError):
        AlphaContext(alpha=0.0, n=1)
    with pytest.raises(MalformedInputError):
        AlphaContext(alpha=0.5, n=0)
    ctx = AlphaContext(alpha=0.5, n=2)
    assert ctx.dim == 4 and not ctx.classical


def test_power_rule_factor_poles():
    with pytest.raises(FractionalDomainError):
        power_rule_factor(-2.0, 0.5)
    assert power_rule_factor(-0.5, 0.5) == 0.0


# -- algebraic laws (property-based) ----------------------------------------

coeffs = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
exponents = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
term = st.tuples(coeffs, st.tuples(exponents, exponents))
signomials = st.lists(term, min_size=0, max_size=4).map(
    lambda ts: Signomial.from_terms(2, [(c, list(e)) for c, e in ts])
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(signomials, signomials, signomials)
def test_ring_laws(a, b, c):
    scale = max(a.max_abs_coeff(), b.max_abs_coeff(), c.max_abs_coeff(), 1.0)
    assert coeff_distance(a + b, b + a) == 0.0
    assert coeff_distance((a + b) + c, a + (b + c)) <= 1e-12 * scale
    assert coeff_distance(a * b, b * a) <= 1e-12 * scale ** 2
    assert coeff_distance(a * (b + c), a * b + a * c) <= 1e-11 * scale ** 2


# -- exactness of the canonical-operand kernel -------------------------------
#
# ``+`` and ``*`` skip re-validating and re-rounding their canonical operands;
# they must still return exactly what ``from_terms`` makes of the raw items,
# in the same key order and with the same float bits (signed zeros included),
# because term order feeds every later float sum.

# float sums such as 0.1 + 0.2 land off the decimal grid; ``*`` adds grid counts
snapping_exponents = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.45, 0.55, 1 / 3, 1.0, 2.5, -0.45])
# values that cancel into the dead zone (0.1 + 0.2 - 0.3) or to zero
cancelling_coeffs = st.one_of(
    st.sampled_from([1.0, -1.0, 0.1, 0.2, -0.3, 1j, -1j, 1e-14, 0.5 - 0.5j]),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def snapping_signomials(draw):
    # negation leaves -0.0 parts, which from_terms never makes
    terms = st.tuples(cancelling_coeffs, st.tuples(snapping_exponents, snapping_exponents))
    s = Signomial.from_terms(2, draw(st.lists(terms, max_size=6)))
    return -s if draw(st.booleans()) else s


def float_items(s):
    """``s.terms`` in insertion order, with the float exponents of ``sorted_terms``."""
    exps = dict(zip(sorted(s.terms), (e for e, _ in s.sorted_terms())))
    return [(exps[key], c) for key, c in s.terms.items()]


def raw_items(s):
    return [(c, e) for e, c in float_items(s)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(snapping_signomials(), snapping_signomials(), cancelling_coeffs)
def test_kernel_matches_from_terms_exactly(a, b, k):
    assert exact(a + b) == exact(Signomial.from_terms(2, raw_items(a) + raw_items(b)))
    cross = [
        (c1 * c2, [x + y for x, y in zip(k1, k2)])
        for k1, c1 in float_items(a)
        for k2, c2 in float_items(b)
    ]
    assert exact(a * b) == exact(Signomial.from_terms(2, cross))
    scaled = a.scale(k)
    if k == 0:
        assert scaled.is_zero
    else:
        assert exact(scaled) == repr([(e, c * k) for e, c in a.terms.items()])


def test_product_snaps_exponent_sums():
    p = sig(2, (1.0, [0.1, 0.45])) * sig(2, (1.0, [0.2, -0.45]))
    assert repr([e for e, _ in p.sorted_terms()]) == "[(0.3, 0.0)]"


# -- packed exponent keys -------------------------------------------------------
#
# A key packs one biased 128-bit field per coordinate, coordinate 0 most
# significant; a count that leaves its field must raise, never carry.

packed_exponents = st.one_of(
    st.sampled_from([-MAX_EXPONENT, MAX_EXPONENT, -2.5, -1 / 3, -0.45, 0.0, 0.45, 1.0]),
    st.floats(min_value=-MAX_EXPONENT, max_value=MAX_EXPONENT),
)


# x * 10**12 is a half-integer exactly for the odd multiples of 5**12 / 2**13
grid_ties = st.builds(lambda j, sign: sign * (2 * j + 1) * 5**12 / 2**13,
                      st.integers(0, 2**20), st.sampled_from([1, -1]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(grid_ties, packed_exponents, st.floats(allow_nan=False, allow_infinity=False)))
def test_grid_count_rounds_like_the_exact_rational(value):
    assert _grid_count(value) == round(Fraction(value) * GRID)


def test_grid_count_breaks_ties_to_even():
    half = 5**12 / 2**13  # 10**12 * half = 5**24 / 2, an exact tie
    assert (5**24 // 2) % 2 == 0
    assert _grid_count(half) == 5**24 // 2 == round(Fraction(half) * GRID)
    assert _grid_count(-half) == -(5**24 // 2)
    assert _grid_count(3 * half) == 3 * 5**24 // 2 + 1
    assert _grid_count(-0.0) == 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=2.0), st.tuples(*[packed_exponents] * 3)),
    max_size=6,
))
def test_sorted_terms_match_a_tuple_keyed_reference(raw):
    # positive coefficients never cancel, so no term falls into the dead zone
    reference = {}
    for c, exps in raw:
        key = tuple(round(Fraction(e) * GRID) for e in exps)
        reference[key] = reference.get(key, 0j) + c
    expected = [(tuple(k / GRID for k in key), c) for key, c in sorted(reference.items())]
    assert Signomial.from_terms(3, raw).sorted_terms() == expected


@pytest.mark.parametrize("left, right", [
    ([0.5, -1.25, MAX_EXPONENT], [-0.75, 1.25, -MAX_EXPONENT]),
    ([-MAX_EXPONENT, 0.0, -2.5], [-MAX_EXPONENT, 1 / 3, 0.45]),
])
def test_product_key_is_the_packed_sum_of_counts(left, right):
    a, b = sig(3, (2.0, left)), sig(3, (3.0, right))
    (ka,), (kb,), (kp,) = a.terms, b.terms, (a * b).terms
    assert kp == _pack(_unpack(ka, 3, i) + _unpack(kb, 3, i) for i in range(3))
    assert tuple(_unpack(kp, 3, i) for i in range(3)) == tuple(
        round(Fraction(p) * GRID) + round(Fraction(q) * GRID) for p, q in zip(left, right)
    )


def test_lowering_and_reciprocal_on_negative_fractional_exponents():
    f = sig(2, (2.0, [-2.5, 0.45]))
    assert f.partial(0).sorted_terms() == [((-3.5, 0.45), -5 + 0j)]
    assert f.partial(1).sorted_terms() == [((-2.5, -0.55), 0.9 + 0j)]
    ctx = AlphaContext(0.3, 1)
    assert f.caputo(0, ctx).sorted_terms() == [
        ((-2.8, 0.45), 2 * power_rule_factor(-2.5, 0.3) + 0j)
    ]
    assert f.caputo(1, ctx).sorted_terms() == [
        ((-2.5, 0.15), 2 * power_rule_factor(0.45, 0.3) + 0j)
    ]
    assert f.reciprocal().sorted_terms() == [((2.5, -0.45), 0.5 + 0j)]
    edge = sig(2, (4.0, [MAX_EXPONENT, -MAX_EXPONENT]))
    assert edge.reciprocal().sorted_terms() == [((-MAX_EXPONENT, MAX_EXPONENT), 0.25 + 0j)]


@pytest.mark.parametrize("coord", [0, 1])
def test_exponent_guard_raises_instead_of_carrying(coord):
    def power(e, squarings):
        exps = [0.0, 0.0]
        exps[coord] = e
        f = sig(2, (1.0, exps))
        for _ in range(squarings):
            f = f * f
        return f

    def exps_of(count):
        exps = [0.0, 0.0]
        exps[coord] = count / GRID
        return exps

    # upward: 10**27 counts doubled 36 times fit a field, 37 times do not
    high = power(MAX_EXPONENT, 36)
    assert high.sorted_terms() == [(tuple(exps_of(10**27 * 2**36)), 1 + 0j)]
    with pytest.raises(MalformedInputError):
        high * high
    # downward: -2**51 counts doubled 75 times is the field's lowest count,
    # -2**126; one partial step or the reciprocal leaves the field
    low = power(-(2**51) / GRID, 75)
    assert low.sorted_terms() == [(tuple(exps_of(-(2**126))), 1 + 0j)]
    with pytest.raises(MalformedInputError):
        low.partial(coord)
    with pytest.raises(MalformedInputError):
        low.reciprocal()
