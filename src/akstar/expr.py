"""Signomial scalar fields with classical and Caputo-type differentiation.

A signomial is a finite sum ``sum_k c_k * u^(p_k)`` over the ``2n``
coordinates ``u = (x^1..x^n, y^1..y^n)``, with complex coefficients and
real (possibly negative, possibly irrational) exponent vectors.  The class
is closed under addition, multiplication, classical partial derivatives
and the order-``alpha`` left Caputo derivative at base point 0, which acts
term-wise through the generalized power rule

    u^p  ->  Gamma(p+1) / Gamma(p+1-alpha) * u^(p-alpha)       (p != 0)
    const -> 0.

For ``p > 0`` the rule agrees with the defining singular-kernel integral
(see :mod:`akstar.caputo_quad` for the independent quadrature evaluation);
for non-integer ``p < 0`` it is the analytic continuation, which the
geometry layer needs because connection and curvature fields of x-coupled
configurations carry negative exponents.  A negative *integer* exponent
puts the numerator Gamma at a pole and raises
:class:`~akstar.errors.FractionalDomainError`; a pole in the denominator
makes the term vanish instead.

Exponents are exact integer counts of ``10**-12``, rounded once where raw
terms enter (:meth:`Signomial.from_terms`).  A term's key is one Python
int packing its ``dim`` counts: each count plus a bias of ``2**126`` fills
one 128-bit field, coordinate 0 the most significant, so int order is the
lexicographic order of the count vectors.  A product's key is ``k1 + k2``
less the bias in every field, ``partial`` and ``caputo`` subtract
``10**12`` or alpha's count shifted into the coordinate's field, and
``reciprocal`` subtracts the key from twice the all-field bias, so like
terms merge by exact key equality whatever path made them.  The top bit of
each field is a guard bit, clear for every count in ``[-2**126, 2**126)``.
An operation that takes any count out of that range leaves some guard bit
set: an overflowing field sets its own, and a field that drops below zero
sets its own as it borrows from its neighbour.  Every operation that makes
new keys ORs them and tests the guard bits once, raising
:class:`~akstar.errors.MalformedInputError` rather than carrying into the
next field.  ``_pack`` and ``_unpack`` (shift and mask, the one decode
site) define the layout.  The float exponent ``count / 10**12`` is formed
only for the power-rule factor, evaluation and
:meth:`Signomial.sorted_terms`.
Products run through one kernel, ``_times``: ``Signomial.__mul__`` and
each Wick contraction pattern (which first scales the left factor by the
pattern's scalar) call it on the two term maps, and a one-term right
factor takes a single comprehension instead of the merging loop.
Input is validated once: finite coefficients, exponent vectors of the
right length, and finite exponents of magnitude at most ``MAX_EXPONENT``.
``+``, ``*`` and ``scale`` trust canonical operands; a result coefficient
that overflows raises :class:`~akstar.errors.MalformedInputError`.

Evaluation is defined only at points with strictly positive coordinates.
Values are immutable by use (no code assigns to a built instance) and
every operation is pure, so instances are safe to share between threads.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import (
    EvaluationDomainError,
    ExpressionClassError,
    FractionalDomainError,
    MalformedInputError,
)

# Exponent keys count steps of 1 / GRID.
GRID = 10**12
# Largest input exponent magnitude: about 2**90 counts, far inside a field.
MAX_EXPONENT = 1e15
# Relative magnitude below which a coefficient counts as cancellation debris.
DEAD_ZONE = 1e-13

# Packed keys: one _WIDTH-bit field per coordinate holding count + _BIAS.
_WIDTH = 128
_BIAS = 1 << (_WIDTH - 2)
_FIELD = (1 << _WIDTH) - 1
_OUT_OF_RANGE = f"an exponent left the representable range of +-{_BIAS / GRID:g}"

ExponentVector = tuple[float, ...]


def _grid_count(value: float) -> int:
    """Count of 10**-12 steps nearest ``value``, ties to even: exactly
    ``round(value, 12)``, computed on the float's exact integer ratio."""
    num, den = value.as_integer_ratio()
    count, rest = divmod(num * GRID, den)
    # den > 0, so rest is in [0, den); a tie goes to the even count
    if 2 * rest > den or (2 * rest == den and count & 1):
        count += 1
    return count


def _pack(counts: Iterable[int]) -> int:
    """Key of a count vector; coordinate 0 takes the most significant field."""
    key = 0
    for count in counts:
        key = key << _WIDTH | (count + _BIAS)
    return key


def _unpack(key: int, dim: int, coord: int) -> int:
    """Count of coordinate ``coord`` in a key of ``dim`` fields; inverts :func:`_pack`."""
    return ((key >> (_WIDTH * (dim - 1 - coord))) & _FIELD) - _BIAS


@lru_cache(maxsize=None)
def _layout(dim: int) -> tuple[int, int]:
    """``(bias, guard)`` for ``dim`` fields: the key of the zero exponent
    vector, and the mask of every field's guard bit, which is twice it.

    The OR of the keys one operation makes from in-range keys has a guard
    bit set iff some count left its field; a top field that underflows
    makes the key negative, and a negative int has that field's guard bit
    set, as in two's complement."""
    bias = _pack((0,) * dim)
    return bias, bias << 1


@lru_cache(maxsize=None)
def _lowering(dim: int, coord: int, count: int) -> int:
    """What to subtract from a key to lower coordinate ``coord`` by ``count`` steps."""
    return _pack(count if i == coord else 0 for i in range(dim)) - _layout(dim)[0]


def _exponents(key: int, dim: int) -> ExponentVector:
    # int / int is correctly rounded, so this is the float of round(e, 12)
    return tuple(_unpack(key, dim, i) / GRID for i in range(dim))


def _is_nonpositive_integer(value: float) -> bool:
    return value < 0.5 and abs(value - round(value)) <= 1e-12


# The log-gamma below ports the Cephes routine ``lgam`` (S. L. Moshier)
# that ``scipy.special`` runs, with the same constants and the same order
# of floating-point operations, so it returns the same bits.  Which terms of a fractional recursion cancel into the dead zone can turn
# on the last bit of a Gamma ratio, so a different log-gamma
# (``math.lgamma``, say) would change reported term counts.

_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
# Cephes' p1evl leaves this leading 1 implicit; 1 * x is exact, so the bits agree
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LOGPI = 1.14472988584940017414
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgamma(x: float) -> float:
    """log|Gamma(x)| for finite ``x``; ``inf`` at the poles (Cephes ``lgam``)."""
    if x < -34.0:
        q = -x
        w = _lgamma(q)
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        return _LOGPI - math.log(z) - w
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            if u == 0.0:
                return math.inf
            z /= u
            p += 1.0
            u = x + p
        z = abs(z)
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
              + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) off the poles: 1 for x > 0, else (-1)^ceil(-x)."""
    if x > 0.0:
        return 1.0
    return -1.0 if math.ceil(-x) % 2 else 1.0


@lru_cache(maxsize=None)
def power_rule_factor(p: float, alpha: float) -> float:
    """Gamma(p+1)/Gamma(p+1-alpha) via log-gamma with sign tracking.

    Returns 0.0 when the denominator sits at a pole; raises
    :class:`FractionalDomainError` when the numerator does (negative
    integer ``p``).  The log-gamma and the sign rule are the pure-Python
    Cephes port above, bit-exact against the C routines, so no numeric
    library is loaded for it.
    """
    a = p + 1.0
    b = p + 1.0 - alpha
    if _is_nonpositive_integer(a):
        raise FractionalDomainError(
            f"Gamma({a}) pole: exponent {p} is a negative integer"
        )
    if _is_nonpositive_integer(b):
        return 0.0
    return _gamma_sign(a) * _gamma_sign(b) * math.exp(_lgamma(a) - _lgamma(b))


def _canonical(dim: int, items: Iterable[tuple[complex, Sequence[float]]]) -> dict:
    """Validate, round to the grid and merge raw ``(coefficient, exponents)`` items."""
    merged: dict[int, complex] = {}
    for coef, exps in items:
        c = complex(coef)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise MalformedInputError(f"non-finite coefficient {coef!r}")
        if len(exps) != dim:
            raise MalformedInputError(
                f"exponent vector {list(exps)} has length {len(exps)}, expected {dim}"
            )
        counts = []
        for e in exps:
            e = float(e)
            if not (math.isfinite(e) and abs(e) <= MAX_EXPONENT):
                raise MalformedInputError(f"exponent {e!r} is not finite or above {MAX_EXPONENT:g}")
            counts.append(_grid_count(e))
        key = _pack(counts)
        merged[key] = merged.get(key, 0j) + c
    return _drop_debris(merged)


def _finite_magnitudes(coefs: Iterable[complex]) -> list[float]:
    """|c| for each coefficient; raises if any is non-finite.

    Finite operands can still overflow under ``+``, ``*`` or ``scale``; an
    infinite coefficient would make the dead-zone floor infinite and erase
    every term, so it is an error instead.
    """
    try:
        mags = list(map(abs, coefs))
    except OverflowError:
        raise MalformedInputError("coefficient magnitude overflows a float") from None
    # the sum is NaN if any magnitude is NaN and inf if any is inf
    if not math.isfinite(sum(mags)) and not all(map(math.isfinite, mags)):
        raise MalformedInputError("non-finite coefficient (arithmetic overflow)")
    return mags


def _drop_debris(merged: dict) -> dict:
    """Drop coefficients at or below DEAD_ZONE times the largest one.

    Returns ``merged`` itself when nothing is dropped, so callers pass a
    dict of their own.
    """
    if not merged:
        return {}
    mags = _finite_magnitudes(merged.values())
    top = max(mags)
    if top == 0.0:
        return {}
    floor = DEAD_ZONE * top
    if min(mags) > floor:
        return merged
    return {k: c for (k, c), m in zip(merged.items(), mags) if m > floor}


def _times(t1: dict, t2: dict, dim: int, pre: complex | None = None) -> dict:
    """Terms of the product of two canonical term maps over ``dim`` fields.

    A one-term ``t2`` shifts the keys of ``t1``, which stay distinct, so
    ``merged.get(key, 0j) + p`` is ``0j + p`` for each and one
    comprehension gives the merging loop's bits.  ``pre`` (only with a
    ``t2`` of at most one term, as a ``WickAlgebra`` Lambda power is) first
    multiplies each ``t1`` coefficient; an intermediate ``c1 * pre`` may
    overflow, and the dead zone's finiteness check on the result raises
    where that leaves a coefficient non-finite.  Tests the guard bits once
    and applies the dead zone; the result is a dict of its own.
    """
    bias, guard = _layout(dim)
    if len(t2) == 1:
        (k2, c2), = t2.items()
        k2 -= bias
        if pre is None:
            merged = {k1 + k2: 0j + c1 * c2 for k1, c1 in t1.items()}
        else:
            merged = {k1 + k2: 0j + c1 * pre * c2 for k1, c1 in t1.items()}
    else:
        merged = {}
        for k1, c1 in t1.items():
            k1 -= bias
            for k2, c2 in t2.items():
                key = k1 + k2
                merged[key] = merged.get(key, 0j) + c1 * c2
    if reduce(or_, merged, 0) & guard:
        raise MalformedInputError(_OUT_OF_RANGE)
    return _drop_debris(merged)


class Signomial:
    """Canonical-form signomial over ``dim`` coordinates.

    ``terms`` maps exponent keys to complex coefficients; the empty map is
    zero.  A key is one int packing the ``dim`` exponents as biased 128-bit
    fields of integer counts of 10**-12 (see the module docstring); read
    exponents through :meth:`sorted_terms`.  Use
    :meth:`from_terms` (or the convenience constructors) — they normalize:
    like terms merge by exact exponent equality and dead-zone debris is
    dropped.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, _terms: dict | None = None):
        if dim < 1:
            raise MalformedInputError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self.terms = {} if _terms is None else _terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, raw: Iterable[tuple[complex, Sequence[float]]]) -> "Signomial":
        return cls(dim, _canonical(dim, raw))

    @classmethod
    def zero(cls, dim: int) -> "Signomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: complex) -> "Signomial":
        return cls.from_terms(dim, [(value, (0.0,) * dim)])

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "Signomial":
        if not 0 <= index < dim:
            raise MalformedInputError(f"coordinate index {index} out of range for dim {dim}")
        exps = [0.0] * dim
        exps[index] = 1.0
        return cls.from_terms(dim, [(1.0, exps)])

    @classmethod
    def monomial(cls, dim: int, coef: complex, exps: Sequence[float]) -> "Signomial":
        return cls.from_terms(dim, [(coef, exps)])

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "Signomial") -> None:
        if self.dim != other.dim:
            raise MalformedInputError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: "Signomial") -> "Signomial":
        self._require_same_dim(other)
        # operands are canonical, so keys need no validation;
        # 0j + c is _canonical's arithmetic (it turns an imaginary -0.0 into
        # 0.0), kept so that sums stay bit-identical
        merged = {k: 0j + c for k, c in self.terms.items()}
        for k, c in other.terms.items():
            merged[k] = merged.get(k, 0j) + c
        return Signomial(self.dim, _drop_debris(merged))

    def __sub__(self, other: "Signomial") -> "Signomial":
        return self + (-other)

    def __neg__(self) -> "Signomial":
        return Signomial(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Signomial):
            self._require_same_dim(other)
            return Signomial(self.dim, _times(self.terms, other.terms, self.dim))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: complex) -> "Signomial":
        c = complex(factor)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise MalformedInputError(f"non-finite scale factor {factor!r}")
        if c == 0:
            return Signomial.zero(self.dim)
        terms = {k: v * c for k, v in self.terms.items()}
        _finite_magnitudes(terms.values())
        return Signomial(self.dim, terms)

    # -- differentiation ---------------------------------------------------

    def partial(self, coord: int) -> "Signomial":
        """Classical partial derivative (the alpha = 1 backend)."""
        return self._lower(coord, GRID, None)

    def caputo(self, coord: int, ctx: "AlphaContext") -> "Signomial":
        """Left Caputo derivative of order ``ctx.alpha`` in ``coord``.

        Term-wise generalized power rule; other factors of each monomial
        pass through unchanged.  Delegates to :meth:`partial` at alpha = 1.
        """
        if ctx.classical:
            return self.partial(coord)
        alpha = ctx.alpha
        return self._lower(coord, ctx._step_count, lambda p: power_rule_factor(p, alpha))

    def _lower(self, coord: int, count: int, factor) -> "Signomial":
        """Each term times ``factor(p)``, p its exponent in ``coord``, with p
        lowered by ``count`` grid steps; terms with p = 0 or factor 0 drop.
        No ``factor`` means ``factor(p) = p``, the classical rule."""
        dim = self.dim
        step = _lowering(dim, coord, count)
        merged = {}
        for key, c in self.terms.items():
            k = _unpack(key, dim, coord)
            if k == 0:
                continue
            p = k / GRID
            try:
                fac = p if factor is None else factor(p)
            except FractionalDomainError as err:
                exps = _exponents(key, dim)
                raise FractionalDomainError(
                    f"coordinate {coord}, term with exponents {list(exps)}: {err}",
                    coordinate=coord,
                    exponents=exps,
                ) from None
            if fac == 0.0:
                continue
            # 0j + keeps _canonical's arithmetic, as in __add__
            merged[key - step] = 0j + c * fac
        if reduce(or_, merged, 0) & _layout(dim)[1]:
            raise MalformedInputError(_OUT_OF_RANGE)
        return Signomial(dim, _drop_debris(merged))

    # -- inversion and evaluation -------------------------------------------

    def reciprocal(self) -> "Signomial":
        """Exact inverse of a single-term signomial.

        Multi-term inputs are outside the invertible class and raise
        :class:`ExpressionClassError`.
        """
        if len(self.terms) != 1:
            raise ExpressionClassError(
                f"reciprocal needs exactly one term, got {len(self.terms)}"
            )
        (key, c), = self.terms.items()
        # negating every count maps bias + k to bias - k
        guard = _layout(self.dim)[1]
        key = guard - key
        if key & guard:
            raise MalformedInputError(_OUT_OF_RANGE)
        return Signomial(self.dim, _drop_debris({key: 0j + 1.0 / c}))

    def eval_at(self, point: Sequence[float]) -> complex:
        """Value at ``point``; :class:`EvaluationDomainError` if it is not finite."""
        if len(point) != self.dim:
            raise EvaluationDomainError(
                f"point has {len(point)} coordinates, expected {self.dim}"
            )
        for i, u in enumerate(point):
            if not (u > 0.0):
                raise EvaluationDomainError(
                    f"coordinate {i} = {u!r} is not strictly positive"
                )
        total = 0j
        try:
            for key, c in self.terms.items():
                prod = 1.0
                for i, u in enumerate(point):
                    k = _unpack(key, self.dim, i)
                    if k:
                        prod *= float(u) ** (k / GRID)
                total += c * prod
        except OverflowError:
            total = math.nan
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise EvaluationDomainError(f"value at {list(point)} is not finite")
        return total

    def sample_norm(self, points: Iterable[Sequence[float]]) -> float:
        """Largest |value| at ``points``; 0.0 for zero, which is not evaluated."""
        if not self.terms:
            return 0.0
        return max((abs(self.eval_at(p)) for p in points), default=0.0)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def sorted_terms(self) -> list[tuple[ExponentVector, complex]]:
        """``(float exponents, coefficient)`` pairs in exponent order."""
        items = sorted(self.terms.items(), key=lambda kv: kv[0])
        return [(_exponents(key, self.dim), c) for key, c in items]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "<signomial 0>"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"u{i}^{e:g}" for i, e in enumerate(exps) if e != 0.0
            )
            bits.append(f"({c:g})" + ("*" + mono if mono else ""))
        return "<signomial " + " + ".join(bits) + ">"


def coeff_distance(a: Signomial, b: Signomial) -> float:
    """Largest coefficient magnitude of a - b (0.0 when identical)."""
    return (a - b).max_abs_coeff()


class AlphaContext:
    """Differentiation context: order ``alpha`` in (0, 1] and base dimension.

    The derivative order is fixed at one single Caputo step (higher orders
    are composed single-order applications) and the base points of the
    defining integrals are pinned at 0, so only ``alpha`` and ``n`` (number
    of x coordinates; the y block has the same size) vary.  ``alpha = 1``
    selects the classical-derivative backend.  Immutable by use.
    """

    __slots__ = ("alpha", "n", "_step_count")

    def __init__(self, alpha: float, n: int):
        if not (0.0 < alpha <= 1.0):
            raise MalformedInputError(f"alpha must be in (0, 1], got {alpha}")
        if not (isinstance(n, int) and n >= 1):
            raise MalformedInputError(f"n must be a positive integer, got {n!r}")
        self.alpha = alpha
        self.n = n
        # alpha in grid steps, the exponent drop of one Caputo step
        self._step_count = _grid_count(alpha)

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def classical(self) -> bool:
        return self.alpha == 1.0

    def deriv(self, f: Signomial, coord: int) -> Signomial:
        """Coordinate derivative of order alpha; ``caputo`` hands alpha = 1 to ``partial``."""
        return f.caputo(coord, self)
