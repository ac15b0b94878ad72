"""Graded formal Wick algebra over the adapted frame.

Elements are finite sums of terms ``coeff(u) * v^k * z^Z * e^A`` keyed by
the formal-parameter power ``k``, the fiber multi-degree ``Z`` (one entry
per frame direction), and a strictly increasing tuple ``A`` of co-frame
labels; coefficients are :class:`~akstar.expr.Signomial` fields.  Gradings:
``deg_v = k``, ``deg_s = |Z|``, ``deg_a = len(A)``, and the total degree
``Deg = 2 deg_v + deg_s`` that drives every recursion downstream.

The fiberwise product twists multiplication by the tensor
``Lambda^{ab} = theta^{ab} - i g^{ab}``:

    a o b = sum_r (i v / 2)^r / r! *
            Lambda^{a1 b1} ... Lambda^{ar br} *
            (d_{z^a1} ... d_{z^ar} a) (d_{z^b1} ... d_{z^br} b),

a finite sum because fiber derivatives eventually annihilate either
factor.  Form factors multiply by wedge: ``sort_word`` sorts the
concatenated co-frame words with the permutation sign, and a repeated
index drops the term.

Elements are canonical in and canonical out.  The contract is checked
where data enters and trusted after that.  Raw terms enter only through
``WickElement.from_terms`` (``from_term`` is its one-term form), which
validates each key and that each coefficient is over ``dim`` coordinates,
sorts the co-frame word with its permutation sign (the one place the
linear operators of :mod:`akstar.fedosov` get their wedge sign) and merges
like keys.  ``WickAlgebra`` takes only a ``dim`` x ``dim`` Lambda whose
entries are zero or one term over ``dim`` coordinates, as every twist of
``build_geometry`` is (its Hessian is diagonal and single-monomial), and
``product`` and ``commutator`` check once per call that both operands
have the algebra's ``dim``.  Past those checks, ``+``, ``-``, ``scale`` and
the product trust canonical operands and build canonical results; the
bare constructor is for those internal results only.

The combinatorics of a term pair depend only on its fiber degrees, so
``WickAlgebra`` keeps one contraction table entry per (z1, z2), filled on
first use: per pattern r, the output fiber degrees, the integer weight
(falling factorials), prod k!, the Lambda powers and the parity of the
number of off-diagonal (a != b) contractions.  Its recursion visits only
the pairs (a, b) with z1[a] > 0 and z2[b] > 0; every other pair can only
contract zero times.  A pattern's contribution is one
:func:`~akstar.expr._times` kernel call per Lambda power on the bare term
maps: the first call scales the pair's coefficient product by the pattern
scalar ``wsign * weight / denom * (i/2)^r`` before it multiplies, and each
later call multiplies by the next power, a single term by the contract.
That is the arithmetic of scaling and then multiplying fresh ``Signomial``
operands, in the same order, so each contribution has the bits a fresh
enumeration gives it.  A product has one overflow rule, the one of
``Signomial`` ``+``, ``*`` and ``scale``: it raises only when a
coefficient it computes, or that coefficient's magnitude, is not finite,
so a scaled intermediate that overflows but whose final contribution is
finite is kept.

One accumulation rule serves ``product``, ``commutator``, ``+`` and ``-``:
``_add_raw`` sums the contributions to an output key raw, with
``Signomial.__add__``'s arithmetic in order, and ``_finish`` applies the
dead zone once per key, so a key with one contribution holds that operand
unchanged and a key whose sum comes out empty is dropped.  ``commutator``
is the Fedosov bracket (i/v)[x, y]: one pass of the pair loop over x o y
that keeps the odd patterns, each doubled, times i, one v lower.  With g
diagonal and theta antisymmetric, Lambda^{ba} = -Lambda^{ab} for a != b
(``WickAlgebra`` refuses any other Lambda), so the graded y o x repeats
each pattern of x o y times (-1)^(its number of off-diagonal
contractions).  Even patterns, the r = 0 ones among them, cancel, odd ones
double: the Wick form of "the Moyal bracket is the odd part of the Moyal
product" (Fedosov 1994).  An odd pattern contracts, so no v power goes
negative, and i only swaps a scalar's parts: each coefficient has the bits
of i[x, y], signed zeros aside.  ``from_terms`` is the exception to the one
accumulation rule: it keeps a dead zone after every add, because summing
its terms raw keeps cancellation debris the running zone drops (the Deg 7
r-term count of x^2 y^3 moves 26 -> 28).

Deg is additive under this product: a contraction trades two units of
deg_s for one power of v, so every output of a term pair has the Deg sum
of the pair (of (i/v)[x, y], two less).  ``product`` and ``commutator``
therefore accept a cap on their result's Deg that skips a pair before its
contractions are looked up, and ``product`` a sigma-projection that keeps
only the deg_s = deg_a = 0 part.  Both return exactly the uncapped result
restricted to the kept keys: each kept key receives the same
contributions in the same order, and its dead zone looks at no other key.
"""

from __future__ import annotations

from math import factorial, inf
from operator import add, index

from .errors import ExpressionClassError, MalformedInputError
from .expr import Signomial, _drop_debris, _times

# key: (v_power, z_degrees tuple, strictly increasing form tuple)
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


def sort_word(word):
    """Sign and sorted tuple of an index word; None if any index repeats."""
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
        # the prefix is sorted, so a repeated index always stops next to its twin
        if j > 0 and w[j - 1] == w[j]:
            return None
    return sign, tuple(w)


class WickElement:
    """Finite formal sum with signomial coefficients; immutable by use."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, _terms: dict | None = None):
        self.dim = dim
        self.terms = {} if _terms is None else _terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "WickElement":
        return cls(dim, {})

    @classmethod
    def from_signomial(cls, s: Signomial) -> "WickElement":
        if s.is_zero:
            return cls.zero(s.dim)
        key = (0, (0,) * s.dim, ())
        return cls(s.dim, {key: s})

    @classmethod
    def from_terms(cls, dim, raw) -> "WickElement":
        """Canonical element from raw ``(v, z, word, coeff)`` terms.

        Each term is validated (an integer v >= 0, ``dim`` non-negative
        integer fiber degrees, integer co-frame labels in ``range(dim)``, a
        coefficient over ``dim`` coordinates), its co-frame word sorted
        with the permutation sign (a repeated index drops the term), and like
        keys merge in order through ``Signomial.__add__``, with a dead zone
        after every add (the module docstring says why).
        """
        terms: dict = {}
        for v_power, z_degrees, word, coeff in raw:
            if coeff.dim != dim:
                raise MalformedInputError(f"coefficient over {coeff.dim} coordinates, not {dim}")
            try:
                v_power, z_degrees = index(v_power), tuple(map(index, z_degrees))
                srt = sort_word(map(index, word))
            except TypeError:
                raise MalformedInputError(
                    f"non-integer degree or label in v^{v_power} z{z_degrees} e{tuple(word)}"
                ) from None
            if v_power < 0:
                raise MalformedInputError(f"negative formal-parameter power {v_power}")
            if len(z_degrees) != dim or min(z_degrees, default=0) < 0:
                raise MalformedInputError(f"bad fiber degrees {z_degrees}")
            if srt is None or coeff.is_zero:
                continue
            sign, forms = srt
            if forms and (forms[0] < 0 or forms[-1] >= dim):
                raise MalformedInputError(f"co-frame word {tuple(word)} outside range({dim})")
            key = (v_power, z_degrees, forms)
            c = coeff.scale(sign) if sign < 0 else coeff
            c = terms[key] + c if key in terms else c
            if c.is_zero:
                del terms[key]
            else:
                terms[key] = c
        return cls(dim, terms)

    @classmethod
    def from_term(cls, dim, v_power, z_degrees, form_indices, coeff: Signomial) -> "WickElement":
        return cls.from_terms(dim, [(v_power, z_degrees, form_indices, coeff)])

    # -- linear structure ---------------------------------------------------

    def _merged(self, other: "WickElement", negate: bool) -> "WickElement":
        if self.dim != other.dim:
            raise MalformedInputError("dimension mismatch in Wick sum")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _add_raw(terms, key, -c if negate else c)
        return WickElement(self.dim, _finish(terms, self.dim))

    def __add__(self, other):
        return self._merged(other, False)

    def __sub__(self, other):
        return self._merged(other, True)

    def __neg__(self):
        return WickElement(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, factor: complex) -> "WickElement":
        if factor == 0:
            return WickElement.zero(self.dim)
        return WickElement(self.dim, {k: c.scale(factor) for k, c in self.terms.items()})

    # -- gradings -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degrees(self) -> set:
        return {2 * v + sum(z) for (v, z, a) in self.terms}

    def component(self, deg: int) -> "WickElement":
        return WickElement(
            self.dim,
            {k: c for k, c in self.terms.items() if 2 * k[0] + sum(k[1]) == deg},
        )

    def truncate(self, max_deg: int) -> "WickElement":
        return WickElement(
            self.dim,
            {k: c for k, c in self.terms.items() if 2 * k[0] + sum(k[1]) <= max_deg},
        )

    def split_form_parity(self):
        even = {k: c for k, c in self.terms.items() if len(k[2]) % 2 == 0}
        odd = {k: c for k, c in self.terms.items() if len(k[2]) % 2 == 1}
        return WickElement(self.dim, even), WickElement(self.dim, odd)

    def coeff_norm(self) -> float:
        return max((c.max_abs_coeff() for c in self.terms.values()), default=0.0)

    def sample_norm(self, points) -> float:
        return max((c.sample_norm(points) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        bits = []
        for (v, z, a), c in sorted(self.terms.items()):
            bits.append(f"v^{v} z{list(z)} e{list(a)} * {c!r}")
        return "<wick " + (" + ".join(bits) if bits else "0") + ">"


class WickAlgebra:
    """Product structure bound to one twist tensor Lambda^{ab}."""

    def __init__(self, lam):
        self.dim = dim = len(lam)
        for row in lam:
            if len(row) != dim or any(entry.dim != dim for entry in row):
                raise MalformedInputError(f"the twist must be {dim} x {dim} over {dim} coordinates")
            if any(len(entry.terms) > 1 for entry in row):
                raise ExpressionClassError("twist entry with more than one term")
        for a in range(dim):
            for b in range(a):
                if lam[b][a] != -lam[a][b]:
                    raise ExpressionClassError(
                        f"twist entries ({a},{b}) and ({b},{a}) are not opposite: the "
                        "commutator needs an antisymmetric off-diagonal Lambda"
                    )
        self.lam = lam
        self.pairs = [
            (a, b)
            for a in range(self.dim)
            for b in range(self.dim)
            if not lam[a][b].is_zero
        ]
        self._table: dict = {}
        # one copy of each output fiber-degree tuple and each tuple of
        # Lambda powers, shared by all table entries
        self._shared: dict = {}

    def _lam_power(self, a: int, b: int, k: int) -> Signomial:
        power = lam = self.lam[a][b]
        for _ in range(k - 1):
            power = power * lam
        return power

    def _contractions(self, z1, z2) -> tuple:
        """Table entry ``(patterns, any_odd)`` for fiber degrees (z1, z2),
        built on first use: one ``(r, z_out, weight, denom, lam_powers, odd)``
        tuple per pattern of k contractions per pair, patterns in depth-first
        order over ``pairs``; ``odd`` is the parity of the number of
        off-diagonal (a != b) contractions, and ``any_odd`` says whether
        some pattern is odd."""
        entries = self._table.get((z1, z2))
        if entries is not None:
            return entries
        entries = []
        shared = self._shared
        # a pair whose row or column has no fiber degree only takes k = 0
        pairs = [(a, b) for a, b in self.pairs if z1[a] and z2[b]]

        def rec(idx, rows, cols, r, weight, denom, powers, odd):
            # rows and cols hold the fiber degrees not yet contracted, weight
            # the falling factorials so far; powers lists the (a, b, k) with
            # k > 0 so far
            if idx == len(pairs):
                z_out = tuple(map(add, rows, cols))
                if powers not in shared:
                    shared[powers] = tuple(self._lam_power(*p) for p in powers)
                entries.append(
                    (r, shared.setdefault(z_out, z_out), weight, denom, shared[powers], odd)
                )
                return
            a, b = pairs[idx]
            row, col = rows[a], cols[b]
            falling = 1
            for k in range(min(row, col) + 1):
                if k:
                    # row!/(row-k)! * col!/(col-k)!, one factor pair at a time
                    falling *= (row - k + 1) * (col - k + 1)
                rows[a] = row - k
                cols[b] = col - k
                more = ((a, b, k),) if k else ()
                rec(idx + 1, rows, cols, r + k, weight * falling, denom * factorial(k),
                    powers + more, odd ^ (a != b and k % 2 == 1))
            rows[a], cols[b] = row, col

        rec(0, list(z1), list(z2), 0, 1, 1, (), False)
        entries = self._table[(z1, z2)] = (tuple(entries), any(e[5] for e in entries))
        return entries

    def _add_pairs(self, out: dict, x, y, max_deg, sigma_only=False, odd_only=False):
        """``_add_raw`` each contribution of Deg <= ``max_deg`` into ``out``.
        The sigma-projection keeps the 0-form pairs with equal deg_s and, of
        those, the fully contracting patterns.  ``odd_only`` makes
        (i/v)[x, y] (see ``commutator``) from the patterns with an odd number
        of off-diagonal contractions, each doubled, times i, one v lower, and
        skips a pair whose table entry has no odd pattern before it
        multiplies the pair's coefficients."""
        dim = self.dim
        if x.dim != dim or y.dim != dim:
            raise MalformedInputError(f"operands of {x.dim}, {y.dim} directions, algebra of {dim}")
        cap = inf if max_deg is None else max_deg
        xs, ys = x.terms.items(), y.terms.items()
        if sigma_only:
            xs = [t for t in xs if not t[0][2]]
            ys = [t for t in ys if not t[0][2]]
        if odd_only:
            # an odd pattern contracts at least once, so both factors carry z
            xs = [t for t in xs if any(t[0][1])]
            ys = [t for t in ys if any(t[0][1])]
        ys = [(key, c, 2 * key[0] + sum(key[1]), sum(key[1])) for key, c in ys]
        for (v1, z1, a1), c1 in xs:
            s1 = sum(z1)
            # the bracket emits one power of v below v1 + v2 + r
            room = cap - 2 * (v1 - odd_only) - s1
            for (v2, z2, a2), c2, deg2, s2 in ys:
                if deg2 > room or (sigma_only and s2 != s1):
                    continue
                merged = sort_word(a1 + a2)
                if merged is None:
                    continue
                wsign, forms = merged
                contracts = s1 > 0 and s2 > 0
                if contracts:
                    patterns, any_odd = self._contractions(z1, z2)
                if odd_only:
                    # both factors carry z here; a pair with no odd pattern adds nothing
                    if not any_odd:
                        continue
                    wsign *= 2
                base = c1 * c2
                if base.is_zero:
                    continue
                if not contracts:
                    # no contraction possible beyond r = 0
                    key = (v1 + v2, tuple(p + q for p, q in zip(z1, z2)), forms)
                    _add_raw(out, key, base.scale(wsign) if wsign < 0 else base)
                    continue
                for r, z_out, weight, denom, lams, odd in patterns:
                    if (sigma_only and r != s1) or (odd_only and not odd):
                        continue
                    f = complex(wsign * weight) / denom * (0.5j) ** r
                    if odd_only:
                        f *= 1j
                    if lams:
                        # one overflow rule: f * c may overflow on the way,
                        # and only a non-finite contribution raises, in _times
                        terms = _times(base.terms, lams[0].terms, dim, f)
                        for power in lams[1:]:
                            terms = _times(terms, power.terms, dim)
                        coeff = Signomial(dim, terms)
                    else:
                        coeff = base.scale(f)
                    if not coeff.is_zero:
                        _add_raw(out, (v1 + v2 + r - odd_only, z_out, forms), coeff)

    def product(
        self, x: WickElement, y: WickElement, *, max_deg=None, sigma_only=False
    ) -> WickElement:
        """x o y; with ``max_deg`` only its terms of Deg <= max_deg, with
        ``sigma_only`` only its deg_s = deg_a = 0 terms."""
        out: dict = {}
        self._add_pairs(out, x, y, max_deg, sigma_only)
        return WickElement(self.dim, _finish(out, self.dim))

    def commutator(self, x: WickElement, y: WickElement, *, max_deg=None) -> WickElement:
        """(i/v)[x, y] for the deg_a-graded [x, y] = x o y - sum_{p,q} (-1)^{pq}
        y_p o x_q, p, q the form-degree parities; with ``max_deg`` only its
        terms of Deg <= max_deg.

        One pass over x o y that forms only its odd patterns, doubled, times
        i, one v lower: with Lambda^{ba} = -Lambda^{ab} off the diagonal
        (checked in ``__init__``) the even ones, every r = 0 pattern among
        them, cancel against the graded y o x, and an odd one contracts at
        least once, so no result has a negative power of v."""
        out: dict = {}
        self._add_pairs(out, x, y, max_deg, odd_only=True)
        return WickElement(self.dim, _finish(out, self.dim))


def _add_raw(store: dict, key, coeff: Signomial):
    """Add ``coeff`` to ``store[key]`` without a dead zone.

    The first contribution is stored as given; a second turns the entry
    into a raw ``{exponent key: complex}`` dict, built with ``Signomial.__add__``'s
    arithmetic in its order (``0j + c``, then ``d.get(k, 0j) + c``).
    """
    prev = store.get(key)
    if prev is None:
        store[key] = coeff
        return
    if type(prev) is not dict:
        prev = store[key] = {k: 0j + c for k, c in prev.terms.items()}
    for k, c in coeff.terms.items():
        prev[k] = prev.get(k, 0j) + c


def _finish(out: dict, dim: int) -> dict:
    """Dead-zone each raw entry of an ``_add_raw`` store once, dropping the
    entries it empties; returns ``out``."""
    for key, c in list(out.items()):
        if type(c) is dict:
            c = _drop_debris(c)
            if c:
                out[key] = Signomial(dim, c)
            else:
                del out[key]
    return out
