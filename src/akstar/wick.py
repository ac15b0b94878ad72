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

Elements are canonical in and canonical out.  Raw terms enter only
through ``WickElement.from_terms`` (``from_term`` is its one-term form),
which validates each key, sorts the co-frame word with its permutation
sign and merges like keys; ``+``, ``-``, ``scale`` and the product trust
canonical operands and build canonical results without re-checking them.
The bare constructor is for those internal results only.

The combinatorics of a term pair depend only on its fiber degrees, so
``WickAlgebra`` keeps one contraction table entry per (z1, z2), filled on
first use: per pattern r, the output fiber degrees, the integer weight
(falling factorials), prod k! and the Lambda powers.  ``product`` applies
``wsign * weight / denom * (i/2)^r`` and the Lambda powers one at a time,
the arithmetic of a fresh enumeration in its order, so bits are unchanged.

Deg is additive under this product: a contraction trades two units of
deg_s for one power of v, so every output of a term pair has the Deg sum
of the pair.  ``product`` and ``commutator`` therefore accept a degree cap
that skips a pair before its contractions are looked up, and ``product``
a sigma-projection that keeps only the deg_s = deg_a = 0 part.  Both
return exactly the uncapped result restricted to the kept keys: each kept
key receives the same additions in the same order.
"""

from __future__ import annotations

from math import factorial, inf
from operator import add

from .errors import MalformedInputError
from .expr import Signomial

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

        Each term is validated (v >= 0, ``dim`` non-negative fiber degrees),
        its co-frame word sorted with the permutation sign (a repeated index
        drops the term), and like keys merge in order through ``_accum``.
        """
        terms: dict = {}
        for v_power, z_degrees, word, coeff in raw:
            if coeff.is_zero:
                continue
            if v_power < 0:
                raise MalformedInputError(f"negative formal-parameter power {v_power}")
            if len(z_degrees) != dim or any(d < 0 for d in z_degrees):
                raise MalformedInputError(f"bad fiber degrees {z_degrees}")
            srt = sort_word(word)
            if srt is None:
                continue
            sign, forms = srt
            key = (int(v_power), tuple(int(d) for d in z_degrees), forms)
            _accum(terms, key, coeff.scale(sign) if sign < 0 else coeff)
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
            _accum(terms, key, -c if negate else c)
        return WickElement(self.dim, terms)

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

    def div_v(self, scale: float) -> "WickElement":
        """Divide by the formal parameter.

        Terms without a v factor must have cancelled (they do, identically,
        in every commutator/squaring expression this engine divides); what
        float accumulation order leaves behind at v^0 is dead-zone debris
        relative to ``scale`` (callers pass the product of the input norms)
        and is dropped, while anything of genuine size signals an internal
        inconsistency and raises.
        """
        norm = self.coeff_norm()
        floor = 1e-12 * max(norm, scale, 1e-300)
        out = {}
        for (v, z, a), c in self.terms.items():
            if v == 0:
                if c.max_abs_coeff() <= floor:
                    continue
                raise MalformedInputError(
                    "division by the formal parameter hit a v^0 term of "
                    f"magnitude {c.max_abs_coeff():.3e} (element norm {norm:.3e})"
                )
            out[(v - 1, z, a)] = c
        return WickElement(self.dim, out)

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
        worst = 0.0
        for c in self.terms.values():
            for p in points:
                worst = max(worst, abs(c.eval_at(p)))
        return worst

    def __repr__(self):
        bits = []
        for (v, z, a), c in sorted(self.terms.items()):
            bits.append(f"v^{v} z{list(z)} e{list(a)} * {c!r}")
        return "<wick " + (" + ".join(bits) if bits else "0") + ">"


class WickAlgebra:
    """Product structure bound to one twist tensor Lambda^{ab}."""

    def __init__(self, lam):
        self.dim = len(lam)
        self.lam = lam
        self.pairs = [
            (a, b)
            for a in range(self.dim)
            for b in range(self.dim)
            if not lam[a][b].is_zero
        ]
        self._pow_cache: dict = {}
        self._table: dict = {}
        # one copy of each output fiber-degree tuple and each tuple of
        # Lambda powers, shared by all table entries
        self._shared: dict = {}

    def _lam_power(self, a: int, b: int, k: int) -> Signomial:
        if k == 1:
            return self.lam[a][b]
        key = (a, b, k)
        if key not in self._pow_cache:
            self._pow_cache[key] = self._lam_power(a, b, k - 1) * self.lam[a][b]
        return self._pow_cache[key]

    def _contractions(self, z1, z2) -> tuple:
        """Table entry for fiber degrees (z1, z2), built on first use: one
        ``(r, z_out, weight, denom, lam_powers)`` tuple per pattern of k
        contractions per pair, patterns in depth-first order over ``pairs``."""
        entries = self._table.get((z1, z2))
        if entries is not None:
            return entries
        entries = []
        shared = self._shared

        def rec(idx, rows, cols, r, denom, powers):
            # rows and cols hold the fiber degrees not yet contracted;
            # powers lists the (a, b, k) with k > 0 so far
            if idx == len(self.pairs):
                weight = 1
                for full, left in zip(z1 + z2, rows + cols):
                    weight *= factorial(full) // factorial(left)
                z_out = tuple(map(add, rows, cols))
                if powers not in shared:
                    shared[powers] = tuple(self._lam_power(*p) for p in powers)
                entries.append((r, shared.setdefault(z_out, z_out), weight, denom, shared[powers]))
                return
            a, b = self.pairs[idx]
            for k in range(min(rows[a], cols[b]) + 1):
                rows[a] -= k
                cols[b] -= k
                more = ((a, b, k),) if k else ()
                rec(idx + 1, rows, cols, r + k, denom * factorial(k), powers + more)
                rows[a] += k
                cols[b] += k

        rec(0, list(z1), list(z2), 0, 1, ())
        entries = self._table[(z1, z2)] = tuple(entries)
        return entries

    def product(
        self, x: WickElement, y: WickElement, *, max_deg=None, sigma_only=False
    ) -> WickElement:
        """x o y; with ``max_deg`` only its terms of Deg <= max_deg, with
        ``sigma_only`` only its deg_s = deg_a = 0 terms.

        A pair whose Deg sum exceeds ``max_deg`` is skipped whole.  The
        sigma-projection keeps the 0-form pairs with equal deg_s and, of
        those, the fully contracting patterns.
        """
        out: dict = {}
        cap = inf if max_deg is None else max_deg
        xs, ys = x.terms.items(), y.terms.items()
        if sigma_only:
            xs = [t for t in xs if not t[0][2]]
            ys = [t for t in ys if not t[0][2]]
        ys = [(key, c, 2 * key[0] + sum(key[1]), sum(key[1])) for key, c in ys]
        for (v1, z1, a1), c1 in xs:
            s1 = sum(z1)
            room = cap - 2 * v1 - s1
            for (v2, z2, a2), c2, deg2, s2 in ys:
                if deg2 > room or (sigma_only and s2 != s1):
                    continue
                merged = sort_word(a1 + a2)
                if merged is None:
                    continue
                wsign, forms = merged
                base = c1 * c2
                if base.is_zero:
                    continue
                if s1 == 0 or s2 == 0:
                    # no contraction possible beyond r = 0
                    key = (v1 + v2, tuple(p + q for p, q in zip(z1, z2)), forms)
                    _accum(out, key, base.scale(wsign) if wsign < 0 else base)
                    continue
                for r, z_out, weight, denom, lams in self._contractions(z1, z2):
                    if sigma_only and r != s1:
                        continue
                    coeff = base.scale(complex(wsign * weight) / denom * (0.5j) ** r)
                    for lam in lams:
                        coeff = coeff * lam
                    if coeff.is_zero:
                        continue
                    _accum(out, (v1 + v2 + r, z_out, forms), coeff)
        return WickElement(self.dim, out)

    def commutator(self, x: WickElement, y: WickElement, *, max_deg=None) -> WickElement:
        """deg_a-graded commutator, extended bilinearly off homogeneity;
        with ``max_deg`` only its terms of Deg <= max_deg."""
        xe, xo = x.split_form_parity()
        ye, yo = y.split_form_parity()

        def prod(a, b):
            return self.product(a, b, max_deg=max_deg)

        out = prod(x, y)
        out = out - prod(ye, xe) - prod(ye, xo) - prod(yo, xe)
        out = out + prod(yo, xo)
        return out


def _accum(store: dict, key, coeff: Signomial):
    if key in store:
        s = store[key] + coeff
        if s.is_zero:
            del store[key]
        else:
            store[key] = s
    else:
        store[key] = coeff
