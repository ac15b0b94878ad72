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
factor.  Form factors multiply by wedge with sign tracking; there is no
artificial truncation here — the formal-parameter cut happens in the
flat-connection layer.
"""

from __future__ import annotations

from math import factorial

from .errors import MalformedInputError
from .expr import Signomial

# key: (v_power, z_degrees tuple, strictly increasing form tuple)
Key = tuple[int, tuple[int, ...], tuple[int, ...]]


def wedge_merge(a: tuple, b: tuple):
    """Merge two increasing index tuples; None if they collide.

    Returns (sign, merged) with the sign of the permutation sorting the
    concatenation a + b.
    """
    i = j = 0
    sign = 1
    out = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


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


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


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
    def unit(cls, dim: int) -> "WickElement":
        return cls.from_signomial(Signomial.constant(dim, 1.0))

    @classmethod
    def from_signomial(cls, s: Signomial) -> "WickElement":
        if s.is_zero:
            return cls.zero(s.dim)
        key = (0, (0,) * s.dim, ())
        return cls(s.dim, {key: s})

    @classmethod
    def z_var(cls, dim: int, index: int) -> "WickElement":
        z = [0] * dim
        z[index] = 1
        return cls.from_term(dim, 0, tuple(z), (), Signomial.constant(dim, 1.0))

    @classmethod
    def from_term(cls, dim, v_power, z_degrees, form_indices, coeff: Signomial) -> "WickElement":
        if coeff.is_zero:
            return cls.zero(dim)
        if v_power < 0:
            raise MalformedInputError(f"negative formal-parameter power {v_power}")
        if len(z_degrees) != dim or any(d < 0 for d in z_degrees):
            raise MalformedInputError(f"bad fiber degrees {z_degrees}")
        srt = sort_word(form_indices)
        if srt is None:
            return cls.zero(dim)
        sign, forms = srt
        key = (int(v_power), tuple(int(d) for d in z_degrees), forms)
        return cls(dim, {key: coeff.scale(sign) if sign < 0 else coeff})

    # -- linear structure ---------------------------------------------------

    def _merged(self, other: "WickElement", negate: bool) -> "WickElement":
        if self.dim != other.dim:
            raise MalformedInputError("dimension mismatch in Wick sum")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            cc = -c if negate else c
            if key in terms:
                s = terms[key] + cc
                if s.is_zero:
                    del terms[key]
                else:
                    terms[key] = s
            else:
                terms[key] = cc
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

    def mul_signomial(self, s: Signomial) -> "WickElement":
        if s.is_zero:
            return WickElement.zero(self.dim)
        out = {}
        for key, c in self.terms.items():
            p = c * s
            if not p.is_zero:
                out[key] = p
        return WickElement(self.dim, out)

    def mul_v(self, power: int) -> "WickElement":
        return WickElement(
            self.dim,
            {(v + power, z, a): c for (v, z, a), c in self.terms.items()},
        )

    def div_v(self, scale: float = 0.0) -> "WickElement":
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


def gradings(w: WickElement) -> dict:
    """Per-term (deg_v, deg_s, deg_a, Deg) bookkeeping."""
    return {
        key: (key[0], sum(key[1]), len(key[2]), 2 * key[0] + sum(key[1]))
        for key in w.terms
    }


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

    def _lam_power(self, a: int, b: int, k: int) -> Signomial:
        if k == 1:
            return self.lam[a][b]
        key = (a, b, k)
        if key not in self._pow_cache:
            self._pow_cache[key] = self._lam_power(a, b, k - 1) * self.lam[a][b]
        return self._pow_cache[key]

    def _patterns(self, row_budget, col_budget):
        """Yield (k per pair, r) contraction patterns within the budgets."""

        def rec(idx, rows, cols, ks, r):
            if idx == len(self.pairs):
                yield tuple(ks), r
                return
            a, b = self.pairs[idx]
            cap = min(rows[a], cols[b])
            for k in range(cap + 1):
                if k:
                    rows[a] -= k
                    cols[b] -= k
                ks.append(k)
                yield from rec(idx + 1, rows, cols, ks, r + k)
                ks.pop()
                if k:
                    rows[a] += k
                    cols[b] += k

        yield from rec(0, list(row_budget), list(col_budget), [], 0)

    def product(self, x: WickElement, y: WickElement) -> WickElement:
        out: dict = {}
        dim = self.dim
        for (v1, z1, a1), c1 in x.terms.items():
            s1 = sum(z1)
            for (v2, z2, a2), c2 in y.terms.items():
                merged = wedge_merge(a1, a2)
                if merged is None:
                    continue
                wsign, forms = merged
                base = c1 * c2
                if base.is_zero:
                    continue
                if s1 == 0 or sum(z2) == 0:
                    # no contraction possible beyond r = 0
                    key = (v1 + v2, tuple(p + q for p, q in zip(z1, z2)), forms)
                    _accum(out, key, base.scale(wsign) if wsign < 0 else base)
                    continue
                for ks, r in self._patterns(z1, z2):
                    rows = [0] * dim
                    cols = [0] * dim
                    denom = 1
                    for (pa, pb), k in zip(self.pairs, ks):
                        if k:
                            rows[pa] += k
                            cols[pb] += k
                            denom *= factorial(k)
                    scal = wsign
                    for i in range(dim):
                        if rows[i]:
                            scal *= _falling(z1[i], rows[i])
                        if cols[i]:
                            scal *= _falling(z2[i], cols[i])
                    if scal == 0:
                        continue
                    factor = complex(scal) / denom * (0.5j) ** r
                    coeff = base.scale(factor)
                    for (pa, pb), k in zip(self.pairs, ks):
                        if k:
                            coeff = coeff * self._lam_power(pa, pb, k)
                    if coeff.is_zero:
                        continue
                    zkey = tuple(
                        z1[i] - rows[i] + z2[i] - cols[i] for i in range(dim)
                    )
                    _accum(out, (v1 + v2 + r, zkey, forms), coeff)
        return WickElement(dim, {k: c for k, c in out.items() if not c.is_zero})

    def commutator(self, x: WickElement, y: WickElement) -> WickElement:
        """deg_a-graded commutator, extended bilinearly off homogeneity."""
        xe, xo = x.split_form_parity()
        ye, yo = y.split_form_parity()
        out = self.product(x, y)
        out = out - self.product(ye, xe) - self.product(ye, xo) - self.product(yo, xe)
        out = out + self.product(yo, xo)
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
