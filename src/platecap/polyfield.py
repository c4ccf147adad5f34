"""Exact polynomial fields in (y1, y2, zeta) and small exact linear algebra.

Carrier for the through-thickness residual calculus: every operation
(differentiation, matrix application, definite integration in zeta) is exact,
so algebraic cancellations can be asserted to zero rather than to a tolerance.

Coefficients live in Q(sqrt2), rationals extended by sqrt(2), because the
strain-column convention carries 2^{-1/2} factors on the shear rows.  The
extension is closed under +,-,*,/ so all operator compositions stay exact.

A coefficient is stored as an integer triple (p + q*sqrt2)/d in canonical
form: d > 0 and gcd(p, q, d) = 1, so equal values have equal triples.  The
polynomial kernels (products, sums, linear combinations, substitution)
accumulate unnormalised triples per output monomial and normalise each
output coefficient once, with one gcd, instead of once per partial sum.
They keep the term order of the term-by-term composition: a monomial whose
partial sum cancels leaves the dict and re-enters at the end.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterable, Mapping, Sequence

Q = Fraction
_SQRT2_FLOAT = 1.4142135623730951


def _q2(p: int, q: int, d: int) -> "Q2":
    """Q2 from a triple already in canonical form."""
    x = object.__new__(Q2)
    x.p = p
    x.q = q
    x.d = d
    return x


def _canon(p: int, q: int, d: int) -> "Q2":
    """Q2 from any triple with d > 0: one gcd normalisation."""
    g = gcd(p, q, d)
    if g != 1:
        return _q2(p // g, q // g, d // g)
    return _q2(p, q, d)


class Q2:
    """Element (p + q*sqrt2)/d of the field Q(sqrt2), with exact arithmetic.

    The integer triple is canonical (d > 0, gcd(p, q, d) = 1), so == is
    triple equality and bool is p or q.  a and b give the rational and
    sqrt2 parts as Fractions; Q2(a, b) accepts int, Fraction and float
    parts.  Every result costs one gcd normalisation.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            self.p, self.q, self.d = a, b, 1
            return
        a = a if isinstance(a, Fraction) else Q(a)
        b = b if isinstance(b, Fraction) else Q(b)
        ad, bd = a.denominator, b.denominator
        p, q, d = a.numerator * bd, b.numerator * ad, ad * bd
        g = gcd(p, q, d)
        self.p, self.q, self.d = p // g, q // g, d // g

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Q(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt2."""
        return Q(self.q, self.d)

    @staticmethod
    def of(x) -> "Q2":
        o = Q2._co(x)
        return Q2(x) if o is None else o

    @staticmethod
    def _co(x):
        """Coerce or decline (so Poly and friends get their reflected ops)."""
        if isinstance(x, Q2):
            return x
        if isinstance(x, int):
            return _q2(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _q2(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        o = other if type(other) is Q2 else Q2._co(other)
        if o is None:
            return NotImplemented
        d, od = self.d, o.d
        if d == od:
            if d == 1:
                return _q2(self.p + o.p, self.q + o.q, 1)
            return _canon(self.p + o.p, self.q + o.q, d)
        return _canon(self.p * od + o.p * d, self.q * od + o.q * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Q2 else Q2._co(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _q2(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = other if type(other) is Q2 else Q2._co(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        return _canon(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Q2 else Q2._co(other)
        if o is None:
            return NotImplemented
        # multiply by the conjugate; p^2 - 2 q^2 = 0 only for p = q = 0
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        n = p2 * p2 - 2 * q2 * q2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if n < 0:
            n, p2, q2 = -n, -p2, -q2
        d2 = o.d
        return _canon((p1 * p2 - 2 * q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2,
                      self.d * n)

    def __rtruediv__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        n = index(n)
        base = self
        if n < 0:
            base = _ONE / base      # raises ZeroDivisionError for zero
            n = -n
        if not base.q:              # rational: coprime powers stay canonical
            return _q2(base.p ** n, 0, base.d ** n)
        out = _ONE
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        o = other if type(other) is Q2 else Q2._co(other)
        if o is None:
            return NotImplemented
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        # a rational element hashes as the Fraction (or int) it equals
        if not self.q:
            return hash(Q(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __float__(self):
        # p/d is the correctly rounded quotient, the same float as float(a)
        d = self.d
        return self.p / d + (self.q / d) * _SQRT2_FLOAT

    def is_rational(self) -> bool:
        return not self.q

    def __repr__(self):
        a, b = self.a, self.b
        if not b:
            return f"{a}"
        if not a:
            return f"{b}*sqrt2"
        return f"({a}+{b}*sqrt2)"


_ZERO = _q2(0, 0, 1)
_ONE = _q2(1, 0, 1)
SQRT2 = Q2(0, 1)
INV_SQRT2 = Q2(0, Q(1, 2))  # 1/sqrt2 = sqrt2/2


# unnormalised accumulation -------------------------------------------------
#
# An accumulator maps exponent triples to integer triples (P, Q, D), D > 0,
# that are not reduced.  A partial sum with P = Q = 0 is exactly zero, so the
# monomial is dropped the moment it cancels, as the term-by-term sums do;
# _finish reduces each surviving coefficient once.

def _acc(acc: dict, k: tuple, p: int, q: int, d: int) -> None:
    t = acc.get(k)
    if t is None:
        if p or q:
            acc[k] = (p, q, d)
        return
    P, Qs, D = t
    if D == d:
        P += p
        Qs += q
    else:
        P = P * d + p * D
        Qs = Qs * d + q * D
        D *= d
    if P or Qs:
        acc[k] = (P, Qs, D)
    else:
        del acc[k]


def _merge(acc: dict, items) -> None:
    """Add (monomial, triple) pairs into acc."""
    for k, (p, q, d) in items:
        _acc(acc, k, p, q, d)


def _product(st: dict, ot: dict) -> dict:
    """Unnormalised Poly x Poly terms, in the order of the double loop."""
    acc: dict = {}
    other = [(k, v.p, v.q, v.d) for k, v in ot.items()]
    for (a1, b1, c1), x in st.items():
        p1, q1, d1 = x.p, x.q, x.d
        for (a2, b2, c2), p2, q2, d2 in other:
            _acc(acc, (a1 + a2, b1 + b2, c1 + c2), p1 * p2 + 2 * q1 * q2,
                 p1 * q2 + q1 * p2, d1 * d2)
    return acc


def _scaled(terms: dict, c: Q2):
    """Unnormalised c * terms; c is nonzero, so no product cancels."""
    cp, cq, cd = c.p, c.q, c.d
    return ((k, (v.p * cp + 2 * v.q * cq, v.p * cq + v.q * cp, v.d * cd))
            for k, v in terms.items())


def _finish(acc: dict) -> "Poly":
    return _poly({k: _canon(p, q, d) for k, (p, q, d) in acc.items()})


def _poly(terms: dict) -> "Poly":
    p = object.__new__(Poly)
    p.terms = terms
    return p


class Poly:
    """Polynomial in (y1, y2, zeta) with Q(sqrt2) coefficients.

    terms maps exponent triples (a, b, c) for y1^a y2^b zeta^c to nonzero
    coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        self.terms: dict[tuple, Q2] = {}
        if terms:
            for k, v in terms.items():
                v = Q2.of(v)
                if v:
                    self.terms[tuple(k)] = v

    # constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0, 0): c})

    @staticmethod
    def monomial(a: int, b: int, c: int, coeff=1) -> "Poly":
        return Poly({(a, b, c): coeff})

    @staticmethod
    def var(axis: int) -> "Poly":
        e = [0, 0, 0]
        e[axis] = 1
        return Poly({tuple(e): 1})

    # arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        out = dict(self.terms)
        for k, v in o.terms.items():
            w = out.get(k)
            if w is None:
                out[k] = v
                continue
            s = w + v
            if s:
                out[k] = s
            else:
                del out[k]
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-o)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __neg__(self):
        return _poly({k: _q2(-v.p, -v.q, v.d) for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _finish(_product(self.terms, other.terms))
        c = Q2.of(other)
        if not c:
            return Poly()
        return _finish(dict(_scaled(self.terms, c)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (_ONE / Q2.of(other))

    def __eq__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # calculus ---------------------------------------------------------
    def diff(self, axis: int) -> "Poly":
        # lowering one exponent is injective, so no two terms meet
        out: dict[tuple, Q2] = {}
        for k, v in self.terms.items():
            e = k[axis]
            if e == 0:
                continue
            kk = list(k)
            kk[axis] = e - 1
            out[tuple(kk)] = v if e == 1 else _canon(v.p * e, v.q * e, v.d)
        return _poly(out)

    def antiderivative_zeta(self) -> "Poly":
        return _poly({(a, b, c + 1): _canon(v.p, v.q, v.d * (c + 1))
                      for (a, b, c), v in self.terms.items()})

    def integrate_zeta(self) -> "Poly":
        """Integral over the thickness -1/2 < zeta < 1/2; result has
        zeta-degree 0."""
        F = self.antiderivative_zeta()
        return F.subs_zeta(Q(1, 2)) - F.subs_zeta(Q(-1, 2))

    def subs_zeta(self, value) -> "Poly":
        """Substitute a rational number for zeta."""
        val = Q2.of(value)
        powers = [_ONE]
        acc: dict = {}
        for (a, b, c), v in self.terms.items():
            while len(powers) <= c:
                powers.append(powers[-1] * val)
            f = powers[c]
            _acc(acc, (a, b, 0), v.p * f.p + 2 * v.q * f.q,
                 v.p * f.q + v.q * f.p, v.d * f.d)
        return _finish(acc)

    def scale_zeta(self, factor) -> "Poly":
        """Substitute zeta -> factor * zeta (exact change of thickness variable)."""
        f = Q2.of(factor)
        out = {}
        for (a, b, c), v in self.terms.items():
            coeff = v * (f ** c)
            if coeff:
                out[(a, b, c)] = coeff
        return _poly(out)

    def eval(self, y1=0, y2=0, zeta=0):
        """Exact evaluation when inputs are rational/Q2; float inputs give float."""
        if any(isinstance(t, float) for t in (y1, y2, zeta)):
            tot = 0.0
            for (a, b, c), v in self.terms.items():
                tot += float(v) * float(y1) ** a * float(y2) ** b * float(zeta) ** c
            return tot
        y1, y2, zeta = Q2.of(y1), Q2.of(y2), Q2.of(zeta)
        tot = _ZERO
        for (a, b, c), v in self.terms.items():
            tot = tot + v * (y1 ** a) * (y2 ** b) * (zeta ** c)
        return tot

    def zeta_degree(self) -> int:
        return max((k[2] for k in self.terms), default=-1)

    def coeff(self, a: int, b: int, c: int) -> Q2:
        return self.terms.get((a, b, c), _ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            a, b, c = k
            mono = "*".join(x for x in [f"y1^{a}" if a else None,
                                        f"y2^{b}" if b else None,
                                        f"zeta^{c}" if c else None] if x)
            coef = repr(self.terms[k])
            bits.append(f"{coef}*{mono}" if mono else coef)
        return " + ".join(bits)


def lincomb(pairs: Iterable) -> Poly:
    """sum(x * y for x, y in pairs) where x or y (or both) is a Poly and the
    other factor may be a scalar.

    The products are accumulated unnormalised and every output coefficient
    is reduced once; the term order is that of the sum taken term by term.
    """
    acc: dict = {}
    for x, y in pairs:
        if isinstance(x, Poly):
            if isinstance(y, Poly):
                _merge(acc, _product(x.terms, y.terms).items())
                continue
            terms, c = x.terms, y
        else:
            terms, c = y.terms, x
        c = Q2.of(c)
        if c:
            _merge(acc, _scaled(terms, c))
    return _finish(acc)


class PolyField:
    """Three-component displacement field with Poly components."""

    __slots__ = ("u",)

    def __init__(self, components: Sequence):
        comps = []
        for c in components:
            comps.append(c if isinstance(c, Poly) else Poly.const(c))
        if len(comps) != 3:
            raise ValueError("PolyField needs exactly 3 components")
        self.u = tuple(comps)

    def __getitem__(self, i: int) -> Poly:
        return self.u[i]

    def __iter__(self):
        return iter(self.u)

    def __add__(self, other: "PolyField") -> "PolyField":
        return PolyField([a + b for a, b in zip(self.u, other.u)])

    def __sub__(self, other: "PolyField") -> "PolyField":
        return PolyField([a - b for a, b in zip(self.u, other.u)])

    def __neg__(self) -> "PolyField":
        return PolyField([-a for a in self.u])

    def __mul__(self, c) -> "PolyField":
        return PolyField([a * c for a in self.u])

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PolyField) and self.u == other.u

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.u)

    def subs_zeta(self, value) -> "PolyField":
        return PolyField([c.subs_zeta(value) for c in self.u])

    def eval(self, y1=0, y2=0, zeta=0):
        return [c.eval(y1, y2, zeta) for c in self.u]

    def __repr__(self):
        return f"PolyField({self.u[0]!r}, {self.u[1]!r}, {self.u[2]!r})"


# exact dense linear algebra over any field (Fraction, Q2) ---------------

def mat_apply(mat: Sequence[Sequence], vec: Sequence[Poly]) -> list:
    """Matrix with scalar or Poly entries times a vector of Poly; each row
    is one lincomb."""
    return [lincomb(zip(vec, row)) for row in mat]


def mat_mul(A, B):
    m = len(B[0])
    k = len(B)
    out = []
    for row in A:
        orow = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = row[t] * B[t][j]
                acc = term if acc is None else acc + term
            orow.append(acc)
        out.append(orow)
    return out


def mat_inv(A):
    """Gauss-Jordan inverse over an exact field; entries need +,-,*,/ and bool."""
    n = len(A)
    M = [list(row) for row in A]
    I = [[0] * n for _ in range(n)]
    for i in range(n):
        I[i][i] = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            raise ZeroDivisionError("singular matrix in exact inverse")
        M[col], M[piv] = M[piv], M[col]
        I[col], I[piv] = I[piv], I[col]
        d = M[col][col]
        M[col] = [x / d for x in M[col]]
        I[col] = [x / d for x in I[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
                I[r] = [a - f * b for a, b in zip(I[r], I[col])]
    return I


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_to_float(A):
    import numpy as np

    return np.array([[float(x) for x in row] for row in A], dtype=float)
