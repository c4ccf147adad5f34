"""Exact polynomial fields in (y1, y2, zeta) and small exact linear algebra.

Carrier for the through-thickness residual calculus: every operation
(differentiation, matrix application, definite integration in zeta) is exact,
so algebraic cancellations can be asserted to zero rather than to a tolerance.

Coefficients live in Q(sqrt2), rationals extended by sqrt(2), because the
strain-column convention carries 2^{-1/2} factors on the shear rows.  The
extension is closed under +,-,*,/ so all operator compositions stay exact.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Q = Fraction


class Q2:
    """Element a + b*sqrt(2) of the field Q(sqrt2), with exact arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Q(a)
        self.b = b if isinstance(b, Fraction) else Q(b)

    @staticmethod
    def of(x) -> "Q2":
        if isinstance(x, Q2):
            return x
        return Q2(Q(x))

    @staticmethod
    def _co(x):
        """Coerce or decline (so Poly and friends get their reflected ops)."""
        if isinstance(x, Q2):
            return x
        if isinstance(x, (int, Fraction)):
            return Q2(Q(x))
        return None

    def __add__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return Q2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return Q2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Q2(-self.a, -self.b)

    def __mul__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        if not o.b:     # rational factor: half the Fraction products
            return Q2(self.a * o.a, self.b * o.a)
        if not self.b:
            return Q2(self.a * o.a, self.a * o.b)
        return Q2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        # multiply by the conjugate; a^2 - 2 b^2 = 0 only for a = b = 0
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return Q2((self.a * o.a - 2 * self.b * o.b) / den,
                  (self.b * o.a - self.a * o.b) / den)

    def __rtruediv__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        out = Q2(1)
        base = self
        for _ in range(n):
            out = out * base
        return out

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = Q2._co(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * 1.4142135623730951

    def is_rational(self) -> bool:
        return self.b == 0

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        if not self.a:
            return f"{self.b}*sqrt2"
        return f"({self.a}+{self.b}*sqrt2)"


SQRT2 = Q2(0, 1)
INV_SQRT2 = Q2(0, Q(1, 2))  # 1/sqrt2 = sqrt2/2


class Poly:
    """Polynomial in (y1, y2, zeta) with Q(sqrt2) coefficients.

    terms maps exponent triples (a, b, c) for y1^a y2^b zeta^c to coefficients.
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
            s = out.get(k, Q2()) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        p = Poly()
        p.terms = out
        return p

    __radd__ = __add__

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly.const(other)
        return self + (-o)

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __neg__(self):
        p = Poly()
        p.terms = {k: -v for k, v in self.terms.items()}
        return p

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: dict[tuple, Q2] = {}
            for k1, v1 in self.terms.items():
                for k2, v2 in other.terms.items():
                    k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                    s = out.get(k, Q2()) + v1 * v2
                    if s:
                        out[k] = s
                    elif k in out:
                        del out[k]
            p = Poly()
            p.terms = out
            return p
        c = Q2.of(other)
        if not c:
            return Poly()
        p = Poly()
        p.terms = {k: v * c for k, v in self.terms.items()}
        return p

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Q2(1) / Q2.of(other))

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
        out: dict[tuple, Q2] = {}
        for k, v in self.terms.items():
            e = k[axis]
            if e == 0:
                continue
            kk = list(k)
            kk[axis] = e - 1
            kk = tuple(kk)
            s = out.get(kk, Q2()) + v * e
            if s:
                out[kk] = s
            elif kk in out:
                del out[kk]
        p = Poly()
        p.terms = out
        return p

    def antiderivative_zeta(self) -> "Poly":
        out = {}
        for (a, b, c), v in self.terms.items():
            out[(a, b, c + 1)] = v / (c + 1)
        p = Poly()
        p.terms = out
        return p

    def integrate_zeta(self, lo=Q(-1, 2), hi=Q(1, 2)) -> "Poly":
        """Definite integral over zeta; result has zeta-degree 0."""
        F = self.antiderivative_zeta()
        return F.subs_zeta(hi) - F.subs_zeta(lo)

    def subs_zeta(self, value) -> "Poly":
        """Substitute a rational number for zeta."""
        val = Q2.of(value)
        out: dict[tuple, Q2] = {}
        for (a, b, c), v in self.terms.items():
            coeff = v * (val ** c)
            k = (a, b, 0)
            s = out.get(k, Q2()) + coeff
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        p = Poly()
        p.terms = out
        return p

    def scale_zeta(self, factor) -> "Poly":
        """Substitute zeta -> factor * zeta (exact change of thickness variable)."""
        f = Q2.of(factor)
        out = {}
        for (a, b, c), v in self.terms.items():
            coeff = v * (f ** c)
            if coeff:
                out[(a, b, c)] = coeff
        p = Poly()
        p.terms = out
        return p

    def eval(self, y1=0, y2=0, zeta=0):
        """Exact evaluation when inputs are rational/Q2; float inputs give float."""
        if any(isinstance(t, float) for t in (y1, y2, zeta)):
            tot = 0.0
            for (a, b, c), v in self.terms.items():
                tot += float(v) * float(y1) ** a * float(y2) ** b * float(zeta) ** c
            return tot
        y1, y2, zeta = Q2.of(y1), Q2.of(y2), Q2.of(zeta)
        tot = Q2()
        for (a, b, c), v in self.terms.items():
            tot = tot + v * (y1 ** a) * (y2 ** b) * (zeta ** c)
        return tot

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=-1)

    def zeta_degree(self) -> int:
        return max((k[2] for k in self.terms), default=-1)

    def coeff(self, a: int, b: int, c: int) -> Q2:
        return self.terms.get((a, b, c), Q2())

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


ZERO = Poly.zero()
ONE = Poly.const(1)
Y1 = Poly.var(0)
Y2 = Poly.var(1)
ZETA = Poly.var(2)


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

def mat_apply(mat: Sequence[Sequence], vec: Sequence):
    """Matrix times vector where entries may be scalars or Poly."""
    out = []
    for row in mat:
        acc = None
        for m, v in zip(row, vec):
            term = v * m
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


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
