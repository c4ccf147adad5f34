"""Exact arithmetic carrier: field axioms, calculus, small linear algebra."""
import math
import random
from fractions import Fraction as Q

import pytest

from platecap.cli import _random_rational_spd
from platecap.polyfield import (INV_SQRT2, Poly, PolyField, Q2, SQRT2,
                                lincomb, mat_apply, mat_inv, mat_mul,
                                mat_to_float, mat_transpose)
from platecap.reduction import apply_operator_table, build_dimension_reduction


def rand_q2(rng):
    return Q2(Q(rng.randint(-9, 9), rng.randint(1, 7)),
              Q(rng.randint(-9, 9), rng.randint(1, 7)))


class TestQ2:
    def test_basic_products(self):
        x = Q2(1, 2) * Q2(3, -1)
        assert x == Q2(-1, 5)   # (1+2r)(3-r) = 3 - r + 6r - 2*2
        assert SQRT2 * SQRT2 == Q2(2)
        assert SQRT2 * INV_SQRT2 == Q2(1)

    def test_division_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = rand_q2(rng), rand_q2(rng)
            if not y:
                continue
            assert (x / y) * y == x

    def test_field_axioms(self):
        rng = random.Random(11)
        for _ in range(100):
            x, y, z = (rand_q2(rng) for _ in range(3))
            assert x * (y + z) == x * y + x * z
            assert (x + y) + z == x + (y + z)
            assert x * y == y * x

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            Q2(1) / Q2(0, 0)

    def test_float_and_predicates(self):
        assert abs(float(SQRT2) - 2.0 ** 0.5) < 1e-15
        assert Q2(3, 0).is_rational() and not SQRT2.is_rational()
        assert Q2(0, 0) == 0 and Q2(5) == 5
        assert not Q2()
        assert SQRT2 ** 4 == Q2(4)

    def test_mixed_scalar_ops(self):
        assert 1 + SQRT2 == Q2(1, 1)
        assert 3 - SQRT2 == Q2(3, -1)
        assert Q(1, 2) * SQRT2 == INV_SQRT2
        assert 2 / SQRT2 == SQRT2


class TestPoly:
    def test_diff_antiderivative_inverse(self):
        rng = random.Random(3)
        for _ in range(50):
            p = Poly({(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                      Q(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(5)})
            assert p.antiderivative_zeta().diff(2) == p

    def test_definite_integral(self):
        zeta = Poly.var(2)
        assert (zeta * zeta).integrate_zeta() == Poly.const(Q(1, 12))
        assert zeta.integrate_zeta().is_zero()
        assert Poly.const(1).integrate_zeta() == Poly.const(1)

    def test_substitution_and_scaling(self):
        p = Poly.var(0) * Poly.var(2) + Poly.var(2) * Poly.var(2)
        q = p.subs_zeta(Q(1, 2))
        assert q == Poly.var(0) * Q(1, 2) + Q(1, 4)
        r = p.scale_zeta(Q(1, 3))   # zeta -> zeta/3
        assert r.coeff(1, 0, 1) == Q2.of(Q(1, 3))
        assert r.coeff(0, 0, 2) == Q2.of(Q(1, 9))

    def test_eval_exact_and_float(self):
        p = Poly.monomial(2, 1, 0, Q(3, 4))
        assert p.eval(Q(2), Q(3)) == Q2.of(9)
        assert abs(p.eval(2.0, 3.0) - 9.0) < 1e-12

    def test_ring_identities(self):
        rng = random.Random(5)
        for _ in range(30):
            def rp():
                return Poly({(rng.randint(0, 2), rng.randint(0, 2),
                              rng.randint(0, 2)): rng.randint(-4, 4)
                             for _ in range(4)})
            a, b, c = rp(), rp(), rp()
            assert a * (b + c) == a * b + a * c
            assert (a * b).diff(0) == a.diff(0) * b + a * b.diff(0)

    def test_degree_bookkeeping(self):
        p = Poly.monomial(2, 1, 3)
        assert p.zeta_degree() == 3
        assert Poly.zero().zeta_degree() == -1


class TestPolyField:
    def test_vector_ops(self):
        u = PolyField([Poly.var(0), 1, 0])
        v = PolyField([0, Poly.var(1), 2])
        w = u + v
        assert w[0] == Poly.var(0) and w[2] == Poly.const(2)
        assert (u - u).is_zero()
        assert (u * Q(2))[0] == Poly.var(0) * 2

    def test_needs_three_components(self):
        with pytest.raises(ValueError):
            PolyField([Poly.var(0), Poly.var(1)])


class TestExactLinalg:
    def test_mat_inv_fraction(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            A = [[Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            try:
                Ai = mat_inv(A)
            except ZeroDivisionError:
                continue
            P = mat_mul(A, Ai)
            for i in range(n):
                for j in range(n):
                    assert P[i][j] == (1 if i == j else 0)

    def test_mat_inv_q2(self):
        A = [[Q2(1, 1), Q2(0, 1)], [Q2(2), Q2(1, -1)]]
        P = mat_mul(A, mat_inv(A))
        assert P[0][0] == Q2(1) and P[0][1] == Q2(0)
        assert P[1][0] == Q2(0) and P[1][1] == Q2(1)

    def test_singular_raises(self):
        with pytest.raises(ZeroDivisionError):
            mat_inv([[Q(1), Q(2)], [Q(2), Q(4)]])

    def test_apply_and_transpose(self):
        M = [[Q(1), Q(2)], [Q(0), Q(3)]]
        v = [Poly.var(0), Poly.const(1)]
        out = mat_apply(M, v)
        assert out[0] == Poly.var(0) + 2
        assert mat_transpose(M)[0][1] == Q(0)

    def test_mat_to_float(self):
        import numpy as np

        F = mat_to_float([[Q(1, 2), SQRT2]])
        assert np.allclose(F, [[0.5, 2.0 ** 0.5]])


# ---------------------------------------------------------------------------
# reference: the Fraction-pair Q(sqrt2) element and term-by-term Poly sums
# ---------------------------------------------------------------------------

class RefQ2:
    """a + b*sqrt(2) held as two Fractions; every operation is the textbook
    formula, so it serves as the reference for the integer-triple Q2."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Q) else Q(a)
        self.b = b if isinstance(b, Q) else Q(b)

    @staticmethod
    def _co(x):
        if isinstance(x, RefQ2):
            return x
        if isinstance(x, (int, Q)):
            return RefQ2(Q(x))
        return None

    def __add__(self, other):
        o = RefQ2._co(other)
        return RefQ2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = RefQ2._co(other)
        return RefQ2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return RefQ2._co(other) - self

    def __neg__(self):
        return RefQ2(-self.a, -self.b)

    def __mul__(self, other):
        o = RefQ2._co(other)
        return RefQ2(self.a * o.a + 2 * self.b * o.b,
                     self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RefQ2._co(other)
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return RefQ2((self.a * o.a - 2 * self.b * o.b) / den,
                     (self.b * o.a - self.a * o.b) / den)

    def __rtruediv__(self, other):
        return RefQ2._co(other) / self

    def __pow__(self, n):
        if n < 0:
            return RefQ2(1) / self ** -n
        out = RefQ2(1)
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = RefQ2._co(other)
        return self.a == o.a and self.b == o.b

    def __float__(self):
        return float(self.a) + float(self.b) * 1.4142135623730951

    def is_rational(self):
        return self.b == 0

    def __repr__(self):
        if not self.b:
            return f"{self.a}"
        if not self.a:
            return f"{self.b}*sqrt2"
        return f"({self.a}+{self.b}*sqrt2)"


class RefPoly:
    """dict of RefQ2 coefficients summed term by term: a monomial whose
    partial sum cancels leaves the dict and re-enters at the end."""

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, RefQ2()) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return RefPoly(out)

    def __mul__(self, other):
        if not isinstance(other, RefPoly):
            c = RefQ2._co(other)
            return RefPoly({k: v * c for k, v in self.terms.items()}
                           if c else {})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
                s = out.get(k, RefQ2()) + v1 * v2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return RefPoly(out)

    def diff(self, axis):
        out = {}
        for k, v in self.terms.items():
            if k[axis]:
                kk = list(k)
                kk[axis] -= 1
                out[tuple(kk)] = v * k[axis]
        return RefPoly(out)

    def __bool__(self):
        return bool(self.terms)


def ref_of(x):
    """The reference value of a Q2 or a Poly."""
    if isinstance(x, Poly):
        return RefPoly({k: RefQ2(v.a, v.b) for k, v in x.terms.items()})
    return RefQ2(x.a, x.b)


def assert_canonical(x):
    assert type(x) is Q2
    assert type(x.p) is int and type(x.q) is int and type(x.d) is int
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1


def assert_matches(x, ref):
    """x (Q2) equals ref (RefQ2) and is in canonical form."""
    assert_canonical(x)
    assert (x.a, x.b) == (ref.a, ref.b)


def assert_poly_matches(p, ref):
    """Same coefficients and the same term order as the reference sum."""
    assert isinstance(p, Poly)
    assert list(p.terms) == list(ref.terms)
    for k, v in p.terms.items():
        assert_matches(v, ref.terms[k])


def assert_poly_matches_field(field, refs):
    for p, r in zip(field, refs):
        assert_poly_matches(p, r)


def _ref_apply_table(table, w):
    out = [RefPoly(), RefPoly(), RefPoly()]
    for (a, b), M in table.items():
        dw = [ref_of(p) for p in w]
        for _ in range(b):
            dw = [p.diff(1) for p in dw]
        for _ in range(a):
            dw = [p.diff(0) for p in dw]
        for i in range(3):
            for j in range(3):
                if M[i][j] and dw[j]:
                    out[i] = out[i] + ref_of(M[i][j]) * dw[j]
    return out



BIG = 10 ** 6


def rand_rational(rng):
    r = rng.random()
    if r < 0.15:
        return Q(0)
    if r < 0.5:     # small values: frequent cancellations and unit factors
        return Q(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6]))
    return Q(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def rand_scalar(rng):
    """An int or a Fraction operand."""
    x = rand_rational(rng)
    return x.numerator if rng.random() < 0.3 else x


def rand_pair(rng):
    """Two Fractions (rational part, sqrt2 part); a quarter are rational."""
    a = rand_rational(rng)
    b = Q(0) if rng.random() < 0.25 else rand_rational(rng)
    return a, b


class TestQ2AgainstReference:
    """Seeded battery against the Fraction-pair reference."""

    N = 2500

    def test_arithmetic_battery(self):
        rng = random.Random(2024)
        for _ in range(self.N):
            (a1, b1), (a2, b2) = rand_pair(rng), rand_pair(rng)
            x, y = Q2(a1, b1), Q2(a2, b2)
            rx, ry = RefQ2(a1, b1), RefQ2(a2, b2)
            assert_matches(x, rx)
            assert_matches(x + y, rx + ry)
            assert_matches(x - y, rx - ry)
            assert_matches(x * y, rx * ry)
            assert_matches(-x, -rx)
            if ry:
                assert_matches(x / y, rx / ry)
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
            n = rng.randint(-4, 5)
            if rx or n >= 0:
                assert_matches(x ** n, rx ** n)
            else:
                with pytest.raises(ZeroDivisionError):
                    x ** n
            assert (x == y) == (rx == ry)
            assert x == Q2(a1, b1) and hash(x) == hash(Q2(a1, b1))
            assert bool(x) == bool(rx)
            assert x.is_rational() == rx.is_rational()
            assert float(x).hex() == float(rx).hex()
            assert repr(x) == repr(rx)

    def test_scalar_operands_both_sides(self):
        rng = random.Random(77)
        for _ in range(self.N):
            a, b = rand_pair(rng)
            x, rx = Q2(a, b), RefQ2(a, b)
            s = rand_scalar(rng)
            assert_matches(x + s, rx + s)
            assert_matches(s + x, s + rx)
            assert_matches(x - s, rx - s)
            assert_matches(s - x, s - rx)
            assert_matches(x * s, rx * s)
            assert_matches(s * x, s * rx)
            if s:
                assert_matches(x / s, rx / s)
            if rx:
                assert_matches(s / x, s / rx)
            assert (x == s) == (rx == s) == (s == x)
            assert_matches(Q2(s), RefQ2(s))
            assert Q2(s) == s and hash(Q2(s)) == hash(s)

    def test_hash_agrees_with_equality(self):
        rng = random.Random(31)
        for _ in range(self.N):
            a, b = rand_pair(rng)
            x = Q2(a, b)
            y = Q2(rand_rational(rng) or 1, rand_rational(rng))
            same = (x * y) / y        # equal value reached another way
            assert same == x and hash(same) == hash(x)
            if not b:
                assert x == a and hash(x) == hash(a)
        assert {Q(1, 2): "half"}.get(Q2(Q(1, 2))) == "half"
        assert {5: "five"}.get(Q2(5)) == "five"
        assert len({Q2(3), Q2(Q(6, 2)), 3, Q(3)}) == 1

    def test_float_constructor_and_parts(self):
        rng = random.Random(13)
        for _ in range(500):
            f, g = rng.uniform(-1e3, 1e3), rng.uniform(-1, 1)
            x = Q2(f, g)
            assert_canonical(x)
            assert (x.a, x.b) == (Q(f), Q(g))
            assert float(x).hex() == float(RefQ2(Q(f), Q(g))).hex()
        assert Q2.of(0.5) == Q2(Q(1, 2))

    def test_negative_powers(self):
        assert SQRT2 ** -1 == INV_SQRT2
        assert SQRT2 ** -2 == Q2(Q(1, 2))
        assert Q2(1, 1) ** -3 * Q2(1, 1) ** 3 == 1
        assert Q2(Q(-2, 3)) ** -3 == Q2(Q(-27, 8))
        assert Q2(0) ** 0 == 1
        with pytest.raises(ZeroDivisionError):
            Q2(0) ** -1


def rand_poly(rng, n_terms, max_exp=2, zeta_only=False):
    terms = {}
    for _ in range(n_terms):
        k = (0 if zeta_only else rng.randint(0, max_exp),
             0 if zeta_only else rng.randint(0, max_exp),
             rng.randint(0, max_exp))
        a, b = rand_pair(rng)
        if a or b:
            terms[k] = Q2(a, b)
    return Poly(terms)


class TestPolyKernelsAgainstReference:
    """Fused kernels against the term-by-term composition, exact and in the
    same term order."""

    def test_products_and_sums(self):
        rng = random.Random(99)
        for _ in range(400):
            p, q = rand_poly(rng, rng.randint(0, 5)), \
                rand_poly(rng, rng.randint(0, 5))
            rp, rq = ref_of(p), ref_of(q)
            assert_poly_matches(p * q, rp * rq)
            assert_poly_matches(p + q, rp + rq)
            assert_poly_matches(p - q, rp + rq * RefQ2(-1))
            assert_poly_matches(p * (p - q), rp * (rp + rq * RefQ2(-1)))
            a, b = rand_pair(rng)
            assert_poly_matches(p * Q2(a, b), rp * RefQ2(a, b))
            s = rand_scalar(rng)
            assert_poly_matches(s * p, rp * s)
            axis = rng.randint(0, 2)
            assert_poly_matches(p.diff(axis), rp.diff(axis))

    def test_cancellation_reorders_like_the_reference(self):
        # the cross terms of (x + y)(x - y) cancel inside the product
        x, y, z = Poly.var(0), Poly.var(1), Poly.var(2)
        for p, q in [(x + y, x - y), (1 + z, 1 - z), (x + SQRT2 * y,
                                                      x - SQRT2 * y)]:
            assert_poly_matches(p * q, ref_of(p) * ref_of(q))
        # the constant cancels, then re-enters after z
        left = [1 + z, Poly.const(-1), z * z, 1 + z]
        right = [Poly.const(1), Poly.const(1), Poly.const(1), 1 - z]
        ref = RefPoly()
        for a, b in zip(left, right):
            ref = ref + ref_of(a) * ref_of(b)
        got = lincomb(zip(left, right))
        assert list(got.terms) == [(0, 0, 1), (0, 0, 0)]
        assert_poly_matches(got, ref)

    def test_mat_apply(self):
        rng = random.Random(5150)
        for _ in range(200):
            n = rng.randint(1, 6)
            M = [[Q2(*rand_pair(rng)) if rng.random() < 0.7
                  else rand_scalar(rng) for _ in range(n)]
                 for _ in range(rng.randint(1, 6))]
            v = [rand_poly(rng, rng.randint(0, 4)) for _ in range(n)]
            got = mat_apply(M, v)
            rv = [ref_of(p) for p in v]
            for row, g in zip(M, got):
                acc = None
                for m, p in zip(row, rv):
                    term = p * (ref_of(m) if isinstance(m, Q2) else m)
                    acc = term if acc is None else acc + term
                assert_poly_matches(g, acc)

    def test_apply_operator_table(self):
        rng = random.Random(4242)
        for _ in range(60):
            table = {}
            for key in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                if rng.random() < 0.7:
                    table[key] = [[rand_poly(rng, rng.randint(0, 3),
                                             zeta_only=True)
                                   for _ in range(3)] for _ in range(3)]
            w = PolyField([rand_poly(rng, rng.randint(0, 4), max_exp=3)
                           for _ in range(3)])
            got = apply_operator_table(table, w)
            assert_poly_matches_field(got, _ref_apply_table(table, w))

    def test_residual_table_of_a_material(self):
        ops = build_dimension_reduction(_random_rational_spd(random.Random(8)))
        w = PolyField([Poly.monomial(3, 1, 0, Q(2, 7)),
                       Poly.monomial(0, 4, 0) + Poly.monomial(2, 0, 0, -3),
                       Poly.monomial(2, 2, 0, Q(-5, 3))])
        for table in ops.residual_tables.F + ops.residual_tables.G_plus:
            assert_poly_matches_field(apply_operator_table(table, w),
                                      _ref_apply_table(table, w))

