"""Dimension-reduction ansatz: operator tables, residual cascade, limits."""
import random
from fractions import Fraction as Q

import pytest

from platecap.cli import _random_rational_spd
from platecap.elastic import (isotropic_stiffness, isotropic_stiffness_exact,
                              layer_operator_parts)
from platecap.polyfield import Poly, PolyField, Q2
from platecap.reduction import (ReductionError, apply_ansatz, apply_bending,
                                apply_membrane, apply_operator_table,
                                bending_table_direct,
                                build_dimension_reduction,
                                membrane_table_direct, residual_report)

ZETA = Poly.var(2)


def random_pd6(rng, shift=1):
    B = [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(6)]
         for _ in range(6)]
    A = [[sum(B[k][i] * B[k][j] for k in range(6)) for j in range(6)]
         for i in range(6)]
    for i in range(6):
        A[i][i] += shift
    return A


ISO = isotropic_stiffness_exact(1, 1)
OPS_ISO = build_dimension_reduction(ISO)


class TestTables:
    def test_w0_lifts_only_the_vertical_component(self):
        t = OPS_ISO.tables[0]
        assert set(t) == {(0, 0)}
        M = t[(0, 0)]
        for i in range(3):
            for j in range(3):
                want = Poly.const(1) if (i, j) == (2, 2) else Poly.zero()
                assert M[i][j] == want
        w = PolyField([Poly.var(0), Poly.var(1), Poly.monomial(1, 1, 0)])
        assert apply_operator_table(t, w) == PolyField([0, 0, Poly.monomial(1, 1, 0)])

    def test_w1_tilt_entries(self):
        t = OPS_ISO.tables[1]
        assert t[(1, 0)][0][2] == -ZETA and t[(0, 1)][1][2] == -ZETA
        w = PolyField([0, 0, Poly.monomial(2, 0, 0)])    # w3 = y1^2
        u = apply_operator_table(t, w)
        assert u[0] == Poly.monomial(1, 0, 1, -2)        # u1 = -2 zeta y1
        assert u[1].is_zero() and u[2].is_zero()

    def test_w2_closed_form_isotropic(self):
        # K = Jinv Azz^{-1} Azy has a single nonzero row: (r, r, 0) with
        # r = lam/(lam+2mu); membrane part -zeta*r*div w', bending part
        # r*(zeta^2/2 - 1/24)*Delta w3 in the vertical component.
        r = Q(1, 3)
        t = OPS_ISO.tables[2]
        pb = (ZETA * ZETA * Q(1, 2) - Poly.const(Q(1, 24))) * r
        assert t[(1, 0)][2][0] == -ZETA * r
        assert t[(0, 1)][2][1] == -ZETA * r
        assert t[(2, 0)][2][2] == pb and t[(0, 2)][2][2] == pb
        assert (1, 1) not in t or t[(1, 1)][2][2].is_zero()
        # nothing fires in the horizontal components for isotropic material
        for key, M in t.items():
            for i in range(2):
                for j in range(3):
                    assert M[i][j].is_zero()

    def test_w2_has_zero_thickness_average(self):
        for ops in (OPS_ISO, OPS_ANISO[0]):
            for M in ops.tables[2].values():
                for row in M:
                    for p in row:
                        assert p.integrate_zeta().is_zero()

    def test_w3_symbol_order(self):
        assert all(a + b <= 3 for (a, b) in OPS_ISO.tables[3])
        assert max(a + b for t in OPS_ISO.tables for (a, b) in t) == 3


OPS_ANISO = []
_rng = random.Random(20240814)
for _ in range(2):
    OPS_ANISO.append(build_dimension_reduction(random_pd6(_rng)))


class TestLimitOperators:
    def test_extraction_matches_direct_isotropic(self):
        A0 = [list(r) for r in OPS_ISO.reduced]
        md, bd = membrane_table_direct(A0), bending_table_direct(A0)
        assert set(OPS_ISO.membrane) == set(md)
        for k in md:
            for i in range(2):
                for j in range(2):
                    assert Q2.of(OPS_ISO.membrane[k][i][j]) == Q2.of(md[k][i][j])
        assert set(OPS_ISO.bending) == set(bd)
        for k in bd:
            assert Q2.of(OPS_ISO.bending[k]) == Q2.of(bd[k])

    def test_extraction_matches_direct_anisotropic(self):
        for ops in OPS_ANISO:
            A0 = [list(r) for r in ops.reduced]
            md, bd = membrane_table_direct(A0), bending_table_direct(A0)
            assert set(ops.membrane) == set(md)
            for k in md:
                for i in range(2):
                    for j in range(2):
                        assert Q2.of(ops.membrane[k][i][j]) == Q2.of(md[k][i][j])
            assert set(ops.bending) == set(bd)
            for k in bd:
                assert Q2.of(ops.bending[k]) == Q2.of(bd[k])

    def test_unit_lame_membrane_and_bending_values(self):
        # lam' = 2/3: membrane diagonal -(lam'+2mu) = -8/3 on the own axis,
        # -mu = -1 across; bending biharmonic coefficient 2/9
        m = OPS_ISO.membrane
        assert Q2.of(m[(2, 0)][0][0]) == Q2.of(Q(-8, 3))
        assert Q2.of(m[(2, 0)][1][1]) == Q2.of(-1)
        assert Q2.of(m[(1, 1)][0][1]) == Q2.of(Q(-5, 3))
        b = OPS_ISO.bending
        assert Q2.of(b[(4, 0)]) == Q2.of(Q(2, 9))
        assert Q2.of(b[(2, 2)]) == Q2.of(Q(4, 9))
        assert Q2.of(b[(0, 4)]) == Q2.of(Q(2, 9))

    def test_bending_operator_application(self):
        val = apply_bending(OPS_ISO.bending, Poly.monomial(4, 0, 0))
        assert val == Poly.const(Q(16, 3))    # (2/9) * 4! on w3 = y1^4

    def test_membrane_operator_application(self):
        out = apply_membrane(OPS_ISO.membrane, Poly.monomial(2, 0, 0), Poly.zero())
        assert out[0] == Poly.const(Q(-16, 3))   # -(lam'+2mu) * 2
        assert out[1].is_zero()


class TestResiduals:
    def test_cascade_isotropic_monomials(self):
        for a in range(5):
            for b in range(5 - a):
                for j in range(3):
                    comps = [Poly.zero()] * 3
                    comps[j] = Poly.monomial(a, b, 0)
                    rep = residual_report(OPS_ISO, PolyField(comps))
                    assert rep.a15_ok and rep.a16_ok and rep.a17_ok, (a, b, j)

    def test_cascade_anisotropic_mixed_degree6(self):
        rng = random.Random(99)
        for ops in OPS_ANISO:
            w = PolyField([
                Poly({(rng.randint(0, 3), rng.randint(0, 3), 0):
                      Q(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(4)}),
                Poly({(rng.randint(0, 2), rng.randint(0, 2), 0):
                      rng.randint(-3, 3) for _ in range(3)}),
                Poly({(rng.randint(0, 3), rng.randint(0, 3), 0):
                      Q(rng.randint(-4, 4), rng.randint(1, 2))
                      for _ in range(4)}),
            ])
            rep = residual_report(ops, w)
            assert rep.a15_ok and rep.a16_ok and rep.a17_ok

    def test_quartic_vertical_example(self):
        w = PolyField([0, 0, Poly.monomial(4, 0, 0)])
        rep = residual_report(OPS_ISO, w)
        assert rep.a17_integral == Poly.const(Q(16, 3))
        assert rep.bending_rhs == Poly.const(Q(16, 3))

    def test_rigid_in_plane_annihilates_everything(self):
        w = PolyField([Poly.const(3) - Poly.monomial(0, 1, 0, Q(7, 2)),
                       Poly.const(-1) + Poly.monomial(1, 0, 0, Q(7, 2)),
                       Poly.zero()])
        rep = residual_report(OPS_ISO, w)
        assert all(f.is_zero() for f in rep.F)
        assert all(g.is_zero() for g in rep.G_plus + rep.G_minus)

    def test_low_order_residuals_vanish_for_any_cubic(self):
        rng = random.Random(4)
        for _ in range(5):
            w = PolyField([
                Poly({(rng.randint(0, 2), rng.randint(0, 1), 0):
                      rng.randint(-3, 3) for _ in range(3)})
                for _ in range(3)])
            rep = residual_report(OPS_ISO, w)
            assert all(rep.F[q].is_zero() for q in range(3))
            assert all(rep.G_plus[q].is_zero() for q in range(3))
            assert all(rep.G_minus[q].is_zero() for q in range(3))


def _direct_residuals(A, ops, w):
    """Per-field reference: compose the operator split on W^p w itself."""
    U = [apply_operator_table(t, w) for t in ops.tables]
    half = Q(1, 2)

    def lop(u, which):
        return layer_operator_parts(A, u, which)

    F = [
        lop(U[0], "L0"),
        lop(U[1], "L0") + lop(U[0], "L1"),
        lop(U[2], "L0") + lop(U[1], "L1") + lop(U[0], "L2"),
        lop(U[3], "L0") + lop(U[2], "L1") + lop(U[1], "L2"),
        lop(U[3], "L1") + lop(U[2], "L2"),
        lop(U[3], "L2"),
    ]
    G = {}
    for sign, zeta in (("+", half), ("-", -half)):
        G[sign] = [g.subs_zeta(zeta) for g in (
            lop(U[0], "N0" + sign),
            lop(U[1], "N0" + sign) + lop(U[0], "N1" + sign),
            lop(U[2], "N0" + sign) + lop(U[1], "N1" + sign),
            lop(U[3], "N0" + sign) + lop(U[2], "N1" + sign),
            lop(U[3], "N1" + sign),
        )]
    return F, G["+"], G["-"]


def _random_field(rng, degree):
    return PolyField([
        Poly({(a, rng.randint(0, degree - a), 0):
              Q(rng.randint(-4, 4), rng.randint(1, 3))
              for a in (rng.randint(0, degree) for _ in range(4))})
        for _ in range(3)])


GATE3_MATERIALS = [ISO]
_gate_rng = random.Random(0)
GATE3_MATERIALS += [_random_rational_spd(_gate_rng) for _ in range(5)]


class TestResidualTables:
    def test_residuals_equal_direct_composition(self):
        rng = random.Random(31)
        A_float = isotropic_stiffness(0.875, 1.625)
        cases = [(ISO, OPS_ISO), (A_float, build_dimension_reduction(A_float))]
        cases += [([list(r) for r in ops.stiffness], ops) for ops in OPS_ANISO]
        for A, ops in cases:
            for degree in (2, 4, 6):
                w = _random_field(rng, degree)
                rep = residual_report(ops, w)
                F, Gp, Gm = _direct_residuals(A, ops, w)
                assert rep.F == F
                assert rep.G_plus == Gp
                assert rep.G_minus == Gm

    @pytest.mark.parametrize("k", range(len(GATE3_MATERIALS)))
    def test_symbol_identities(self, k):
        # the cascade identities for every mid-surface field at once: the
        # residual symbols themselves vanish or equal the limit operators
        ops = build_dimension_reduction(GATE3_MATERIALS[k])
        tabs = ops.residual_tables
        assert tabs.F[:3] == [{}, {}, {}]
        assert tabs.G_plus[:4] == [{}] * 4 and tabs.G_minus[:4] == [{}] * 4
        zero = Poly.zero()
        membrane = {key: [[Poly.const(M[i][j]) if j < 2 else zero
                           for j in range(3)] for i in range(2)] + [[zero] * 3]
                    for key, M in ops.membrane.items()}
        assert tabs.F[3] == membrane
        f4, gp4, gm4 = tabs.F[4], tabs.G_plus[4], tabs.G_minus[4]

        def row2(table, key, j):
            return table[key][2][j] if key in table else zero

        averaged = {}
        for key in set(f4) | set(gp4) | set(gm4):
            row = [row2(f4, key, j).integrate_zeta() + row2(gp4, key, j)
                   + row2(gm4, key, j) for j in range(3)]
            if any(row):
                averaged[key] = row
        assert averaged == {key: [zero, zero, Poly.const(c)]
                            for key, c in ops.bending.items()}


class TestApplyAnsatz:
    def test_constant_vertical_shift(self):
        w = PolyField([0, 0, Poly.const(Q(5))])
        terms = apply_ansatz(OPS_ISO, w)
        assert terms[0] == PolyField([0, 0, Poly.const(5)])
        assert all(terms[p].is_zero() for p in (1, 2, 3))
        af = apply_ansatz(OPS_ISO, w, Q(1, 4))
        vals = af.eval(0.3, -0.2, 0.1)
        assert abs(vals[2] - 5 * 4.0 ** 1.5) < 1e-12 and vals[0] == 0.0

    def test_in_plane_stretch_poisson_term(self):
        w = PolyField([Poly.var(0), 0, 0])
        terms = apply_ansatz(OPS_ISO, w)
        assert terms[1] == PolyField([Poly.var(0), 0, 0])
        assert terms[2] == PolyField([0, 0, ZETA * Q(-1, 3)])

    def test_substituted_h_combines_orders(self):
        w = PolyField([Poly.var(0), 0, 0])
        af = apply_ansatz(OPS_ISO, w, Q(1, 2))
        # field = h W1 w + h^2 W2 w (W0, W3 vanish here)
        assert af.field[0] == Poly.var(0) * Q(1, 2)
        assert af.field[2] == ZETA * Q(-1, 12)


class TestErrors:
    def test_degenerate_transverse_block(self):
        A = [[Q(0)] * 6 for _ in range(6)]
        for i in range(3):
            A[i][i] = Q(1)      # no transverse stiffness at all
        with pytest.raises(ReductionError):
            build_dimension_reduction(A)
