"""Stiffness algebra, strain columns, and the through-thickness split."""
import json
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from platecap.elastic import (InvalidMaterial, check_stiffness, full_operator,
                              isotropic_stiffness, isotropic_stiffness_exact,
                              lame_reduced, lame_reduced_exact,
                              layer_operator_parts, material_from_json,
                              reduced_stiffness, reduced_stiffness_exact,
                              rigid_motion_matrix, rigid_polyfield,
                              strain_matrix, strain_matrix_exact,
                              strain_of_polyfield)
from platecap.polyfield import Poly, PolyField, Q2, mat_to_float


class TestStiffness:
    def test_isotropic_entries(self):
        A = isotropic_stiffness(1.0, 1.0)
        assert A[0, 0] == 3.0 and A[0, 1] == 1.0
        assert A[2, 2] == 2.0 and A[0, 5] == 1.0
        assert A[3, 3] == 2.0 and A[5, 5] == 3.0

    def test_zero_lambda_half_mu_is_identity(self):
        assert np.array_equal(isotropic_stiffness(0.0, 0.5), np.eye(6))

    def test_lam2_mu1(self):
        A = isotropic_stiffness(2.0, 1.0)
        assert A[0, 0] == 4.0 and A[0, 1] == 2.0 and A[2, 2] == 2.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidMaterial):
            isotropic_stiffness_exact(1, 0)
        with pytest.raises(InvalidMaterial):
            isotropic_stiffness_exact(-1, 1)

    def test_check_stiffness(self):
        check_stiffness(isotropic_stiffness(1.0, 1.0))
        with pytest.raises(InvalidMaterial):
            check_stiffness(np.eye(5))
        B = np.eye(6)
        B[0, 1] = 1.0
        with pytest.raises(InvalidMaterial):
            check_stiffness(B)               # not symmetric
        with pytest.raises(InvalidMaterial):
            check_stiffness(-np.eye(6))      # not positive definite


class TestReducedStiffness:
    def test_exact_values_unit_lame(self):
        A0 = reduced_stiffness_exact(isotropic_stiffness_exact(1, 1))
        assert A0[0][0] == Q(8, 3) and A0[0][1] == Q(2, 3)
        assert A0[2][2] == Q(2) and A0[0][2] == 0
        assert lame_reduced_exact(1, 1) == Q(2, 3)
        assert abs(lame_reduced(1.0, 1.0) - 2.0 / 3.0) < 1e-15

    def test_reduced_is_energy_minimum(self):
        # A0 x.x = min_z  A (x; z).(x; z): the transverse components relax
        rng = np.random.default_rng(0)
        for _ in range(20):
            B = rng.normal(size=(6, 6))
            A = B @ B.T + 6 * np.eye(6)
            A0 = reduced_stiffness(A)
            x = rng.normal(size=3)
            zstar = -np.linalg.solve(A[3:, 3:], A[3:, :3] @ x)
            v = np.concatenate([x, zstar])
            assert abs(x @ A0 @ x - v @ A @ v) < 1e-10 * max(1.0, v @ A @ v)
            # any other z only increases the energy
            z = zstar + rng.normal(size=3)
            w = np.concatenate([x, z])
            assert w @ A @ w >= x @ A0 @ x - 1e-10

    def test_reduced_matches_exact(self):
        lam, mu = Q(5, 3), Q(7, 2)
        A0e = reduced_stiffness_exact(isotropic_stiffness_exact(lam, mu))
        A0f = reduced_stiffness(isotropic_stiffness(float(lam), float(mu)))
        assert np.allclose(A0f, mat_to_float(A0e), atol=1e-12)
        # diagonal form: lam' + 2 mu on the normal entries
        lamp = lame_reduced_exact(lam, mu)
        assert A0e[0][0] == lamp + 2 * mu and A0e[0][1] == lamp


class TestMaterialParsing:
    def test_isotropic_dict_and_json(self):
        A = material_from_json({"lambda": 1, "mu": 1})
        assert A[0, 0] == 3.0
        A2 = material_from_json(json.dumps({"lambda": 1, "mu": 1}))
        assert np.array_equal(A, A2)

    def test_full_matrix_round_trip(self):
        A = isotropic_stiffness(2.0, 1.5)
        upper = [A[i, j] for i in range(6) for j in range(i, 6)]
        B = material_from_json({"A": upper})
        assert np.allclose(A, B)

    def test_bad_inputs(self):
        with pytest.raises(InvalidMaterial):
            material_from_json({"A": [1.0] * 20})
        with pytest.raises(InvalidMaterial):
            material_from_json({"nu": 0.3})
        with pytest.raises(InvalidMaterial):
            material_from_json([1, 2])


class TestStrain:
    def test_strain_matrix_rows(self):
        D = strain_matrix((1.0, 0.0, 0.0))
        assert D[0, 0] == 1.0 and D[2, 1] == 2.0 ** -0.5 and D[3, 2] == 2.0 ** -0.5
        E3 = strain_matrix((0.0, 0.0, 1.0))
        assert E3[5, 2] == 1.0 and E3[3, 0] == 2.0 ** -0.5

    def test_exact_matches_float(self):
        a = (Q(1, 3), Q(-2), Q(5, 7))
        De = strain_matrix_exact(a)
        Df = strain_matrix(tuple(float(x) for x in a))
        assert np.allclose(Df, mat_to_float(De), atol=1e-15)

    def test_polyfield_strain(self):
        eps = strain_of_polyfield(PolyField([Poly.var(0), 0, 0]))
        assert eps[0] == Poly.const(1)
        assert all(eps[k].is_zero() for k in range(1, 6))
        shear = strain_of_polyfield(PolyField([Poly.var(1), Poly.var(0), 0]))
        assert shear[2] == Poly.const(Q2(0, 1))   # sqrt2 on the mixed row

    def test_rigid_motions_are_strain_free(self):
        rng = random.Random(2)
        for _ in range(10):
            c = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
            eps = strain_of_polyfield(rigid_polyfield(c))
            assert all(e.is_zero() for e in eps)

    def test_rigid_matrix_consistency(self):
        c = [Q(1), Q(-2), Q(3), Q(1, 2), Q(-1, 3), Q(2, 5)]
        u = rigid_polyfield(c)
        xi = (0.7, -0.3, 0.25)
        expect = rigid_motion_matrix(xi) @ np.array([float(x) for x in c])
        got = u.eval(*xi)
        assert np.allclose([float(g) for g in got], expect, atol=1e-12)


class TestOperatorSplit:
    def test_zeta_free_fields_are_l0_kernel(self):
        A = isotropic_stiffness_exact(1, 1)
        u = PolyField([Poly.monomial(2, 1, 0), Poly.var(1), Poly.var(0)])
        assert layer_operator_parts(A, u, "L0").is_zero()

    def test_face_traction_of_uniform_stretch(self):
        # u = (0,0,zeta): traction magnitude lam + 2 mu, outward on both faces
        A = isotropic_stiffness_exact(1, 1)
        u = PolyField([0, 0, Poly.var(2)])
        top = layer_operator_parts(A, u, "N0+").subs_zeta(Q(1, 2))
        bot = layer_operator_parts(A, u, "N0-").subs_zeta(Q(-1, 2))
        assert top[2] == Poly.const(3) and bot[2] == Poly.const(-3)
        assert top[0].is_zero() and bot[1].is_zero()

    def test_unknown_part_rejected(self):
        A = isotropic_stiffness_exact(1, 1)
        with pytest.raises(ValueError):
            layer_operator_parts(A, PolyField([0, 0, 0]), "L3")

    def test_thickness_recomposition(self):
        # h^2 L(grad_y, d_z) u(y, z/h) = (L0 + h L1 + h^2 L2) u at zeta = z/h
        rng = random.Random(9)
        h = Q(1, 3)
        B = [[Q(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(6)]
             for _ in range(6)]
        A = [[sum(B[k][i] * B[k][j] for k in range(6)) + (i == j)
              for j in range(6)] for i in range(6)]
        for _ in range(5):
            u = PolyField([
                Poly({(rng.randint(0, 1), rng.randint(0, 1), rng.randint(0, 2)):
                      rng.randint(-3, 3) for _ in range(4)})
                for _ in range(3)])
            parts = [layer_operator_parts(A, u, w) for w in ("L0", "L1", "L2")]
            R = parts[0] + parts[1] * h + parts[2] * (h * h)
            v = PolyField([c.scale_zeta(1 / h) for c in u])
            lhs = full_operator(A, v) * (h * h)
            rhs = PolyField([c.scale_zeta(1 / h) for c in R])
            assert lhs == rhs

    def test_symbol_matches_monomial_inputs(self):
        # a constant-coefficient operator P(zeta, d_y) maps the input
        # c(zeta) y^(a,b)/(a! b!) e_j to a field whose y-free part is the
        # s^(a,b) coefficient of its symbol P(zeta, s) c(zeta) e_j
        rng = random.Random(11)
        B = [[Q(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(6)]
             for _ in range(6)]
        A = [[sum(B[k][i] * B[k][j] for k in range(6)) + (i == j)
              for j in range(6)] for i in range(6)]
        c = Poly({(0, 0, k): Q(rng.randint(-3, 3), 2) for k in range(3)})
        for which in ("L0", "L1", "L2", "N0+", "N0-", "N1+", "N1-"):
            for j in range(3):
                comps = [Poly.zero()] * 3
                comps[j] = c
                sym = layer_operator_parts(A, PolyField(comps), which,
                                           symbol=True)
                for a, b in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
                    comps[j] = c * Poly.monomial(
                        a, b, 0, Q(1, math.factorial(a) * math.factorial(b)))
                    out = layer_operator_parts(A, PolyField(comps), which)
                    for i in range(3):
                        want = {(0, 0, k): v
                                for (x, y, k), v in sym[i].terms.items()
                                if (x, y) == (a, b)}
                        got = {k: v for k, v in out[i].terms.items()
                               if k[:2] == (0, 0)}
                        assert got == want, (which, j, a, b, i)

    def test_full_operator_isotropic_laplacian(self):
        # lam = 0, mu = 1/2 gives A = I: L = -div(eps) = -(Delta u + grad div u)/2
        A = isotropic_stiffness_exact(0, Q(1, 2))
        u = PolyField([Poly.monomial(2, 0, 0), 0, 0])   # u1 = y1^2
        out = full_operator(A, u)
        assert out[0] == Poly.const(-2)
        assert out[1].is_zero() and out[2].is_zero()
