"""Fundamental matrices: closed forms, plane-wave construction, identities."""
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from platecap.elastic import (InvalidMaterial, isotropic_stiffness,
                              reduced_stiffness)
from platecap.fundamental import (ConstructionError, PhiSharp,
                                  SingularityError, construct_fundamental,
                                  eval_isotropic_fundamentals,
                                  normalize_membrane,
                                  verify_contour_identities)
from platecap.polyfield import Q2
from platecap.reduction import bending_table_direct, membrane_table_direct

A0_ISO = reduced_stiffness(isotropic_stiffness(1.0, 1.0))
A0_ORTH = np.diag([4.0, 1.0, 2.0])

rng = np.random.default_rng(77)
_B = rng.standard_normal((3, 3))
A0_RAND = _B @ _B.T + 3.0 * np.eye(3)

E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def exact_table(builder, A0):
    t = builder([[Q2.of(Q(x)) for x in row] for row in np.asarray(A0).tolist()])
    return {k: v for k, v in t.items()}


class TestIsotropicClosedForm:
    def test_reference_values(self):
        P, p3, g3 = eval_isotropic_fundamentals(1.0, 1.0, (1.0, 0.0))
        assert abs(P[0, 0] - 5 / (32 * math.pi)) < 1e-15
        assert P[0, 1] == 0.0 and P[1, 0] == 0.0
        assert p3 == 0.0                      # ln 1 = 0 at r = 1
        _, p3b, _ = eval_isotropic_fundamentals(0.7, 1.3, (0.6, -0.8))
        assert p3b == 0.0

    def test_phi3_coefficient(self):
        y = (2.0, 0.0)
        _, p3, _ = eval_isotropic_fundamentals(1.0, 1.0, y)
        assert abs(p3 / (4.0 * math.log(2.0)) - 9 / (16 * math.pi)) < 1e-14

    def test_gradient_matches_difference_quotient(self):
        y = np.array([0.8, -0.33])
        _, _, g = eval_isotropic_fundamentals(1.0, 2.0, y)
        h = 1e-6
        for i, e in enumerate((E1, E2)):
            _, pp, _ = eval_isotropic_fundamentals(1.0, 2.0, y + h * e)
            _, pm, _ = eval_isotropic_fundamentals(1.0, 2.0, y - h * e)
            assert abs((pp - pm) / (2 * h) - g[i]) < 1e-8

    def test_errors(self):
        with pytest.raises(SingularityError):
            eval_isotropic_fundamentals(1.0, 1.0, (0.0, 0.0))
        with pytest.raises(InvalidMaterial):
            eval_isotropic_fundamentals(1.0, -1.0, (1.0, 0.0))


class TestConstruction:
    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (2.0, 1.25), (0.5, 2.0)])
    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_isotropic_oracle(self, lam, mu, n):
        # the gauge leaves Phi3 = c3 r^2 ln r with no quadratic, so Phi3 and
        # its gradient match the closed form in value; Phi' only up to the
        # constant that normalize_membrane picks
        A0 = reduced_stiffness(isotropic_stiffness(lam, mu))
        mem, bend = construct_fundamental(A0, n)
        # the round-off cut leaves the closed form's few harmonics, which is
        # what keeps far-field evaluation cheap
        assert np.count_nonzero(mem.psi, axis=2).max() <= 3
        assert np.count_nonzero(bend.log_coeff) == 1
        assert not bend.psi3.any()
        g1, g2 = bend.gradient()
        P1, p3, _ = eval_isotropic_fundamentals(lam, mu, (2.0, 0.0))
        P0, _, _ = eval_isotropic_fundamentals(lam, mu, (1.0, 0.0))
        c3 = p3 / (4.0 * math.log(2.0))
        assert np.abs(mem.Psi - (P1 - P0) / math.log(2.0)).max() < 1e-12
        assert abs(bend.Psi3 + 2.0 * c3) < 1e-12
        diffs = []
        for r in (0.5, 1.0, 2.0, 5.0):
            scale = c3 * r * (1.0 + abs(math.log(r)))
            for t in (0.3, 1.1, 2.7):
                y = (r * math.cos(t), r * math.sin(t))
                P, phi3, grad3 = eval_isotropic_fundamentals(lam, mu, y)
                assert abs(bend.field().eval(y)[0] - phi3) \
                    <= 1e-13 * r * scale
                grad = np.array([g1.eval(y)[0], g2.eval(y)[0]])
                assert np.abs(grad - grad3).max() <= 1e-13 * scale
                diffs.append([[mem.field(i, j).eval(y)[0] for j in range(2)]
                              for i in range(2)] - P)
        diffs = np.array(diffs)
        assert np.abs(diffs - diffs[0]).max() < 1e-12

    def test_isotropic_reference_coefficients(self):
        mem, bend = construct_fundamental(A0_ISO, 512)
        assert np.abs(mem.Psi + 11 / (32 * math.pi) * np.eye(2)).max() < 1e-14
        assert abs(bend.Psi3 + 9 / (8 * math.pi)) < 1e-14

    def test_psi_symmetric_nondegenerate(self):
        for A0 in (A0_ORTH, A0_RAND):
            mem, _ = construct_fundamental(A0, 512)
            assert np.abs(mem.Psi - mem.Psi.T).max() < 1e-14
            assert abs(np.linalg.det(mem.Psi)) > 1e-6

    def test_not_positive_definite_rejected(self):
        with pytest.raises(InvalidMaterial):
            construct_fundamental(np.diag([1.0, -1.0, 1.0]))

    def test_under_resolved_grid_fails_validation(self):
        sharp = np.array([[30.0, 0.2, 0.1], [0.2, 0.5, 0.0],
                          [0.1, 0.0, 1.0]])
        construct_fundamental(sharp, 256)     # resolved: fine
        with pytest.raises(ConstructionError) as e:
            construct_fundamental(sharp, 16)
        assert float(str(e.value).rsplit("defect ", 1)[1]) > 1e-6


class TestContourIdentities:
    @pytest.mark.parametrize("A0", [A0_ISO, A0_ORTH, A0_RAND],
                             ids=["iso", "orth", "rand"])
    def test_all_relations(self, A0):
        mem, bend = construct_fundamental(A0, 1024)
        for r in (0.5, 1.0, 2.0):
            rep = verify_contour_identities((mem, bend), A0, r)
            for name, v in rep.defects.items():
                assert v < 1e-10, (name, r, v)

    def test_raw_energy_pairing_drifts_like_log(self):
        # the reported pairing is drift-corrected; undoing the correction
        # recovers the raw contour integral, which must move by exactly
        # -ln(r2/r1) Psi' between radii
        mem, bend = construct_fundamental(A0_ORTH, 512)
        raw = {}
        for r in (0.5, 2.0):
            rep = verify_contour_identities((mem, bend), A0_ORTH, r)
            assert rep.defects["energy orthogonality"] < 1e-10
            raw[r] = rep.energy_orthogonality - math.log(r) * mem.Psi
        drift = raw[2.0] - raw[0.5] + math.log(4.0) * mem.Psi
        assert np.abs(drift).max() < 1e-10

    def test_constant_shift_and_renormalization(self):
        mem, bend = construct_fundamental(A0_ORTH, 512)
        shifted = mem.psi.copy()
        C = np.array([[0.3, -0.1], [0.2, 0.5]])
        for i in range(2):
            for j in range(2):
                shifted[i, j, 0] += C[i, j]
        mem_s = type(mem)(Psi=mem.Psi.copy(), psi=shifted, n=mem.n)
        rep = verify_contour_identities((mem_s, bend), A0_ORTH, 1.0)
        assert rep.defects["traction resultant"] < 1e-10   # unchanged
        assert np.abs(rep.energy_orthogonality + C.T).max() < 1e-10
        mem_n = normalize_membrane(mem_s, A0_ORTH)
        rep_n = verify_contour_identities((mem_n, bend), A0_ORTH, 1.0)
        assert rep_n.defects["energy orthogonality"] < 1e-10

    def test_origin_contour_rejected(self):
        mem, bend = construct_fundamental(A0_ISO, 256)
        with pytest.raises(SingularityError):
            verify_contour_identities((mem, bend), A0_ISO, 0.0)


def _fd1(f, pts, e, h):
    s = lambda c: f(pts + c * h * e)
    return (-s(2) + 8 * s(1) - 8 * s(-1) + s(-2)) / (12 * h)


def _fd_chain(f, pts, dirs, h):
    if not dirs:
        return f(pts)
    return _fd1(lambda p: _fd_chain(f, p, dirs[1:], h), pts, dirs[0], h)


def _sample_points(radii=(0.5, 1.0, 2.0)):
    pts = []
    for r in radii:
        for t in (0.2, 1.4, 3.9):
            pts.append((r * math.cos(t), r * math.sin(t)))
    return np.array(pts)


class TestPointwiseResiduals:
    def test_membrane_operator_annihilates(self):
        mem, _ = construct_fundamental(A0_ORTH, 512)
        tab = exact_table(membrane_table_direct, A0_ORTH)
        pts = _sample_points()
        h = 3e-3
        for j in range(2):
            cols = [mem.field(0, j), mem.field(1, j)]
            res = np.zeros((2, len(pts)))
            for (a, b), M in tab.items():
                dirs = [E1] * a + [E2] * b
                d = [_fd_chain(cols[k].eval, pts, dirs, h) for k in range(2)]
                for i in range(2):
                    for k in range(2):
                        c = float(Q2.of(M[i][k]))
                        if c:
                            res[i] += c * d[k]
            scale = max(abs(cols[0].eval(pts)).max(), 1.0)
            assert np.abs(res).max() < 1e-6 * scale

    @pytest.mark.parametrize("A0", [A0_ORTH, A0_RAND], ids=["orth", "rand"])
    def test_bending_operator_annihilates(self, A0):
        _, bend = construct_fundamental(A0, 512)
        tab = exact_table(bending_table_direct, A0)
        pts = _sample_points((0.7, 1.0, 2.0))
        f = bend.field().eval

        def residual(h):
            res = np.zeros(len(pts))
            mag = np.zeros(len(pts))
            for (a, b), c in tab.items():
                dirs = [E1] * a + [E2] * b
                term = float(Q2.of(c)) * _fd_chain(f, pts, dirs, h)
                res += term
                mag = np.maximum(mag, np.abs(term))
            return res, mag

        # fourth-order differences carry an h^4 truncation term; one
        # extrapolation step strips it, leaving the rounding floor of a
        # depth-four stencil, a few parts in 1e7 of the cancelled terms
        r1, mag = residual(4e-3)
        r2, _ = residual(8e-3)
        rich = (16.0 * r1 - r2) / 15.0
        assert np.abs(rich).max() < 2e-6 * max(mag.max(), 1.0)

    def test_gradient_fields_are_derivatives(self):
        _, bend = construct_fundamental(A0_ORTH, 512)
        f = bend.field()
        g1, g2 = bend.gradient()
        y = np.array([[0.8, -0.33]])
        errs = []
        for h in (2e-3, 1e-3):
            fd = (f.eval(y + [h, 0.0]) - f.eval(y - [h, 0.0])) / (2 * h)
            errs.append(abs(fd[0] - g1.eval(y)[0]))
        assert 3.0 < errs[0] / errs[1] < 5.0      # second order in step
        fd2 = (f.eval(y + [0.0, 1e-4]) - f.eval(y - [0.0, 1e-4])) / 2e-4
        assert abs(fd2[0] - g2.eval(y)[0]) < 1e-7


class TestAssemblyAndOutput:
    def test_phisharp_block_pattern(self):
        sharp = construct_fundamental(A0_ISO, 256)
        assert isinstance(sharp, PhiSharp)
        mem, bend = sharp
        y = (0.9, 0.4)
        M = np.array([[f.eval(y)[0] for f in row] for row in sharp.fields()])
        assert M.shape == (3, 4)
        assert np.array_equal(M[:2, :2], [[mem.field(i, j).eval(y)[0]
                                           for j in range(2)]
                                          for i in range(2)])
        assert np.all(M[:2, 2:] == 0.0) and np.all(M[2, :2] == 0.0)
        g1, g2 = bend.gradient()
        assert M[2, 2] == pytest.approx(-g2.eval(y)[0])
        assert M[2, 3] == pytest.approx(g1.eval(y)[0])

    def test_logfield_origin_rejected(self):
        mem, _ = construct_fundamental(A0_ISO, 64)
        with pytest.raises(SingularityError):
            mem.field(0, 0).eval([[0.0, 0.0]])

    @pytest.mark.parametrize("A0, sparse", [(A0_ISO, True), (A0_RAND, False)])
    def test_logfield_eval_matches_dense_harmonic_sum(self, A0, sparse):
        mem, bend = construct_fundamental(A0, 64)
        g1, g2 = bend.gradient()
        fields = [mem.field(0, 0), mem.field(0, 1), bend.field(), g2,
                  g1.d(1).d(2)]
        spectra = np.array([c for f in fields for pair in f.terms.values()
                            for c in pair])
        nonzero = np.count_nonzero(spectra, axis=1)
        # isotropic fields carry a few low harmonics, anisotropic ones every
        # even harmonic
        assert (nonzero.max() <= 8) if sparse else (nonzero.max() >= 31)
        pts = np.random.default_rng(5).uniform(-3.0, 3.0, size=(200, 2))
        r = np.hypot(pts[:, 0], pts[:, 1])
        basis = np.exp(1j * np.outer(np.arctan2(pts[:, 1], pts[:, 0]),
                                     np.fft.fftfreq(64, d=1.0 / 64)))
        for f in fields:
            dense = sum(r ** k * ((basis @ A).real * np.log(r)
                                  + (basis @ B).real)
                        for k, (A, B) in f.terms.items())
            assert np.allclose(f.eval(pts), dense, rtol=1e-12,
                               atol=1e-12 * np.abs(dense).max())
