"""Tests for Hardy ratios, weights, Korn estimates, and test fields."""
import math

import numpy as np
import pytest
import scipy.linalg as sla

from platecap.elastic import isotropic_stiffness
from platecap.fem import EliminationSolver, MeshError
from platecap.inequalities import (NORM_VARIANTS, ContractError,
                                   SupportLayout, boundary_distance, cutoff,
                                   cutoff_slope, edge_weight, hardy_constant,
                                   hardy_ratio, korn_constant, korn_csv,
                                   korn_system, optimality_witness,
                                   support_weight)

ISO = isotropic_stiffness(1.0, 1.0)
CENTERS = ((0.35, 0.4), (0.65, 0.6))


def random_walks(rng, count, n, end):
    u = np.cumsum(rng.standard_normal((count, n)), axis=1) / math.sqrt(n)
    return u - (u[:, :1] if end == 0 else u[:, -1:])


class TestHardyRatio:
    def test_linear_function_unit_ratio(self):
        x = np.linspace(0.0, 1.0, 2001)
        assert hardy_ratio(x, x, "inverse-square") == pytest.approx(1.0,
                                                                    abs=1e-12)
        # the pole-log weights differ by x^-2 between the two sides, so the
        # identity map is also an equality case there
        assert hardy_ratio(x, x, "pole-log") == pytest.approx(1.0, abs=1e-12)

    def test_power_family_matches_inverse_square_law(self):
        x = np.concatenate([[0.0], np.logspace(-12, 0, 3000)])
        for a in (1.0, 0.9, 0.8, 0.7):
            r = hardy_ratio(x, x ** a, "inverse-square")
            assert r == pytest.approx(1.0 / a ** 2, abs=1e-3)

    def test_sup_ratio_approaches_sharp_constant(self):
        # the integrand mass spreads over ~1/(2a-1) decades, so a grid graded
        # down to 1e-280 is needed for the ratio to develop near a = 1/2
        x = np.concatenate([[0.0], np.logspace(-280, 0, 6000)])
        r = hardy_ratio(x, x ** 0.502, "inverse-square")
        assert 3.9 <= r <= 4.0

    def test_random_piecewise_linear_below_constant(self):
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, 1025)
        for variant in ("inverse-square", "edge-log", "pole-log",
                        "shifted-quartic"):
            end = -1 if variant == "edge-log" else 0
            worst = 0.0
            for _ in range(4):
                u = random_walks(rng, 2500, len(x), end)
                r = hardy_ratio(x, u, variant, h=0.1)
                worst = max(worst, float(np.max(r)))
            assert worst <= hardy_constant(variant) + 1e-3

    def test_smooth_random_fields_below_constant(self):
        rng = np.random.default_rng(12)
        x = np.linspace(0.0, 1.0, 1025)
        modes = np.sin(math.pi * np.arange(1, 21)[None, :] * x[:, None])
        for variant in ("inverse-square", "edge-log", "pole-log",
                        "shifted-quartic"):
            c = rng.standard_normal((4000, 20))
            u = c @ modes.T
            end = -1 if variant == "edge-log" else 0
            u = u - (u[:, :1] if end == 0 else u[:, -1:])
            r = hardy_ratio(x, u, variant, h=0.05)
            assert float(np.max(r)) <= hardy_constant(variant) + 1e-3

    def test_shifted_variant_constant_and_family(self):
        assert hardy_constant("shifted-quartic") == pytest.approx(4.0 / 9.0)
        x = np.linspace(0.0, 1.0, 2001)
        h = 0.05
        u = (x + h) ** 1.5 - h ** 1.5
        r = hardy_ratio(x, u, "shifted-quartic", h=h)
        assert 0.29 <= r <= 4.0 / 9.0

    def test_zero_function_gives_zero(self):
        x = np.linspace(0.0, 1.0, 1001)
        for variant in ("inverse-square", "edge-log", "pole-log",
                        "shifted-quartic"):
            assert hardy_ratio(x, np.zeros_like(x), variant, h=0.1) == 0.0

    def test_endpoint_contract_enforced(self):
        x = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ContractError):
            hardy_ratio(x, x + 1.0, "inverse-square")
        with pytest.raises(ContractError):
            hardy_ratio(x, x, "edge-log")   # u(R) != 0
        with pytest.raises(ContractError):
            hardy_ratio(x, x, "shifted-quartic")   # h missing
        with pytest.raises(ContractError):
            hardy_ratio(x, x, "shifted-quartic", h=-1.0)
        with pytest.raises(ContractError):
            hardy_ratio(x, x, "no-such-variant")
        with pytest.raises(ContractError):
            hardy_ratio(x[::-1], x, "inverse-square")
        with pytest.raises(ContractError):
            hardy_ratio(x[:2], x[:2], "inverse-square")

    def test_batched_input_matches_loop(self):
        rng = np.random.default_rng(13)
        x = np.linspace(0.0, 1.0, 513)
        u = random_walks(rng, 7, len(x), 0)
        batch = hardy_ratio(x, u, "inverse-square")
        single = [hardy_ratio(x, row, "inverse-square") for row in u]
        assert np.allclose(batch, single, rtol=1e-14)


class TestWeights:
    def test_edge_weight_center_value(self):
        assert edge_weight(0.1, (1.0, 1.0), (0.5, 0.5)) == pytest.approx(
            0.6, abs=1e-15)
        assert edge_weight(0.1, (1.0, 1.0), (0.1, 0.04)) == pytest.approx(
            0.14, abs=1e-15)

    def test_support_weight_peak_value(self):
        got = support_weight(0.1, 1, ((0.0, 0.0),), (0.0, 0.0))
        assert got == pytest.approx(10.0 / (1.0 + abs(math.log(0.01))),
                                    rel=1e-14)
        assert got == pytest.approx(1.7840671501818418, rel=1e-12)

    def test_single_support_max_equals_shifted(self):
        # one centre at c is the weight about the origin, shifted by c
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, size=(50, 2))
        c = (0.4, 0.7)
        at_c = support_weight(0.05, 2, (c,), pts)
        shifted = support_weight(0.05, 2, ((0.0, 0.0),), pts - np.array(c))
        assert np.allclose(at_c, shifted, rtol=1e-15)

    def test_multi_support_is_pointwise_max(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        cs = ((0.2, 0.2), (0.8, 0.5))
        multi = support_weight(0.1, 1, cs, pts)
        singles = [support_weight(0.1, 1, (c,), pts) for c in cs]
        assert np.allclose(multi, np.maximum(*singles), rtol=1e-15)

    def test_edge_weight_floor_is_thickness(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        assert np.all(edge_weight(0.03, (1.0, 1.0), pts) >= 0.03)
        assert np.all(boundary_distance((1.0, 1.0), pts) >= 0.0)


class TestSupportLayout:
    def test_validation(self):
        with pytest.raises(ContractError):
            SupportLayout(centers=((0.01, 0.5),), R=1.0, h=0.2)  # disk cut
        with pytest.raises(ContractError):
            SupportLayout(centers=((0.5, 0.5), (0.5, 0.5)), R=1.0, h=0.1)
        with pytest.raises(ContractError):
            SupportLayout(centers=((0.5, 0.5),), R=1.0, h=0.1, mode="welded")
        with pytest.raises(ContractError):
            SupportLayout(centers=(), R=1.0, h=0.1)
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.1)
        assert lay.J == 2


class TestKornConstant:
    def test_plain_norm_stable_across_h(self):
        ks = []
        for h in (0.2, 0.1):
            lay = SupportLayout(centers=CENTERS, R=1.0, h=h)
            est = korn_constant(lay, ISO, "plain")
            assert est.residual < 1e-5
            ks.append(est.constant)
        assert max(ks) / min(ks) < 1.05

    def test_supports_only_grows_with_log(self):
        ks = []
        hs = (0.2, 0.1, 0.05)
        for h in hs:
            lay = SupportLayout(centers=CENTERS, R=1.0, h=h,
                                mode="supports-only")
            ks.append(korn_constant(lay, ISO, "free-edge").constant)
        assert ks[0] < ks[1] < ks[2]
        x = np.array([1.0 + abs(math.log(h)) for h in hs])
        slope = np.polyfit(x, np.array(ks), 1)[0]
        assert slope > 0.5

    def test_more_clamping_does_not_increase_constant(self):
        lay_s = SupportLayout(centers=CENTERS, R=1.0, h=0.1,
                              mode="supports-only")
        lay_b = SupportLayout(centers=CENTERS, R=1.0, h=0.1,
                              mode="lateral+support")
        k_s = korn_constant(lay_s, ISO, "free-edge").constant
        k_b = korn_constant(lay_b, ISO, "free-edge").constant
        assert k_b <= k_s

    def test_rayleigh_quotient_bounded_by_constant(self):
        rng = np.random.default_rng(31)
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.2)
        K, M, grid = korn_system(lay, ISO, "support-weighted")
        est = korn_constant(lay, ISO, "support-weighted")
        free = EliminationSolver(K).free
        for _ in range(5):
            x = np.zeros(K.n)
            x[free] = rng.standard_normal(len(free))
            rq = math.sqrt(float(x @ (M @ x)) / float(x @ (K.matrix @ x)))
            assert rq <= est.constant * (1.0 + 1e-5)

    @pytest.mark.parametrize("mode", ["lateral+support", "supports-only"])
    @pytest.mark.parametrize("variant", NORM_VARIANTS)
    def test_lambda_min_matches_dense_eigh(self, mode, variant):
        # the smallest eigenvalue must be the smallest of the whole pencil,
        # also on the clustered spectra of lateral clamping
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.2, mode=mode)
        K, M, _ = korn_system(lay, ISO, variant)
        free = EliminationSolver(K).free
        ref = sla.eigh(K.matrix.tocsr()[free][:, free].toarray(),
                       M.tocsr()[free][:, free].toarray(),
                       eigvals_only=True, subset_by_index=[0, 0])[0]
        est = korn_constant(lay, ISO, variant)
        assert est.lambda_min == pytest.approx(ref, rel=1e-8)
        assert est.residual <= 1e-6

    def test_unresolved_mesh_rejected(self):
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.2)
        with pytest.raises(MeshError):
            korn_constant(lay, ISO, "plain", resolution=1)
        with pytest.raises(MeshError):
            korn_constant(lay, ISO, "plain", nz=1)

    def test_unknown_variant_rejected(self):
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.2)
        with pytest.raises(ContractError):
            korn_constant(lay, ISO, "fancy")

    def test_csv_format(self):
        lay = SupportLayout(centers=CENTERS, R=1.0, h=0.2)
        est = korn_constant(lay, ISO, "plain")
        text = korn_csv([est])
        lines = text.strip().split("\n")
        assert lines[0] == ("h,J,clamp_mode,norm_variant,K_estimate,"
                            "mesh_cells,eig_residual")
        parts = lines[1].split(",")
        assert len(parts) == 7
        assert float(parts[0]) == 0.2
        assert int(parts[1]) == 2
        assert parts[2] == "lateral+support"
        assert parts[3] == "plain"
        assert float(parts[4]) == pytest.approx(est.constant, rel=1e-9)
        assert int(parts[5]) == est.mesh_cells


class TestCutoff:
    def test_plateaus_and_monotone(self):
        r = np.linspace(-0.5, 1.5, 2001)
        c = cutoff(r)
        assert np.all(c[r <= 0.5] == 1.0)
        assert np.all(c[r >= 1.0] == 0.0)
        assert np.all((0.0 <= c) & (c <= 1.0))
        assert np.all(np.diff(c) <= 1e-15)

    def test_slope_matches_finite_differences(self):
        r = np.linspace(0.51, 0.99, 193)
        fd = (cutoff(r + 1e-6) - cutoff(r - 1e-6)) / 2e-6
        assert np.abs(cutoff_slope(r) - fd).max() < 1e-7


class TestOptimalityWitnesses:
    def test_log_weight_energy_law(self):
        # closed form of the energy integral: 3 pi^3 h / |ln h|
        for h in (1e-2, 1e-3, 1e-4):
            E, _ = optimality_witness("log-weight", h)
            assert E * abs(math.log(h)) / h == pytest.approx(
                3.0 * math.pi ** 3, rel=1e-6)

    def test_log_weight_norm_outgrows_energy(self):
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            E, N = optimality_witness("log-weight", h)
            lnh = abs(math.log(h))
            assert E * lnh < 1.0                      # stays bounded
            assert 2.0 < N / (h * lnh) < 2.4          # norm ~ h |ln h|
            ratios.append(N / E)
        assert ratios[0] < ratios[1] < ratios[2]
        # the ratio grows like |ln h|^2: factor ~2.25 then ~1.78 per decade
        assert 1.5 < ratios[1] / ratios[0] < 2.6
        assert 1.5 < ratios[2] / ratios[1] < 2.2

    def test_rotation_certifies_inverse_h_growth(self):
        vals = []
        for h in (0.2, 0.1, 0.05, 0.025):
            E, N = optimality_witness("rotation", h)
            assert E / h ** 3 == pytest.approx(17.8122, rel=1e-3)
            vals.append(math.sqrt(N / E) * h)
        vals = np.array(vals)
        assert vals.min() > 0.25
        assert vals.max() / vals.min() < 1.05

    def test_log_factor_energy_decays_with_log(self):
        for h in (1e-2, 1e-3):
            E, N = optimality_witness("log-factor", h)
            assert E * abs(math.log(h)) / h == pytest.approx(30.88, rel=1e-2)
            assert 3.5 < N / h < 6.0                  # weighted norm order one

    def test_witness_contracts(self):
        with pytest.raises(ContractError):
            optimality_witness("log-weight", 0.5)
        with pytest.raises(ContractError):
            optimality_witness("rotation", 0.3)
        with pytest.raises(ContractError):
            optimality_witness("log-factor", 0.2)
        with pytest.raises(ContractError):
            optimality_witness("mystery", 0.01)
