"""Acceptance gates for the whole package, one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every tolerance and runtime budget is pinned here; the
tests print the measured numbers so a passing run still documents the
margins.
"""
import math
import random
import time
from fractions import Fraction as Q

import numpy as np

from platecap.cli import (_random_rational_spd, _tables_equal,
                          random_admissible_walks)
from platecap.elastic import (isotropic_stiffness, isotropic_stiffness_exact,
                              reduced_stiffness, reduced_stiffness_exact)
from platecap.fundamental import construct_fundamental, \
    verify_contour_identities
from platecap.inequalities import (SupportLayout, hardy_constant, hardy_ratio,
                                   korn_constant, optimality_witness)
from platecap.kirchhoff import (PlateDomain, load_from_spec,
                                manufactured_bending, manufactured_membrane,
                                operator_coefficients, solve_bending,
                                solve_membrane, solve_plate)
from platecap.layer import extract_capacity, layer_mesh
from platecap.polyfield import Poly, PolyField, Q2
from platecap.reduction import (bending_table_direct,
                                build_dimension_reduction,
                                membrane_table_direct, residual_report)

HARDY_VARIANTS = ("inverse-square", "edge-log", "pole-log",
                  "shifted-quartic")
SWEEP = (0.2, 0.1, 0.05, 0.025)
CENTERS = ((0.35, 0.4), (0.65, 0.6))
A_ISO = isotropic_stiffness(1.0, 1.0)


def _orthotropic_stiffness():
    S = np.diag([1.0, 1.3, 1.7, 1.0, 1.0, 1.0])
    return S @ A_ISO @ S


def test_01_hardy_suite():
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1025)
    rng = np.random.default_rng(0)
    worsts = {}
    for variant in HARDY_VARIANTS:
        end = len(x) - 1 if variant == "edge-log" else 0
        u = random_admissible_walks(rng, 10000, len(x), end)
        ratios = np.atleast_1d(hardy_ratio(x, u, variant, h=0.1))
        bound = hardy_constant(variant)
        worsts[variant] = float(ratios.max())
        assert worsts[variant] <= bound + 1e-3, (variant, worsts[variant])
    assert hardy_constant("shifted-quartic") == 4.0 / 9.0

    # near-sharpness of the bound 4: power profiles on a geometric grid
    xg = np.concatenate([[0.0], np.geomspace(1e-100, 1.0, 32768)])
    fam = np.stack([xg ** a for a in (0.505, 0.502, 0.501, 0.5005, 0.5001)])
    fam_ratios = np.atleast_1d(hardy_ratio(xg, fam, "inverse-square"))
    assert fam_ratios.max() <= 4.0 + 1e-3
    assert fam_ratios.max() >= 3.9

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 hardy-suite: PASS (worst random ratios "
          f"{max(worsts.values()):.3g}, family sup {fam_ratios.max():.4f}, "
          f"{elapsed:.1f}s)")


def test_02_isotropic_reduction_exact():
    rng = random.Random(2)
    for _ in range(20):
        lam = Q(rng.randint(0, 40), rng.randint(1, 9))
        mu = Q(rng.randint(1, 40), rng.randint(1, 9))
        A0 = reduced_stiffness_exact(isotropic_stiffness_exact(lam, mu))
        lam_p = 2 * lam * mu / (lam + 2 * mu)
        assert A0[0][1] == lam_p
        assert A0[0][0] == lam_p + 2 * mu
        assert A0[0][2] == 0 and A0[2][2] == 2 * mu
        ben = bending_table_direct([list(r) for r in A0])
        coeff = mu * (lam + mu) / (3 * (lam + 2 * mu))
        assert ben[(4, 0)] == Q2.of(coeff)
        assert ben[(0, 4)] == Q2.of(coeff)
    print("ACCEPTANCE 2 isotropic-algebra: PASS (20 exact rational "
          "materials)")


def test_03_ansatz_residuals():
    t0 = time.perf_counter()
    rng = random.Random(0)
    materials = [isotropic_stiffness_exact(1, 1)]
    materials += [_random_rational_spd(rng) for _ in range(5)]
    for A in materials:
        ops = build_dimension_reduction(A)
        A0 = [list(r) for r in ops.reduced]
        assert _tables_equal(ops.membrane, membrane_table_direct(A0), True)
        assert _tables_equal(ops.bending, bending_table_direct(A0), False)
        for a in range(7):
            for b in range(7 - a):
                for j in range(3):
                    comps = [Poly.zero()] * 3
                    comps[j] = Poly.monomial(a, b, 0)
                    rep = residual_report(ops, PolyField(comps))
                    assert rep.a15_ok and rep.a16_ok and rep.a17_ok, \
                        (a, b, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 ansatz-residuals: PASS (6 materials x 84 "
          f"monomial fields, exact zeros, {elapsed:.1f}s)")


def test_04_fundamental_identities():
    t0 = time.perf_counter()
    for A in (A_ISO, _orthotropic_stiffness()):
        A0 = reduced_stiffness(A)
        phi = construct_fundamental(A0, 512)
        for r in (0.5, 1.0, 2.0):
            rep = verify_contour_identities(phi, A0, r)
            assert len(rep.defects) == 6
            assert rep.max_defect <= 1e-6, (r, rep.worst, rep.max_defect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 fundamental-identities: PASS (six relations, "
          f"two materials, radii 0.5/1/2, {elapsed:.1f}s)")


def test_05_kirchhoff_convergence():
    t0 = time.perf_counter()
    A0 = reduced_stiffness(A_ISO)
    mem, ben = operator_coefficients(A0)
    errs_m, errs_b = [], []
    for level in range(4):
        dom = PlateDomain(1.0, 1.0, 1.0 / (8 * 2 ** level))
        w_exact, g = manufactured_membrane(dom, mem)
        w1, w2, _ = solve_membrane(dom, A0, g)
        we = w_exact(dom.grid.nodes())
        errs_m.append(max(np.abs(w1 - we[:, 0]).max(),
                          np.abs(w2 - we[:, 1]).max()))
        w3_exact, g3 = manufactured_bending(dom, ben)
        w3, _, _ = solve_bending(dom, A0, g3)
        errs_b.append(np.abs(w3 - w3_exact(dom.grid.nodes())).max())
    rate_m = np.log2(np.array(errs_m[:-1]) / np.array(errs_m[1:]))
    rate_b = np.log2(np.array(errs_b[:-1]) / np.array(errs_b[1:]))
    assert rate_m.min() >= 1.9, errs_m
    assert rate_b.min() >= 1.9, errs_b

    dom = PlateDomain(1.0, 1.0, 1.0 / 16, point=(0.5, 0.5))
    sol = solve_plate(dom, A0, load_from_spec(dom, "sine-bump"))
    gap = abs(sol.w3[dom.point_node])
    assert gap <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 kirchhoff-convergence: PASS (orders "
          f"{rate_m.min():.2f}/{rate_b.min():.2f}, point gap {gap:.1e}, "
          f"{elapsed:.1f}s)")


def test_06_korn_scaling():
    t0 = time.perf_counter()
    lateral = []
    for h in SWEEP:
        layout = SupportLayout(centers=CENTERS, R=1.0, h=h,
                               mode="lateral+support")
        lateral.append(korn_constant(layout, A_ISO, "plain",
                                     resolution=2, nz=3).constant)
    lateral = np.array(lateral)
    variation = lateral.max() / lateral.min() - 1.0
    assert variation < 0.30, lateral

    supported = []
    for h in SWEEP:
        layout = SupportLayout(centers=CENTERS, R=1.0, h=h,
                               mode="supports-only")
        supported.append(korn_constant(layout, A_ISO, "free-edge",
                                       resolution=2, nz=3).constant)
    xs = 1.0 + np.abs(np.log(SWEEP))
    ys = np.array(supported)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2)
    assert slope > 0, supported
    assert r2 >= 0.9, (supported, r2)

    # a rotation concentrated at one support bounds K(h) from below by
    # const/h, so the product with h must stay above a fixed constant
    certificates = []
    for h in SWEEP:
        energy, norm = optimality_witness("rotation", h)
        certificates.append(math.sqrt(norm / energy) * h)
    assert min(certificates) >= 0.25, certificates

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 6 korn-scaling: PASS (variation {variation:.3f}, "
          f"log fit slope {slope:.3f} R2 {r2:.3f}, rotation certificate "
          f">= {min(certificates):.3f}, {elapsed:.0f}s)")


def test_07_capacity_matrix():
    t0 = time.perf_counter()
    mesh = layer_mesh()                       # T=8, n_z=6, unit disk patch
    cap, _ = extract_capacity(mesh, A_ISO)
    assert cap.converged.all()
    assert (cap.iterations <= 4).all(), cap.iterations
    assert cap.symmetry_defect <= 0.05, cap.symmetry_defect

    fine, _ = extract_capacity(mesh.refined(), A_ISO)
    assert fine.symmetry_defect < cap.symmetry_defect, \
        (cap.symmetry_defect, fine.symmetry_defect)

    wide, _ = extract_capacity(mesh.with_box(12.0), A_ISO)
    drift = np.abs(cap.C - wide.C)
    budget = cap.error_bars + wide.error_bars
    assert (drift <= budget).all(), (drift, budget)

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    used = float((drift / np.maximum(budget, 1e-300)).max())
    print(f"ACCEPTANCE 7 capacity-matrix: PASS (defect "
          f"{cap.symmetry_defect:.4f} -> {fine.symmetry_defect:.4f}, "
          f"box drift <= {used:.2f} of budget, {elapsed:.0f}s)")


def test_08_optimality_witnesses():
    t0 = time.perf_counter()
    logged, ratios = [], []
    for h in (1e-2, 1e-3, 1e-4):
        energy, norm = optimality_witness("log-weight", h)
        logged.append(energy * abs(math.log(h)))
        ratios.append(norm / energy)
    # with the logarithm the weighted functional stays bounded ...
    assert max(logged) <= 1.0, logged
    assert logged[0] > logged[1] > logged[2]
    # ... but without it the norm outruns the energy without bound
    assert ratios[1] / ratios[0] >= 1.5
    assert ratios[2] / ratios[1] >= 1.5
    assert ratios[2] / ratios[0] >= 3.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8 optimality-witnesses: PASS (logged energy "
          f"{logged[0]:.3f} -> {logged[2]:.4f}, norm/energy x"
          f"{ratios[2] / ratios[0]:.2f} over two decades, {elapsed:.1f}s)")
