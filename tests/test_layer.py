"""Truncated layer: mesh, solves on the clamped box, weighted norm, far-field
template, capacity extraction."""
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from platecap import layer
from platecap.elastic import (full_operator, isotropic_stiffness,
                              layer_operator_parts, rigid_motion_matrix)
from platecap.fem import (ConstraintSet, EliminationSolver, MeshError,
                          StructuredGrid, assemble_elastic, assemble_load,
                          solve_cg)
from platecap.fundamental import construct_fundamental
from platecap.inequalities import ContractError
from platecap.layer import (ExtractionError, FarFieldExpansion,
                            capacity_json, decay_csv, decay_trace,
                            extract_capacity, grid_interpolate, layer_mesh,
                            rigid_sharp, v01_norm)
from platecap.polyfield import Poly, PolyField, mat_to_float
from platecap.reduction import build_dimension_reduction

A1 = isotropic_stiffness(1.0, 1.0)


@pytest.fixture(scope="module")
def ops():
    return build_dimension_reduction(A1)


@pytest.fixture(scope="module")
def phi(ops):
    return construct_fundamental(mat_to_float(ops.reduced),
                                 n_angular=layer._PHI_ANGULAR)


@pytest.fixture(scope="module")
def expansion(ops, phi):
    return FarFieldExpansion(phi, operators=ops)


class TestLayerMesh:
    def test_default_geometry(self):
        m = layer_mesh()
        ax = m.grid.axes[0]
        assert m.T == 8.0 and m.n_z == 6
        assert np.allclose(ax, -ax[::-1])           # symmetric axis
        assert ax[0] == -8.0 and ax[-1] == 8.0
        core = ax[(ax >= 0) & (ax <= m.core_radius + 1e-12)]
        assert np.allclose(np.diff(core), m.inner_step)
        tail = np.diff(ax[ax >= m.core_radius - 1e-12])
        assert 1.0 < m.growth <= m.growth_cap + 1e-12
        assert np.all(np.diff(tail) > -1e-12)       # nondecreasing tail
        assert np.allclose(m.grid.axes[2], np.linspace(-0.5, 0.5, 7))

    def test_patch_capture_unit_disk(self):
        m = layer_mesh()
        pts = m.grid.nodes()[m.theta_nodes]
        assert len(m.theta_nodes) > 0
        assert np.all(pts[:, 2] == -0.5)            # bottom face only
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert r.max() <= 1.0 + 1e-9
        assert m.R_theta == pytest.approx(1.0)
        assert m.R_theta >= 2 * m.inner_step        # two rings resolved

    @pytest.mark.parametrize("radius, step", [(1.0, 0.25), (0.8, 0.4),
                                              (0.9, 0.25)])
    def test_patch_capture_rule(self, radius, step):
        # radius 0.9 passes between node circles: R_theta reads the largest
        # captured node radius, not the requested one
        m = layer_mesh(inner_step=step, radius=radius)
        bottom = m.grid.face_nodes(2, 0)
        eta = m.grid.nodes()[bottom][:, :2]
        rho = np.hypot(eta[:, 0], eta[:, 1])
        inside = rho <= radius + 1e-12
        assert np.array_equal(m.theta_nodes, np.sort(bottom[inside]))
        assert m.R_theta == rho[inside].max()
        patch = m.grid.nodes()[m.theta_nodes]
        for other in (m.refined(), m.with_box(12.0)):
            assert np.array_equal(other.grid.nodes()[other.theta_nodes],
                                  patch)
            assert other.R_theta == m.R_theta

    def test_validation_errors(self):
        with pytest.raises(MeshError):
            layer_mesh(T=-1.0)
        with pytest.raises(MeshError):
            layer_mesh(n_z=1)
        with pytest.raises(MeshError):
            layer_mesh(growth_cap=1.0)
        with pytest.raises(MeshError):
            layer_mesh(inner_step=0.3)              # must divide the core
        with pytest.raises(MeshError):              # nothing captured
            layer_mesh(radius=-1.0)
        with pytest.raises(MeshError):              # fewer than two rings
            layer_mesh(radius=0.4)
        with pytest.raises(MeshError):              # patch must stay < T/4
            layer_mesh(T=3.5)
        with pytest.raises(MeshError):              # fewer than two rings
            layer_mesh(inner_step=1.0)
        with pytest.raises(MeshError):              # core must cover patch
            layer_mesh(core_radius=0.5, inner_step=0.25)

    def test_outer_wall_nodes(self):
        m = layer_mesh()
        pts = m.grid.nodes()[m.outer_nodes]
        onwall = (np.abs(np.abs(pts[:, 0]) - m.T) < 1e-12) | \
                 (np.abs(np.abs(pts[:, 1]) - m.T) < 1e-12)
        assert onwall.all()
        n = len(m.grid.axes[0])
        assert len(m.outer_nodes) == (4 * n - 4) * (m.n_z + 1)

    def test_refined(self):
        # refinement halves the tail-grading increment at fixed box and
        # core: the matching annulus gets finer cells
        m = layer_mesh(n_z=4, inner_step=0.5, growth_cap=1.5)
        r = m.refined()
        assert r.T == m.T and r.n_z == m.n_z
        assert r.inner_step == pytest.approx(m.inner_step)
        assert r.growth_cap == pytest.approx(1.25)
        assert r.growth < m.growth
        assert r.grid.n_nodes > m.grid.n_nodes

    def test_with_box(self):
        m = layer_mesh()
        w = m.with_box(12.0)
        assert w.T == pytest.approx(12.0) and w.n_z == m.n_z
        assert w.inner_step == pytest.approx(m.inner_step)
        # equal tail cells: the grading increment shrinks by the box ratio
        # so cells at a given radius keep their width when T grows
        assert w.growth_cap == pytest.approx(
            1.0 + (m.growth - 1.0) * m.T / 12.0)

    def test_signature_identifies_mesh(self):
        a, b = layer_mesh(), layer_mesh(n_z=8)
        assert a.signature != b.signature
        assert a.signature == layer_mesh().signature

    @pytest.mark.parametrize("make", [
        layer_mesh, lambda: layer_mesh().refined(),
        lambda: layer_mesh().with_box(12.0),
        lambda: layer_mesh(inner_step=0.125)],
        ids=["default", "refined", "box-12", "step-0.125"])
    def test_growth_ratio_matches_brentq(self, make):
        from scipy.optimize import brentq

        m = make()
        step, rem = m.inner_step, m.T - m.core_radius

        def geom(k, q):
            return step * q * (q ** k - 1.0) / (q - 1.0)

        k = 1
        while geom(k, m.growth_cap) < rem:
            k += 1
        q = brentq(lambda x: geom(k, x) - rem, 1.0 + 1e-10, m.growth_cap,
                   xtol=1e-13)
        assert abs(m.growth - q) <= 2e-13

    def test_tail_grading_beyond_cap_raises(self):
        with pytest.raises(MeshError, match="500 intervals"):
            layer_mesh(T=200.0, growth_cap=1.0000001)

    def test_mesh_leaves_scipy_optimize_unloaded(self):
        script = ("import sys\n"
                  "from platecap.layer import layer_mesh\n"
                  "layer_mesh()\n"
                  "print('scipy.optimize' in sys.modules)\n")
        src = str(Path(layer.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestRigidSharp:
    def test_matches_admissible_rigid_columns(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 3))
        D = rigid_sharp(pts)
        assert D.shape == (40, 3, 4)
        keep = [0, 1, 3, 4]                         # drop e3 and the spin
        for q, p in enumerate(pts):
            full = np.asarray(rigid_motion_matrix(p), dtype=float)
            assert np.array_equal(D[q], full[:, keep])

    def test_columns_are_exact_discrete_fields(self):
        # trilinear interpolation reproduces every rigid column exactly
        m = layer_mesh(T=6.0, n_z=3, inner_step=0.5)
        nodes = m.grid.nodes()
        D = rigid_sharp(nodes)
        rng = np.random.default_rng(4)
        pts = rng.uniform([-5.9, -5.9, -0.49], [5.9, 5.9, 0.49], size=(200, 3))
        for a in range(4):
            vals = grid_interpolate(m.grid, D[:, :, a], pts)
            assert np.abs(vals - rigid_sharp(pts)[:, :, a]).max() < 1e-12


class TestInterpolation:
    def test_reproduces_trilinear_functions(self):
        g = StructuredGrid([np.array([0.0, 0.3, 1.0]),
                            np.array([-1.0, 0.0, 2.0]),
                            np.array([0.0, 0.5, 0.75, 1.0])])
        f = lambda p: (2.0 - p[:, 0] + 3.0 * p[:, 1] * p[:, 2]
                       + p[:, 0] * p[:, 1] * p[:, 2])
        vals = f(g.nodes())
        rng = np.random.default_rng(5)
        pts = rng.uniform([0, -1, 0], [1, 2, 1], size=(100, 3))
        assert np.abs(grid_interpolate(g, vals, pts) - f(pts)).max() < 1e-12

    def test_outside_raises(self):
        g = StructuredGrid([np.array([0.0, 1.0])] * 3)
        with pytest.raises(MeshError):
            grid_interpolate(g, np.zeros(8), np.array([[0.5, 0.5, 1.5]]))

    def test_vector_and_scalar_shapes(self):
        g = StructuredGrid([np.array([0.0, 1.0])] * 3)
        vals = np.arange(8.0)
        out = grid_interpolate(g, vals, np.array([[0.5, 0.5, 0.5]]))
        assert out.shape == (1,)
        out3 = grid_interpolate(g, np.tile(vals[:, None], (1, 3)),
                                np.array([[0.5, 0.5, 0.5]]))
        assert out3.shape == (1, 3) and np.allclose(out3, out[0])

    def test_fitter_stencil_matches_grid_interpolate(self):
        # the fitter caches the trilinear stencil of its quadrature points;
        # reading a field through it must not change a single bit
        m = layer_mesh(n_z=3, inner_step=0.5, growth_cap=1.5)
        fitter = layer._AnnulusFitter(m)
        vals = np.random.default_rng(3).normal(size=(m.grid.n_nodes, 3))
        ref = grid_interpolate(m.grid, vals, fitter.points)
        assert np.array_equal(fitter.interpolate(vals), ref)
        touched = np.zeros(m.grid.n_nodes, dtype=bool)
        touched[fitter.stencil_nodes] = True
        vals[~touched] = np.nan
        assert np.array_equal(fitter.interpolate(vals), ref)


def _bump_field(A):
    """Compactly supported test field with its exact loads.

    The displacement is a product of quartic bumps (1 - ((t-c)/w)^2)^4 on
    the box (1.1, 2.8) x (-0.85, 0.85), so it meets its zero extension with
    three continuous derivatives; each component carries its own quadratic
    thickness profile so both face tractions are nonzero.  Returns
    evaluators of points (n, 2 or 3) -> (n, 3) for the displacement, the
    body force and the top and bottom face tractions."""
    def bump(axis, c, w):
        u = (Poly.var(axis) - Poly.const(c)) * Poly.const(1 / w)
        b = Poly.const(1) - u * u
        return (b * b) * (b * b)

    cx, w = Fraction(39, 20), Fraction(17, 20)
    z = Poly.var(2)
    profiles = (Poly.const(Fraction(1, 2)) + z - z * z,
                Poly.const(1) - z * Poly.const(Fraction(1, 2)),
                Poly.const(Fraction(3, 4)) + z * z
                + z * Poly.const(Fraction(1, 3)))
    amplitudes = (1, Fraction(4, 5), Fraction(3, 5))
    profile = bump(0, cx, w) * bump(1, Fraction(0), w)
    v = PolyField([profile * q * Poly.const(a)
                   for q, a in zip(profiles, amplitudes)])

    def face(side, zeta):
        return (layer_operator_parts(A, v, "N0" + side)
                + layer_operator_parts(A, v, "N1" + side)).subs_zeta(zeta)

    x0, x1, y0, y1 = float(cx - w), float(cx + w), float(-w), float(w)

    def evaluator(pf):
        terms = [(np.array(list(p.terms), dtype=int).reshape(-1, 3),
                  np.array([float(c) for c in p.terms.values()]))
                 for p in pf]

        def evaluate(points):
            pts = (points if points.shape[1] == 3
                   else np.column_stack([points, np.zeros(len(points))]))
            inside = ((pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                      & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
            sub = pts[inside]
            out = np.zeros((len(pts), 3))
            for i, (exps, coeffs) in enumerate(terms):
                mono = (sub[:, None, :] ** exps).prod(axis=2)
                out[inside, i] = mono @ coeffs
            return out

        return evaluate

    return (evaluator(v), evaluator(full_operator(A, v)),
            evaluator(face("+", Fraction(1, 2))),
            evaluator(face("-", Fraction(-1, 2))))


def _solve_bump(mesh, A, loads):
    """Nodal solution (n_nodes, 3) and stiffness of the clamped box under
    the body force and face tractions of _bump_field, with zero data on the
    patch and the outer walls, by conjugate gradients."""
    grid = mesh.grid
    cons = ConstraintSet(ncomp=3)
    cons.fix_nodes(mesh.theta_nodes)
    cons.fix_nodes(mesh.outer_nodes)
    system = assemble_elastic(grid, A, cons)
    _, force, top, bottom = loads
    system.rhs = assemble_load(grid, force, ncomp=3)
    plane = StructuredGrid(grid.axes[:2])
    for side, g in ((1, top), (0, bottom)):
        face = np.zeros((grid.n_nodes, 3))
        face[grid.face_nodes(2, side)] = assemble_load(
            plane, g, ncomp=3).reshape(-1, 3)
        system.rhs += face.ravel()
    x, _ = solve_cg(system, tol=1e-9)
    return x.reshape(-1, 3), system.matrix


class TestSolveLayerProblem:
    def test_rigid_data_reproduced_exactly(self):
        # rigid motions are exact trilinear fields: imposing one on patch
        # and walls must return it, and the annulus fit must recover c
        m = layer_mesh(T=4.5, n_z=3, inner_step=0.5)
        c = np.array([0.3, -0.2, 0.15, 0.4])
        rig = np.einsum("qia,a->qi", rigid_sharp(m.grid.nodes()), c)
        cons = ConstraintSet(ncomp=3)
        for n in np.concatenate([m.theta_nodes, m.outer_nodes]):
            for k in range(3):
                cons.fix(n, k, rig[n, k])
        system = assemble_elastic(m.grid, A1, cons)
        vals = EliminationSolver(system).solve().reshape(-1, 3)
        assert np.abs(vals - rig).max() < 1e-7
        fitter = layer._AnnulusFitter(m)
        fit = fitter.fit_samples(fitter.interpolate(vals))
        assert np.abs(fit.coef[:4] - c).max() < 1e-8
        assert fit.residual < 1e-8 and fit.spread.max() < 1e-8

    def test_manufactured_solution_second_order(self):
        # compact bump away from patch and walls; interior and face data
        # derived exactly from the displacement polynomials
        loads = _bump_field(A1)
        errs = []
        for step, nz in ((0.25, 3), (0.125, 6)):
            # uniform core out to 3.0 so the bump sits on unstretched cells
            m = layer_mesh(T=4.5, n_z=nz, inner_step=step, core_radius=3.0)
            vals, _ = _solve_bump(m, A1, loads)
            errs.append(np.abs(vals - loads[0](m.grid.nodes())).max())
        assert errs[0] < 4.5e-2 and errs[1] < 1.3e-2
        assert errs[0] / errs[1] > 3.0              # measured 3.48

    def test_weighted_norm_controlled_by_energy(self):
        # the decaying-weight norm stays below the energy with a constant
        # that is stable when the box is doubled
        loads = _bump_field(A1)
        ratios = []
        for T in (4.5, 9.0):
            m = layer_mesh(T=T, n_z=3, inner_step=0.25, core_radius=3.0)
            vals, K = _solve_bump(m, A1, loads)
            x = vals.ravel()
            ratios.append(v01_norm(m, vals) ** 2 / (x @ K @ x))
        assert ratios[0] < 1.0 and ratios[1] < 1.0
        assert abs(ratios[1] - ratios[0]) < 0.02 * ratios[0]


class TestFarFieldExpansion:
    def test_membrane_column_leading_behavior(self, expansion, phi):
        # far from the patch the first column reduces to the plane
        # membrane fundamental (thickness corrections decay)
        pts = np.array([[50.0, 3.0, 0.25], [-40.0, 8.0, -0.4],
                        [30.0, -20.0, 0.1]])
        got = expansion.eval_column(0, pts)
        want = np.column_stack([phi.membrane.field(0, 0).eval(pts[:, :2]),
                                phi.membrane.field(1, 0).eval(pts[:, :2])])
        assert np.abs(got[:, :2] - want).max() < 1e-5
        # the vertical component is the decaying thickness correction
        assert 0 < np.abs(got[:, 2]).max() < 5e-4

    def test_vertical_parity(self, expansion):
        # isotropic material: membrane columns have even horizontal and
        # odd vertical parts in zeta, bending columns the opposite
        base = np.array([[7.0, 3.0], [-4.0, 9.0]])
        up = np.column_stack([base, np.full(2, 0.37)])
        dn = np.column_stack([base, np.full(2, -0.37)])
        for col, sign in ((0, 1.0), (1, 1.0), (2, -1.0), (3, -1.0)):
            vu = expansion.eval_column(col, up)
            vd = expansion.eval_column(col, dn)
            assert np.abs(vu[:, :2] - sign * vd[:, :2]).max() < 1e-12
            assert np.abs(vu[:, 2] + sign * vd[:, 2]).max() < 1e-12


class TestFarFieldDerivatives:
    def test_first_derivative_matches_finite_difference(self, expansion):
        pts = np.array([[4.0, 2.5, 0.2], [-3.0, 5.0, -0.35]])
        h = 1e-5
        for col in range(4):
            for axis in (1, 2):
                step = np.zeros(3)
                step[axis - 1] = h
                fd = (expansion.eval_column(col, pts + step)
                      - expansion.eval_column(col, pts - step)) / (2 * h)
                got = expansion.eval_derivative(col, (axis,), pts)
                assert np.abs(got - fd).max() < 1e-6

    def test_second_derivative_matches_finite_difference(self, expansion):
        pts = np.array([[4.0, 2.5, 0.2], [-3.0, 5.0, -0.35]])
        h = 1e-4
        dx = np.array([h, 0.0, 0.0])
        dy = np.array([0.0, h, 0.0])
        for col in (0, 3):
            fd = (expansion.eval_column(col, pts + dx + dy)
                  - expansion.eval_column(col, pts + dx - dy)
                  - expansion.eval_column(col, pts - dx + dy)
                  + expansion.eval_column(col, pts - dx - dy)) / (4 * h * h)
            got = expansion.eval_derivative(col, (1, 2), pts)
            assert np.abs(got - fd).max() < 1e-5

    def test_shared_kernel_identity(self, expansion):
        # columns 2 and 3 come from one scalar kernel via -d2 and +d1, so
        # d1 of column 2 and -d2 of column 3 are the same field
        rng = np.random.default_rng(11)
        pts = rng.uniform([-6, -6, -0.5], [6, 6, 0.5], size=(30, 3))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 2.0]
        a = expansion.eval_derivative(2, (1,), pts)
        b = expansion.eval_derivative(3, (2,), pts)
        assert np.abs(a + b).max() < 1e-12

    def test_basis_shapes(self, expansion):
        pts = np.array([[5.0, 1.0, 0.1], [2.0, -4.0, -0.2], [6.0, 6.0, 0.0]])
        enr = expansion.enrichment_basis(pts)
        assert enr.shape == (3, 3, 17)
        # the first 7 columns are the dipoles
        dip = np.stack([expansion.eval_derivative(col, axes, pts)
                        for col, axes in FarFieldExpansion._ENRICHMENT[:7]],
                       axis=2)
        assert all(len(axes) == 1
                   for _, axes in FarFieldExpansion._ENRICHMENT[:7])
        assert np.array_equal(enr[:, :, :7], dip)


@pytest.fixture(scope="module")
def coarse_run():
    """One full extraction on a deliberately coarse but valid box."""
    mesh = layer_mesh(n_z=3, inner_step=0.5, growth_cap=1.5)
    cap, pot = extract_capacity(mesh, A1)
    return cap, pot, mesh


class TestCapacityExtraction:
    def test_fixed_point_converges_fast(self, coarse_run):
        cap, pot, mesh = coarse_run
        assert cap.converged.all()
        assert (cap.iterations == 2).all()
        assert not cap.warning

    def test_verification_sweep_confirms_fixed_point(self, coarse_run,
                                                     monkeypatch):
        # the closure is exact: the literal sweep stays far below the
        # default tolerance
        _, _, mesh = coarse_run
        monkeypatch.setattr(layer, "_SWEEP_TOL", 1e-9)
        cap, _ = extract_capacity(mesh, A1)
        assert cap.converged.all()
        assert not cap.warning

    def test_columns_vanish_on_patch(self, coarse_run):
        cap, pot, mesh = coarse_run
        assert np.abs(pot.columns[:, mesh.theta_nodes]).max() == 0.0

    def test_reflection_structure(self, coarse_run):
        # centered disk, isotropic material: reflections force the
        # translation/tilt cross blocks to vanish and pair the rest
        cap, _, _ = coarse_run
        C = cap.C
        off = max(abs(C[0, 1]), abs(C[0, 2]), abs(C[1, 3]), abs(C[2, 3]),
                  abs(C[1, 0]), abs(C[2, 0]), abs(C[3, 1]), abs(C[3, 2]))
        assert off < 1e-9
        assert abs(C[0, 0] - C[1, 1]) < 1e-9
        assert abs(C[2, 2] - C[3, 3]) < 1e-9
        assert abs(C[0, 3] + C[1, 2]) < 1e-9
        assert abs(C[3, 0] + C[2, 1]) < 1e-9

    def test_diagonal_sign(self, coarse_run):
        cap, _, _ = coarse_run
        assert (np.diag(cap.C) < 0).all()

    def test_dipole_coefficients_vanish_by_parity(self, coarse_run):
        # first-derivative fields flip a reflection the column keeps, so
        # the symmetric configuration cannot excite them
        cap, pot, _ = coarse_run
        assert pot.x.shape == (21, 4)
        assert np.abs(pot.x[4:11]).max() < 1e-8

    def test_result_metadata(self, coarse_run):
        cap, pot, mesh = coarse_run
        assert cap.mesh is mesh
        assert np.array_equal(pot.c, cap.C)
        assert cap.annulus == (0.55, 0.8)

    def test_error_bar_structure(self, coarse_run):
        cap, _, _ = coarse_run
        assert (cap.fit_residuals > 0).all()
        assert cap.fit_residuals[0] == pytest.approx(cap.fit_residuals[1],
                                                     rel=1e-6)
        assert (cap.band_spread >= 0).all()
        assert (cap.correction_bars >= 0).all()
        # combined bars contain the correction part
        assert (cap.error_bars >= cap.correction_bars - 1e-15).all()
        assert cap.error_bars.max() > 0

    def test_defect_moderate_on_coarse_mesh(self, coarse_run):
        cap, _, _ = coarse_run
        assert 0 < cap.symmetry_defect < 0.25


class TestCapacityInvariances:
    def test_annulus_quadrature_doubling(self, coarse_run, monkeypatch):
        cap, _, mesh = coarse_run
        monkeypatch.setattr(layer, "_N_ANGULAR", 96)
        monkeypatch.setattr(layer, "_N_RADIAL", 12)
        cap2, _ = extract_capacity(mesh, A1)
        dC = np.abs(cap.C - cap2.C)
        assert (dC <= cap.error_bars + cap2.error_bars).all()

    def test_annulus_shift(self, coarse_run):
        cap, _, mesh = coarse_run
        cap2, _ = extract_capacity(mesh, A1, annulus=(0.5, 0.75))
        dC = np.abs(cap.C - cap2.C)
        assert (dC <= cap.error_bars + cap2.error_bars).all()

    def test_continuous_across_isotropic_pattern(self, coarse_run):
        # the tilt block of C depends on the gauge of Phi3; one gauge for
        # every material keeps C continuous where A leaves the isotropic
        # pattern
        cap, _, mesh = coarse_run
        A = np.array([[float(x) for x in row] for row in A1])
        A[0, 0] *= 1.0 + 1e-7
        cap_near, _ = extract_capacity(mesh, A)
        assert np.abs(cap_near.C - cap.C).max() <= 1e-6


# ROADMAP item 10's orthotropic material O, symmetric under the mirrors of
# both in-plane axes, in column order (e11, e22, sqrt2 e12, sqrt2 e13,
# sqrt2 e23, e33)
O_ORTHO = np.diag([4.0, 1.5, 1.4, 1.8, 1.0, 2.0])
O_ORTHO[0, 1] = O_ORTHO[1, 0] = 0.8
O_ORTHO[0, 5] = O_ORTHO[5, 0] = 0.9
O_ORTHO[1, 5] = O_ORTHO[5, 1] = 0.6


def _mandel_rotation(R):
    """6x6 Mandel matrix of the strain rotation e -> R e R^T."""
    pairs = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))
    w = np.array([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0), 1.0])
    M = np.zeros((6, 6))
    for j, (k, l) in enumerate(pairs):
        E = np.zeros((3, 3))
        E[k, l] = E[l, k] = 1.0 / w[j]
        F = R @ E @ R.T
        M[:, j] = w * np.array([F[p] for p in pairs])
    return M


class TestCapacityCovariance:
    def test_quarter_turn_and_mirror(self, coarse_run):
        # the columns are the translations and the in-plane rotation
        # vector, so a turn R of the plane acts on C as diag(R, R); the
        # box and the disk are invariant under a quarter turn
        mesh = coarse_run[2]
        R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        M = _mandel_rotation(R)
        cap, _ = extract_capacity(mesh, O_ORTHO)
        turned, _ = extract_capacity(mesh, M @ O_ORTHO @ M.T)
        R4 = np.kron(np.eye(2), R[:2, :2])
        assert np.abs(turned.C - R4 @ cap.C @ R4.T).max() <= 1e-10
        assert np.abs(turned.error_bars - np.abs(R4) @ cap.error_bars
                      @ np.abs(R4).T).max() <= 1e-10
        # y2 -> -y2 maps O to itself and flips t2 and the rotation about
        # y1 (a rotation vector is a pseudovector)
        S4 = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.abs(cap.C - S4 @ cap.C @ S4).max() <= 1e-10


def _corrupt_fits(monkeypatch, good: int):
    """Let the first `good` annulus fits through and give every later one
    (the probe or verification sweep, then the correction carriers)
    non-finite coefficients."""
    fit_samples = layer._AnnulusFitter.fit_samples
    calls = []

    def patched(self, samples):
        fit = fit_samples(self, samples)
        calls.append(None)
        if len(calls) <= good:
            return fit
        return dataclasses.replace(fit, coef=np.full_like(fit.coef, np.nan))

    monkeypatch.setattr(layer._AnnulusFitter, "fit_samples", patched)


class TestFixedPointGuards:
    # the enriched closure fits its 21 basis fields first, then the probe
    # sweep of columns 0..3; the verification sweep of columns 0..3 follows
    @pytest.mark.parametrize("good, message", [
        (21, "column 0: non-finite probe sweep"),
        (25, "column 0: non-finite verification sweep"),
    ], ids=["nan-probe", "nan-update"])
    def test_guard_raises(self, coarse_run, monkeypatch, good, message):
        _, _, mesh = coarse_run
        _corrupt_fits(monkeypatch, good)
        with pytest.raises(ExtractionError, match=message):
            extract_capacity(mesh, A1)

    def test_sweep_cap_reports_unconverged(self, coarse_run, monkeypatch):
        _, _, mesh = coarse_run
        monkeypatch.setattr(layer, "_SWEEP_TOL", -1.0)
        cap, pot = extract_capacity(mesh, A1)
        assert not cap.converged.any()
        assert (cap.iterations == 2).all()
        assert cap.warning


class TestCapacityContracts:
    def test_box_too_small_for_matching(self):
        mesh = layer_mesh(T=6.0, n_z=3, inner_step=0.5)
        with pytest.raises(ContractError):
            extract_capacity(mesh, A1)

    def test_annulus_overlapping_near_field(self, coarse_run):
        _, _, mesh = coarse_run
        with pytest.raises(ContractError):
            extract_capacity(mesh, A1, annulus=(0.2, 0.4))

    def test_residual_threshold_warning(self, coarse_run, monkeypatch):
        _, _, mesh = coarse_run
        monkeypatch.setattr(layer, "_RESIDUAL_WARN", 1e-9)
        cap, _ = extract_capacity(mesh, A1)
        assert cap.warning


class TestCapacityReports:
    def test_decay_report(self, coarse_run):
        _, pot, mesh = coarse_run
        trace = decay_trace(pot)
        assert (np.diff(trace.radii) > 0).all()
        assert trace.row_norms.shape == (3, len(trace.radii))
        # log-log slopes of the remainder between twice the patch radius
        # and half the box
        sel = ((trace.radii >= 2.0 * mesh.R_theta)
               & (trace.radii <= 0.5 * mesh.T))
        assert sel.sum() >= 3
        slopes = [np.polyfit(np.log(trace.radii[sel]),
                             np.log(trace.row_norms[i, sel]), 1)[0]
                  for i in range(3)]
        assert slopes[0] < 1.0
        assert slopes[1] < 1.0
        assert slopes[2] < 2.0

    def test_capacity_json_roundtrip_and_determinism(self, coarse_run):
        cap, _, mesh = coarse_run
        s = capacity_json(cap)
        assert s == capacity_json(cap)
        assert s.endswith("\n")
        rec = json.loads(s)
        assert set(rec) == {"T", "mesh", "material", "theta_spec", "C_sharp",
                            "symmetry_defect", "fit_residuals", "iterations",
                            "error_bars", "band_spread", "correction_bars",
                            "annulus", "mode", "closure", "warning"}
        assert rec["C_sharp"] == [float(x) for x in cap.C.ravel()]
        assert rec["closure"] == "enriched" and rec["mode"] == "affine"
        assert rec["theta_spec"] == f"disk:r={mesh.R_theta:g}"
        assert len(rec["material"]) == 36

    def test_decay_csv_format(self, coarse_run):
        _, pot, _ = coarse_run
        trace = decay_trace(pot)
        text = decay_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "rho,row1,row2,row3"
        assert len(lines) == 1 + len(trace.radii)
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(trace.radii[0])
