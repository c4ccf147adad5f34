"""Structured FEM: assembly oracles, CG, constrained solves, eigenpairs."""
import logging
import re
import resource
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platecap import fem
from platecap.elastic import (isotropic_stiffness, reduced_stiffness,
                              rigid_motion_matrix, strain_matrix)
from platecap.fem import (ConstraintSet, EliminationSolver, MeshError,
                          SolverError, SparseSystem, StructuredGrid,
                          _mirror_axes, _parity_blocks, _ref_quadrature,
                          _shape_gradients, _shape_values,
                          apply_mass, assemble_elastic, assemble_load,
                          assemble_pointwise_form, nested_dissection,
                          smallest_eigenpair, solve_cg, solve_constrained)
from platecap.inequalities import SupportLayout, korn_system
from platecap.kirchhoff import PlateDomain, bending_system
from platecap.layer import layer_mesh

I6 = np.eye(6)


def laplacian_1d(n):
    """Dirichlet Laplacian on (0,1), n interior nodes, as a SparseSystem."""
    d = 1.0 / (n + 1)
    K = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / d ** 2
    return SparseSystem(matrix=K.tocsr(), rhs=np.zeros(n),
                        constraints=ConstraintSet(ncomp=1),
                        grid_shape=(n,)), d


class TestGrid:
    def test_validation(self):
        with pytest.raises(MeshError):
            StructuredGrid([np.array([0.0, 1.0])])
        with pytest.raises(MeshError):
            StructuredGrid([np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0])])
        with pytest.raises(MeshError):
            StructuredGrid([np.array([0.0]), np.array([0.0, 1.0])])

    def test_counts_and_geometry(self):
        g = StructuredGrid.uniform((0, 0, 0), (2, 1, 1), (2, 1, 1))
        assert g.shape == (3, 2, 2) and g.n_nodes == 12 and g.n_elements == 2
        assert np.allclose(g.element_sizes(), [[1.0, 1.0, 1.0]] * 2)
        assert np.allclose(g.element_centroids(),
                           [[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])

    def test_face_nodes(self):
        g = StructuredGrid.uniform((0, 0), (1, 1), (2, 2))
        left = g.face_nodes(0, 0)
        pts = g.nodes()[left]
        assert np.all(pts[:, 0] == 0.0) and len(left) == 3

    def test_graded_axes(self):
        g = StructuredGrid([np.array([0.0, 0.1, 0.3, 1.0]),
                            np.array([0.0, 0.5, 1.0])])
        assert g.n_elements == 6
        sizes = g.element_sizes()
        assert np.allclose(np.unique(sizes[:, 0]), [0.1, 0.2, 0.7])


class TestAssembly:
    def test_single_cube_kernel_dimension(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (1, 1, 1))
        K = assemble_elastic(g, I6).matrix.toarray()
        assert K.shape == (24, 24)
        assert np.allclose(K, K.T, atol=1e-14)
        w = np.linalg.eigvalsh(K)
        assert np.sum(np.abs(w) < 1e-10) == 6

    def test_rigid_motions_in_kernel_exactly(self):
        rng = np.random.default_rng(1)
        B = rng.normal(size=(6, 6))
        A = B @ B.T + 6 * I6
        g = StructuredGrid([np.array([0.0, 0.4, 1.0]),
                            np.array([-1.0, 0.0, 0.5]),
                            np.array([0.0, 0.25])])
        K = assemble_elastic(g, A).matrix
        pts = g.nodes()
        for col in range(6):
            c = np.zeros(6)
            c[col] = 1.0
            u = np.stack([rigid_motion_matrix(p) @ c for p in pts]).ravel()
            assert np.max(np.abs(K @ u)) < 1e-12 * max(1.0, np.abs(u).max())

    def test_clamped_face_positive_definite(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        cs = ConstraintSet(ncomp=3)
        cs.fix_nodes(g.face_nodes(2, 0))
        sysm = assemble_elastic(g, isotropic_stiffness(1.0, 1.0), cs)
        fixed, _ = cs.dirichlet_dofs()
        free = np.setdiff1d(np.arange(sysm.n), fixed)
        Kff = sysm.matrix.toarray()[np.ix_(free, free)]
        assert np.linalg.eigvalsh(Kff).min() > 1e-8

    def test_interpolation_energy_ratio_four(self):
        # u1 = x1^2: interpolant drops exactly h^2/3 of the energy 4/3
        energies = {}
        for n in (2, 4, 8):
            g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (n, n, n))
            K = assemble_elastic(g, I6).matrix
            u = np.zeros((g.n_nodes, 3))
            u[:, 0] = g.nodes()[:, 0] ** 2
            energies[n] = u.ravel() @ (K @ u.ravel())
        e2 = 4.0 / 3.0 - energies[2]
        e4 = 4.0 / 3.0 - energies[4]
        e8 = 4.0 / 3.0 - energies[8]
        assert abs(e2 / e4 - 4.0) < 1e-9 and abs(e4 / e8 - 4.0) < 1e-9
        assert abs(e2 - 0.25 / 3.0) < 1e-12

    def test_2d_membrane_rigid_and_stretch(self):
        A0 = np.array([[8 / 3, 2 / 3, 0], [2 / 3, 8 / 3, 0], [0, 0, 2.0]])
        g = StructuredGrid.uniform((0, 0), (1, 1), (3, 3))
        K = assemble_elastic(g, A0).matrix
        pts = g.nodes()
        rot = np.stack([-pts[:, 1], pts[:, 0]], axis=1).ravel()
        assert np.max(np.abs(K @ rot)) < 1e-12
        stretch = np.stack([pts[:, 0], np.zeros(len(pts))], axis=1).ravel()
        assert abs(stretch @ (K @ stretch) - 8.0 / 3.0) < 1e-12

    def test_stiffness_shape_checked(self):
        g = StructuredGrid.uniform((0, 0), (1, 1), (1, 1))
        with pytest.raises(ValueError):
            assemble_elastic(g, I6)


class TestPointwiseForm:
    def test_value_block_is_mass(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 2, 1), (2, 2, 2))
        m = 12
        W = np.zeros((g.n_elements, m, m))
        W[:, :3, :3] = np.eye(3)
        M = assemble_pointwise_form(g, W)
        u = np.tile([1.0, -2.0, 0.5], g.n_nodes)
        assert abs(u @ (M @ u) - (1 + 4 + 0.25) * 2.0) < 1e-12

    def test_gradient_block_energy(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        m = 12
        W = np.zeros((g.n_elements, m, m))
        W[:, 3:, 3:] = np.eye(9)
        M = assemble_pointwise_form(g, W)
        u = np.zeros((g.n_nodes, 3))
        u[:, 0] = g.nodes()[:, 1]          # d2 u1 = 1 everywhere
        v = u.ravel()
        assert abs(v @ (M @ v) - 1.0) < 1e-12

    def test_shape_validation(self):
        g = StructuredGrid.uniform((0, 0), (1, 1), (1, 1))
        with pytest.raises(ValueError):
            assemble_pointwise_form(g, np.zeros((2, 6, 6)))


def _coo_assembly(grid, ncomp, Ke):
    """Reference: element matrices Ke (n_elements, nd, nd) scattered as COO
    triplets to the element dofs, duplicates summed by scipy."""
    ids = grid.element_node_ids()
    dofs = (ids[:, :, None] * ncomp + np.arange(ncomp)).reshape(len(ids), -1)
    nd = dofs.shape[1]
    n = grid.n_nodes * ncomp
    K = sp.coo_matrix((Ke.ravel(), (np.repeat(dofs, nd, axis=1).ravel(),
                                    np.tile(dofs, (1, nd)).ravel())),
                      shape=(n, n)).tocsr()
    K.sum_duplicates()
    return K


def _reference_pointwise(grid, W, ncomp):
    """Reference: G^T W G at the 2x2(x2) Gauss points of each element."""
    ndim = grid.ndim
    pts, wts = _ref_quadrature(ndim)
    vals = _shape_values(ndim, pts)
    grads = _shape_gradients(ndim, pts)
    sizes = grid.element_sizes()
    nsh = 2 ** ndim
    G = np.zeros((len(sizes), len(pts), ncomp * (1 + ndim), nsh * ncomp))
    for a in range(nsh):
        for c in range(ncomp):
            G[:, :, c, a * ncomp + c] = vals[None, :, a]
            for d in range(ndim):
                G[:, :, (1 + d) * ncomp + c, a * ncomp + c] = \
                    grads[None, :, a, d] / sizes[:, None, d]
    vol = np.prod(sizes, axis=1)
    Ke = np.einsum("p,e,epmi,emn,epnj->eij", wts, vol, G, W, G)
    return _coo_assembly(grid, ncomp, Ke)


def _reference_elastic(grid, A):
    """Reference: B^T A B with B built node by node from strain_matrix."""
    ndim = grid.ndim
    pts, wts = _ref_quadrature(ndim)
    sizes = grid.element_sizes()
    nsh = 2 ** ndim
    Ke = np.zeros((len(sizes), nsh * ndim, nsh * ndim))
    for e, size in enumerate(sizes):
        grads = _shape_gradients(ndim, pts) / size
        for p in range(len(pts)):
            B = np.hstack([strain_matrix(np.append(grads[p, a], 0.0)[:3])
                           [:len(A), :ndim] for a in range(nsh)])
            Ke[e] += wts[p] * np.prod(size) * (B.T @ A @ B)
    return _coo_assembly(grid, ndim, Ke)


def _grid(ndim, graded):
    counts = (5, 4, 3)[:ndim]
    if not graded:
        return StructuredGrid.uniform((0,) * ndim, (1,) * ndim, counts)
    rng = np.random.default_rng(4)
    return StructuredGrid([np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, n)])
                           for n in counts])


def _assert_same_matrix(K, ref):
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    assert np.abs(K.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()


class TestStencilAssembly:
    """The stencil-sum kernel against element-by-element COO assembly."""

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_pointwise_matches_coo(self, ndim, graded, ncomp):
        g = _grid(ndim, graded)
        m = ncomp * (1 + ndim)
        W = np.random.default_rng(ndim + ncomp).normal(
            size=(g.n_elements, m, m))
        W = W + W.transpose(0, 2, 1)
        _assert_same_matrix(assemble_pointwise_form(g, W, ncomp=ncomp),
                            _reference_pointwise(g, W, ncomp))

    @pytest.mark.parametrize("graded", [False, True])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_elastic_matches_coo(self, ndim, graded):
        g = _grid(ndim, graded)
        k = 6 if ndim == 3 else 3
        B = np.random.default_rng(k).normal(size=(k, k))
        A = B @ B.T + k * np.eye(k)
        _assert_same_matrix(assemble_elastic(g, A).matrix,
                            _reference_elastic(g, A))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_tensor_mass_matches_assembled(self, ndim):
        g = _grid(ndim, graded=True)
        for ncomp in (1, ndim):
            m = ncomp * (1 + ndim)
            W = np.zeros((g.n_elements, m, m))
            W[:, :ncomp, :ncomp] = np.eye(ncomp)
            M = assemble_pointwise_form(g, W, ncomp=ncomp)
            u = np.random.default_rng(ncomp).normal(
                size=(g.n_nodes, ncomp))
            ref = (M @ u.ravel()).reshape(u.shape)
            assert np.abs(apply_mass(g, u) - ref).max() <= \
                1e-14 * np.abs(ref).max()
        assert apply_mass(g, u[:, 0]).shape == (g.n_nodes,)

    def test_memory_peak_bounded_by_result(self):
        # a graded layer-like box: assembly may hold at most five times the
        # bytes of the matrix it returns
        side = np.geomspace(0.25, 4.0, 10)
        axis = np.r_[-side[::-1], 0.0, side]
        g = StructuredGrid([axis, axis, np.linspace(-0.5, 0.5, 7)])
        A = isotropic_stiffness(1.0, 1.0)
        assemble_elastic(g, A)
        tracemalloc.start()
        try:
            K = assemble_elastic(g, A).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (K.data.nbytes + K.indices.nbytes +
                            K.indptr.nbytes)


class TestLoad:
    def test_constant_force_total(self):
        g = StructuredGrid.uniform((0, 0), (2, 1), (3, 2))
        F = assemble_load(g, lambda x: np.tile([1.0, -3.0], (len(x), 1)))
        F = F.reshape(-1, 2)
        assert abs(F[:, 0].sum() - 2.0) < 1e-12     # area * f1
        assert abs(F[:, 1].sum() + 6.0) < 1e-12


class TestCG:
    def test_identity_one_iteration(self):
        n = 17
        sysm = SparseSystem(sp.identity(n, format="csr"), np.arange(1.0, n + 1),
                            ConstraintSet(ncomp=1))
        x, rep = solve_cg(sysm, tol=1e-12)
        assert rep.iterations == 1 and np.allclose(x, sysm.rhs)

    def test_laplacian_eigenvector_rhs(self):
        sysm, d = laplacian_1d(40)
        j = np.arange(1, 41)
        v = np.sin(np.pi * d * j)
        lam1 = (2.0 - 2.0 * np.cos(np.pi * d)) / d ** 2
        sysm.rhs[:] = v
        x, rep = solve_cg(sysm, tol=1e-12)
        assert np.allclose(x, v / lam1, atol=1e-10)

    def test_random_spd_against_dense(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(50, 50))
        A = B @ B.T + 50 * np.eye(50)
        b = rng.normal(size=50)
        sysm = SparseSystem(sp.csr_matrix(A), b, ConstraintSet(ncomp=1))
        x, rep = solve_cg(sysm, tol=1e-12)
        assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-8

    def test_dirichlet_elimination_path(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        cs = ConstraintSet(ncomp=3)
        cs.fix_nodes(g.face_nodes(0, 0), value=0.0)
        for node in g.face_nodes(0, 1):
            cs.fix(node, 0, 0.1)
            cs.fix(node, 1, 0.0)
            cs.fix(node, 2, 0.0)
        sysm = assemble_elastic(g, isotropic_stiffness(1.0, 1.0), cs)
        x, rep = solve_cg(sysm, tol=1e-10)
        fixed, vals = cs.dirichlet_dofs()
        assert np.allclose(x[fixed], vals)
        free = np.setdiff1d(np.arange(sysm.n), fixed)
        r = (sysm.matrix @ x - sysm.rhs)[free]
        assert np.linalg.norm(r) <= 1e-8 * max(np.abs(x).max(), 1.0)

    def test_nonconvergence_raises(self):
        # ill-conditioned enough that the 20*sqrt(n) cap binds
        sysm, _ = laplacian_1d(2500)
        sysm.rhs[:] = 1.0
        with pytest.raises(SolverError):
            solve_cg(sysm, tol=1e-12)


class TestEigen:
    def test_k_equals_m(self):
        sysm, _ = laplacian_1d(30)
        lam, vec, _ = smallest_eigenpair(sysm, sysm.matrix)
        assert abs(lam - 1.0) < 1e-9

    def test_laplacian_spectrum_formula(self):
        n = 50
        sysm, d = laplacian_1d(n)
        M = sp.identity(n, format="csr")
        lam, vec, _ = smallest_eigenpair(sysm, M, tol=1e-10)
        exact = (2.0 - 2.0 * np.cos(np.pi * d)) / d ** 2
        assert abs(lam - exact) < 1e-6 * exact
        j = np.arange(1, n + 1)
        v1 = np.sin(np.pi * d * j)
        assert abs(abs(vec @ v1) / np.linalg.norm(vec) / np.linalg.norm(v1)
                   - 1.0) < 1e-6

    def test_rayleigh_quotient_bound(self):
        sysm, _ = laplacian_1d(25)
        M = sp.identity(25, format="csr")
        lam, _, _ = smallest_eigenpair(sysm, M)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.standard_normal(25)
            assert (u @ (sysm.matrix @ u)) / (u @ u) >= lam - 1e-9

    def test_monotonicity_under_constraints(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        A = isotropic_stiffness(1.0, 1.0)
        lams = []
        for extra in (0, 1):
            cs = ConstraintSet(ncomp=3)
            cs.fix_nodes(g.face_nodes(2, 0))
            if extra:
                cs.fix_nodes(g.face_nodes(2, 1))
            sysm = assemble_elastic(g, A, cs)
            M = sp.identity(sysm.n, format="csr")
            lam, _, _ = smallest_eigenpair(sysm, M, tol=1e-8)
            lams.append(lam)
        assert lams[1] >= lams[0] - 1e-10

    def test_returned_residual_matches_full_matrices(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        cs = ConstraintSet(ncomp=3)
        cs.fix_nodes(g.face_nodes(2, 0))
        sysm = assemble_elastic(g, isotropic_stiffness(1.0, 1.0), cs)
        M = sp.diags(np.linspace(1.0, 2.0, sysm.n), format="csr")
        lam, vec, res = smallest_eigenpair(sysm, M, tol=1e-8)
        free = sysm.free_dofs()
        r = (sysm.matrix @ vec - lam * (M @ vec))[free]
        den = np.linalg.norm((M @ vec)[free])
        assert res == float(np.linalg.norm(r)) / den
        assert res <= 1e-8


class TestConstrained:
    def _clamped_system(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        cs = ConstraintSet(ncomp=3)
        cs.fix_nodes(g.face_nodes(2, 0))
        sysm = assemble_elastic(g, isotropic_stiffness(1.0, 1.0), cs)
        sysm.rhs[:] = 0.0
        top = g.face_nodes(2, 1)
        sysm.rhs[top * 3 + 2] = 0.01
        return g, sysm

    def test_free_dofs_complement_dirichlet_only(self):
        g, sysm = self._clamped_system()
        cs = sysm.constraints
        top = int(g.face_nodes(2, 1)[0])
        cs.fix(top, 0, 0.25)
        fixed = np.array([n * 3 + c for n, c in cs.dirichlet])
        free = sysm.free_dofs()
        assert np.array_equal(free, np.setdiff1d(np.arange(sysm.n), fixed))
        assert top * 3 + 2 in free and top * 3 not in free

    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_dirichlet_dofs_order_of_sorted_items(self, ncomp):
        # the order of sorting the items by dof, as dirichlet_dofs once did
        rng = np.random.default_rng(ncomp)
        for size in (1, 7, 200):
            cs = ConstraintSet(ncomp=ncomp)
            for n, c in zip(rng.integers(0, 100, size),
                            rng.integers(0, ncomp, size)):
                cs.dirichlet[(int(n), int(c))] = float(rng.normal())
            items = sorted(cs.dirichlet.items(),
                           key=lambda kv: kv[0][0] * ncomp + kv[0][1])
            dofs, vals = cs.dirichlet_dofs()
            assert dofs.tolist() == [n * ncomp + c for (n, c), _ in items]
            assert vals.tolist() == [v for _, v in items]
            assert dofs.dtype == np.int64 and vals.dtype == np.float64

    def test_split_dofs_matches_dirichlet_and_free(self):
        g, sysm = self._clamped_system()
        sysm.constraints.fix(int(g.face_nodes(2, 1)[0]), 1, 0.5)
        fixed, vals, free = sysm.split_dofs()
        want_fixed, want_vals = sysm.constraints.dirichlet_dofs()
        assert np.array_equal(fixed, want_fixed)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(np.sort(np.concatenate([fixed, free])),
                              np.arange(sysm.n))

    @staticmethod
    def _reaction(sysm, x, dof):
        """b - K x at a fixed dof: the force that holds it at its value."""
        return float((sysm.rhs - sysm.matrix @ x)[dof])

    def test_inactive_point_constraint(self):
        # fixing a dof at the value it takes anyway changes nothing and
        # needs no reaction
        g, sysm = self._clamped_system()
        x0 = solve_constrained(sysm)
        node = int(g.face_nodes(2, 1)[0])
        dof = node * 3 + 2
        sysm.constraints.fix(node, 2, float(x0[dof]))
        x = solve_constrained(sysm)
        assert abs(self._reaction(sysm, x, dof)) < 1e-9 * max(
            1.0, np.abs(sysm.rhs).max())
        assert np.allclose(x, x0, atol=1e-10)

    def test_active_constraint_enforced_exactly(self):
        # the reaction at a dof fixed at 0 is the point load that holds
        # the unconstrained system at the same solution
        g, sysm = self._clamped_system()
        dirichlet = dict(sysm.constraints.dirichlet)
        node = int(g.face_nodes(2, 1)[-1])
        dof = node * 3 + 2
        sysm.constraints.fix(node, 2, 0.0)
        x = solve_constrained(sysm)
        assert x[dof] == 0.0
        mu = self._reaction(sysm, x, dof)
        assert mu != 0.0
        rhs = sysm.rhs.copy()
        rhs[dof] -= mu
        held = solve_constrained(SparseSystem(
            sysm.matrix, rhs, ConstraintSet(ncomp=3, dirichlet=dirichlet),
            grid_shape=sysm.grid_shape))
        assert np.allclose(held, x, rtol=0.0, atol=1e-10 * np.abs(x).max())

    def test_inconsistent_duplicate_raises(self):
        # a second, conflicting value for a fixed dof is rejected
        g, sysm = self._clamped_system()
        node = int(g.face_nodes(2, 0)[0])
        sysm.constraints.fix(node, 2, 0.0)
        with pytest.raises(ValueError, match="conflicting"):
            sysm.constraints.fix(node, 2, 1.0)


class TestEliminationSolver:
    def test_reused_factor_matches_fresh_solves(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (2, 2, 2))
        cs = ConstraintSet(ncomp=3)
        bottom = g.face_nodes(2, 0)
        cs.fix_nodes(bottom)
        sysm = assemble_elastic(g, isotropic_stiffness(2.0, 1.0), cs)
        solver = EliminationSolver(sysm)
        rng = np.random.default_rng(7)
        for _ in range(3):
            vals = rng.normal(size=len(solver.fixed)) * 0.01
            x = solver.solve(fixed_values=vals)
            assert np.allclose(x[solver.fixed], vals)
            r = (sysm.matrix @ x)[solver.free]
            assert np.linalg.norm(r) < 1e-10

    def test_system_without_grid_rejected(self):
        sysm, _ = laplacian_1d(10)
        sysm.grid_shape = None
        with pytest.raises(ValueError, match="grid_shape"):
            EliminationSolver(sysm)

    def test_no_free_dofs(self):
        sysm, _ = laplacian_1d(4)
        for i in range(4):
            sysm.constraints.fix(i, 0, float(i))
        assert np.array_equal(EliminationSolver(sysm).solve(), np.arange(4.0))

    def test_singular_block_raises(self):
        sysm, _ = laplacian_1d(4)
        sysm.matrix = sp.diags([1.0, 0.0, 1.0, 1.0]).tocsr()
        with pytest.raises(SolverError, match="factorization failed"):
            EliminationSolver(sysm)


def _recursive_dissection(shape, width):
    """Reference: the dissection as a recursion over boxes."""
    out = []

    def visit(block):
        axis = int(np.argmax(block.shape))
        n = block.shape[axis]
        if n < width + 2:
            out.append(block.ravel())
            return
        cut = (n - width + 1) // 2
        low, slab, high = np.split(block, [cut, cut + width], axis=axis)
        visit(low)
        visit(high)
        out.append(slab.ravel())

    visit(np.arange(int(np.prod(shape))).reshape(tuple(shape)))
    return np.concatenate(out)


def _single_plane_order(shape):
    """Reference: the one-plane dissection, cut at the middle node plane."""
    out = []

    def visit(block):
        axis = int(np.argmax(block.shape))
        n = block.shape[axis]
        if n < 3:
            out.append(block.ravel())
            return
        low, plane, high = np.split(block, [n // 2, n // 2 + 1], axis=axis)
        visit(low)
        visit(high)
        out.append(plane.ravel())

    visit(np.arange(int(np.prod(shape))).reshape(tuple(shape)))
    return np.concatenate(out)


def _measured_reach(system):
    """Largest per-axis node offset over the stored entries of the matrix."""
    K = system.matrix.tocoo()
    ncomp = system.n // int(np.prod(system.grid_shape))
    r = np.array(np.unravel_index(K.row // ncomp, system.grid_shape))
    c = np.array(np.unravel_index(K.col // ncomp, system.grid_shape))
    return int(np.abs(r - c).max())


def _bending(spacing):
    dom = PlateDomain(1.0, 1.0, spacing)
    sysm = bending_system(dom, reduced_stiffness(isotropic_stiffness(
        1.0, 1.0)))
    sysm.rhs = np.random.default_rng(5).normal(size=sysm.n)
    return sysm


class TestNestedDissection:
    @pytest.mark.parametrize("shape", [(9, 6), (5, 7, 4), (39, 39, 7),
                                       (2, 2, 2)])
    def test_permutation_of_all_nodes(self, shape):
        order = nested_dissection(shape)
        n = int(np.prod(shape))
        assert order.shape == (n,)
        assert np.array_equal(np.sort(order), np.arange(n))

    @pytest.mark.parametrize("shape", [(9, 6), (5, 7, 4), (39, 39, 7),
                                       (2, 2, 2), (4, 3)])
    def test_two_plane_permutation_of_all_nodes(self, shape):
        order = nested_dissection(shape, width=2)
        n = int(np.prod(shape))
        assert order.shape == (n,)
        assert np.array_equal(np.sort(order), np.arange(n))

    def test_separator_comes_last(self):
        # the middle plane of the longest axis is eliminated last
        order = nested_dissection((7, 3))
        assert np.array_equal(np.sort(order[-3:]), [9, 10, 11])

    def test_two_plane_slab_comes_last(self):
        # 8 planes along axis 0: planes 3 and 4 form the last slab
        order = nested_dissection((8, 3), width=2)
        assert np.array_equal(np.sort(order[-6:]), np.arange(9, 15))

    @pytest.mark.parametrize("shape", [(9, 6), (5, 7, 4), (39, 39, 7),
                                       (2, 2, 2), (7, 3), (33, 33),
                                       (10, 12, 6)])
    def test_width_one_is_single_plane_order(self, shape):
        assert np.array_equal(nested_dissection(shape, width=1),
                              _single_plane_order(shape))

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("shape", [(9, 6), (5, 7, 4), (39, 39, 7),
                                       (2, 2, 2), (4, 3), (7, 3), (33, 33),
                                       (10, 12, 6), (1, 5), (2, 9),
                                       (3, 1, 8), (129, 129)])
    def test_matches_recursive_reference(self, shape, width):
        assert np.array_equal(nested_dissection(shape, width=width),
                              _recursive_dissection(shape, width))

    def test_declared_reach_matches_pattern(self):
        g2 = StructuredGrid.uniform((0, 0), (1, 2), (5, 7))
        g3 = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (3, 4, 2))
        for sysm in (assemble_elastic(g2, np.eye(3) + 0.5),
                     assemble_elastic(g3, isotropic_stiffness(1.0, 1.0))):
            assert sysm.grid_reach == _measured_reach(sysm) == 1
        bend = _bending(1.0 / 8)
        assert bend.grid_reach == _measured_reach(bend) == 2

    def test_bending_solver_matches_spsolve(self):
        sysm = _bending(1.0 / 16)
        solver = EliminationSolver(sysm)
        free = solver.free
        Kff = sysm.matrix.tocsr()[free][:, free]
        x = solver.solve()
        ref = spla.spsolve(Kff.tocsc(), sysm.rhs[free])
        assert np.allclose(x[free], ref, rtol=1e-9,
                           atol=1e-9 * np.abs(ref).max())

    def test_bending_fill_below_colamd(self):
        sysm = _bending(1.0 / 64)
        solver = EliminationSolver(sysm)
        free = solver.free
        colamd = spla.splu(sysm.matrix.tocsr()[free][:, free].tocsc())
        assert solver._lu.nnz < 0.7 * colamd.nnz

    @staticmethod
    def _system(grid, A):
        cs = ConstraintSet(ncomp=grid.ndim)
        rng = np.random.default_rng(3)
        for node in np.union1d(grid.face_nodes(0, 0),
                               grid.face_nodes(1, 1)):
            for c in range(grid.ndim):
                cs.fix(int(node), c, float(rng.normal()))
        sysm = assemble_elastic(grid, A, cs)
        sysm.rhs = rng.normal(size=sysm.n)
        return sysm

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ordered_solver_matches_spsolve(self, dim):
        if dim == 2:
            g = StructuredGrid.uniform((0, 0), (1, 2), (6, 9))
            A = np.diag([3.0, 2.0, 1.0]) + 0.5
        else:
            g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (4, 5, 3))
            A = isotropic_stiffness(1.5, 1.0)
        sysm = self._system(g, A)
        assert sysm.grid_shape == g.shape
        solver = EliminationSolver(sysm)
        x = solver.solve()
        free, fixed = solver.free, solver.fixed
        K = sysm.matrix.tocsr()
        b = sysm.rhs[free] - K[free][:, fixed] @ solver.fixed_values
        ref = spla.spsolve(K[free][:, free].tocsc(), b)
        assert np.allclose(x[free], ref, rtol=1e-10,
                           atol=1e-10 * np.abs(ref).max())
        assert np.array_equal(x[fixed], solver.fixed_values)

    def test_batched_solve_equals_single_solves(self):
        g = StructuredGrid.uniform((0, 0, 0), (1, 1, 1), (4, 3, 3))
        solver = EliminationSolver(self._system(g, isotropic_stiffness(
            1.0, 1.0)))
        data = np.random.default_rng(11).normal(size=(len(solver.fixed), 5))
        X = solver.solve(fixed_values=data)
        assert X.shape == (solver.n, 5)
        for j in range(5):
            x = solver.solve(fixed_values=data[:, j])
            assert np.abs(X[:, j] - x).max() <= 1e-12 * np.abs(x).max()


def _plain_factor(sysm):
    """Reference: the free block factored in the plain nested-dissection
    order of the whole grid, with the solver's SuperLU options."""
    shape = sysm.grid_shape
    ncomp = sysm.n // int(np.prod(shape))
    order = nested_dissection(shape, width=sysm.grid_reach)
    dofs = (order[:, None] * ncomp + np.arange(ncomp)).ravel()
    q = dofs[np.isin(dofs, sysm.free_dofs())]
    K = sysm.matrix.tocsr()
    return spla.splu(K[q][:, q].tocsc(), permc_spec="NATURAL",
                     diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _mirror_box(divisions, nodes, A=None, seed=4):
    """Box symmetric about x1 = 0 and x2 = 0, the nodes picked by
    nodes(grid) clamped to random values, with a random load."""
    g = StructuredGrid.uniform((-1, -1, 0), (1, 1, 0.5), divisions)
    cs = ConstraintSet(ncomp=3)
    rng = np.random.default_rng(seed)
    for node in nodes(g):
        for c in range(3):
            cs.fix(int(node), c, float(rng.normal()))
    A = isotropic_stiffness(1.5, 1.0) if A is None else A
    sysm = assemble_elastic(g, A, cs)
    sysm.rhs = rng.normal(size=sysm.n)
    return sysm


def _bottom(g):
    return g.face_nodes(2, 0)


def _all_faces(g):
    return np.unique(np.concatenate([g.face_nodes(a, s) for a in range(3)
                                     for s in (0, 1)]))


def _walls_and_patch(g):
    """The four side walls and the bottom nodes within 0.3 of the axis,
    as on the capacity layer box."""
    bottom = g.face_nodes(2, 0)
    pts = g.nodes()[bottom]
    walls = [g.face_nodes(a, s) for a in (0, 1) for s in (0, 1)]
    return np.unique(np.concatenate(
        walls + [bottom[np.hypot(pts[:, 0], pts[:, 1]) <= 0.3]]))


class TestParitySolver:
    # (4, 5, 3) cells: 5 nodes on x1 put a mirror plane of nodes on the
    # axis, 6 nodes on x2 pair every node with another
    @pytest.mark.parametrize("divisions, nodes, axes", [
        ((4, 5, 3), _bottom, (0, 1)),
        ((5, 4, 4), _all_faces, (0, 1, 2))])
    def test_matches_spsolve(self, divisions, nodes, axes):
        sysm = _mirror_box(divisions, nodes)
        solver = EliminationSolver(sysm)
        free, fixed = solver.free, solver.fixed
        K = sysm.matrix.tocsr()
        assert _mirror_axes(K, free, sysm.grid_shape) == axes
        T = solver._T
        assert np.abs((T @ T.T - sp.eye(len(free))).toarray()).max() < 1e-15
        data = np.column_stack([solver.fixed_values, np.random.default_rng(
            9).normal(size=(len(fixed), 3))])
        refs = spla.spsolve(K[free][:, free].tocsc(),
                            sysm.rhs[free][:, None] - K[free][:, fixed] @ data)
        x = solver.solve()
        X = solver.solve(fixed_values=data)
        scale = np.abs(refs).max()
        assert np.abs(x[free] - refs[:, 0]).max() <= 1e-10 * scale
        assert np.abs(X[free] - refs).max() <= 1e-10 * scale
        assert np.array_equal(X[fixed], data)

    def test_fill_below_plain_order(self):
        sysm = _mirror_box((16, 16, 3), _walls_and_patch)
        solver = EliminationSolver(sysm)
        assert solver._T is not None
        assert solver._lu.nnz < 0.75 * _plain_factor(sysm).nnz

    @staticmethod
    def _no_mirror(case):
        if case == "random-material":
            B = np.random.default_rng(2).normal(size=(6, 6))
            return _mirror_box((4, 5, 3), _bottom, A=B @ B.T + 6 * I6)
        if case == "off-centre-node":
            return _mirror_box((4, 5, 3), lambda g: np.append(
                g.face_nodes(2, 0), g.face_nodes(2, 1)[7]))
        if case == "korn":
            layout = SupportLayout(centers=((0.35, 0.4), (0.65, 0.6)),
                                   R=1.0, h=0.2)
            return korn_system(layout, isotropic_stiffness(1.0, 1.0),
                               "plain")[0]
        return _bending(1.0 / 16)

    @pytest.mark.parametrize("case", ["random-material", "off-centre-node",
                                      "korn", "plate-bending"])
    def test_no_mirror_is_plain_factor(self, case):
        # no axes: T permutes the free dofs into nested-dissection order,
        # and the block keeps every stored entry of K_ff
        sysm = self._no_mirror(case)
        solver = EliminationSolver(sysm)
        assert _mirror_axes(sysm.matrix.tocsr(), solver.free,
                            sysm.grid_shape) == ()
        T = solver._T
        assert np.all(T.data == 1.0)
        assert np.array_equal(np.diff(T.indptr), np.ones(T.shape[0]))
        assert np.array_equal(np.sort(T.indices), np.arange(T.shape[1]))
        plain = _plain_factor(sysm)
        assert solver._lu.nnz == plain.nnz
        b = np.random.default_rng(3).normal(size=(len(solver.free), 2))
        q = T.indices
        x = np.empty_like(b)
        x[q] = plain.solve(b[q])
        assert np.array_equal(solver.solve_free(b), x)

    @pytest.mark.parametrize("case, line", [
        ("mirror-box", "mirror axes (0, 1)"),
        ("korn", "mirror axes (), blocks (903,)")],
        ids=["mirror-box", "korn"])
    def test_info_line_per_factorization(self, caplog, case, line):
        sysm = (_mirror_box((4, 5, 3), _bottom) if case == "mirror-box"
                else self._no_mirror(case))
        with caplog.at_level(logging.INFO, logger="platecap.fem"):
            solver = EliminationSolver(sysm)
        [record] = caplog.records
        msg = record.getMessage()
        assert f"{len(solver.free)} free dofs" in msg
        assert line in msg
        assert f"L+U nnz {solver._lu.nnz}" in msg
        # the process's peak RSS so far, in MB
        peak = float(re.search(r", peak RSS (\d+) MB$", msg).group(1))
        assert 0 < peak <= resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024 + 1


def _nbytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


def _traced(f):
    """(f(), peak bytes that tracemalloc saw while f ran)."""
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _SetupCut(Exception):
    pass


class TestSetupMemory:
    """The temporaries of the solver setup on the default capacity box.

    tracemalloc sees numpy's buffers but not SuperLU's, so these peaks are
    deterministic; each bound has at least 25 % headroom over its
    measurement (0.35, 0.13 and 0.39 times the bytes of K)."""

    @pytest.fixture(scope="class")
    def box(self):
        mesh = layer_mesh()
        cons = ConstraintSet(ncomp=3)
        cons.fix_nodes(mesh.theta_nodes)
        cons.fix_nodes(mesh.outer_nodes)
        return assemble_elastic(mesh.grid, isotropic_stiffness(1.0, 1.0),
                                cons)

    def test_mirror_check(self, box):
        K, free = box.matrix, box.free_dofs()
        axes, peak = _traced(lambda: _mirror_axes(K, free, box.grid_shape))
        assert axes == (0, 1)
        assert peak <= 0.5 * _nbytes(K)

    def test_fixed_columns_cut(self, box, monkeypatch):
        # everything the setup holds before the mirror check: the dof split
        # and the cut of the free rows' fixed columns
        peaks = []

        def stop(*args):
            peaks.append(tracemalloc.get_traced_memory()[1])
            raise _SetupCut

        monkeypatch.setattr(fem, "_mirror_axes", stop)
        with pytest.raises(_SetupCut):
            _traced(lambda: EliminationSolver(box))
        assert peaks[0] <= 0.2 * _nbytes(box.matrix)

    def test_fold(self, box):
        K, free = box.matrix, box.free_dofs()
        (T, A, sizes), peak = _traced(lambda: _parity_blocks(
            K, free, box.grid_shape, (0, 1), 1))
        assert len(sizes) == 4
        assert peak <= _nbytes(A) + 0.5 * _nbytes(K)
