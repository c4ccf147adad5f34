"""Plate limit solves: coefficient tables, clamped solves, point support."""
from fractions import Fraction as Q

import numpy as np
import pytest
import scipy.sparse as sp

from platecap.elastic import (isotropic_stiffness, isotropic_stiffness_exact,
                              reduced_stiffness, reduced_stiffness_exact)
from platecap.fem import ConstraintSet, SolverError, assemble_elastic
from platecap.kirchhoff import (DomainError, KirchhoffSolution,
                                PlateDomain, _node_weights, bending_system,
                                bending_table_float, load_from_spec,
                                manufactured_bending, manufactured_membrane,
                                operator_coefficients, solution_csv,
                                solve_bending, solve_membrane, solve_plate)
from platecap.polyfield import Q2
from platecap.reduction import build_dimension_reduction

A0_ISO = reduced_stiffness(isotropic_stiffness(1.0, 1.0))
A0_ISO_EXACT = reduced_stiffness_exact(isotropic_stiffness_exact(1, 1))

rng = np.random.default_rng(20240814)
_B = rng.standard_normal((6, 6))
A0_ANISO = reduced_stiffness(_B @ _B.T + 6.0 * np.eye(6))


def q2(x):
    return Q2.of(Q(x))


def _curvature_loop(domain):
    """Reference: the curvature matrix built tap by tap."""
    nx, ny = domain.nx, domain.ny
    dx, dy = domain.dx, domain.dy
    s = 2.0 ** -0.5
    rows, cols, vals = [], [], []

    def mirror(i, n):
        return -i if i < 0 else (2 * n - i if i > n else i)

    def add(r, i, j, v):
        rows.append(r)
        cols.append(domain.node_id(mirror(i, nx), mirror(j, ny)))
        vals.append(v)

    for i in range(nx + 1):
        for j in range(ny + 1):
            n = domain.node_id(i, j)
            r = 3 * n
            add(r, i - 1, j, s / dx ** 2)
            add(r, i, j, -2.0 * s / dx ** 2)
            add(r, i + 1, j, s / dx ** 2)
            r = 3 * n + 1
            add(r, i, j - 1, s / dy ** 2)
            add(r, i, j, -2.0 * s / dy ** 2)
            add(r, i, j + 1, s / dy ** 2)
            r = 3 * n + 2
            c = 1.0 / (4.0 * dx * dy)
            add(r, i + 1, j + 1, c)
            add(r, i + 1, j - 1, -c)
            add(r, i - 1, j + 1, -c)
            add(r, i - 1, j - 1, c)

    N = (nx + 1) * (ny + 1)
    D = sp.coo_matrix((vals, (rows, cols)), shape=(3 * N, N)).tocsr()
    D.sum_duplicates()
    return D


class TestCoefficients:
    def test_unit_lame_tables(self):
        mem, ben = operator_coefficients(A0_ISO_EXACT)
        assert ben == {(4, 0): q2(Q(2, 9)), (2, 2): q2(Q(4, 9)),
                       (0, 4): q2(Q(2, 9))}
        assert mem[(2, 0)] == [[q2(Q(-8, 3)), q2(0)], [q2(0), q2(-1)]]
        assert mem[(0, 2)] == [[q2(-1), q2(0)], [q2(0), q2(Q(-8, 3))]]
        assert mem[(1, 1)] == [[q2(0), q2(Q(-5, 3))],
                               [q2(Q(-5, 3)), q2(0)]]

    def test_zero_lambda_decouples(self):
        # lam = 0 kills the effective transverse coupling entirely
        A0 = reduced_stiffness_exact(isotropic_stiffness_exact(0, 1))
        mem, _ = operator_coefficients(A0)
        assert mem[(1, 1)] == [[q2(0), q2(-1)], [q2(-1), q2(0)]]
        assert mem[(2, 0)] == [[q2(-2), q2(0)], [q2(0), q2(-1)]]

    def test_matches_thickness_expansion(self):
        ops = build_dimension_reduction(isotropic_stiffness_exact(2, 3))
        mem, ben = operator_coefficients(ops.reduced)
        assert mem == ops.membrane
        assert ben == ops.bending

    def test_float_input(self):
        _, ben = operator_coefficients(A0_ISO)
        bf = bending_table_float(ben)
        assert abs(bf[(4, 0)] - 2 / 9) < 1e-14
        assert abs(bf[(2, 2)] - 4 / 9) < 1e-14


class TestDomain:
    def test_point_snaps_to_node(self):
        d = PlateDomain(1.0, 1.0, 0.25, point=(0.26, 0.49))
        assert d.point_ij == (1, 2)
        assert d.point_node == 1 * 5 + 2

    def test_boundary_point_rejected(self):
        with pytest.raises(DomainError):
            PlateDomain(1.0, 1.0, 0.25, point=(0.5, 0.0))
        with pytest.raises(DomainError):
            PlateDomain(1.0, 1.0, 0.25, point=(0.04, 0.5))

    def test_bad_geometry(self):
        with pytest.raises(DomainError):
            PlateDomain(0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            PlateDomain(1.0, 1.0, -0.1)

    def test_boundary_nodes(self):
        d = PlateDomain(1.0, 2.0, 0.5)
        bn = d.boundary_nodes()
        assert len(bn) == (d.nx + 1) * (d.ny + 1) - (d.nx - 1) * (d.ny - 1)


class TestMembrane:
    def test_halving_quarters_error(self):
        mem, _ = operator_coefficients(A0_ISO_EXACT)
        errs = []
        for n in (8, 16):
            dom = PlateDomain(1.0, 1.0, 1.0 / n)
            w_exact, g = manufactured_membrane(dom, mem)
            w1, w2, _ = solve_membrane(dom, A0_ISO, g)
            we = w_exact(dom.grid.nodes())
            errs.append(max(np.abs(w1 - we[:, 0]).max(),
                            np.abs(w2 - we[:, 1]).max()))
        assert 3.7 < errs[0] / errs[1] < 4.3

    def test_anisotropic_second_order(self):
        mem, _ = operator_coefficients(A0_ANISO)
        errs = []
        for n in (8, 16, 32):
            dom = PlateDomain(1.0, 1.0, 1.0 / n)
            w_exact, g = manufactured_membrane(dom, mem)
            w1, w2, _ = solve_membrane(dom, A0_ANISO, g)
            we = w_exact(dom.grid.nodes())
            errs.append(max(np.abs(w1 - we[:, 0]).max(),
                            np.abs(w2 - we[:, 1]).max()))
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert (rates > 1.9).all()

    def test_definite_after_clamping(self):
        # shear-dominated coefficients still give a positive operator
        A0 = np.diag([0.5, 0.5, 2.0])
        d = PlateDomain(1.0, 1.0, 0.25)
        cs = ConstraintSet(ncomp=2)
        cs.fix_nodes(d.boundary_nodes())
        system = assemble_elastic(d.grid, A0, cs)
        fixed, _ = cs.dirichlet_dofs()
        free = np.setdiff1d(np.arange(system.n), fixed)
        Kff = system.matrix[np.ix_(free, free)].toarray()
        assert np.abs(Kff - Kff.T).max() < 1e-14
        assert np.linalg.eigvalsh(Kff).min() > 1e-3

    def test_load_shape_checked(self):
        d = PlateDomain(1.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            solve_membrane(d, A0_ISO, np.ones(d.grid.n_nodes))


class TestBending:
    def test_isotropic_second_order(self):
        _, ben = operator_coefficients(A0_ISO_EXACT)
        errs = []
        for n in (8, 16, 32):
            dom = PlateDomain(1.0, 1.0, 1.0 / n)
            w_exact, g3 = manufactured_bending(dom, ben)
            w3, mult, _ = solve_bending(dom, A0_ISO, g3)
            assert mult == 0.0
            errs.append(np.abs(w3 - w_exact(dom.grid.nodes())).max())
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert (rates > 1.9).all()

    def test_anisotropic_second_order(self):
        _, ben = operator_coefficients(A0_ANISO)
        assert (3, 1) in ben and (1, 3) in ben
        errs = []
        for n in (8, 16, 32):
            dom = PlateDomain(1.0, 1.0, 1.0 / n)
            w_exact, g3 = manufactured_bending(dom, ben)
            w3, _, _ = solve_bending(dom, A0_ANISO, g3)
            errs.append(np.abs(w3 - w_exact(dom.grid.nodes())).max())
        rates = np.log2(np.array(errs[:-1]) / errs[1:])
        assert (rates > 1.9).all()

    def test_operator_symmetric_definite(self):
        d = PlateDomain(1.0, 1.0, 1.0 / 6)
        system = bending_system(d, A0_ANISO)
        K = system.matrix
        assert abs(K - K.T).max() < 1e-13 * abs(K).max()
        fixed, _ = system.constraints.dirichlet_dofs()
        free = np.setdiff1d(np.arange(system.n), fixed)
        Kff = K[np.ix_(free, free)].toarray()
        assert np.linalg.eigvalsh(Kff).min() > 0

    def test_mirrored_ghosts_on_contour(self):
        # tangential clamping: the cross-difference row at an edge node
        # cancels, the normal second difference folds onto the first
        # interior neighbor
        from platecap.kirchhoff import _curvature_matrix
        d = PlateDomain(1.0, 1.0, 0.25)
        D = _curvature_matrix(d).toarray()
        edge = d.node_id(0, 2)
        assert np.all(D[3 * edge + 2] == 0.0)
        row = D[3 * edge]
        inner = d.node_id(1, 2)
        s = 2.0 ** -0.5
        assert row[inner] == pytest.approx(2 * s / d.dx ** 2)
        assert row[edge] == pytest.approx(-2 * s / d.dx ** 2)
        assert np.count_nonzero(row) == 2

    @pytest.mark.parametrize("a, b", [(2.1, 1.5), (1.5, 3.3), (0.9, 2.7)])
    def test_curvature_matrix_matches_loop(self, a, b):
        from platecap.kirchhoff import _curvature_matrix
        d = PlateDomain(a, b, 0.3)
        D = _curvature_matrix(d)
        R = _curvature_loop(d)
        assert np.array_equal(D.indptr, R.indptr)
        assert np.array_equal(D.indices, R.indices)
        assert D.data.tobytes() == R.data.tobytes()

    def test_backward_error_guard(self, monkeypatch):
        import platecap.kirchhoff as kirchhoff
        solve = kirchhoff.solve_constrained

        def perturbed(system):
            x = solve(system)
            x[np.argmax(np.abs(x))] *= 1.0 + 1e-6
            return x

        monkeypatch.setattr(kirchhoff, "solve_constrained", perturbed)
        for point in (None, (0.5, 0.5)):
            d = PlateDomain(1.0, 1.0, 1.0 / 16, point=point)
            with pytest.raises(SolverError, match="backward error"):
                solve_bending(d, A0_ISO, np.ones(d.grid.n_nodes))

    def test_point_support_enforced(self):
        d = PlateDomain(1.0, 1.0, 1.0 / 16, point=(0.5, 0.5))
        g = np.ones(d.grid.n_nodes)
        w3, mult, _ = solve_bending(d, A0_ISO, g)
        assert abs(w3[d.point_node]) <= 1e-12
        assert abs(mult) > 1e-3          # genuine reaction for uniform load
        assert np.abs(w3).max() > 1e-4   # plate still deflects elsewhere

    def test_multiplier_vanishes_for_odd_load(self):
        d = PlateDomain(1.0, 1.0, 1.0 / 16, point=(0.5, 0.5))
        pts = d.grid.nodes()
        g = np.sin(2 * np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        w3, mult, _ = solve_bending(d, A0_ISO, g)
        assert abs(mult) <= 1e-12
        assert np.abs(w3).max() > 1e-5

    def test_point_constraint_raises_energy(self):
        free = PlateDomain(1.0, 1.0, 1.0 / 12)
        d = PlateDomain(1.0, 1.0, 1.0 / 12, point=(0.5, 0.5))
        g = np.ones(d.grid.n_nodes)
        _, _, e_free = solve_bending(free, A0_ISO, g)
        _, _, e_con = solve_bending(d, A0_ISO, g)
        assert e_con >= e_free - 1e-15

    def test_constrained_errors_shrink(self):
        # order near the support is observed, not certified; require the
        # gap to a fine reference to drop monotonically under refinement
        ref = PlateDomain(1.0, 1.0, 1.0 / 64, point=(0.5, 0.5))
        wr, _, _ = solve_bending(ref, A0_ISO, np.ones(ref.grid.n_nodes))
        wr = wr.reshape(65, 65)
        gaps = []
        for n in (8, 16, 32):
            d = PlateDomain(1.0, 1.0, 1.0 / n, point=(0.5, 0.5))
            w, _, _ = solve_bending(d, A0_ISO, np.ones(d.grid.n_nodes))
            step = 64 // n
            gaps.append(np.abs(w.reshape(n + 1, n + 1)
                               - wr[::step, ::step]).max())
        assert gaps[0] > gaps[1] > gaps[2]
        rates = np.log2(np.array(gaps[:-1]) / gaps[1:])
        print(f"point-support refinement rates: {rates.round(2)}")

    @pytest.mark.parametrize("A0", [A0_ISO, A0_ANISO], ids=["iso", "aniso"])
    def test_reaction_matches_kkt(self, A0):
        # dense saddle point over the interior nodes of the full matrix:
        # [K c; c^T 0] (w, lam) = (b, 0), c the unit row of the support
        d = PlateDomain(1.0, 1.0, 1.0 / 16, point=(0.5, 0.5))
        pts = d.grid.nodes()
        g = 1.0 + pts[:, 0] * (1.0 - 2.0 * pts[:, 1])
        w3, mult, _ = solve_bending(d, A0, g)
        system = bending_system(d, A0)
        inner = np.setdiff1d(np.arange(system.n), d.boundary_nodes())
        n = len(inner)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = system.matrix.toarray()[np.ix_(inner, inner)]
        col = np.searchsorted(inner, d.point_node)
        kkt[col, n] = kkt[n, col] = 1.0
        rhs = np.append(_node_weights(d)[inner] * g[inner], 0.0)
        ref = np.linalg.solve(kkt, rhs)
        assert np.abs(w3[d.boundary_nodes()]).max() == 0.0
        np.testing.assert_allclose(w3[inner], ref[:n], rtol=1e-9,
                                   atol=1e-9 * np.abs(ref[:n]).max())
        assert mult == pytest.approx(ref[n], rel=1e-9)
        assert abs(mult) > 1e-3


class TestLoadsAndOutput:
    def test_named_loads(self):
        d = PlateDomain(1.0, 2.0, 0.25)
        lc = load_from_spec(d, "constant")
        assert lc.gprime.shape == (d.grid.n_nodes, 2)
        assert (lc.g3 == 1.0).all()
        ls = load_from_spec(d, "sine-bump")
        pts = d.grid.nodes()
        on_edge = np.isin(np.arange(d.grid.n_nodes), d.boundary_nodes())
        assert np.abs(ls.g3[on_edge]).max() < 1e-12
        assert ls.g3[~on_edge].min() > 0
        assert ls.g3.max() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            load_from_spec(d, "tidal-wave")

    def test_file_load_roundtrip(self, tmp_path):
        d = PlateDomain(1.0, 1.0, 0.5)
        data = rng.standard_normal((d.grid.n_nodes, 3))
        p = tmp_path / "load.csv"
        np.savetxt(p, data, delimiter=",")
        l = load_from_spec(d, f"file:{p}")
        assert np.allclose(l.gprime, data[:, :2])
        assert np.allclose(l.g3, data[:, 2])
        np.savetxt(p, data[:-1], delimiter=",")
        with pytest.raises(ValueError):
            load_from_spec(d, f"file:{p}")

    def test_full_solve_and_csv(self):
        d = PlateDomain(1.0, 1.0, 1.0 / 8, point=(0.5, 0.5))
        sol = solve_plate(d, A0_ISO, load_from_spec(d, "sine-bump"))
        assert isinstance(sol, KirchhoffSolution)
        bn = d.boundary_nodes()
        assert np.abs(sol.w1[bn]).max() == 0.0
        assert np.abs(sol.w3[bn]).max() == 0.0
        assert abs(sol.w3[d.point_node]) <= 1e-12
        text = solution_csv(d, sol)
        lines = text.strip().split("\n")
        assert lines[0] == "y1,y2,w1,w2,w3"
        assert len(lines) == d.grid.n_nodes + 1
        mid = 1 + d.point_node
        vals = [float(t) for t in lines[mid].split(",")]
        assert vals[0] == 0.5 and vals[1] == 0.5
        assert abs(vals[4]) <= 1e-12
