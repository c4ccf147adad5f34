"""Two-dimensional limit plate model on a rectangle.

Membrane: anisotropic plane elasticity for (w1, w2), clamped on the whole
contour, discretized with bilinear quads (the strain-composition form
B^T A0 B evaluated at the 2x2 Gauss points of each cell).

Bending: fourth-order operator for w3 composed as D^T (A0/6) D where D
samples the second-difference curvature column

    (d1^2 w / sqrt2, d2^2 w / sqrt2, d1 d2 w)

at every node with trapezoid weights.  Clamping eliminates boundary values
and reflects ghost nodes through the boundary (mirror), which enforces the
zero normal slope: the reflected second difference 2*w_1/dx^2 at the contour
is the consistent curvature of a clamped plate, and the mirrored cross
difference vanishes there, as it must when w and its normal derivative are
held at zero.  A point support at an interior node is one more Dirichlet
value, w3 = 0 there; its reaction force is the residual b - K w3 at that
node.

The bending matrix couples nodes up to two apart along each axis, so its
system declares grid reach 2 and is factored in nested-dissection order
with two-plane separators and no pivoting.  That is safe because the
clamped free block is SPD: A0 is, and the d1^2 rows of D are injective on
interior nodes.  Each bending solve is checked by its normwise backward
error.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elastic import _to_exact_matrix
from .fem import (ConstraintSet, SolverError, SparseSystem, StructuredGrid,
                  apply_mass, assemble_elastic, solve_constrained)
from .fem import assemble_pointwise_form  # noqa: F401  (perfbench wraps it)
from .polyfield import mat_to_float
from .reduction import bending_table_direct, membrane_table_direct


class DomainError(ValueError):
    pass


@dataclass
class PlateDomain:
    """Rectangle (0,a) x (0,b) with uniform spacing and an optional interior
    support node."""

    a: float
    b: float
    spacing: float
    point: tuple | None = None     # physical coordinates of the support

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.spacing <= 0:
            raise DomainError("need positive rectangle sides and spacing")
        self.nx = max(2, round(self.a / self.spacing))
        self.ny = max(2, round(self.b / self.spacing))
        self.dx = self.a / self.nx
        self.dy = self.b / self.ny
        if self.point is not None:
            i = round(self.point[0] / self.dx)
            j = round(self.point[1] / self.dy)
            if not (0 < i < self.nx and 0 < j < self.ny):
                raise DomainError("support point must be strictly interior")
            self.point_ij = (i, j)
        else:
            self.point_ij = None

    @property
    def grid(self) -> StructuredGrid:
        return StructuredGrid.uniform((0.0, 0.0), (self.a, self.b),
                                      (self.nx, self.ny))

    @property
    def shape(self):
        return (self.nx + 1, self.ny + 1)

    def node_id(self, i: int, j: int) -> int:
        return i * (self.ny + 1) + j

    @property
    def point_node(self):
        if self.point_ij is None:
            return None
        return self.node_id(*self.point_ij)

    def boundary_nodes(self) -> np.ndarray:
        ii, jj = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny + 1),
                             indexing="ij")
        mask = (ii == 0) | (ii == self.nx) | (jj == 0) | (jj == self.ny)
        return np.flatnonzero(mask.ravel())


@dataclass
class Load:
    """Nodal load samples."""

    gprime: np.ndarray | None = None    # (n_nodes, 2)
    g3: np.ndarray | None = None        # (n_nodes,)


@dataclass
class KirchhoffSolution:
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    multiplier: float
    energy_membrane: float
    energy_bending: float


# ---------------------------------------------------------------------------
# limit operator coefficients
# ---------------------------------------------------------------------------

def operator_coefficients(A0):
    """Exact symbol tables of the limit operators for a reduced stiffness.

    Returns (membrane, bending): membrane maps (a, b) -> 2x2 coefficient
    matrices of the second-order in-plane operator, bending maps (a, b) with
    a+b=4 to the scalar coefficients of the fourth-order operator.
    """
    A0e = _to_exact_matrix(A0)
    return membrane_table_direct(A0e), bending_table_direct(A0e)


def membrane_table_float(table) -> dict:
    return {k: mat_to_float(M) for k, M in table.items()}


def bending_table_float(table) -> dict:
    return {k: float(v) for k, v in table.items()}


# ---------------------------------------------------------------------------
# membrane solve
# ---------------------------------------------------------------------------

def solve_membrane(domain: PlateDomain, A0, gprime):
    """Clamped in-plane solve; returns (w1, w2, energy).

    gprime is either nodal samples (n_nodes, 2) or a callable on points.
    The load vector is the consistent Q1 mass applied to those samples,
    axis by axis (``fem.apply_mass``); no mass matrix is assembled.
    """
    grid = domain.grid
    A0f = mat_to_float(A0)
    cs = ConstraintSet(ncomp=2)
    cs.fix_nodes(domain.boundary_nodes())
    system = assemble_elastic(grid, A0f, cs)
    if callable(gprime):
        g = np.asarray(gprime(grid.nodes()), dtype=float)
    else:
        g = np.asarray(gprime, dtype=float)
    if g.shape != (grid.n_nodes, 2):
        raise ValueError("membrane load must be nodal (n_nodes, 2)")
    system.rhs = apply_mass(grid, g).ravel()
    x = solve_constrained(system)
    r = system.matrix @ x - system.rhs
    free = system.free_dofs()
    rel = np.linalg.norm(r[free]) / max(np.linalg.norm(system.rhs[free]),
                                        np.finfo(float).tiny)
    if rel > 1e-10:
        raise SolverError(f"membrane residual {rel:.3e} above 1e-10")
    w = x.reshape(-1, 2)
    energy = 0.5 * float(x @ (system.matrix @ x)) - float(system.rhs @ x)
    return w[:, 0], w[:, 1], energy


# ---------------------------------------------------------------------------
# bending solve
# ---------------------------------------------------------------------------

def _curvature_matrix(domain: PlateDomain) -> sp.csr_matrix:
    """Rows 3*n..3*n+2: curvature column at node n, ghosts mirrored."""
    nx, ny = domain.nx, domain.ny
    dx, dy = domain.dx, domain.dy
    s = 2.0 ** -0.5
    c = 1.0 / (4.0 * dx * dy)
    # the ten taps of every node, row by row: (curvature row, di, dj, value)
    taps = [(0, -1, 0, s / dx ** 2), (0, 0, 0, -2.0 * s / dx ** 2),
            (0, 1, 0, s / dx ** 2),
            (1, 0, -1, s / dy ** 2), (1, 0, 0, -2.0 * s / dy ** 2),
            (1, 0, 1, s / dy ** 2),
            (2, 1, 1, c), (2, 1, -1, -c), (2, -1, 1, -c), (2, -1, -1, c)]
    comp, di, dj, v = (np.array(t) for t in zip(*taps))
    i, j = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="ij")
    i, j = i.ravel()[:, None], j.ravel()[:, None]

    def mirror(k, n):   # reflect ghost indices through 0 and n
        return np.abs(n - np.abs(n - k))

    N = (nx + 1) * (ny + 1)
    rows = 3 * (i * (ny + 1) + j) + comp
    cols = mirror(i + di, nx) * (ny + 1) + mirror(j + dj, ny)
    vals = np.broadcast_to(v, rows.shape)
    D = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                      shape=(3 * N, N)).tocsr()
    D.sum_duplicates()
    return D


def _node_weights(domain: PlateDomain) -> np.ndarray:
    wx = np.full(domain.nx + 1, domain.dx)
    wx[[0, -1]] *= 0.5
    wy = np.full(domain.ny + 1, domain.dy)
    wy[[0, -1]] *= 0.5
    return np.outer(wx, wy).ravel()


def bending_system(domain: PlateDomain, A0) -> SparseSystem:
    """Clamped bending system; the support node, if the domain has one, is
    fixed at zero."""
    A0f = mat_to_float(A0)
    D = _curvature_matrix(domain)
    w = _node_weights(domain)
    S = sp.kron(sp.diags(w), sp.csr_matrix(A0f / 6.0), format="csr")
    K = (D.T @ S @ D).tocsr()
    cs = ConstraintSet(ncomp=1)
    cs.fix_nodes(domain.boundary_nodes(), comps=(0,))
    if domain.point_node is not None:
        cs.fix(domain.point_node, 0)
    N = K.shape[0]
    return SparseSystem(matrix=K, rhs=np.zeros(N), constraints=cs,
                        grid_shape=domain.shape, grid_reach=2)


def solve_bending(domain: PlateDomain, A0, g3):
    """Clamped fourth-order solve; returns (w3, multiplier, energy).

    g3 is nodal samples (n_nodes,) or a callable on points.  The load pairs
    against the same trapezoid weights the energy uses.  The multiplier is
    the reaction b - K w3 at the support node, 0 without a support.
    """
    system = bending_system(domain, A0)
    grid = domain.grid
    if callable(g3):
        g = np.asarray(g3(grid.nodes()), dtype=float).ravel()
    else:
        g = np.asarray(g3, dtype=float).ravel()
    if g.shape != (grid.n_nodes,):
        raise ValueError("bending load must be nodal (n_nodes,)")
    system.rhs = _node_weights(domain) * g
    x = solve_constrained(system)
    # normwise backward error on the free dofs: the factor runs without
    # pivoting, and the matrix is too ill-conditioned for a residual test
    free = system.free_dofs()
    r = system.matrix @ x - system.rhs
    in_free = np.zeros(system.n)
    in_free[free] = 1.0
    K_norm = (abs(system.matrix) @ in_free)[free].max()
    eta = np.abs(r[free]).max() / max(
        K_norm * np.abs(x[free]).max() + np.abs(system.rhs[free]).max(),
        np.finfo(float).tiny)
    if eta > 1e-12:
        raise SolverError(f"bending backward error {eta:.3e} above 1e-12")
    node = domain.point_node
    mult = 0.0 if node is None else float(-r[node])
    energy = 0.5 * float(x @ (system.matrix @ x)) - float(system.rhs @ x)
    return x, mult, energy


# ---------------------------------------------------------------------------
# loads and output
# ---------------------------------------------------------------------------

def load_from_spec(domain: PlateDomain, spec: str) -> Load:
    """CLI-facing load identifiers: 'constant', 'sine-bump', 'file:<csv>'."""
    pts = domain.grid.nodes()
    if spec == "constant":
        return Load(gprime=np.ones((len(pts), 2)), g3=np.ones(len(pts)))
    if spec == "sine-bump":
        sx = np.sin(np.pi * pts[:, 0] / domain.a)
        sy = np.sin(np.pi * pts[:, 1] / domain.b)
        bump = sx * sy
        return Load(gprime=np.stack([bump, bump], axis=1), g3=bump)
    if spec.startswith("file:"):
        path = spec[5:]
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape != (len(pts), 3):
            raise ValueError(
                f"load file needs {len(pts)} rows of g1,g2,g3")
        return Load(gprime=data[:, :2], g3=data[:, 2])
    raise ValueError(f"unknown load spec {spec!r}")


def solve_plate(domain: PlateDomain, A0, load: Load) -> KirchhoffSolution:
    w1, w2, em = solve_membrane(domain, A0, load.gprime)
    w3, mult, eb = solve_bending(domain, A0, load.g3)
    return KirchhoffSolution(w1=w1, w2=w2, w3=w3, multiplier=mult,
                             energy_membrane=em, energy_bending=eb)


def solution_csv(domain: PlateDomain, sol: KirchhoffSolution) -> str:
    pts = domain.grid.nodes()
    buf = io.StringIO()
    buf.write("y1,y2,w1,w2,w3\n")
    for k in range(len(pts)):
        buf.write(f"{pts[k, 0]:.12g},{pts[k, 1]:.12g},"
                  f"{sol.w1[k]:.12g},{sol.w2[k]:.12g},{sol.w3[k]:.12g}\n")
    return buf.getvalue()


# manufactured-solution helpers (shared by tests and the CLI demo)

def manufactured_membrane(domain: PlateDomain, table):
    """w' = sin(pi y1/a) sin(pi y2/b) (1,1) and g' = (membrane op) w'."""
    ka, kb = np.pi / domain.a, np.pi / domain.b
    tf = membrane_table_float(table)

    def w(pts):
        s = np.sin(ka * pts[:, 0]) * np.sin(kb * pts[:, 1])
        return np.stack([s, s], axis=1)

    def deriv(pts, a, b):
        fx = {0: np.sin(ka * pts[:, 0]), 1: ka * np.cos(ka * pts[:, 0]),
              2: -ka ** 2 * np.sin(ka * pts[:, 0])}[a]
        fy = {0: np.sin(kb * pts[:, 1]), 1: kb * np.cos(kb * pts[:, 1]),
              2: -kb ** 2 * np.sin(kb * pts[:, 1])}[b]
        return fx * fy

    def g(pts):
        out = np.zeros((len(pts), 2))
        for (a, b), M in tf.items():
            d = deriv(pts, a, b)
            for i in range(2):
                for j in range(2):
                    if M[i, j]:
                        out[:, i] += M[i, j] * d
        return out

    return w, g


def manufactured_bending(domain: PlateDomain, table):
    """w3 = sin^2(pi y1/a) sin^2(pi y2/b), clamped-compatible; g3 = op(w3)."""
    ka, kb = np.pi / domain.a, np.pi / domain.b
    tf = bending_table_float(table)

    def u_derivs(t, k):
        # d^m/dt^m sin^2(k t) for m = 0, 2, 4 via sin^2 = (1 - cos 2kt)/2
        c = np.cos(2 * k * t)
        return {0: (1 - c) / 2, 2: 2 * k ** 2 * c, 4: -8 * k ** 4 * c,
                1: k * np.sin(2 * k * t), 3: -4 * k ** 3 * np.sin(2 * k * t)}

    def w(pts):
        return u_derivs(pts[:, 0], ka)[0] * u_derivs(pts[:, 1], kb)[0]

    def g(pts):
        dx = u_derivs(pts[:, 0], ka)
        dy = u_derivs(pts[:, 1], kb)
        out = np.zeros(len(pts))
        for (a, b), c in tf.items():
            out += c * dx[a] * dy[b]
        return out

    return w, g
