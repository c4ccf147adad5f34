"""Structured-grid finite elements: Q1 quads and hexes, direct and CG
solves, smallest eigenpairs.

Grids are tensor products of strictly increasing coordinate axes, so element
Jacobians are diagonal and positive by construction.  Degrees of freedom are
node-major: dof = node * ncomp + component.

Every Q1 form, the strain energy included, is the pointwise form
(u, grad u)^T W (u, grad u) with W frozen per element, and has one assembly
kernel.  The element matrices of all cells are one matrix product of the
weights, scaled by cell volume and 1/size per gradient row, with a cached
tensor of unit-cell integrals.  They are summed straight into CSR over the
grid stencil: node i couples to i + delta, delta in {-1, 0, 1}^d, and the
block of element corners (a, b) goes to slot (node of a, b - a).  The pattern
is every in-grid slot as a full ncomp x ncomp block, column indices sorted.
Assembly is deterministic: each slot sums its contributions in a fixed
corner-pair order, so repeated runs produce bit-identical matrices.

Direct solves share one path, EliminationSolver: it drops the Dirichlet dofs,
factors the free block once and then solves any number of right-hand sides
per call.  Every system it factors lives on a node grid and remembers its
shape and the reach of its couplings: Q1 assembly couples nearest
neighbours (reach 1), the plate's bending matrix nodes two apart (reach 2).
The free block is factored in a symmetry-adapted basis (Bossavit 1986) of
the grid axes whose mirror (node index i_a -> n_a - 1 - i_a, component a
negated) maps it to itself: one block per parity class, each on the
fundamental box of the mirrors in geometric nested-dissection order (George
1973), cut by slabs as wide as that reach, all in one SuperLU call with its
own column ordering and pivoting switched off.  A system with no mirror is
the case of no axes: one block, the whole grid in nested-dissection order,
whose L+U fill on the 3D layer box is about a third below COLAMD's.  On
the capacity layer box (mirrors in y1 and y2, for every material with
those two mirror planes) the four quarter-box blocks take a third less L+U
fill and about half the factor time of the whole box.  The mirror must
hold within 1e-14 of the largest matrix entry: the assembly's own mirror
asymmetry is round-off, 2.7e-15 against 18.5 on that box, while a material
off the mirror pattern misses by O(1).  So the reduced solves agree with
the full factor to round-off.  2D systems are never reduced: on a plate
the basis costs more than the blocks save.

A direct solve peaks in memory at the end of the factorization, and glibc
keeps much of what the setup frees resident, so the setup cuts K in slabs
of rows and copies it as little as it can.  On the default capacity box
(K 26 MB) the mirror check holds 0.35 times the bytes of K, the fixed-
column cut 0.13 times and the fold the blocks plus 0.39 times (tracemalloc),
and a capacity run peaks at about 270 MB of RSS, of which the factor takes
135 MB.

The smallest eigenpair of a pencil (K, M) comes from ARPACK in shift-invert
mode, whose inner solves reuse that one factorization of K.  The iterative
path is SciPy's Jacobi-preconditioned CG.
"""
from __future__ import annotations

import functools
import logging
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elastic import strain_matrix

log = logging.getLogger(__name__)

# mirror tolerance of a free block, relative to its largest entry
_MIRROR_RTOL = 1e-14
# rows of K that the mirror check and the fold cut at a time
_SLAB_ROWS = 2048


class MeshError(ValueError):
    pass


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class StructuredGrid:
    """Tensor-product grid in 2 or 3 dimensions."""

    def __init__(self, axes: Sequence[np.ndarray]):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        if len(axes) not in (2, 3):
            raise MeshError("grid needs 2 or 3 axes")
        for a in axes:
            if a.ndim != 1 or len(a) < 2:
                raise MeshError("each axis needs >= 2 nodes")
            if not np.all(np.diff(a) > 0):
                raise MeshError("axis coordinates must be strictly increasing")
        self.axes = axes

    @staticmethod
    def uniform(lo: Sequence[float], hi: Sequence[float],
                divisions: Sequence[int]) -> "StructuredGrid":
        return StructuredGrid([np.linspace(l, h, n + 1)
                               for l, h, n in zip(lo, hi, divisions)])

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self):
        return tuple(len(a) for a in self.axes)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_elements(self) -> int:
        return int(np.prod([len(a) - 1 for a in self.axes]))

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def element_node_ids(self) -> np.ndarray:
        """(n_elements, 2^ndim) node ids, corners in lexicographic offset order."""
        shape = self.shape
        ecounts = [n - 1 for n in shape]
        base = np.stack(np.meshgrid(*[np.arange(n) for n in ecounts],
                                    indexing="ij"), axis=-1).reshape(-1, self.ndim)
        offs = np.stack(np.meshgrid(*[[0, 1]] * self.ndim,
                                    indexing="ij"), axis=-1).reshape(-1, self.ndim)
        corners = base[:, None, :] + offs[None, :, :]
        return np.ravel_multi_index(
            tuple(corners[..., d] for d in range(self.ndim)), shape)

    def element_sizes(self) -> np.ndarray:
        diffs = [np.diff(a) for a in self.axes]
        mesh = np.meshgrid(*diffs, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def element_centroids(self) -> np.ndarray:
        mids = [0.5 * (a[1:] + a[:-1]) for a in self.axes]
        mesh = np.meshgrid(*mids, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def face_nodes(self, axis: int, side: int) -> np.ndarray:
        """Node ids on the face where coordinate `axis` is at its min (side=0)
        or max (side=1)."""
        shape = self.shape
        idx = [np.arange(n) for n in shape]
        idx[axis] = np.array([0 if side == 0 else shape[axis] - 1])
        mesh = np.meshgrid(*idx, indexing="ij")
        return np.ravel_multi_index(tuple(m.ravel() for m in mesh), shape)


# reference shape functions on [0,1]^d, corners in lexicographic offset order
def _ref_quadrature(ndim: int):
    g = (1.0 - 1.0 / np.sqrt(3.0)) / 2.0, (1.0 + 1.0 / np.sqrt(3.0)) / 2.0
    pts = np.stack(np.meshgrid(*[g] * ndim, indexing="ij"),
                   axis=-1).reshape(-1, ndim)
    wts = np.full(len(pts), 0.5 ** ndim)
    return pts, wts


def _shape_values(ndim: int, t: np.ndarray) -> np.ndarray:
    """(npts, 2^ndim) nodal values of the multilinear basis at points t."""
    offs = np.stack(np.meshgrid(*[[0, 1]] * ndim, indexing="ij"),
                    axis=-1).reshape(-1, ndim)
    vals = np.ones((len(t), len(offs)))
    for d in range(ndim):
        vals *= np.where(offs[None, :, d] == 1, t[:, None, d],
                         1.0 - t[:, None, d])
    return vals


def _shape_gradients(ndim: int, t: np.ndarray) -> np.ndarray:
    """(npts, 2^ndim, ndim) reference gradients of the multilinear basis."""
    offs = np.stack(np.meshgrid(*[[0, 1]] * ndim, indexing="ij"),
                    axis=-1).reshape(-1, ndim)
    grads = np.empty((len(t), len(offs), ndim))
    for d in range(ndim):
        g = np.ones((len(t), len(offs)))
        for e in range(ndim):
            if e == d:
                g *= np.where(offs[None, :, e] == 1, 1.0, -1.0)
            else:
                g *= np.where(offs[None, :, e] == 1, t[:, None, e],
                              1.0 - t[:, None, e])
        grads[:, :, d] = g
    return grads


# ---------------------------------------------------------------------------
# constraints and systems
# ---------------------------------------------------------------------------

@dataclass
class ConstraintSet:
    """Dirichlet values per (node, component); a point support is one such
    value, and its reaction is the residual b - K x at that dof."""

    ncomp: int = 3
    dirichlet: dict = field(default_factory=dict)   # (node, comp) -> value

    def fix(self, node: int, comp: int, value: float = 0.0):
        key = (int(node), int(comp))
        if key in self.dirichlet and self.dirichlet[key] != value:
            raise ValueError(f"conflicting Dirichlet value at {key}")
        self.dirichlet[key] = float(value)

    def fix_nodes(self, nodes, comps=None, value: float = 0.0):
        comps = range(self.ncomp) if comps is None else comps
        for n in np.asarray(nodes).ravel():
            for c in comps:
                self.fix(int(n), int(c), value)

    def dirichlet_dofs(self):
        """Dirichlet dofs node * ncomp + comp in increasing order, and their
        values."""
        if not self.dirichlet:
            return np.empty(0, dtype=int), np.empty(0)
        keys = np.array(list(self.dirichlet), dtype=int)
        dofs = keys[:, 0] * self.ncomp + keys[:, 1]
        vals = np.fromiter(self.dirichlet.values(), dtype=float,
                           count=len(dofs))
        order = np.argsort(dofs, kind="stable")
        return dofs[order], vals[order]


@dataclass
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    constraints: ConstraintSet
    grid_shape: tuple | None = None   # node grid the dofs live on
    grid_reach: int = 1   # largest node offset, per axis, of any coupling

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def split_dofs(self):
        """(fixed, values, free): the Dirichlet dofs and values, and the
        sorted dofs without a Dirichlet value."""
        fixed, vals = self.constraints.dirichlet_dofs()
        mask = np.ones(self.n, dtype=bool)
        mask[fixed] = False
        return fixed, vals, np.flatnonzero(mask)

    def free_dofs(self) -> np.ndarray:
        """Sorted dofs without a Dirichlet value."""
        return self.split_dofs()[2]


@dataclass
class SolveReport:
    iterations: int
    residual: float
    converged: bool
    unknowns: int


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _unit_cell_integrals(ndim: int) -> np.ndarray:
    """(4^ndim, (1+ndim)^2) unit-cell integrals of g_k(a) g_l(b), rows
    ordered by corner pair (a, b), columns by (k, l); g_0 is the shape
    function of corner a and g_k its reference derivative along axis k-1."""
    pts, wts = _ref_quadrature(ndim)
    g = np.concatenate([_shape_values(ndim, pts)[:, None, :],
                        _shape_gradients(ndim, pts).transpose(0, 2, 1)],
                       axis=1)                       # (npts, 1+ndim, 2^ndim)
    S = np.einsum("p,pka,plb->abkl", wts, g, g).reshape(
        4 ** ndim, (1 + ndim) ** 2)
    S.setflags(write=False)
    return S


def _strain_map(ndim: int) -> np.ndarray:
    """P with strain column = P (u, grad u): 6 rows in 3D; in 2D the three
    in-plane rows (e11, e22, sqrt2 e12)."""
    nstrain = 6 if ndim == 3 else 3
    P = np.zeros((nstrain, ndim * (1 + ndim)))
    for k in range(ndim):
        P[:, (1 + k) * ndim:(2 + k) * ndim] = \
            strain_matrix(np.eye(3)[k])[:nstrain, :ndim]
    return P


def _assemble(grid: StructuredGrid, W: np.ndarray,
              ncomp: int) -> sp.csr_matrix:
    """CSR matrix of the Q1 form with per-element weights W (n_elements, m,
    m), m = ncomp * (1 + ndim), summed over the grid stencil.

    The corner blocks (a, b) of all element matrices are one product of the
    unit-cell integrals with the weights, scaled by cell volume and 1/size
    per gradient row.  Node i couples to i + delta for delta in {-1, 0,
    1}^ndim; block (a, b) of each element goes to slot (node of a, b - a),
    so every slot sums its contributions in the same corner-pair order.
    The in-grid slots, full ncomp x ncomp blocks with explicit zeros, factor
    by axis and go to BSR, then CSR.
    """
    ndim, shape = grid.ndim, grid.shape
    c, nk, n_nodes = ncomp, 1 + ndim, grid.n_nodes
    cells = tuple(n - 1 for n in shape)
    sizes = grid.element_sizes()
    scale = np.concatenate([np.ones((len(sizes), 1)), 1.0 / sizes], axis=1)
    scale = (np.prod(sizes, axis=1)[:, None, None] * scale[:, :, None] *
             scale[:, None, :])
    # weights as rows (k, l) over columns (element, comp, comp')
    Wt = (W.reshape(-1, nk, c, nk, c) * scale[:, :, None, :, None]
          ).transpose(1, 3, 0, 2, 4).reshape(nk * nk, -1)
    S = _unit_cell_integrals(ndim)
    corners = np.stack(np.meshgrid(*[[0, 1]] * ndim, indexing="ij"),
                       axis=-1).reshape(-1, ndim)
    nsh = len(corners)
    # intermediates are dropped as soon as they are spent, which keeps the
    # peak within a few times the bytes of the result
    slots = np.zeros(shape + (3 ** ndim, c, c))
    for a, ca in enumerate(corners):
        rows = tuple(slice(o, o + n) for o, n in zip(ca, cells))
        blocks = (S[a * nsh:(a + 1) * nsh] @ Wt).reshape(
            (nsh,) + cells + (c, c))
        for b, cb in enumerate(corners):
            delta = int(np.ravel_multi_index(cb - ca + 1, (3,) * ndim))
            slots[rows + (delta,)] += blocks[b]
        del blocks
    del Wt
    # slot (node, delta) is in the grid, and its neighbour id known, axis by
    # axis
    valid = np.ones((1,) * (2 * ndim), dtype=bool)
    nbr = np.zeros((1,) * (2 * ndim), dtype=np.int64)
    stride = n_nodes
    for k, n in enumerate(shape):
        stride //= n
        j = np.arange(n)[:, None] + np.arange(-1, 2)[None, :]
        view = [1] * (2 * ndim)
        view[k], view[ndim + k] = n, 3
        valid = valid & ((j >= 0) & (j < n)).reshape(view)
        nbr = nbr + (j * stride).reshape(view)
    valid = valid.reshape(n_nodes, 3 ** ndim)
    data = slots.reshape(n_nodes, 3 ** ndim, c, c)[valid]
    del slots
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    n = n_nodes * c
    return sp.bsr_matrix((data, nbr.reshape(n_nodes, -1)[valid], indptr),
                         shape=(n, n)).tocsr()


def assemble_elastic(grid: StructuredGrid, A: np.ndarray,
                     constraints: ConstraintSet | None = None) -> SparseSystem:
    """Galerkin matrix of the strain form integral (A D(grad)u) . D(grad)v.

    3D grids take a 6x6 stiffness; 2D grids take the reduced 3x3 stiffness
    acting on the in-plane strain column (e11, e22, sqrt2 e12).  This is the
    pointwise form with the constant weight P^T A P, P the strain map.
    """
    A = np.asarray(A, dtype=float)
    ncomp = 3 if grid.ndim == 3 else 2
    want = 6 if grid.ndim == 3 else 3
    if A.shape != (want, want):
        raise ValueError(f"stiffness must be {want}x{want} for {grid.ndim}D")
    if constraints is None:
        constraints = ConstraintSet(ncomp=ncomp)
    if constraints.ncomp != ncomp:
        raise ValueError("constraint block size does not match the grid")
    P = _strain_map(grid.ndim)
    m = P.shape[1]
    K = _assemble(grid, np.broadcast_to(P.T @ A @ P, (grid.n_elements, m, m)),
                  ncomp)
    return SparseSystem(matrix=K, rhs=np.zeros(K.shape[0]),
                        constraints=constraints, grid_shape=grid.shape)


def assemble_pointwise_form(grid: StructuredGrid, W: np.ndarray,
                            ncomp: int | None = None) -> sp.csr_matrix:
    """Matrix of int  (u, grad u)^T W(x) (u, grad u)  with W frozen per element.

    W has shape (n_elements, m, m), m = ncomp * (1 + ndim); the row layout of
    the local vector is (u_1..u_c, d1 u_1..d1 u_c, ..., dd u_1..dd u_c).
    """
    ndim = grid.ndim
    if ncomp is None:
        ncomp = 3 if ndim == 3 else 2
    m = ncomp * (1 + ndim)
    W = np.asarray(W, dtype=float)
    if W.shape != (grid.n_elements, m, m):
        raise ValueError(f"W must have shape ({grid.n_elements}, {m}, {m})")
    return _assemble(grid, W, ncomp)


def apply_mass(grid: StructuredGrid, values: np.ndarray) -> np.ndarray:
    """Consistent Q1 mass matrix times nodal values (n_nodes,) or
    (n_nodes, ncomp), without forming the matrix: on a tensor grid it is the
    Kronecker product of the 1D P1 masses, h/6 [2 1; 1 2] per interval,
    applied axis by axis."""
    values = np.asarray(values, dtype=float)
    u = values.reshape(grid.shape + (-1,))
    for k, a in enumerate(grid.axes):
        u = np.moveaxis(u, k, 0)
        h = (np.diff(a) / 6.0).reshape((-1,) + (1,) * (u.ndim - 1))
        out = np.zeros_like(u)
        out[:-1] += h * (2.0 * u[:-1] + u[1:])
        out[1:] += h * (u[:-1] + 2.0 * u[1:])
        u = np.moveaxis(out, 0, k)
    return u.reshape(values.shape)


def assemble_load(grid: StructuredGrid, f: Callable[[np.ndarray], np.ndarray],
                  ncomp: int | None = None) -> np.ndarray:
    """Consistent load vector for a body force f(points) -> (npts, ncomp)."""
    ndim = grid.ndim
    if ncomp is None:
        ncomp = 3 if ndim == 3 else 2
    pts, wts = _ref_quadrature(ndim)
    vals = _shape_values(ndim, pts)
    ids = grid.element_node_ids()
    sizes = grid.element_sizes()
    origins = grid.element_centroids() - 0.5 * sizes
    F = np.zeros(grid.n_nodes * ncomp)
    for p in range(len(pts)):
        x = origins + sizes * pts[p][None, :]
        fx = np.asarray(f(x), dtype=float).reshape(len(x), ncomp)
        w = wts[p] * np.prod(sizes, axis=1)
        contrib = (w[:, None] * fx)[:, None, :] * vals[p][None, :, None]
        dofs = (ids[:, :, None] * ncomp + np.arange(ncomp)[None, None, :])
        np.add.at(F, dofs.ravel(), contrib.ravel())
    return F


# ---------------------------------------------------------------------------
# constraint elimination and solvers
# ---------------------------------------------------------------------------

def nested_dissection(shape: Sequence[int], width: int = 1) -> np.ndarray:
    """Nested-dissection order of the nodes of a grid of the given shape.

    Each box is cut across its longest axis by a slab of ``width`` middle
    node planes; the two halves come first, each ordered the same way, and
    the slab last.  When no coupling reaches further than ``width`` nodes
    along an axis (1 on a Q1 grid, 2 for a product of two nearest-neighbour
    stencils), the slab separates the halves, so eliminating in this order
    confines fill to the separators.  Boxes too short to leave a node on
    each side of the slab keep the natural order.
    Returns the node ids (C order of shape) in elimination order.

    The boxes of one level are cut together: each node gets a base-3 path
    key (low half 0, high half 1, slab 2, padded with 0 once its box stops
    splitting), and a stable sort of the keys gives the order.
    """
    shape = tuple(int(n) for n in shape)
    n_nodes = int(np.prod(shape))
    coords = np.stack(np.unravel_index(np.arange(n_nodes), shape), axis=1)
    key = np.zeros(n_nodes, dtype=np.int64)
    box = np.zeros(n_nodes, dtype=np.int64)      # -1 once a node is placed
    lo = np.zeros((1, len(shape)), dtype=np.int64)
    hi = np.array([shape], dtype=np.int64)
    while np.any(box >= 0):
        extent = hi - lo
        axis = np.argmax(extent, axis=1)
        n = extent[np.arange(len(extent)), axis]
        cut = lo[np.arange(len(lo)), axis] + (n - width + 1) // 2
        split = n >= width + 2
        live = np.flatnonzero(box >= 0)
        b = box[live]
        x = coords[live, axis[b]]
        digit = np.where(x < cut[b], 0, np.where(x < cut[b] + width, 2, 1))
        digit[~split[b]] = 0
        key *= 3
        key[live] += digit
        # the halves of the i-th split box become boxes 2i (low), 2i+1 (high)
        rank = np.cumsum(split) - 1
        box[live] = np.where(split[b] & (digit < 2), 2 * rank[b] + digit, -1)
        s_lo, s_hi = lo[split], hi[split]
        ax, c = axis[split], cut[split]
        idx = np.arange(len(ax))
        low_hi, high_lo = s_hi.copy(), s_lo.copy()
        low_hi[idx, ax] = c
        high_lo[idx, ax] = c + width
        lo = np.stack([s_lo, high_lo], axis=1).reshape(-1, len(shape))
        hi = np.stack([low_hi, s_hi], axis=1).reshape(-1, len(shape))
    return np.argsort(key, kind="stable")


def _mirror_axes(K: sp.csr_matrix, free: np.ndarray, shape: tuple) -> tuple:
    """The grid axes whose mirror maps the free block of a 3D displacement
    system to itself; () for any other system.

    The mirror of axis a maps node index i_a to n_a - 1 - i_a and negates
    displacement component a.  It must map the free dofs to themselves, an
    O(n) check that runs first, and the free rows of K to themselves within
    _MIRROR_RTOL times the largest entry of K.  The rows of the half
    i_a >= n_a // 2 hold every pair of mirrored entries, so only they are
    compared, _SLAB_ROWS at a time: the check's temporaries do not grow
    with the box, and it stops at the first slab that misses.  2D systems
    are never reduced: on a plate at spacing 1/128 the blocks saved 15-30
    ms of SuperLU time and the basis cost more.
    """
    n = K.shape[0]
    ncomp = n // int(np.prod(shape))
    if not len(shape) == ncomp == 3:
        return ()
    mask = np.zeros(n, dtype=bool)
    mask[free] = True
    mask = mask.reshape(*shape, ncomp)
    candidates = [a for a in range(3)
                  if np.array_equal(mask, np.flip(mask, axis=a))]
    dofs = np.arange(n).reshape(*shape, ncomp)
    coords = np.unravel_index(free // ncomp, shape)
    tol = _MIRROR_RTOL * max(K.data.max(), -K.data.min())
    axes = []
    for a in candidates:
        image = np.flip(dofs, axis=a).ravel()
        sign = np.where(np.arange(n) % ncomp == a, -1.0, 1.0)
        half = free[coords[a] >= shape[a] // 2]
        if all(_mirror_misfit(K, image, sign, half[i:i + _SLAB_ROWS]) <= tol
               for i in range(0, len(half), _SLAB_ROWS)):
            axes.append(a)
    return tuple(axes)


def _mirror_misfit(K: sp.csr_matrix, image: np.ndarray, sign: np.ndarray,
                   rows: np.ndarray) -> float:
    """Largest entry of |M K M - K| on the given rows, M the mirror that
    maps dof d to sign[d] times dof image[d]."""
    R = K[image[rows]]
    data = R.data * sign[R.indices] * np.repeat(sign[rows], np.diff(R.indptr))
    R = sp.csr_matrix((data, image[R.indices], R.indptr), shape=R.shape)
    return abs(R - K[rows]).max()


def _parity_blocks(K: sp.csr_matrix, free: np.ndarray, shape: tuple,
                   axes: tuple, width: int):
    """(T, A, sizes): the orthonormal basis T of the free dofs over the
    parity classes of the mirrors of ``axes``, T K_ff T^T in CSC with one
    diagonal block per class, and the block sizes.

    A class is odd under the mirrors of a set e of the axes and even under
    the rest.  Its basis vector of a free dof r in the fundamental box
    (node indices i_a >= n_a // 2 on every mirror axis, the mirror planes
    included) has the entries chi_e(k) s_k(c_r) / sqrt(|orbit of r|) at
    the images k(r), k over the subsets of the axes whose plane r is not
    on; chi_e(k) = -1 for an odd number of axes of e in k, and s_k(c) = -1
    when the component c of r is negated by an odd number of the mirrors
    in k.  A dof on the plane of axis a belongs only to the classes whose
    parity under a is that of its component (odd for component a, even for
    the others); the other classes drop it.  Rows go by class, then by the
    nested-dissection order of the fundamental box.  With no axes there is
    one class on the whole grid: T is the nested-dissection permutation of
    the free dofs and its block is K_ff in that order.

    K commutes with the mirrors, so the block of class e is
    sqrt(|orbit of r|) K[r] T_e^T over its rows r: only the rows of the
    representatives are read, and no cross-class entry is formed.  Every
    free dof lies in one orbit, so column c of T_e holds at most one entry
    (j, t), and the product is a fold: column c of those rows becomes
    column j, scaled by t, and entries that meet in one column are summed.
    Unlike a sparse product, the fold keeps the assembly's stored zeros,
    on which SuperLU's supernodes rely: dropping them from a Korn block
    slowed its factor by 4-12 % although L+U shrank.

    The fold reads K _SLAB_ROWS rows at a time and writes each block once,
    into the arrays of A; its one larger temporary is the CSC copy of one
    class.  With one class that copy is A.
    """
    n = K.shape[0]
    ncomp = n // int(np.prod(shape))
    fshape = tuple(m - m // 2 if a in axes else m
                   for a, m in enumerate(shape))
    node = nested_dissection(fshape, width=width)
    coord = np.stack(np.unravel_index(node, fshape))
    for a in axes:
        coord[a] += shape[a] // 2
    coord = np.repeat(coord, ncomp, axis=1)
    comp = np.tile(np.arange(ncomp), len(node))
    pos = np.full(n, -1, dtype=K.indices.dtype)
    pos[free] = np.arange(len(free))
    dof = np.ravel_multi_index(coord, shape) * ncomp + comp
    keep = pos[dof] >= 0
    coord, comp, dof = coord[:, keep], comp[keep], dof[keep]
    plane = {a: (shape[a] % 2 == 1) & (coord[a] == shape[a] // 2)
             for a in axes}
    bits = sum(1 << a for a in axes)
    subsets = [k for k in range(1 << len(shape)) if not k & ~bits]
    classes = []
    for e in subsets:
        ok = np.ones(len(comp), dtype=bool)
        for a in axes:
            ok &= ~plane[a] | ((comp == a) == bool(e >> a & 1))
        classes.append(np.flatnonzero(ok))
    # one buffer holds every block: the folded rows of a class are written
    # at its end in CSR, go to CSC and are written back in place, so the
    # only temporary of a class is its CSC copy.  It is sized by the free
    # columns of each row, an upper bound on the folded entries.
    rowlen = np.diff(K.indptr) - np.diff(K[:, np.flatnonzero(pos < 0)].indptr)
    room = sum(int(rowlen[dof[idx]].sum()) for idx in classes)
    data = np.empty(room)
    index = np.empty(room, dtype=K.indices.dtype)
    indptr = np.zeros(len(free) + 1, dtype=K.indices.dtype)
    t_parts, sizes = [], []
    off = end = 0
    for e, idx in zip(subsets, classes):
        images, signs, moving = [], [], []
        for k in subsets:
            c = coord[:, idx].copy()
            moves = np.ones(len(idx), dtype=bool)
            for a in axes:
                if k >> a & 1:
                    moves &= ~plane[a][idx]
                    c[a] = shape[a] - 1 - c[a]
            images.append(np.ravel_multi_index(c, shape) * ncomp + comp[idx])
            signs.append((-1.0) ** (bin(e & k).count("1")
                                    + (k >> comp[idx] & 1)))
            moving.append(moves)
        moving = np.stack(moving, axis=1)
        orbit = moving.sum(axis=1)
        scale = np.sqrt(orbit)
        # row-major, so each row's entries are contiguous: T_e in CSR
        image = np.stack(images, axis=1)[moving]
        t = (np.stack(signs, axis=1) / scale[:, None])[moving]
        t_parts.append((t, pos[image], orbit))
        j = np.full(n, -1, dtype=K.indices.dtype)
        j[image] = np.repeat(np.arange(len(idx)), orbit)
        s = np.zeros(n)
        s[image] = t
        rep = dof[idx]
        del c, images, signs, moving, image, t
        # the fold, a slab of rows at a time: column c of the
        # representatives' rows goes to column j[c], scaled by s[c]; fixed
        # dofs and dofs outside the class go
        row_ptr = np.zeros(len(idx) + 1, dtype=K.indices.dtype)
        p = end
        for i in range(0, len(idx), _SLAB_ROWS):
            R = K[rep[i:i + _SLAB_ROWS]]
            cols = j[R.indices]
            R.data *= s[R.indices]
            R.data *= np.repeat(scale[i:i + _SLAB_ROWS], np.diff(R.indptr))
            live = cols >= 0
            m = np.count_nonzero(live)
            data[p:p + m] = R.data[live]
            index[p:p + m] = cols[live]
            dead = np.searchsorted(np.flatnonzero(~live), R.indptr[1:])
            row_ptr[i + 1:i + 1 + R.shape[0]] = p - end + R.indptr[1:] - dead
            p += m
        del j, s
        # set, not passed: the constructor would copy a view of a small
        # part of the buffer
        size = len(idx)
        B = sp.csr_matrix((size, size))
        B.data, B.indices, B.indptr = data[end:p], index[end:p], row_ptr
        B = B.tocsc()
        B.sum_duplicates()
        if len(classes) == 1:
            A = B      # the one class's CSC is the whole block
        else:
            nnz = B.nnz
            data[end:end + nnz] = B.data
            np.add(B.indices, off, out=index[end:end + nnz])
            indptr[off + 1:off + size + 1] = B.indptr[1:] + end
            end += nnz
        del B
        off += size
        sizes.append(size)
    if len(classes) > 1:
        A = sp.csc_matrix((data[:end], index[:end], indptr),
                          shape=(len(free), len(free)))
    t, tcol, orbit = (np.concatenate(v) for v in zip(*t_parts))
    T = sp.csr_matrix((t, tcol, np.r_[0, np.cumsum(orbit)]),
                      shape=(len(free), len(free)))
    return T, A, tuple(sizes)


class EliminationSolver:
    """Splits fixed/free dofs once and factors the free block for reuse.

    Capacity extraction and ARPACK's shift-invert steps repeatedly solve with
    the same matrix and varying right-hand sides; a single sparse LU shared
    across those solves replaces thousands of CG iterations.  The system
    must say which node grid its dofs live on (``grid_shape``); a system
    without a grid raises ValueError.

    The free block is factored in the parity basis T of the grid axes whose
    mirror maps it to itself (``_mirror_axes``; none for 2D systems, Korn
    supports or materials off the mirror pattern): T K_ff T^T is block
    diagonal, one block per parity class, each in nested-dissection order
    with separator slabs ``grid_reach`` node planes wide
    (``_parity_blocks``).  With no mirror, T is that order's permutation
    and there is one block.  SuperLU factors all blocks in one call, with
    no further column ordering or pivoting, which an SPD block does not
    need.  The mirror tolerance, _MIRROR_RTOL = 1e-14 of the largest entry,
    sits well above the assembly's own mirror round-off and far below what
    a material off the mirror pattern misses by (module docstring).
    Boundary values and right-hand sides need not be symmetric: T acts on
    vectors.

    While SuperLU runs, the caller's K, the block, T and Kfc (the free
    rows' fixed columns, cut column first) are alive beside the factor;
    the solver then keeps the factor, T and Kfc, not the block.  The
    temporaries before that are bounded: the mirror check and the fold read
    K in slabs of rows, the fold's extra is the CSC copy of one parity
    class, and the fixed-column cut copies only those columns.  ``solve``
    takes one set of boundary values (n_fixed,) or a batch (n_fixed, k) and
    solves all k right-hand sides in one triangular sweep.
    """

    def __init__(self, system: SparseSystem):
        shape = system.grid_shape
        if shape is None:
            raise ValueError("EliminationSolver needs the system's "
                             "grid_shape for its nested-dissection order")
        K = system.matrix.tocsr()
        fixed, fvals, free = system.split_dofs()
        self.free = free
        self.fixed = fixed
        self.fixed_values = fvals
        self.n = K.shape[0]
        self.Kfc = K[:, fixed][free]
        self.base_rhs = system.rhs
        if not len(free):
            return
        axes = _mirror_axes(K, free, shape)
        self._T, A, sizes = _parity_blocks(K, free, shape, axes,
                                           system.grid_reach)
        self._Tt = self._T.T
        t0 = time.perf_counter()
        try:
            self._lu = spla.splu(A, permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}")
        log.info("factor: %d free dofs, mirror axes %s, blocks %s, "
                 "L+U nnz %d, %.3f s, peak RSS %.0f MB", len(free), axes,
                 sizes, self._lu.nnz, time.perf_counter() - t0,
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    def solve(self, fixed_values: np.ndarray | None = None) -> np.ndarray:
        """Full solution(s) for the given boundary values: (n,) for data
        (n_fixed,), (n, k) for a batch (n_fixed, k)."""
        fv = self.fixed_values if fixed_values is None else \
            np.asarray(fixed_values, dtype=float)
        b = self.Kfc @ -fv
        rhs = self.base_rhs[self.free]
        b += rhs[:, None] if fv.ndim == 2 else rhs
        x = np.zeros((self.n,) + fv.shape[1:])
        x[self.fixed] = fv
        if len(self.free):
            x[self.free] = self.solve_free(b)
        return x

    def solve_free(self, b: np.ndarray) -> np.ndarray:
        """Kff^{-1} b for b of shape (n_free,) or (n_free, k)."""
        return self._Tt @ self._lu.solve(self._T @ b)


def solve_cg(system: SparseSystem, tol: float = 1e-8):
    """Jacobi-preconditioned CG (SciPy's ``cg``) on the Dirichlet-reduced
    system, capped at 20 sqrt(n) iterations.

    CG itself does not notice an indefinite matrix, so a non-positive
    diagonal is rejected up front; a run that hits the cap raises.
    """
    K = system.matrix.tocsr()
    fixed, fvals, free = system.split_dofs()
    Kff = K[free][:, free].tocsr()
    b = system.rhs[free].astype(float)
    if len(fixed):
        b = b - K[free][:, fixed] @ fvals
    d = Kff.diagonal()
    if np.any(d <= 0):
        raise SolverError("non-positive diagonal: matrix not SPD")
    cap = max(1, int(np.ceil(20.0 * np.sqrt(max(len(free), 1)))))
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    xf, info = spla.cg(Kff, b, rtol=tol, atol=0.0, maxiter=cap,
                       M=sp.diags(1.0 / d), callback=count)
    bnorm = float(np.linalg.norm(b))
    rel = float(np.linalg.norm(b - Kff @ xf)) / bnorm if bnorm else 0.0
    if info != 0:
        raise SolverError(
            f"CG did not converge in {cap} iterations "
            f"(relative residual {rel:.3e})")
    x = np.zeros(system.n)
    x[fixed] = fvals
    x[free] = xf
    return x, SolveReport(iterations=iters, residual=rel, converged=True,
                          unknowns=len(free))


def solve_constrained(system: SparseSystem) -> np.ndarray:
    """Direct solve of the Dirichlet-constrained system: the free block is
    factored once by EliminationSolver and the fixed dofs take their
    values.  Returns the solution on all dofs."""
    return EliminationSolver(system).solve()


def smallest_eigenpair(K_system: SparseSystem, M_matrix, tol: float = 1e-6):
    """Smallest generalized eigenpair of (K, M) on the constrained subspace.

    ARPACK's Lanczos iteration in shift-invert mode about 0 (scipy ``eigsh``
    with ``sigma=0``), each step one solve with the shared factorization of
    the free block of K.  The start vector is fixed, so results are
    reproducible.  ARPACK's own tolerance bounds the Ritz estimate of the
    inverted operator, so it runs at tol/100; the returned pair must then
    meet ||K u - lambda M u|| / ||M u|| <= tol, with u M-normalised and
    lambda its Rayleigh quotient.  Returns (lambda, u on all dofs, that
    residual).
    """
    solver = EliminationSolver(K_system)
    free = solver.free
    if not len(free):
        raise SolverError("no free dofs")
    Kff = K_system.matrix.tocsr()[free][:, free]
    Mff = M_matrix.tocsr()[free][:, free]
    n = len(free)
    try:
        _, vecs = spla.eigsh(
            Kff, k=1, M=Mff, sigma=0.0, which="LM",
            OPinv=spla.LinearOperator((n, n), matvec=solver.solve_free,
                                      dtype=float),
            v0=np.random.default_rng(0).standard_normal(n), tol=1e-2 * tol)
    except spla.ArpackNoConvergence as exc:
        raise SolverError(f"eigen solve did not converge: {exc}")
    x = vecs[:, 0]
    mx = float(x @ (Mff @ x))
    if mx <= 0 or not np.isfinite(mx):
        raise SolverError("mass matrix not positive on the subspace")
    x = x / np.sqrt(mx)
    Kx, Mx = Kff @ x, Mff @ x
    lam = float(x @ Kx)
    res = float(np.linalg.norm(Kx - lam * Mx)) / max(
        float(np.linalg.norm(Mx)), np.finfo(float).tiny)
    if res > tol:
        raise SolverError(f"eigen residual {res:.3e} above {tol}")
    if lam < -tol * max(1.0, abs(lam)):
        raise SolverError(f"matrix indefinite under constraints: lambda={lam}")
    vec = np.zeros(K_system.n)
    vec[free] = x
    return lam, vec, res
