"""Truncated-layer problems and the capacity matrix of a clamped patch.

The model domain is the slab R^2 x (-1/2, 1/2), clamped on a small patch of
its bottom face and traction free on both faces.  Unit translations and the
two admissible tilts imposed at infinity leave logarithmically growing
displacement fields behind; the 4x4 matrix coupling those fields to the
rigid columns (two translations, two tilts) is the capacity of the patch.
This module truncates the slab to a graded box, solves the clamped problem
with trilinear elements, and extracts the capacity by matching the discrete
solution against the analytic far field on an interior annulus.

The far-field template combines the plane fundamental matrices with the
through-thickness ansatz operators.  The drift coefficients c solve an
affine fixed-point equation c = fit(solve(outer data built from c)); solve,
interpolation and fit are all linear, so the default driver measures the
affine map directly (four extra solves with pure rigid outer data), closes
the resulting 4x4 system, and finishes with literal fixed-point sweeps whose
recorded deltas certify the contraction.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.polynomial.polynomial import polyval as _polyval

from .elastic import full_operator, layer_operator_parts
from .fem import (ConstraintSet, EliminationSolver, MeshError, SolverError,
                  StructuredGrid, assemble_elastic, assemble_load,
                  assemble_pointwise_form, solve_cg)
from .fundamental import PhiSharp, verify_contour_identities
from .inequalities import ContractError, cutoff
from .polyfield import Poly, PolyField, mat_to_float
from .reduction import AnsatzOperators

__all__ = [
    "LayerMesh", "layer_mesh", "rigid_sharp", "grid_interpolate",
    "solve_layer_problem", "v01_norm", "strain_energy",
    "ManufacturedSolution", "manufactured_solution", "FarFieldExpansion",
    "FitResult", "fit_rigid", "ExtractionError", "CapacityMatrix",
    "PotentialSolution", "CLOSURES", "check_matching_window",
    "extract_capacity", "DecayReport",
    "symmetry_and_decay_report", "capacity_json", "decay_csv",
]


class ExtractionError(RuntimeError):
    """Far-field matching failed; carries the iteration histories."""

    def __init__(self, message: str, histories=None):
        super().__init__(message)
        self.histories = histories


# ---------------------------------------------------------------------------
# graded box mesh
# ---------------------------------------------------------------------------

def _half_axis(T: float, step: float, core: float, cap: float):
    """Nodes 0..T: uniform spacing `step` on [0, core], then geometrically
    stretched intervals with ratio q in (1, cap] chosen so the last node
    lands exactly on T."""
    n_core = int(round(core / step))
    if n_core < 1 or abs(n_core * step - core) > 1e-9 * max(1.0, core):
        raise MeshError("inner step must divide the core radius")
    if core > T + 1e-12:
        raise MeshError("core radius exceeds the half width")
    vals = [step * k for k in range(n_core + 1)]
    q = 1.0
    rem = T - core
    if rem > 1e-12:
        if rem <= step * (1.0 + 1e-9):
            vals.append(T)  # single closing interval, at most one step wide
        else:
            def geom(m, ratio):
                return step * ratio * (ratio ** m - 1.0) / (ratio - 1.0)

            m = 1
            while geom(m, cap) < rem and m < 500:
                m += 1
            if step * m >= rem:  # ratio 1 already overshoots: uniform tail
                m = max(int(math.ceil(rem / step - 1e-9)), 1)
                vals.extend(core + rem * (k + 1) / m for k in range(m))
            else:
                # scipy.optimize is slow to import and only needed here
                from scipy.optimize import brentq

                q = brentq(lambda x: geom(m, x) - rem, 1.0 + 1e-10, cap,
                           xtol=1e-13)
                r = core
                for k in range(1, m + 1):
                    r += step * q ** k
                    vals.append(r)
        vals[-1] = T
    return np.asarray(vals), q


def _default_disk(eta: np.ndarray) -> np.ndarray:
    return np.hypot(eta[:, 0], eta[:, 1]) <= 1.0 + 1e-12


@dataclass(frozen=True, eq=False)
class LayerMesh:
    """Structured box (-T,T)^2 x (-1/2,1/2) with in-plane grading toward the
    origin, plus the clamped-patch and outer-wall node sets."""

    grid: StructuredGrid
    T: float
    n_z: int
    inner_step: float
    core_radius: float
    growth: float
    growth_cap: float
    theta_nodes: np.ndarray
    outer_nodes: np.ndarray
    R_theta: float
    theta_spec: str
    signature: str
    theta_fn: Callable = field(repr=False, default=None)
    r_override: float = field(repr=False, default=None)

    def refined(self) -> "LayerMesh":
        """Same box, half the tail-grading increment.

        Cell widths in the geometric tail scale with the grading increment
        (growth - 1) times the radius, and the far-field reading is fitted
        over an annulus living entirely in the tail, so this is the
        resolution knob that reading actually depends on.  The uniform core
        and the thickness layering are kept."""
        return layer_mesh(T=self.T, n_z=self.n_z,
                          inner_step=self.inner_step,
                          core_radius=self.core_radius,
                          growth_cap=1.0 + 0.5 * (self.growth_cap - 1.0),
                          theta=self.theta_fn, R_theta=self.r_override)

    def with_box(self, T: float, *, equal_tail_cells: bool = True
                 ) -> "LayerMesh":
        """Same family on a box of half width T.

        With equal_tail_cells the grading cap is rescaled so the cell width
        in the matching annulus (which sits at radii proportional to T)
        stays the one of this mesh; the comparison between the two boxes
        then isolates the truncation effect."""
        cap = self.growth_cap
        if equal_tail_cells:
            cap = 1.0 + (self.growth - 1.0) * self.T / float(T)
        return layer_mesh(T=float(T), n_z=self.n_z,
                          inner_step=self.inner_step,
                          core_radius=self.core_radius, growth_cap=cap,
                          theta=self.theta_fn, R_theta=self.r_override)


def layer_mesh(T: float = 8.0, n_z: int = 6, inner_step: float = 0.25,
               core_radius: float = 2.0, growth_cap: float = 1.15,
               theta: Callable | None = None,
               R_theta: float | None = None) -> LayerMesh:
    """Build the truncated-layer mesh and capture the clamped patch.

    theta: indicator eta(n,2) -> bool mask over bottom-face nodes; None
    selects the closed unit disk.  R_theta overrides the patch radius used
    by the admissibility checks (default: largest captured node radius).
    """
    if T <= 0 or inner_step <= 0 or core_radius <= 0:
        raise MeshError("box size, step and core radius must be positive")
    if n_z < 2:
        raise MeshError("need at least two vertical layers")
    if growth_cap <= 1.0:
        raise MeshError("growth cap must exceed 1")
    half, q = _half_axis(T, inner_step, core_radius, growth_cap)
    axis = np.concatenate([-half[::-1], half[1:]])
    zaxis = np.linspace(-0.5, 0.5, n_z + 1)
    grid = StructuredGrid([axis, axis, zaxis])

    bottom = grid.face_nodes(2, 0)
    eta = grid.nodes()[bottom][:, :2]
    indicator = _default_disk if theta is None else theta
    mask = np.asarray(indicator(eta), dtype=bool)
    theta_nodes = np.sort(bottom[mask])
    if len(theta_nodes) == 0:
        raise MeshError("the clamped patch captured no mesh nodes")
    max_r = float(np.hypot(*eta[mask].T).max())
    r_th = float(R_theta) if R_theta is not None else max(max_r, inner_step)
    if max_r > r_th + 1e-12:
        raise MeshError("patch nodes extend beyond the declared radius")
    if not r_th < 0.25 * T - 1e-12:
        raise MeshError("patch radius must stay below a quarter of the box")
    if r_th < 2.0 * inner_step - 1e-12:
        raise MeshError("need at least two element rings across the patch")
    if core_radius < r_th - 1e-12:
        raise MeshError("the uniform core must cover the clamped patch")

    outer = np.unique(np.concatenate([grid.face_nodes(a, s)
                                      for a in (0, 1) for s in (0, 1)]))
    spec = (f"disk:r={r_th:g}" if theta is None
            else f"indicator({len(theta_nodes)} nodes)")
    sig = (f"box[{T:g}]x{n_z} step={inner_step:g} core={core_radius:g} "
           f"q={q:.4f} nodes={grid.n_nodes}")
    return LayerMesh(grid=grid, T=float(T), n_z=int(n_z),
                     inner_step=float(inner_step),
                     core_radius=float(core_radius), growth=float(q),
                     growth_cap=float(growth_cap), theta_nodes=theta_nodes,
                     outer_nodes=outer, R_theta=r_th, theta_spec=spec,
                     signature=sig, theta_fn=theta, r_override=R_theta)


# ---------------------------------------------------------------------------
# rigid columns and interpolation
# ---------------------------------------------------------------------------

def rigid_sharp(points) -> np.ndarray:
    """(n,3,4) rigid columns at each point: two horizontal translations and
    the two tilts that keep the vertical growth linear; the vertical
    translation and the in-plane spin are excluded (they are not admissible
    drifts of a decaying layer field)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros((len(pts), 3, 4))
    out[:, 0, 0] = 1.0
    out[:, 1, 1] = 1.0
    out[:, 1, 2] = -pts[:, 2]
    out[:, 2, 2] = pts[:, 1]
    out[:, 0, 3] = pts[:, 2]
    out[:, 2, 3] = -pts[:, 0]
    return out


def _stencil_nodes(grid: StructuredGrid, points: np.ndarray) -> np.ndarray:
    """Unique node ids touched by trilinear interpolation at the points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shape = grid.shape
    idx = [np.clip(np.searchsorted(ax, pts[:, d], side="right") - 1, 0,
                   len(ax) - 2) for d, ax in enumerate(grid.axes)]
    stride = (shape[1] * shape[2], shape[2], 1)
    ids = []
    for corner in range(8):
        nid = np.zeros(len(pts), dtype=int)
        for d in range(3):
            nid += (idx[d] + ((corner >> d) & 1)) * stride[d]
        ids.append(nid)
    return np.unique(np.concatenate(ids))


def grid_interpolate(grid: StructuredGrid, values: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of nodal values (n_nodes, c) at points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    flat = vals.ndim == 1
    if flat:
        vals = vals[:, None]
    shape = grid.shape
    idx, loc = [], []
    for d, ax in enumerate(grid.axes):
        x = pts[:, d]
        span = ax[-1] - ax[0]
        if x.min() < ax[0] - 1e-9 * span or x.max() > ax[-1] + 1e-9 * span:
            raise MeshError("interpolation point outside the grid")
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0,
                    len(ax) - 2)
        idx.append(i)
        loc.append((x - ax[i]) / (ax[i + 1] - ax[i]))
    out = np.zeros((len(pts), vals.shape[1]))
    for corner in range(8):
        off = [(corner >> d) & 1 for d in range(3)]
        w = np.ones(len(pts))
        ids = np.zeros(len(pts), dtype=int)
        stride = (shape[1] * shape[2], shape[2], 1)
        for d in range(3):
            w = w * (loc[d] if off[d] else 1.0 - loc[d])
            ids = ids + (idx[d] + off[d]) * stride[d]
        out += w[:, None] * vals[ids]
    return out[:, 0] if flat else out


# ---------------------------------------------------------------------------
# the truncated layer problem
# ---------------------------------------------------------------------------

def _fix_nodes_with(cons: ConstraintSet, node_ids: np.ndarray, data,
                    nodes: np.ndarray):
    if data is None:
        cons.fix_nodes(node_ids, value=0.0)
        return
    vals = data(nodes[node_ids]) if callable(data) else np.asarray(data)
    vals = np.asarray(vals, dtype=float).reshape(len(node_ids), 3)
    for n, row in zip(node_ids, vals):
        for c in range(3):
            cons.fix(int(n), c, float(row[c]))


def _face_load(grid: StructuredGrid, side: int, g) -> np.ndarray:
    """Consistent load of a traction g(eta)->(n,3) on the bottom (side=0)
    or top (side=1) face."""
    plane = StructuredGrid(grid.axes[:2])
    load2 = assemble_load(plane, g, ncomp=3)
    ids = grid.face_nodes(2, side)
    out = np.zeros(grid.n_nodes * 3)
    dofs = (ids[:, None] * 3 + np.arange(3)[None, :]).ravel()
    out[dofs] = load2
    return out


def solve_layer_problem(mesh: LayerMesh, A, body_force=None,
                        traction_top=None, traction_bottom=None, *,
                        outer_closure: str = "dirichlet", theta_data=None,
                        outer_data=None, tol: float = 1e-9):
    """Clamped-patch layer problem on the truncated box.

    Zero (or supplied) displacement on the patch, natural conditions on both
    horizontal faces, and either zero/supplied Dirichlet data on the outer
    walls (default) or a free outer boundary.  body_force maps points (n,3)
    to (n,3); the tractions map in-plane points (n,2) to (n,3).  Returns
    (values (n_nodes,3), solve report); the linear solve is conjugate
    gradients reduced to the free unknowns.
    """
    grid = mesh.grid
    nodes = grid.nodes()
    cons = ConstraintSet(ncomp=3)
    _fix_nodes_with(cons, mesh.theta_nodes, theta_data, nodes)
    if outer_closure == "dirichlet":
        _fix_nodes_with(cons, mesh.outer_nodes, outer_data, nodes)
    elif outer_closure != "free":
        raise ValueError(f"unknown outer closure {outer_closure!r}")
    if not cons.dirichlet:
        raise SolverError("singular system: nothing pins the rigid motions "
                          "(empty patch with a free outer boundary)")
    system = assemble_elastic(grid, A, cons)
    rhs = np.zeros(3 * grid.n_nodes)
    if body_force is not None:
        rhs += assemble_load(grid, body_force, ncomp=3)
    if traction_top is not None:
        rhs += _face_load(grid, 1, traction_top)
    if traction_bottom is not None:
        rhs += _face_load(grid, 0, traction_bottom)
    system.rhs = rhs
    x, report = solve_cg(system, tol=tol)
    return x.reshape(-1, 3), report


def strain_energy(mesh: LayerMesh, A, values: np.ndarray) -> float:
    """Value of the strain form (A strain(u), strain(u)) on the box."""
    system = assemble_elastic(mesh.grid, A, None)
    x = np.asarray(values, dtype=float).ravel()
    return float(x @ (system.matrix @ x))


def v01_norm(mesh: LayerMesh, values: np.ndarray) -> float:
    """Weighted diagnostic norm that the clamped layer controls by energy.

    Full gradients of the horizontal components enter unweighted; their
    values, the vertical component's in-plane gradient and an extra copy of
    the vertical derivatives carry the decaying weight
    s1 = (1+rho^2)^{-1/2} / (1+ln(1+rho^2)); the vertical component itself
    carries s2 = (1+rho^2)^{-1} / (1+ln(1+rho^2)).  Weights are frozen per
    element at centroids.
    """
    grid = mesh.grid
    cent = grid.element_centroids()
    rho2 = cent[:, 0] ** 2 + cent[:, 1] ** 2
    logw = 1.0 / (1.0 + np.log1p(rho2))
    s1 = logw / np.sqrt(1.0 + rho2)
    s2 = logw / (1.0 + rho2)
    one = np.ones_like(s1)
    diag = np.stack([s1 ** 2, s1 ** 2, s2 ** 2,
                     one, one, s1 ** 2,
                     one, one, s1 ** 2,
                     one + s1 ** 2, one + s1 ** 2, one], axis=1)
    W = np.zeros((len(cent), 12, 12))
    W[:, np.arange(12), np.arange(12)] = diag
    M = assemble_pointwise_form(grid, W)
    x = np.asarray(values, dtype=float).ravel()
    return float(math.sqrt(max(x @ (M @ x), 0.0)))


# ---------------------------------------------------------------------------
# manufactured compactly supported solution
# ---------------------------------------------------------------------------

def _poly_terms(p: Poly):
    if not p.terms:
        return np.zeros((0, 3), dtype=int), np.zeros(0)
    exps = np.array(list(p.terms.keys()), dtype=int)
    coeffs = np.array([float(v) for v in p.terms.values()])
    return exps, coeffs


def _field_evaluator(pf: PolyField, box):
    parts = [_poly_terms(c) for c in pf.u]
    x0, x1, y0, y1 = box

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] == 2:
            pts = np.column_stack([pts, np.zeros(len(pts))])
        out = np.zeros((len(pts), 3))
        inside = ((pts[:, 0] >= x0) & (pts[:, 0] <= x1)
                  & (pts[:, 1] >= y0) & (pts[:, 1] <= y1))
        sub = pts[inside]
        for lo in range(0, len(sub), 4096):
            chunk = sub[lo:lo + 4096]
            vals = np.empty((len(chunk), 3))
            for i, (exps, coeffs) in enumerate(parts):
                if len(coeffs) == 0:
                    vals[:, i] = 0.0
                else:
                    mono = (chunk[:, None, :] ** exps[None, :, :]).prod(axis=2)
                    vals[:, i] = mono @ coeffs
            rows = np.flatnonzero(inside)[lo:lo + 4096]
            out[rows] = vals
        return out

    return evaluate


@dataclass(frozen=True, eq=False)
class ManufacturedSolution:
    """Compactly supported smooth field with its exact interior and face
    data; the displacement vanishes outside the support box, so it is an
    exact solution of the truncated problem whenever the box avoids the
    clamped patch and the outer walls."""

    field_poly: PolyField
    force_poly: PolyField
    traction_top_poly: PolyField
    traction_bottom_poly: PolyField
    box: tuple
    displacement: Callable = field(repr=False, default=None)
    body_force: Callable = field(repr=False, default=None)
    traction_top: Callable = field(repr=False, default=None)
    traction_bottom: Callable = field(repr=False, default=None)


def _interval_bump(axis: int, center: Fraction, width: Fraction) -> Poly:
    """(1-((t-c)/w)^2)^4: quadruple zeros glue the polynomial to the zero
    extension with three continuous derivatives."""
    u = (Poly.var(axis) - Poly.const(center)) * Poly.const(1 / width)
    b = Poly.const(1) - u * u
    b2 = b * b
    return b2 * b2


def manufactured_solution(A, center=(Fraction(39, 20), 0),
                          half_width=(Fraction(17, 20), Fraction(17, 20)),
                          amplitudes=(1, Fraction(4, 5), Fraction(3, 5))
                          ) -> ManufacturedSolution:
    """Bump-profile displacement with exact body force and face tractions.

    The in-plane profile is a product of quartic bumps supported on the box
    center +- half_width; each component carries a different quadratic
    thickness profile so both face tractions are nonzero.
    """
    cx, cy = (Fraction(c) for c in center)
    wx, wy = (Fraction(w) for w in half_width)
    bump = _interval_bump(0, cx, wx) * _interval_bump(1, cy, wy)
    z = Poly.var(2)
    profiles = (Poly.const(Fraction(1, 2)) + z - z * z,
                Poly.const(1) - z * Poly.const(Fraction(1, 2)),
                Poly.const(Fraction(3, 4)) + z * z + z * Poly.const(Fraction(1, 3)))
    comps = [bump * q * Poly.const(Fraction(a))
             for q, a in zip(profiles, amplitudes)]
    v = PolyField(comps)
    force = full_operator(A, v)
    g_top = (layer_operator_parts(A, v, "N0+")
             + layer_operator_parts(A, v, "N1+")).subs_zeta(Fraction(1, 2))
    g_bot = (layer_operator_parts(A, v, "N0-")
             + layer_operator_parts(A, v, "N1-")).subs_zeta(Fraction(-1, 2))
    box = (float(cx - wx), float(cx + wx), float(cy - wy), float(cy + wy))
    return ManufacturedSolution(
        field_poly=v, force_poly=force, traction_top_poly=g_top,
        traction_bottom_poly=g_bot, box=box,
        displacement=_field_evaluator(v, box),
        body_force=_field_evaluator(force, box),
        traction_top=_field_evaluator(g_top, box),
        traction_bottom=_field_evaluator(g_bot, box))


# ---------------------------------------------------------------------------
# far-field template
# ---------------------------------------------------------------------------

class FarFieldExpansion:
    """The four matched far-field columns of the layer.

    Column k applies the through-thickness operator sum to the k-th column
    of the plane fundamental block matrix; the result is an exact finite sum
    of terms (zeta-polynomial) x (in-plane log-harmonic field), assembled
    once and evaluated in batch.
    """

    def __init__(self, fundamentals, operators: AnsatzOperators):
        phi = (fundamentals if isinstance(fundamentals, PhiSharp)
               else PhiSharp(*fundamentals))
        if not getattr(phi.membrane, "normalized", False):
            raise ContractError("fundamental matrices must be normalized "
                                "(zero energy pairing on the unit circle)")
        self.phi = phi
        self.operators = operators
        self._fields = phi.fields()
        self._dcache = {}
        merged = [dict() for _ in range(4)]
        for table in operators.tables:
            for (a, b), M in table.items():
                for i in range(3):
                    for j in range(3):
                        poly = M[i][j]
                        if poly.is_zero():
                            continue
                        deg = poly.zeta_degree()
                        co = np.array([float(poly.coeff(0, 0, k))
                                       for k in range(deg + 1)])
                        for col in range(4):
                            if not self._fields[j][col].terms:
                                continue
                            key = (i, j, a, b)
                            old = merged[col].get(key)
                            if old is None:
                                merged[col][key] = co.copy()
                            else:
                                m = max(len(old), len(co))
                                s = np.zeros(m)
                                s[:len(old)] += old
                                s[:len(co)] += co
                                merged[col][key] = s
        self._contribs = []
        for col in range(4):
            rows = []
            for (i, j, a, b), co in sorted(merged[col].items()):
                f = self._derivative(j, col, a, b)
                if f.terms:
                    rows.append((i, co, f))
            self._contribs.append(rows)

    def _derivative(self, j, col, a, b):
        key = (j, col, a, b)
        f = self._dcache.get(key)
        if f is None:
            if a == 0 and b == 0:
                f = self._fields[j][col]
            elif a > 0:
                f = self._derivative(j, col, a - 1, b).d(1)
            else:
                f = self._derivative(j, col, a, b - 1).d(2)
            self._dcache[key] = f
        return f

    def _eval_rows(self, rows, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        eta, z = pts[:, :2], pts[:, 2]
        out = np.zeros((len(pts), 3))
        cache = {}
        for i, co, f in rows:
            key = id(f)
            vals = cache.get(key)
            if vals is None:
                vals = f.eval(eta)
                cache[key] = vals
            out[:, i] += _polyval(z, co) * vals
        return out

    def eval_column(self, col: int, points: np.ndarray) -> np.ndarray:
        """Values (n,3) of far-field column col at points (n,3); the
        in-plane radius must stay positive."""
        return self._eval_rows(self._contribs[col], points)

    def _deriv_rows(self, col: int, axes: tuple):
        key = (col, axes)
        rows = self._dcache.get(key)
        if rows is None:
            rows = self._contribs[col]
            for axis in axes:
                nxt = []
                for i, co, f in rows:
                    g = f.d(axis)
                    if g.terms:
                        nxt.append((i, co, g))
                rows = nxt
            self._dcache[key] = rows
        return rows

    def eval_derivative(self, col: int, axes, points: np.ndarray
                        ) -> np.ndarray:
        """Iterated in-plane derivative of far-field column col along the
        given axes (each 1 or 2): an exact exterior field one growth order
        down per derivative."""
        return self._eval_rows(self._deriv_rows(col, tuple(axes)), points)

    # Columns 2 and 3 stem from one scalar kernel (via -d2 and +d1), so
    # mixed derivatives collide (d1 of column 2 is exactly -d2 of column 3
    # and so on); the listings keep one representative per distinct field.
    _DIPOLES = ((0, (1,)), (0, (2,)), (1, (1,)), (1, (2,)),
                (2, (2,)), (3, (1,)), (3, (2,)))
    _QUADRUPOLES = ((0, (1, 1)), (0, (1, 2)), (0, (2, 2)),
                    (1, (1, 1)), (1, (1, 2)), (1, (2, 2)),
                    (2, (2, 2)), (3, (1, 1)), (3, (1, 2)), (3, (2, 2)))

    def dipole_basis(self, points: np.ndarray) -> np.ndarray:
        """The linearly independent dipole fields stacked as (n,3,7)."""
        return np.stack([self.eval_derivative(col, axes, points)
                         for col, axes in self._DIPOLES], axis=2)

    def enrichment_basis(self, points: np.ndarray) -> np.ndarray:
        """Dipole and quadrupole fields stacked as (n,3,17).

        Second derivatives matter for symmetric patches: the remainder of
        each column keeps the column's own reflection parity, which first
        derivatives flip but second derivatives preserve, and their
        bending members carry the log-growth vertical profile of the
        leading wall-truncated correction."""
        return np.stack([self.eval_derivative(col, axes, points)
                         for col, axes in self._DIPOLES + self._QUADRUPOLES],
                        axis=2)

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.stack([self.eval_column(c, pts) for c in range(4)], axis=2)


# ---------------------------------------------------------------------------
# annulus fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    c: np.ndarray          # fitted rigid coefficients (4,)
    residual: float        # weighted rms of the unexplained part
    drift: float           # weighted rms of the fitted rigid part
    bars: np.ndarray       # per-coefficient error bars (4,)
    spread: np.ndarray     # per-coefficient radial sub-band spread (4,)
    coef: np.ndarray       # full coefficient vector incl. any extras


def _gram_solver(G: np.ndarray):
    """Spectral pseudo-solver for a Gram matrix.

    Enriched bases can be exactly dependent (mixed derivatives of fields
    that share a generating kernel collide, and the reduced operator
    annihilates combinations of second derivatives of its own fundamental
    solution) or nearly so for anisotropic materials.  Eigenvalues below a
    relative cutoff are truncated, giving the deterministic minimum-norm
    coefficients on the dependent directions; the fitted field, residual
    and any full-rank sub-block are unaffected.

    Returns (solve, variance_diagonal)."""
    w, V = np.linalg.eigh(G)
    keep = w > 1e-8 * max(w.max(), 0.0)
    Vk = V[:, keep]
    wk = w[keep]

    def solve(b: np.ndarray) -> np.ndarray:
        return Vk @ ((Vk.T @ b) / wk)

    return solve, ((Vk ** 2) / wk).sum(axis=1)


def _check_annulus(a0: float, a1: float) -> None:
    if not 0.0 < a0 < a1 <= 0.95:
        raise ContractError("annulus fractions must satisfy "
                            "0 < a0 < a1 <= 0.95")


class _AnnulusFitter:
    """Weighted least squares of a field against the rigid columns over the
    annulus a0*T <= rho <= a1*T, full thickness, by a fixed polar midpoint
    rule (independent of the mesh, so refitting after mesh or cutoff changes
    is meaningful).  extra: callable points (n,3) -> (n,3,M) appending
    further exact basis fields to the regression; the first four
    coefficients stay the rigid drift."""

    def __init__(self, mesh: LayerMesh, annulus=(0.55, 0.8),
                 n_angular: int = 48, n_radial: int = 6, extra=None):
        a0, a1 = annulus
        _check_annulus(a0, a1)
        nt = mesh.n_z
        T = mesh.T
        r = a0 * T + (np.arange(n_radial) + 0.5) * (a1 - a0) * T / n_radial
        dr = (a1 - a0) * T / n_radial
        phi = (np.arange(n_angular) + 0.5) * 2.0 * math.pi / n_angular
        dphi = 2.0 * math.pi / n_angular
        zq = -0.5 + (np.arange(nt) + 0.5) / nt
        dz = 1.0 / nt
        R, P, Z = np.meshgrid(r, phi, zq, indexing="ij")
        self.points = np.column_stack([(R * np.cos(P)).ravel(),
                                       (R * np.sin(P)).ravel(), Z.ravel()])
        self.weights = (R * dr * dphi * dz).ravel()
        self.mesh = mesh
        self.annulus = (float(a0), float(a1))
        self.D = rigid_sharp(self.points)
        B = (self.D if extra is None
             else np.concatenate([self.D, extra(self.points)], axis=2))
        self.B = B
        self.m = B.shape[2]
        self.total = float(self.weights.sum())
        # scale regression columns to unit weighted rms for conditioning
        rms = np.sqrt(np.einsum("q,qim,qim->m", self.weights, B, B)
                      / self.total)
        self.colscale = np.where(rms > 0, rms, 1.0)
        Bs = B / self.colscale
        self._Bs = Bs
        self.gram = np.einsum("q,qim,qin->mn", self.weights, Bs, Bs)
        self._solve = _gram_solver(self.gram)
        # radial sub-bands for the systematic part of the error bar: shells
        # are contiguous blocks of the point ordering
        per_shell = n_angular * nt
        self._bands = []
        for g in np.array_split(np.arange(n_radial), min(3, n_radial)):
            sel = np.concatenate([np.arange(s * per_shell,
                                            (s + 1) * per_shell) for s in g])
            G = np.einsum("q,qim,qin->mn", self.weights[sel], Bs[sel],
                          Bs[sel])
            self._bands.append((sel, _gram_solver(G)))

    def fit_samples(self, samples: np.ndarray) -> FitResult:
        """samples (nq,3): the field minus any template, already evaluated
        at the quadrature points.

        Error bars combine the worst case the unabsorbed residual allows
        with the spread of per-band refits; the spread exposes radially
        structured remainder that the full fit would otherwise absorb
        silently into the coefficients.
        """
        b = np.einsum("q,qim,qi->m", self.weights, self._Bs, samples)
        y = self._solve[0](b)
        coef = y / self.colscale
        res = self.rms(samples - np.einsum("qim,m->qi", self.B, coef))
        drift = self.rms(np.einsum("qia,a->qi", self.D, coef[:4]))
        spread = np.zeros(self.m)
        for sel, (bsolve, _) in self._bands:
            yb = bsolve(np.einsum("q,qim,qi->m", self.weights[sel],
                                  self._Bs[sel], samples[sel]))
            spread = np.maximum(spread, np.abs(yb / self.colscale - coef))
        lsq = res * np.sqrt(self._solve[1] * self.total) / self.colscale
        return FitResult(c=coef[:4], residual=res, drift=drift,
                         bars=(lsq + spread)[:4], spread=spread[:4],
                         coef=coef)

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        return grid_interpolate(self.mesh.grid, values, self.points)

    def rms(self, samples: np.ndarray) -> float:
        """Weighted rms over the annulus of samples (nq,3)."""
        return math.sqrt(max((self.weights * (samples ** 2).sum(1)).sum()
                             / self.total, 0.0))

    def residual_of(self, samples: np.ndarray, coef: np.ndarray) -> float:
        """Weighted rms misfit of samples against the basis combination
        coef; accepts the rigid 4-vector or the full coefficient vector."""
        coef = np.asarray(coef, dtype=float)
        base = self.B[:, :, :len(coef)]
        return self.rms(samples - np.einsum("qim,m->qi", base, coef))


def fit_rigid(mesh: LayerMesh, values: np.ndarray) -> FitResult:
    """Least-squares rigid coefficients of a nodal field on the matching
    annulus (no far-field template subtracted)."""
    fitter = _AnnulusFitter(mesh)
    return fitter.fit_samples(fitter.interpolate(values))


def _correction_carriers(points: np.ndarray, D: np.ndarray):
    """Contamination fields shaped like the next far-field correction.

    The correction below the closure carries ln(rho)/rho and 1/rho in-plane
    profiles and (ln rho)^2, ln rho vertical profiles in the symmetry class
    of each column; columns pair by reflection class (translation 0 with
    tilt 3, translation 1 with tilt 2).  D is the per-point rigid basis at
    the points.  Returns [((t, r), field), ...]."""
    rho = np.hypot(points[:, 0], points[:, 1])
    lg = np.log(rho)
    tilt = 2.0 * math.sqrt(3.0) * points[:, 2]
    carriers = []
    for t, r in ((0, 3), (1, 2)):
        for prof in (lg / rho, 1.0 / rho):
            m = np.zeros_like(points)
            m[:, :2] = D[:, :2, t] * prof[:, None]
            carriers.append(((t, r), m))
            m = np.zeros_like(points)
            m[:, :2] = D[:, :2, t] * (tilt * prof)[:, None]
            carriers.append(((t, r), m))
        for prof in (lg ** 2, lg):
            m = np.zeros_like(points)
            m[:, 2] = D[:, 2, r] / rho * prof
            carriers.append(((t, r), m))
    return carriers


# ---------------------------------------------------------------------------
# capacity extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CapacityMatrix:
    """4x4 capacity of the clamped patch with its quality diagnostics."""

    C: np.ndarray                 # column j: rigid drift of potential j
    symmetry_defect: float        # |C - C^T|_F / |C|_F
    fit_residuals: np.ndarray     # (4,) weighted rms per column
    error_bars: np.ndarray        # (4,4) lsq worst case + band spread
                                  # + correction-structure term
    band_spread: np.ndarray       # (4,4) radial sub-band refit spread
    correction_bars: np.ndarray   # (4,4) residual-implied displacement by
                                  # correction-shaped contamination
    iterations: np.ndarray        # (4,) fixed-point sweeps per column
    converged: np.ndarray         # (4,) bool
    warning: bool                 # some residual exceeded its threshold
    T: float
    mesh_signature: str
    theta_spec: str
    material: np.ndarray          # 6x6 stiffness
    annulus: tuple
    closure: str


@dataclass(frozen=True, eq=False)
class PotentialSolution:
    """Discrete potential columns with their iteration histories."""

    mesh: LayerMesh
    columns: np.ndarray           # (4, n_nodes, 3)
    histories: tuple              # per column: ((x, delta), ...)
    c: np.ndarray                 # (4,4) converged drift coefficients
    x: np.ndarray                 # (m,4) full closure coefficients
    expansion: FarFieldExpansion
    chi_scale: float
    closure: str


# Literal sweeps after the closure jump stop once the coefficient update is
# below _SWEEP_TOL, or after _MAX_SWEEPS iterations in all; a column whose
# fit residual exceeds _RESIDUAL_WARN times its drift scale is flagged.
_SWEEP_TOL = 1e-6
_MAX_SWEEPS = 20
_RESIDUAL_WARN = 0.25

# closure name -> FarFieldExpansion method giving the extra correction
# fields appended to the four rigid columns (None: rigid columns alone)
CLOSURES = {"enriched": "enrichment_basis", "dipole": "dipole_basis",
            "plain": None}


def _closure_basis(expansion: FarFieldExpansion, closure: str):
    """Extra regression fields of a closure, points (n,3) -> (n,3,M), or
    None for the plain closure."""
    method = CLOSURES[closure]
    return None if method is None else getattr(expansion, method)


def check_matching_window(mesh: LayerMesh, annulus,
                          chi_scale: float = 2.0) -> None:
    """Raise ContractError unless the far-field match fits the box: T at
    least eight patch radii, annulus fractions 0 < a0 < a1 <= 0.95, and an
    inner radius a0 T clear of the near field and of the cutoff transition
    (max(2, chi_scale) patch radii)."""
    if mesh.T < 8.0 * mesh.R_theta - 1e-9:
        raise ContractError("box half width must be at least eight patch "
                            "radii for the far-field match")
    a0, a1 = annulus
    _check_annulus(a0, a1)
    if a0 * mesh.T < max(2.0, chi_scale) * mesh.R_theta - 1e-9:
        raise ContractError("matching annulus overlaps the near field or "
                            "the cutoff transition")


def extract_capacity(mesh: LayerMesh, A, fundamentals,
                     operators: AnsatzOperators, *,
                     annulus=(0.55, 0.8), n_angular: int = 48,
                     n_radial: int = 6, closure: str = "enriched",
                     chi_scale: float = 2.0):
    """Capacity of the clamped patch by far-field matching.

    For each far-field column the outer walls carry the template plus a
    correction field B x; the coefficients are the fixed point of
    x -> fit(solution - template).  That map is affine in x, so it is
    measured exactly (one solve per correction field), the fixed point is
    closed as a linear system, and literal sweeps then verify it: their
    deltas are the recorded histories.

    closure="plain" corrects with the four rigid columns alone, so the box
    walls truncate everything below the template's leading order and the
    truncation error decays only like 1/T.  closure="dipole" appends the
    independent first-derivative fields of the template columns,
    closure="enriched" the first and second derivatives: exact exterior
    fields one or two growth orders down that carry the dominant part of
    what the finite walls would otherwise chop.  The capacity is still read
    off the rigid coefficients alone.  annulus, n_angular and n_radial set
    the matching window and its quadrature, chi_scale the cutoff radius (in
    patch radii) used by the decay report.  Returns
    (CapacityMatrix, PotentialSolution).
    """
    if closure not in CLOSURES:
        raise ValueError(f"unknown closure {closure!r}")
    check_matching_window(mesh, annulus, chi_scale)
    expansion = FarFieldExpansion(fundamentals, operators)
    Amat = mat_to_float(A)
    ops_A = mat_to_float(operators.stiffness)
    if np.abs(ops_A - Amat).max() > 1e-9 * max(np.abs(Amat).max(), 1.0):
        raise ContractError("ansatz operators were built for a "
                            "different material")
    phi = expansion.phi
    report = verify_contour_identities((phi.membrane, phi.bending),
                                       mat_to_float(operators.reduced), 1.0)
    if report.max_defect > 1e-6:
        raise ContractError("fundamental matrices do not satisfy the "
                            "defining contour identities for this "
                            f"material (defect {report.max_defect:.3e})")

    extra = _closure_basis(expansion, closure)
    fitter = _AnnulusFitter(mesh, annulus=annulus, n_angular=n_angular,
                            n_radial=n_radial, extra=extra)
    grid = mesh.grid
    nodes = grid.nodes()
    cons = ConstraintSet(ncomp=3)
    cons.fix_nodes(mesh.theta_nodes, value=0.0)
    cons.fix_nodes(mesh.outer_nodes, value=0.0)
    system = assemble_elastic(grid, Amat, cons)
    solver = EliminationSolver(system)

    outer_pts = nodes[mesh.outer_nodes]
    D_outer = rigid_sharp(outer_pts)
    B_outer = (D_outer if extra is None
               else np.concatenate([D_outer, extra(outer_pts)], axis=2))
    m = B_outer.shape[2]
    xi_outer = [expansion.eval_column(c, outer_pts) for c in range(4)]
    # evaluate the template at the interpolation stencil nodes and fit the
    # nodal difference solution - template: trilinear interpolation then
    # cancels the template's own interpolation error (it reproduces the
    # rigid part exactly), leaving only the small remainder to resolve
    stencil = _stencil_nodes(grid, fitter.points)
    xi_nodal = np.zeros((4, grid.n_nodes, 3))
    for col in range(4):
        xi_nodal[col, stencil] = expansion.eval_column(col, nodes[stencil])
    xi_scale = [fitter.rms(fitter.interpolate(xi_nodal[col]))
                for col in range(4)]

    def boundary_solve(bvals: np.ndarray) -> np.ndarray:
        """Box solutions (k, n_nodes, 3) for k sets of outer-wall data
        (n_outer, 3, k), all k in one batched solve."""
        k = bvals.shape[2]
        data = np.zeros((grid.n_nodes, 3, k))
        data[mesh.outer_nodes] = bvals
        x = solver.solve(fixed_values=data.reshape(-1, k)[solver.fixed])
        return np.moveaxis(x.reshape(grid.n_nodes, 3, k), 2, 0)

    def fit_column(col: int, field_vals: np.ndarray) -> FitResult:
        return fitter.fit_samples(fitter.interpolate(field_vals
                                                     - xi_nodal[col]))

    # Every solve that does not depend on a fixed-point iterate goes into
    # one batch: the basis fields, the probe sweep of each column from
    # x = 0 and the correction carriers.  The affine map x -> fit(solve(...))
    # splits into offset + linear part; the linear part is column
    # independent, so one solve per basis field with pure basis outer data
    # measures it once for all columns.
    carriers = _correction_carriers(outer_pts, D_outer)
    first = boundary_solve(np.concatenate(
        [B_outer, np.stack(xi_outer, axis=2),
         np.stack([f for _, f in carriers], axis=2)], axis=2))
    basis_map = np.column_stack(
        [fitter.fit_samples(fitter.interpolate(vals)).coef
         for vals in first[:m]])
    carrier_vals = first[m + 4:]

    # Iteration 1 is the closure jump: the probe sweep from x = 0 measures
    # the offset b, and (I - M) x = b closes the fixed point.
    histories = []
    xs = []
    for col in range(4):
        history = [(np.zeros(m), float("nan"))]
        probe = fit_column(col, first[m + col])
        if not np.all(np.isfinite(probe.coef)):
            raise ExtractionError(f"column {col}: non-finite probe sweep",
                                  tuple(history))
        xs.append(np.linalg.solve(np.eye(m) - basis_map, probe.coef))
        history.append((xs[col], float(np.linalg.norm(xs[col]))))
        histories.append(history)

    # Later literal sweeps only verify the fixed point, all unconverged
    # columns in one batched solve per sweep.
    last = [None] * 4          # (fit, field values) of the latest sweep
    converged = [False] * 4
    for k in range(2, _MAX_SWEEPS + 1):
        active = [col for col in range(4) if not converged[col]]
        if not active:
            break
        walls = np.stack([xi_outer[col]
                          + np.einsum("qim,m->qi", B_outer, xs[col])
                          for col in active], axis=2)
        swept = [(col, fit_column(col, vals), vals)
                 for col, vals in zip(active, boundary_solve(walls))]
        for col, fit, vals in swept:
            history = histories[col]
            if not np.all(np.isfinite(fit.coef)):
                raise ExtractionError(
                    f"column {col}: non-finite update at sweep {k}",
                    tuple(history))
            delta = float(np.linalg.norm(fit.coef - xs[col]))
            history.append((fit.coef, delta))
            xs[col] = fit.coef
            last[col] = (fit, vals)
            if delta <= _SWEEP_TOL:
                converged[col] = True
                continue
            deltas = [h[1] for h in history[1:]]
            if len(deltas) >= 4 and deltas[-1] > deltas[-2] > deltas[-3]:
                raise ExtractionError(
                    f"column {col}: fixed point diverging "
                    f"(deltas {deltas[-3]:.3e}, {deltas[-2]:.3e}, "
                    f"{deltas[-1]:.3e})", tuple(history))

    X = np.column_stack(xs)
    C = X[:4]
    fits = [fit for fit, _ in last]
    residuals = np.array([fit.residual for fit in fits])
    # Correction-structure bars: the closure cannot represent the true
    # correction below its order, so correction-shaped contamination enters
    # through the walls and the box solve bends it into a nearly
    # basis-shaped interior field: the fit absorbs most of it into the
    # coefficients and only the leftover misfit is visible.  Solving each
    # carrier through the box and scaling it until that leftover matches
    # the observed column residual turns the residual into a displacement
    # bound.
    corr_bars = np.zeros((4, 4))
    for ((t, r), _), solved in zip(carriers, carrier_vals):
        vals = fitter.interpolate(solved)
        fit = fitter.fit_samples(vals)
        mis = max(fit.residual, 1e-6 * max(fitter.rms(vals), 1e-300))
        disp = np.abs(fit.coef[:4])
        for col in (t, r):
            corr_bars[:, col] = np.maximum(corr_bars[:, col],
                                           disp * residuals[col] / mis)
    bars = np.column_stack([fit.bars for fit in fits]) + corr_bars
    spread = np.column_stack([fit.spread for fit in fits])
    columns = np.stack([vals for _, vals in last])
    histories = tuple(tuple((tuple(x), d) for x, d in h) for h in histories)
    converged = np.array(converged)
    iters = np.array([len(h) - 1 for h in histories])
    scale = np.array([max(fit.drift, s, 1e-300)
                      for fit, s in zip(fits, xi_scale)])
    warning = bool(np.any(residuals > _RESIDUAL_WARN * scale)
                   or not converged.all())
    norm_c = np.linalg.norm(C)
    defect = (float(np.linalg.norm(C - C.T) / norm_c)
              if norm_c > 0 else 0.0)
    a0, a1 = annulus
    cap = CapacityMatrix(C=C, symmetry_defect=defect,
                         fit_residuals=residuals, error_bars=bars,
                         band_spread=spread, correction_bars=corr_bars,
                         iterations=iters, converged=converged,
                         warning=warning, T=mesh.T,
                         mesh_signature=mesh.signature,
                         theta_spec=mesh.theta_spec, material=Amat,
                         annulus=(float(a0), float(a1)), closure=closure)
    pot = PotentialSolution(mesh=mesh, columns=columns, histories=histories,
                            c=C, x=X, expansion=expansion,
                            chi_scale=float(chi_scale), closure=closure)
    return cap, pot


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecayReport:
    """Symmetry and remainder-decay diagnostics of one extraction."""

    C: np.ndarray
    C_symmetrized: np.ndarray
    symmetry_defect: float
    radii: np.ndarray             # trace radii
    row_norms: np.ndarray         # (3, _DECAY_RADII) remainder norms
    growth_exponents: np.ndarray  # (3,) log-log slopes over the window
    window: tuple                 # radii used for the slopes
    band_radii: np.ndarray        # (3,) central radii of the fit sub-bands
    band_residuals: np.ndarray    # (3,) rms residual of the converged fit


# trace circles of the decay report, and sample angles on each circle and
# fit sub-band
_DECAY_RADII = 14
_DECAY_ANGLES = 48


def symmetry_and_decay_report(cap: CapacityMatrix,
                              pot: PotentialSolution) -> DecayReport:
    """Measure how the remainder decays once template and drift are removed.

    The remainder of column k at radius rho is the solved field minus
    (1-chi) x template minus rigid x drift, sampled on circles over the full
    thickness.  Row norms aggregate the four columns; growth exponents are
    least-squares slopes of log(norm) vs log(rho) between twice the patch
    radius and half the box.
    """
    mesh = pot.mesh
    R, T = mesh.R_theta, mesh.T
    nodes = mesh.grid.nodes()
    radii = np.geomspace(1.1 * R, 0.95 * T, _DECAY_RADII)
    phi = (np.arange(_DECAY_ANGLES) + 0.5) * 2.0 * math.pi / _DECAY_ANGLES
    zq = -0.5 + (np.arange(mesh.n_z) + 0.5) / mesh.n_z
    row_norms = np.zeros((3, len(radii)))
    for ri, rho in enumerate(radii):
        P, Z = np.meshgrid(phi, zq, indexing="ij")
        pts = np.column_stack([rho * np.cos(P).ravel(),
                               rho * np.sin(P).ravel(), Z.ravel()])
        D = rigid_sharp(pts)
        chi = float(cutoff(rho / (pot.chi_scale * R)))
        # field - (1-chi) template - rigid drift, rewritten as
        # (field - template) + chi template - drift so that interpolation
        # acts on the small difference and the template part stays exact
        stencil = _stencil_nodes(mesh.grid, pts)
        acc = np.zeros((len(pts), 3))
        for col in range(4):
            diff = pot.columns[col].copy()
            diff[stencil] -= pot.expansion.eval_column(col, nodes[stencil])
            rem = grid_interpolate(mesh.grid, diff, pts)
            rem = rem - np.einsum("qia,a->qi", D, pot.c[:, col])
            if chi > 0.0:
                rem = rem + chi * pot.expansion.eval_column(col, pts)
            acc += rem ** 2
        row_norms[:, ri] = np.sqrt(acc.mean(axis=0))
    window = (2.0 * R, 0.5 * T)
    sel = (radii >= window[0] - 1e-12) & (radii <= window[1] + 1e-12)
    if sel.sum() < 3:
        raise ContractError("trace window too narrow for slope estimates")
    slopes = np.array([
        np.polyfit(np.log(radii[sel]),
                   np.log(np.maximum(row_norms[i, sel], 1e-300)), 1)[0]
        for i in range(3)])

    a0, a1 = cap.annulus
    edges = np.linspace(a0, a1, 4)
    band_r = np.empty(3)
    band_res = np.empty(3)
    extra = _closure_basis(pot.expansion, pot.closure)
    for b in range(3):
        sub = _AnnulusFitter(mesh, annulus=(edges[b], edges[b + 1]),
                             n_angular=_DECAY_ANGLES, n_radial=2, extra=extra)
        band_r[b] = 0.5 * (edges[b] + edges[b + 1]) * T
        stencil = _stencil_nodes(mesh.grid, sub.points)
        acc = 0.0
        for col in range(4):
            diff = pot.columns[col].copy()
            diff[stencil] -= pot.expansion.eval_column(col, nodes[stencil])
            acc += sub.residual_of(sub.interpolate(diff),
                                   pot.x[:, col]) ** 2
        band_res[b] = math.sqrt(acc / 4.0)

    sym = 0.5 * (cap.C + cap.C.T)
    return DecayReport(C=cap.C.copy(), C_symmetrized=sym,
                       symmetry_defect=cap.symmetry_defect, radii=radii,
                       row_norms=row_norms, growth_exponents=slopes,
                       window=window, band_radii=band_r,
                       band_residuals=band_res)


def capacity_json(cap: CapacityMatrix) -> str:
    """Deterministic JSON record of one capacity run."""
    rec = {
        "T": cap.T,
        "mesh": cap.mesh_signature,
        "material": [float(x) for x in cap.material.ravel()],
        "theta_spec": cap.theta_spec,
        "C_sharp": [float(x) for x in cap.C.ravel()],
        "symmetry_defect": cap.symmetry_defect,
        "fit_residuals": [float(x) for x in cap.fit_residuals],
        "iterations": [int(x) for x in cap.iterations],
        "error_bars": [float(x) for x in cap.error_bars.ravel()],
        "band_spread": [float(x) for x in cap.band_spread.ravel()],
        "correction_bars": [float(x) for x in cap.correction_bars.ravel()],
        "annulus": list(cap.annulus),
        "mode": "affine",
        "closure": cap.closure,
        "warning": cap.warning,
    }
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def decay_csv(report: DecayReport) -> str:
    """Decay trace: radius against the remainder row norms."""
    buf = io.StringIO()
    buf.write("rho,row1,row2,row3\n")
    for k, rho in enumerate(report.radii):
        buf.write(f"{rho:.12g},{report.row_norms[0, k]:.12g},"
                  f"{report.row_norms[1, k]:.12g},"
                  f"{report.row_norms[2, k]:.12g}\n")
    return buf.getvalue()
