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
through-thickness ansatz operators.  The outer walls carry the template
plus a closure: the four rigid columns and the first and second in-plane
derivatives of the template columns, 21 fields in all.  Its coefficients
solve an affine fixed-point equation x = fit(solve(outer data built from
x)); solve, interpolation and fit are all linear, so the extraction
measures the affine map directly (one solve per closure field), closes the
resulting 21x21 system, and verifies the closed fixed point with one literal
sweep of all four columns.  The decay trace then samples what
the matched fields leave over, the boundary layer, on circles around the
patch.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyadd as _polyadd
from numpy.polynomial.polynomial import polyval as _polyval

from .elastic import rigid_motion_matrix
from .fem import (ConstraintSet, EliminationSolver, MeshError,
                  StructuredGrid, assemble_elastic, assemble_pointwise_form)
from .fundamental import construct_fundamental
from .inequalities import ContractError, cutoff
from .polyfield import mat_to_float
from .reduction import AnsatzOperators, build_dimension_reduction

# perfbench/tracing.py wraps these names here; nothing in this module calls them
from .elastic import full_operator, layer_operator_parts  # noqa: F401
from .fem import assemble_load, solve_cg  # noqa: F401
from .fundamental import verify_contour_identities  # noqa: F401

__all__ = [
    "LayerMesh", "layer_mesh", "rigid_sharp", "grid_interpolate",
    "v01_norm", "FarFieldExpansion", "FitResult", "ExtractionError",
    "CapacityMatrix", "PotentialSolution",
    "check_matching_window", "extract_capacity", "DecayTrace",
    "decay_trace", "capacity_json", "decay_csv",
]


class ExtractionError(RuntimeError):
    """Far-field matching failed: a sweep gave non-finite coefficients."""


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
            elif geom(m, cap) < rem:
                raise MeshError("the graded tail needs more than 500 "
                                "intervals at this growth cap")
            else:
                # bisection: geom(m, .) increases on (1, cap] and crosses
                # rem there
                lo, hi = 1.0 + 1e-10, cap
                while hi - lo > 1e-13:
                    mid = 0.5 * (lo + hi)
                    if geom(m, mid) < rem:
                        lo = mid
                    else:
                        hi = mid
                q = 0.5 * (lo + hi)
                r = core
                for k in range(1, m + 1):
                    r += step * q ** k
                    vals.append(r)
        vals[-1] = T
    return np.asarray(vals), q


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
    signature: str

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
                          radius=self.R_theta)

    def with_box(self, T: float) -> "LayerMesh":
        """Same family on a box of half width T.

        The grading cap is rescaled so the cell width in the matching
        annulus (which sits at radii proportional to T) stays the one of
        this mesh; the comparison between the two boxes then isolates the
        truncation effect."""
        cap = 1.0 + (self.growth - 1.0) * self.T / float(T)
        return layer_mesh(T=float(T), n_z=self.n_z,
                          inner_step=self.inner_step,
                          core_radius=self.core_radius, growth_cap=cap,
                          radius=self.R_theta)


def layer_mesh(T: float = 8.0, n_z: int = 6, inner_step: float = 0.25,
               core_radius: float = 2.0, growth_cap: float = 1.15,
               radius: float = 1.0) -> LayerMesh:
    """Build the truncated-layer mesh and capture the clamped patch.

    The patch is the closed disk of the given radius: every bottom-face node
    with hypot(eta) <= radius + 1e-12.  R_theta, the patch radius of the
    admissibility checks, is the largest captured node radius.
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
    rho = np.hypot(eta[:, 0], eta[:, 1])
    mask = rho <= radius + 1e-12
    theta_nodes = np.sort(bottom[mask])
    if len(theta_nodes) == 0:
        raise MeshError("the clamped patch captured no mesh nodes")
    r_th = float(rho[mask].max())
    if not r_th < 0.25 * T - 1e-12:
        raise MeshError("patch radius must stay below a quarter of the box")
    if r_th < 2.0 * inner_step - 1e-12:
        raise MeshError("need at least two element rings across the patch")
    if core_radius < r_th - 1e-12:
        raise MeshError("the uniform core must cover the clamped patch")

    outer = np.unique(np.concatenate([grid.face_nodes(a, s)
                                      for a in (0, 1) for s in (0, 1)]))
    sig = (f"box[{T:g}]x{n_z} step={inner_step:g} core={core_radius:g} "
           f"q={q:.4f} nodes={grid.n_nodes}")
    return LayerMesh(grid=grid, T=float(T), n_z=int(n_z),
                     inner_step=float(inner_step),
                     core_radius=float(core_radius), growth=float(q),
                     growth_cap=float(growth_cap), theta_nodes=theta_nodes,
                     outer_nodes=outer, R_theta=r_th, signature=sig)


# ---------------------------------------------------------------------------
# rigid columns and interpolation
# ---------------------------------------------------------------------------

def rigid_sharp(points) -> np.ndarray:
    """(n,3,4) rigid columns at each point: two horizontal translations and
    the two tilts that keep the vertical growth linear; the vertical
    translation and the in-plane spin are excluded (they are not admissible
    drifts of a decaying layer field)."""
    return np.take(rigid_motion_matrix(np.atleast_2d(points)), [0, 1, 3, 4],
                   axis=-1)


def _trilinear(grid: StructuredGrid, points: np.ndarray):
    """Trilinear stencil of the points: corner node ids (8, n) and weights
    (8, n), corner k offset by bit d of k along axis d."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
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
    stride = (shape[1] * shape[2], shape[2], 1)
    ids = np.zeros((8, len(pts)), dtype=int)
    weights = np.ones((8, len(pts)))
    for corner in range(8):
        for d in range(3):
            off = (corner >> d) & 1
            weights[corner] *= loc[d] if off else 1.0 - loc[d]
            ids[corner] += (idx[d] + off) * stride[d]
    return ids, weights


def _apply_stencil(stencil, values: np.ndarray) -> np.ndarray:
    """Nodal values (n_nodes,) or (n_nodes, c) read through a trilinear
    stencil."""
    ids, weights = stencil
    vals = np.asarray(values, dtype=float)
    flat = vals.ndim == 1
    if flat:
        vals = vals[:, None]
    out = np.zeros((ids.shape[1], vals.shape[1]))
    for corner_ids, w in zip(ids, weights):
        out += w[:, None] * vals[corner_ids]
    return out[:, 0] if flat else out


def grid_interpolate(grid: StructuredGrid, values: np.ndarray,
                     points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of nodal values (n_nodes, c) at points."""
    return _apply_stencil(_trilinear(grid, points), values)


# ---------------------------------------------------------------------------
# weighted norm
# ---------------------------------------------------------------------------

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
# far-field template
# ---------------------------------------------------------------------------

class FarFieldExpansion:
    """The four matched far-field columns of the layer.

    Column k applies the through-thickness operator sum to the k-th column
    of the plane fundamental block matrix; the result is an exact finite sum
    of terms (zeta-polynomial) x (in-plane log-harmonic field), assembled
    once and evaluated in batch.
    """

    def __init__(self, phi, operators: AnsatzOperators):
        self._fields = phi.fields()
        self._dcache = {}
        # zeta coefficients of component i applied to derivative (a, b) of
        # fundamental row j, summed over the operator tables
        merged = {}
        for table in operators.tables:
            for (a, b), M in table.items():
                for i in range(3):
                    for j in range(3):
                        poly = M[i][j]
                        if poly.is_zero():
                            continue
                        co = np.array([float(poly.coeff(0, 0, k)) for k
                                       in range(poly.zeta_degree() + 1)])
                        key = (i, j, a, b)
                        merged[key] = (_polyadd(merged[key], co)
                                       if key in merged else co)
        self._contribs = [
            [(i, co, f) for (i, j, a, b), co in sorted(merged.items())
             if (f := self._derivative(j, col, a, b)).terms]
            for col in range(4)]

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
    # and so on); the listing keeps one representative per distinct field,
    # the 7 dipoles first, then the 10 quadrupoles.
    _ENRICHMENT = ((0, (1,)), (0, (2,)), (1, (1,)), (1, (2,)),
                   (2, (2,)), (3, (1,)), (3, (2,)),
                   (0, (1, 1)), (0, (1, 2)), (0, (2, 2)),
                   (1, (1, 1)), (1, (1, 2)), (1, (2, 2)),
                   (2, (2, 2)), (3, (1, 1)), (3, (1, 2)), (3, (2, 2)))

    def enrichment_basis(self, points: np.ndarray) -> np.ndarray:
        """Dipole and quadrupole fields stacked as (n,3,17).

        Second derivatives matter for symmetric patches: the remainder of
        each column keeps the column's own reflection parity, which first
        derivatives flip but second derivatives preserve, and their
        bending members carry the log-growth vertical profile of the
        leading wall-truncated correction."""
        return np.stack([self.eval_derivative(col, axes, points)
                         for col, axes in self._ENRICHMENT], axis=2)


# ---------------------------------------------------------------------------
# annulus fit
# ---------------------------------------------------------------------------

# The annulus quadrature has _N_ANGULAR angles and _N_RADIAL shells; 6 shells
# make the fit's three radial sub-bands two shells each.  The decay trace
# cuts the template off at _CHI_SCALE patch radii.
_N_ANGULAR = 48
_N_RADIAL = 6
_CHI_SCALE = 2.0
# Phi of a capacity run is built on _PHI_ANGULAR plane-wave angles.
_PHI_ANGULAR = 64
# A column is verified when the literal sweep after the closure solve moves
# its coefficients by at most _SWEEP_TOL; a column whose fit residual
# exceeds _RESIDUAL_WARN times its drift scale is flagged.
_SWEEP_TOL = 1e-6
_RESIDUAL_WARN = 0.25


@dataclass(frozen=True)
class FitResult:
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
    coefficients stay the rigid drift.

    The _N_RADIAL radial shells split into three contiguous sub-bands, the
    thirds of the annulus; each fit reports the spread of its band refits.
    The trilinear stencil of the quadrature points is built once;
    ``stencil_nodes`` lists the mesh nodes it reads."""

    def __init__(self, mesh: LayerMesh, annulus=(0.55, 0.8), extra=None):
        a0, a1 = annulus
        n_radial, n_angular = _N_RADIAL, _N_ANGULAR
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
        self._stencil = _trilinear(mesh.grid, self.points)
        self.stencil_nodes = np.unique(self._stencil[0])
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
        self._solve = _gram_solver(np.einsum("q,qim,qin->mn", self.weights,
                                             Bs, Bs))
        # radial sub-bands for the systematic part of the error bar: shells
        # are contiguous blocks of the point ordering
        per_shell = n_angular * nt
        self._bands = []
        for g in np.array_split(np.arange(n_radial), 3):
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
        misfit = samples - np.einsum("qim,m->qi", self.B, coef)
        res = self.rms(misfit)
        drift = self.rms(np.einsum("qia,a->qi", self.D, coef[:4]))
        spread = np.zeros(self.m)
        for sel, (bsolve, _) in self._bands:
            yb = bsolve(np.einsum("q,qim,qi->m", self.weights[sel],
                                  self._Bs[sel], samples[sel]))
            spread = np.maximum(spread, np.abs(yb / self.colscale - coef))
        lsq = res * np.sqrt(self._solve[1] * self.total) / self.colscale
        return FitResult(residual=res, drift=drift,
                         bars=(lsq + spread)[:4], spread=spread[:4],
                         coef=coef)

    def interpolate(self, values: np.ndarray) -> np.ndarray:
        return _apply_stencil(self._stencil, values)

    def rms(self, samples: np.ndarray) -> float:
        """Weighted rms over the annulus of samples (nq,3)."""
        return math.sqrt(max((self.weights * (samples ** 2).sum(1)).sum()
                             / self.total, 0.0))


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
    symmetry_defect: float        # |C - C^T|_F / |C|_F; for anisotropic
                                  # materials it depends on the gauge of
                                  # Phi3, as the tilt block of C does
    fit_residuals: np.ndarray     # (4,) weighted rms per column
    error_bars: np.ndarray        # (4,4) lsq worst case + band spread
                                  # + correction-structure term
    band_spread: np.ndarray       # (4,4) radial sub-band refit spread
    correction_bars: np.ndarray   # (4,4) residual-implied displacement by
                                  # correction-shaped contamination
    iterations: np.ndarray        # (4,) always 2: the probe sweep and the
                                  # verification sweep
    converged: np.ndarray         # (4,) bool: verification sweep within
                                  # _SWEEP_TOL
    warning: bool                 # some residual exceeded its threshold
    mesh: LayerMesh
    material: np.ndarray          # 6x6 stiffness
    annulus: tuple


@dataclass(frozen=True, eq=False)
class PotentialSolution:
    """Discrete potential columns of the verification sweep."""

    mesh: LayerMesh
    columns: np.ndarray           # (4, n_nodes, 3)
    c: np.ndarray                 # (4,4) drift coefficients, the C matrix
    x: np.ndarray                 # (m,4) full closure coefficients
    expansion: FarFieldExpansion


def check_matching_window(mesh: LayerMesh, annulus) -> None:
    """Raise ContractError unless the far-field match fits the box: T at
    least eight patch radii, annulus fractions 0 < a0 < a1 <= 0.95, and an
    inner radius a0 T clear of the near field and of the cutoff transition
    (max(2, _CHI_SCALE) patch radii)."""
    if mesh.T < 8.0 * mesh.R_theta - 1e-9:
        raise ContractError("box half width must be at least eight patch "
                            "radii for the far-field match")
    a0, a1 = annulus
    _check_annulus(a0, a1)
    if a0 * mesh.T < max(2.0, _CHI_SCALE) * mesh.R_theta - 1e-9:
        raise ContractError("matching annulus overlaps the near field or "
                            "the cutoff transition")


def extract_capacity(mesh: LayerMesh, A, *, annulus=(0.55, 0.8)):
    """Capacity of the clamped patch by far-field matching.

    For each far-field column the outer walls carry the template plus a
    correction field B x; the coefficients are the fixed point of
    x -> fit(solution - template).  That map is affine in x, so it is
    measured exactly (one solve per correction field), the fixed point is
    closed as a linear system, and one literal sweep of all four columns
    verifies it.  A column whose sweep moves its coefficients by more than
    _SWEEP_TOL is reported unconverged and sets the warning; non-finite
    sweep coefficients raise ExtractionError naming the column.

    B is the closure: the four rigid columns, then the independent first
    and second in-plane derivatives of the template columns
    (``FarFieldExpansion.enrichment_basis``), exact exterior fields one or
    two growth orders down that carry the dominant part of what the finite
    walls would otherwise chop.  The capacity is read off the rigid
    coefficients alone.  annulus sets the matching window in units of T.
    A alone fixes the ansatz operators and Phi; construct_fundamental raises
    ConstructionError if Phi fails its contour identities.
    Returns (CapacityMatrix, PotentialSolution).
    """
    check_matching_window(mesh, annulus)
    operators = build_dimension_reduction(A)
    phi = construct_fundamental(mat_to_float(operators.reduced),
                                n_angular=_PHI_ANGULAR)
    expansion = FarFieldExpansion(phi, operators)
    Amat = mat_to_float(A)

    fitter = _AnnulusFitter(mesh, annulus=annulus,
                            extra=expansion.enrichment_basis)
    grid = mesh.grid
    nodes = grid.nodes()
    cons = ConstraintSet(ncomp=3)
    cons.fix_nodes(mesh.theta_nodes, value=0.0)
    cons.fix_nodes(mesh.outer_nodes, value=0.0)
    solver = EliminationSolver(assemble_elastic(grid, Amat, cons))
    # rows of the outer-wall dofs among the fixed ones; the patch stays 0
    wall = np.searchsorted(
        solver.fixed, (mesh.outer_nodes[:, None] * 3 + np.arange(3)).ravel())

    outer_pts = nodes[mesh.outer_nodes]
    D_outer = rigid_sharp(outer_pts)
    B_outer = np.concatenate([D_outer, expansion.enrichment_basis(outer_pts)],
                             axis=2)
    m = B_outer.shape[2]
    xi_outer = [expansion.eval_column(c, outer_pts) for c in range(4)]
    # evaluate the template at the interpolation stencil nodes and fit the
    # nodal difference solution - template: trilinear interpolation then
    # cancels the template's own interpolation error (it reproduces the
    # rigid part exactly), leaving only the small remainder to resolve
    stencil = fitter.stencil_nodes
    xi_nodal = np.zeros((4, grid.n_nodes, 3))
    for col in range(4):
        xi_nodal[col, stencil] = expansion.eval_column(col, nodes[stencil])
    xi_scale = [fitter.rms(fitter.interpolate(xi_nodal[col]))
                for col in range(4)]

    def boundary_solve(bvals: np.ndarray) -> np.ndarray:
        """Box solutions (k, n_nodes, 3) for k sets of outer-wall data
        (n_outer, 3, k), all k in one batched solve."""
        k = bvals.shape[2]
        data = np.zeros((len(solver.fixed), k))
        data[wall] = bvals.reshape(-1, k)
        x = solver.solve(fixed_values=data)
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

    # The probe sweep from x = 0 measures the offset b, and (I - M) x = b
    # closes the fixed point.
    xs = []
    for col in range(4):
        probe = fit_column(col, first[m + col])
        if not np.all(np.isfinite(probe.coef)):
            raise ExtractionError(f"column {col}: non-finite probe sweep")
        xs.append(np.linalg.solve(np.eye(m) - basis_map, probe.coef))

    # One literal sweep of all four columns, in one batched solve, verifies
    # the closed fixed point; its coefficients are the ones reported.
    walls = np.stack([xi_outer[col] + np.einsum("qim,m->qi", B_outer, xs[col])
                      for col in range(4)], axis=2)
    columns = boundary_solve(walls)
    fits = [fit_column(col, vals) for col, vals in enumerate(columns)]
    for col, fit in enumerate(fits):
        if not np.all(np.isfinite(fit.coef)):
            raise ExtractionError(
                f"column {col}: non-finite verification sweep")
    converged = np.array([np.linalg.norm(fit.coef - x) <= _SWEEP_TOL
                          for fit, x in zip(fits, xs)])

    X = np.column_stack([fit.coef for fit in fits])
    C = X[:4]
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
                         iterations=np.full(4, 2), converged=converged,
                         warning=warning, mesh=mesh, material=Amat,
                         annulus=(float(a0), float(a1)))
    pot = PotentialSolution(mesh=mesh, columns=columns, c=C, x=X,
                            expansion=expansion)
    return cap, pot


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecayTrace:
    """Remainder norms of one extraction on circles around the patch."""

    radii: np.ndarray             # trace radii
    row_norms: np.ndarray         # (3, _DECAY_RADII) remainder norms


# trace circles of the decay trace, and sample angles on each circle
_DECAY_RADII = 14
_DECAY_ANGLES = 48


def decay_trace(pot: PotentialSolution) -> DecayTrace:
    """Measure how the remainder decays once template and drift are removed.

    The remainder of column k at radius rho is the solved field minus
    (1-chi) x template minus rigid x drift, sampled on circles over the full
    thickness from 1.1 patch radii to 0.95 T.  Row norms aggregate the four
    columns per displacement component.
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
        chi = float(cutoff(rho / (_CHI_SCALE * R)))
        # field - (1-chi) template - rigid drift, rewritten as
        # (field - template) + chi template - drift so that interpolation
        # acts on the small difference and the template part stays exact
        st = _trilinear(mesh.grid, pts)
        stencil = np.unique(st[0])
        acc = np.zeros((len(pts), 3))
        for col in range(4):
            diff = pot.columns[col].copy()
            diff[stencil] -= pot.expansion.eval_column(col, nodes[stencil])
            rem = _apply_stencil(st, diff)
            rem = rem - np.einsum("qia,a->qi", D, pot.c[:, col])
            if chi > 0.0:
                rem = rem + chi * pot.expansion.eval_column(col, pts)
            acc += rem ** 2
        row_norms[:, ri] = np.sqrt(acc.mean(axis=0))
    return DecayTrace(radii=radii, row_norms=row_norms)


def capacity_json(cap: CapacityMatrix) -> str:
    """Deterministic JSON record of one capacity run."""
    rec = {
        "T": cap.mesh.T,
        "mesh": cap.mesh.signature,
        "material": [float(x) for x in cap.material.ravel()],
        "theta_spec": f"disk:r={cap.mesh.R_theta:g}",
        "C_sharp": [float(x) for x in cap.C.ravel()],
        "symmetry_defect": cap.symmetry_defect,
        "fit_residuals": [float(x) for x in cap.fit_residuals],
        "iterations": [int(x) for x in cap.iterations],
        "error_bars": [float(x) for x in cap.error_bars.ravel()],
        "band_spread": [float(x) for x in cap.band_spread.ravel()],
        "correction_bars": [float(x) for x in cap.correction_bars.ravel()],
        "annulus": list(cap.annulus),
        "mode": "affine",
        "closure": "enriched",
        "warning": cap.warning,
    }
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def decay_csv(trace: DecayTrace) -> str:
    """Decay trace: radius against the remainder row norms."""
    buf = io.StringIO()
    buf.write("rho,row1,row2,row3\n")
    for k, rho in enumerate(trace.radii):
        buf.write(f"{rho:.12g},{trace.row_norms[0, k]:.12g},"
                  f"{trace.row_norms[1, k]:.12g},"
                  f"{trace.row_norms[2, k]:.12g}\n")
    return buf.getvalue()
