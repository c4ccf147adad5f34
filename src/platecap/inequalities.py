"""Weighted-inequality lab for thin plates.

Three groups of tools:

* one-dimensional Hardy ratios with their sharp constants, evaluated for
  sampled piecewise-linear functions;
* Korn-constant estimation on a thin box as the smallest generalized
  eigenvalue of (strain energy, weighted anisotropic norm), under lateral
  and/or small-support clamping; the norm's weights are the edge weight
  (thickness plus distance to the boundary) and the support weight
  (log-damped inverse distance to the nearest support);
* explicit test fields whose energy/norm ratios certify that the weight
  logarithms and the support-count threshold cannot be dropped.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fem import (ConstraintSet, MeshError, StructuredGrid, assemble_elastic,
                  assemble_pointwise_form, smallest_eigenpair)


class ContractError(ValueError):
    """A sampled function violates the variant's admissibility contract."""


# ---------------------------------------------------------------------------
# Hardy ratios
# ---------------------------------------------------------------------------

# variant -> (sharp constant, which endpoint must vanish: 0 = left, -1 = right)
HARDY_VARIANTS = {
    "inverse-square": (4.0, 0),
    "edge-log": (4.0, -1),
    "pole-log": (4.0, 0),
    "shifted-quartic": (4.0 / 9.0, 0),
}


def hardy_constant(variant: str) -> float:
    return HARDY_VARIANTS[variant][0]


def hardy_ratio(x, u, variant: str, h: float | None = None):
    """Ratio of the weighted |u|^2 integral to the weighted |u'|^2 integral.

    ``u`` holds node samples on the grid ``x`` (last axis; leading axes are
    batched) and is read as the piecewise-linear interpolant, so the ratio of
    an admissible sample never exceeds the variant constant beyond quadrature
    error.  Both integrals use the midpoint rule on the sampling cells, which
    keeps the singular endpoint of the weight out of the evaluation set.
    """
    if variant not in HARDY_VARIANTS:
        raise ContractError(f"unknown variant {variant!r}")
    _, end = HARDY_VARIANTS[variant]
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.ndim != 1 or len(x) < 3:
        raise ContractError("need a 1D grid with at least 3 nodes")
    if np.any(np.diff(x) <= 0) or x[0] < 0:
        raise ContractError("grid must be increasing and nonnegative")
    if u.shape[-1] != len(x):
        raise ContractError("sample count does not match the grid")
    scale = np.max(np.abs(u), axis=-1)
    if np.any(np.abs(u[..., end]) > 1e-12 * np.maximum(scale, 1.0)):
        side = "left" if end == 0 else "right"
        raise ContractError(f"variant {variant!r} needs u = 0 at the "
                            f"{side} endpoint")

    dx = np.diff(x)
    m = 0.5 * (x[1:] + x[:-1])
    u_mid = 0.5 * (u[..., 1:] + u[..., :-1])
    slope = np.diff(u, axis=-1) / dx
    # each term is arranged so that quotients of comparable magnitude are
    # formed before squaring; this keeps very fine graded grids in range
    if variant == "inverse-square":
        num_t = (u_mid / m) ** 2
        den_t = slope ** 2
    elif variant == "edge-log":
        R = x[-1]
        w = np.log(m / R) ** -2.0
        num_t = u_mid ** 2 * (w / m)
        den_t = slope ** 2 * m
    elif variant == "pole-log":
        R = 2.0 * x[-1]
        w = np.log(m / R) ** -2.0
        num_t = (u_mid / m) ** 2 * (w / m)
        den_t = slope ** 2 * (w / m)
    else:  # shifted-quartic
        if h is None or h <= 0:
            raise ContractError("the shifted variant needs h > 0")
        num_t = (u_mid / (m + h) ** 2) ** 2
        den_t = (slope / (m + h)) ** 2

    num = np.sum(num_t * dx, axis=-1)
    den = np.sum(den_t * dx, axis=-1)
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)[()]


# ---------------------------------------------------------------------------
# edge and support weights of the anisotropic norms
# ---------------------------------------------------------------------------

def boundary_distance(rect, y):
    a, b = rect
    y = np.asarray(y, dtype=float)
    y1, y2 = y[..., 0], y[..., 1]
    return np.minimum(np.minimum(y1, a - y1), np.minimum(y2, b - y2))


def edge_weight(h: float, rect, y) -> np.ndarray:
    """Thickness plus distance to the boundary of the rectangle
    (0, a) x (0, b), at points y of shape (..., 2)."""
    return h + boundary_distance(rect, y)


def support_weight(h: float, q: int, centers, y) -> np.ndarray:
    """Largest over the centers of the inverse regularized distance
    (h^2 + |y - c|^2)^(-q/2), damped by its logarithm; order q in {1, 2},
    at points y of shape (..., 2)."""
    y = np.asarray(y, dtype=float)
    vals = []
    for c in centers:
        s2 = h * h + np.sum((y - np.asarray(c)) ** 2, axis=-1)
        vals.append(s2 ** (-q / 2.0) / (1.0 + np.abs(np.log(s2))))
    return np.maximum.reduce(vals)


# ---------------------------------------------------------------------------
# support layouts and Korn-constant estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportLayout:
    """Clamping data for the plate (0,a) x (0,b) x (-h/2, h/2).

    Small supports are disks of radius R*h around the centers on the bottom
    face; mode picks whether the lateral boundary is clamped as well.
    """
    centers: tuple
    R: float
    h: float
    rect: tuple = (1.0, 1.0)
    mode: str = "lateral+support"

    def __post_init__(self):
        if self.mode not in ("lateral+support", "supports-only"):
            raise ContractError(f"unknown clamping mode {self.mode!r}")
        if self.h <= 0 or self.R <= 0:
            raise ContractError("h and R must be positive")
        if not self.centers:
            raise ContractError("need at least one support center")
        a, b = self.rect
        r = self.R * self.h
        pts = [tuple(map(float, c)) for c in self.centers]
        if len(set(pts)) != len(pts):
            raise ContractError("support centers must be pairwise distinct")
        for c1, c2 in pts:
            if not (r <= c1 <= a - r and r <= c2 <= b - r):
                raise ContractError("support disk leaves the rectangle")

    @property
    def J(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class KornEstimate:
    h: float
    J: int
    mode: str
    variant: str
    constant: float
    lambda_min: float
    mesh_cells: int
    residual: float


NORM_VARIANTS = ("plain", "edge-weighted", "support-weighted", "free-edge")


def _norm_weights(layout: SupportLayout, variant: str,
                  y: np.ndarray) -> np.ndarray:
    """Diagonal weights of the anisotropic norm at in-plane points y.

    Column layout matches the pointwise-form block order for 3 components in
    3D: (u1,u2,u3, d1u1,d1u2,d1u3, d2u1,d2u2,d2u3, dzu1,dzu2,dzu3).
    """
    h = layout.h
    n = len(y)
    w = np.ones((n, 12))
    if variant == "plain":
        v12, v3 = np.ones(n), np.full(n, h * h)
        dy3 = dz12 = np.full(n, h * h)
    elif variant == "edge-weighted":
        s = edge_weight(h, layout.rect, y)
        v12 = s ** -2.0
        v3 = h * h * s ** -4.0
        dy3 = dz12 = h * h * s ** -2.0
    elif variant == "support-weighted":
        s = edge_weight(h, layout.rect, y)
        S1 = support_weight(h, 1, layout.centers, y)
        S2 = support_weight(h, 2, layout.centers, y)
        v12 = (S1 / s) ** 2
        v3 = h * h * S2 ** 2 * s ** -4.0
        dy3 = dz12 = h * h * (S1 / s) ** 2
    elif variant == "free-edge":
        S1 = support_weight(h, 1, layout.centers, y)
        S2 = support_weight(h, 2, layout.centers, y)
        v12 = S1 ** 2
        v3 = h * h * S2 ** 2
        dy3 = dz12 = h * h * S1 ** 2
    else:
        raise ContractError(f"unknown norm variant {variant!r}")
    w[:, 0] = w[:, 1] = v12
    w[:, 2] = v3
    w[:, 5] = w[:, 8] = dy3          # in-plane derivatives of u3
    w[:, 9] = w[:, 10] = dz12        # vertical derivatives of u1, u2
    # w[:, 3], w[:, 4], w[:, 6], w[:, 7] stay 1 (in-plane grads of u1, u2)
    # w[:, 11] stays 1 (vertical derivative of u3)
    return w


def korn_system(layout: SupportLayout, material, variant: str,
                resolution: int = 2, nz: int = 3):
    """Assemble (energy form with clamping, weighted-norm form, grid)."""
    if resolution < 2:
        raise MeshError("need at least 2 elements across the support radius")
    if nz < 2:
        raise MeshError("need at least 2 elements through the thickness")
    a, b = layout.rect
    h, R = layout.h, layout.R
    spacing = R * h / resolution
    nx = max(2, math.ceil(a / spacing))
    ny = max(2, math.ceil(b / spacing))
    grid = StructuredGrid.uniform((0.0, 0.0, -h / 2), (a, b, h / 2),
                                  (nx, ny, nz))
    cons = ConstraintSet(ncomp=3)
    bottom = grid.face_nodes(2, 0)
    pts = grid.nodes()[bottom][:, :2]
    for c in layout.centers:
        inside = np.sum((pts - np.asarray(c, dtype=float)) ** 2,
                        axis=-1) <= (R * h) ** 2
        if not np.any(inside):
            raise MeshError("a support disk contains no mesh node")
        cons.fix_nodes(bottom[inside])
    if layout.mode == "lateral+support":
        for axis in (0, 1):
            for side in (0, 1):
                cons.fix_nodes(grid.face_nodes(axis, side))
    K = assemble_elastic(grid, np.asarray(material, dtype=float), cons)
    wy = _norm_weights(layout, variant, grid.element_centroids()[:, :2])
    W = np.zeros((grid.n_elements, 12, 12))
    idx = np.arange(12)
    W[:, idx, idx] = wy
    M = assemble_pointwise_form(grid, W, ncomp=3)
    # the diagonal weight leaves 2/3 of the stored entries zero; the eigen
    # solve multiplies by M a few times per step
    M.eliminate_zeros()
    return K, M, grid


def korn_constant(layout: SupportLayout, material, variant: str,
                  resolution: int = 2, nz: int = 3) -> KornEstimate:
    """Korn constant as 1/sqrt of the smallest eigenvalue of (K, M), whose
    eigen residual is at most smallest_eigenpair's default 1e-6."""
    K, M, grid = korn_system(layout, material, variant, resolution, nz)
    lam, _, res = smallest_eigenpair(K, M)
    return KornEstimate(h=layout.h, J=layout.J, mode=layout.mode,
                        variant=variant, constant=lam ** -0.5,
                        lambda_min=lam, mesh_cells=grid.n_elements,
                        residual=res)


def korn_csv(estimates: Sequence[KornEstimate]) -> str:
    out = io.StringIO()
    out.write("h,J,clamp_mode,norm_variant,K_estimate,mesh_cells,"
              "eig_residual\n")
    for e in estimates:
        out.write(f"{e.h:.6g},{e.J},{e.mode},{e.variant},"
                  f"{e.constant:.10g},{e.mesh_cells},{e.residual:.3e}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# optimality test fields
# ---------------------------------------------------------------------------

def cutoff(r):
    """Smooth monotone step: 1 below 1/2, 0 above 1."""
    r = np.asarray(r, dtype=float)
    s = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        g1 = np.where(s > 0.0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        g2 = np.where(s < 1.0,
                      np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return (g2 / (g1 + g2))[()]


def cutoff_slope(r):
    """Derivative of the smooth step with respect to r."""
    r = np.asarray(r, dtype=float)
    s = 2.0 * r - 1.0
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros_like(r)
    si = s[inside]
    g1 = np.exp(-1.0 / si)
    g2 = np.exp(-1.0 / (1.0 - si))
    dg1 = g1 / si ** 2
    dg2 = g2 / (1.0 - si) ** 2
    den = g1 + g2
    out[inside] = 2.0 * (-dg2 * den - g2 * (dg1 - dg2)) / den ** 2
    return out[()]


def _bump(t):
    """Smooth profile supported on (1/2, 1)."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.5) & (t < 1.0)
    out = np.zeros_like(t)
    out[inside] = np.sin(math.pi * (2.0 * t[inside] - 1.0)) ** 2
    return out


def _bump_slope(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.5) & (t < 1.0)
    out = np.zeros_like(t)
    out[inside] = 2.0 * math.pi * np.sin(2.0 * math.pi
                                         * (2.0 * t[inside] - 1.0))
    return out


def optimality_witness(which: str, h: float):
    """Energy and norm of an explicit displacement field, by quadrature.

    which = "log-weight": both in-plane components equal a smooth bump of
    ln|y|/ln(h) supported on the annulus h < |y| < sqrt(h); returns the
    strain energy and the unlogged inverse-distance weighted norm.  The
    energy decays like h/|ln h| while the norm grows like h|ln h|, so their
    ratio certifies that the logarithm in the support weight is necessary.

    which = "rotation": an in-plane rotation about one support, cut off
    inside radius 2h and extended across the unit disk; returns (strain
    energy ~ h^3, squared displacement norm ~ h), certifying power-law
    growth of the single-support Korn constant.

    which = "log-factor": a unit in-plane shift ramped to zero near each of
    the support centers through a bump of ln(r_j/R_0)/ln(h); returns the
    strain energy ~ 1/|ln h| and the support-weighted squared norm of the
    in-plane displacement, which stays of order one.
    """
    n_radial, n_angular = 4096, 128    # quadrature points per direction
    if which == "log-weight":
        if not 0.0 < h <= 0.25:
            raise ContractError("need 0 < h <= 1/4")
        t = (np.arange(n_radial) + 0.5) / n_radial * 0.5 + 0.5
        dt = 0.5 / n_radial
        r = h ** t
        lnh = abs(math.log(h))
        phi = (np.arange(n_angular) + 0.5) / n_angular * 2.0 * math.pi
        dphi = 2.0 * math.pi / n_angular
        cs, sn = np.cos(phi), np.sin(phi)
        psi, dpsi = _bump(t), _bump_slope(t)
        # radial substitution: dr = -r ln(1/h) dt, integrand carries r dr
        jac = (r * r * lnh * dt)[:, None] * dphi
        g = (dpsi / (r * lnh))[:, None]
        e11 = g * cs[None, :]
        e22 = g * sn[None, :]
        e12 = 0.5 * g * (sn + cs)[None, :]
        energy = h * float(np.sum((e11 ** 2 + e22 ** 2 + 2 * e12 ** 2) * jac))
        w = 1.0 / (h * h + r * r)
        norm = h * 2.0 * math.pi * float(
            np.sum(2.0 * psi ** 2 * w * r * r * lnh * dt))
        return energy, norm

    if which == "rotation":
        if not 0.0 < 2.0 * h < 0.5:
            raise ContractError("cutoff annulus must fit inside the domain")
        # energy lives on the annulus h < r < 2h where the cutoff varies
        r1, r2 = 0.5 * h, 2.5 * h
        r = np.linspace(r1, r2, n_radial)
        dr = r[1] - r[0]
        gp = -cutoff_slope(r / (2.0 * h)) / (2.0 * h)
        # angular averages of the strain pattern of g(r) * (-y2, y1):
        # |strain|^2 = g'^2 r^2 (2 cos^2 sin^2 + (cos^2 - sin^2)^2 / 2)
        energy = h * math.pi * float(np.sum(gp ** 2 * r ** 3) * dr)
        rn = np.linspace(0.0, 1.0, n_radial)
        drn = rn[1] - rn[0]
        gn = 1.0 - cutoff(rn / (2.0 * h))
        norm = h * 2.0 * math.pi * float(np.sum(gn ** 2 * rn ** 3) * drn)
        return energy, norm

    if which == "log-factor":
        if not 0.0 < h <= 0.04:
            raise ContractError("need 0 < h <= 0.04")
        R0 = 0.25
        rect = (2.0, 2.0)
        patch = 0.1
        lnh = abs(math.log(h))
        cs = [np.array([0.6, 1.0]), np.array([1.4, 1.0])]

        def ramp(rj):
            # distance-to-center profile: 0 inside R0*h, 1 outside R0*sqrt(h)
            with np.errstate(divide="ignore"):
                tau = np.abs(np.log(np.maximum(rj, 1e-300) / R0)) / lnh
            return cutoff(tau), cutoff_slope(tau) / (-rj * lnh)

        def field(pts):
            u = np.ones(len(pts))
            grad = np.zeros((len(pts), 2))
            vals, slopes, units = [], [], []
            for c in cs:
                d = pts - c
                rj = np.hypot(d[:, 0], d[:, 1])
                v, s = ramp(rj)
                vals.append(v)
                slopes.append(s)
                units.append(d / np.maximum(rj, 1e-300)[:, None])
                u = u * v
            for k in range(len(cs)):
                other = np.ones(len(pts))
                for l in range(len(cs)):
                    if l != k:
                        other = other * vals[l]
                grad += (slopes[k] * other)[:, None] * units[k]
            return u, grad

        energy = 0.0
        norm = 0.0
        # polar patches resolve the logarithmic ramp around each center
        lr = np.linspace(math.log(R0 * h * 0.9), math.log(patch), n_radial)
        dlr = lr[1] - lr[0]
        phi = (np.arange(n_angular) + 0.5) / n_angular * 2.0 * math.pi
        dphi = 2.0 * math.pi / n_angular
        ring = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        for c in cs:
            r = np.exp(lr)
            pts = c[None, None, :] + r[:, None, None] * ring[None, :, :]
            u, grad = field(pts.reshape(-1, 2))
            w = r[:, None] * r[:, None] * dlr * dphi   # r dr dphi, log grid
            e = grad[:, 0] ** 2 + 0.5 * grad[:, 1] ** 2
            energy += float(np.sum(e.reshape(len(r), -1) * w))
            Sv = support_weight(h, 1, cs, pts.reshape(-1, 2))
            norm += float(np.sum((Sv ** 2 * u ** 2).reshape(len(r), -1) * w))
        # cartesian far field (outside the patches): the ramp is constant 1
        n = 400
        g1 = (np.arange(n) + 0.5) / n * rect[0]
        g2 = (np.arange(n) + 0.5) / n * rect[1]
        P = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1)
        P = P.reshape(-1, 2)
        keep = np.ones(len(P), dtype=bool)
        for c in cs:
            keep &= np.sum((P - c) ** 2, axis=-1) > patch ** 2
        Sv = support_weight(h, 1, cs, P[keep])
        cell = (rect[0] / n) * (rect[1] / n)
        norm += float(np.sum(Sv ** 2) * cell)
        return h * energy, h * norm

    raise ContractError(f"unknown witness {which!r}")
