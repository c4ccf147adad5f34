"""Mandel-Voigt elastic algebra.

Strain/stress columns use the ordering

    (e11, e22, sqrt2*e12, sqrt2*e13, sqrt2*e23, e33)

so that the Euclidean norm of a column equals the Frobenius norm of the
symmetric tensor it encodes.  The strain of a displacement u is D(grad)u,
where D(a) for a vector a is the 6x3 matrix with rows

    a1, 0, 0
    0, a2, 0
    (a2, a1, 0)/sqrt2
    (a3, 0, a1)/sqrt2
    (0, a3, a2)/sqrt2
    0, 0, a3

Sign convention for the strong operators: the split parts below follow
L0 = D(0,0,-d_zeta)^T A D(0,0,d_zeta), etc., so that the associated bilinear
form integral of (A D(grad)u) . D(grad)v is positive; the strong operator is
the negative divergence of stress in this convention.  (Two displayed
conventions differ by one sign; we fix the positive-form one and note it
here.)

Exact paths accept stiffness matrices with rational entries and PolyField
displacements; numeric paths use numpy.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polyfield import (INV_SQRT2, Poly, PolyField, Q2, mat_apply, mat_inv,
                        mat_mul, mat_sub, mat_to_float, mat_transpose)

Q = Fraction


class InvalidMaterial(ValueError):
    pass


# ---------------------------------------------------------------------------
# stiffness matrices
# ---------------------------------------------------------------------------

def isotropic_stiffness_exact(lam, mu):
    """6x6 stiffness for Lame parameters, exact rational entries."""
    lam, mu = Q(lam), Q(mu)
    if mu <= 0 or lam < 0:
        raise InvalidMaterial(f"need mu > 0 and lambda >= 0, got {lam}, {mu}")
    d = lam + 2 * mu
    A = [[Q(0)] * 6 for _ in range(6)]
    for i in (0, 1, 5):
        A[i][i] = d
    for i in (2, 3, 4):
        A[i][i] = 2 * mu
    for i, j in ((0, 1), (0, 5), (1, 5)):
        A[i][j] = lam
        A[j][i] = lam
    return A


def isotropic_stiffness(lam: float, mu: float) -> np.ndarray:
    return mat_to_float(isotropic_stiffness_exact(Q(lam), Q(mu)))


def check_stiffness(A: np.ndarray) -> None:
    A = np.asarray(A, dtype=float)
    if A.shape != (6, 6):
        raise InvalidMaterial("stiffness must be 6x6")
    if not np.allclose(A, A.T, atol=1e-10):
        raise InvalidMaterial("stiffness must be symmetric")
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if w.min() <= 1e-10 * max(1.0, w.max()):
        raise InvalidMaterial("stiffness must be positive definite")


def reduced_stiffness_exact(A):
    """3x3 Schur complement A_yy - A_yz A_zz^{-1} A_zy, exact arithmetic."""
    Ayy = [row[:3] for row in A[:3]]
    Ayz = [row[3:] for row in A[:3]]
    Azy = [row[:3] for row in A[3:]]
    Azz = [row[3:] for row in A[3:]]
    return mat_sub(Ayy, mat_mul(Ayz, mat_mul(mat_inv(Azz), Azy)))


def reduced_stiffness(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    check_stiffness(A)
    Ayy, Ayz = A[:3, :3], A[:3, 3:]
    Azy, Azz = A[3:, :3], A[3:, 3:]
    return Ayy - Ayz @ np.linalg.solve(Azz, Azy)


def lame_reduced(lam: float, mu: float) -> float:
    """The reduced in-plane coupling modulus 2*lam*mu/(lam + 2*mu)."""
    return 2.0 * lam * mu / (lam + 2.0 * mu)


def lame_reduced_exact(lam, mu):
    lam, mu = Q(lam), Q(mu)
    return 2 * lam * mu / (lam + 2 * mu)


def material_from_json(source) -> np.ndarray:
    """Parse a material description.

    Accepts a JSON string or a dict with either {"lambda": x, "mu": y} or
    {"A": [21 upper-triangular entries, row-major]}.
    """
    obj = json.loads(source) if isinstance(source, str) else source
    if not isinstance(obj, dict):
        raise InvalidMaterial("material JSON must be an object")
    if "A" in obj:
        vals = obj["A"]
        if len(vals) != 21:
            raise InvalidMaterial("A needs 21 upper-triangular entries")
        A = np.zeros((6, 6))
        it = iter(vals)
        for i in range(6):
            for j in range(i, 6):
                A[i, j] = A[j, i] = next(it)
        check_stiffness(A)
        return A
    if "lambda" in obj and "mu" in obj:
        return isotropic_stiffness(float(obj["lambda"]), float(obj["mu"]))
    raise InvalidMaterial("material JSON needs 'lambda'/'mu' or 'A'")


# ---------------------------------------------------------------------------
# strain operator
# ---------------------------------------------------------------------------

def strain_matrix(a: Sequence[float]) -> np.ndarray:
    """The 6x3 matrix D(a) for a numeric vector a."""
    a1, a2, a3 = a
    s = 2.0 ** -0.5
    return np.array([
        [a1, 0.0, 0.0],
        [0.0, a2, 0.0],
        [s * a2, s * a1, 0.0],
        [s * a3, 0.0, s * a1],
        [0.0, s * a3, s * a2],
        [0.0, 0.0, a3],
    ])


def strain_matrix_exact(a):
    a1, a2, a3 = (Q2.of(x) for x in a)
    s = INV_SQRT2
    z = Q2()
    return [
        [a1, z, z],
        [z, a2, z],
        [s * a2, s * a1, z],
        [s * a3, z, s * a1],
        [z, s * a3, s * a2],
        [z, z, a3],
    ]


def strain_of_polyfield(u: PolyField):
    """Exact strain column of a PolyField; derivatives (d1, d2, d3)."""
    d1 = [c.diff(0) for c in u]
    d2 = [c.diff(1) for c in u]
    d3 = [c.diff(2) for c in u]
    s = INV_SQRT2
    return [
        d1[0],
        d2[1],
        (d2[0] + d1[1]) * s,
        (d3[0] + d1[2]) * s,
        (d3[1] + d2[2]) * s,
        d3[2],
    ]


def rigid_motion_matrix(xi) -> np.ndarray:
    """3x6 matrix d(xi): columns are 3 translations and 3 rotations.

    xi of shape (3,) gives (3, 6); points of shape (n, 3) give (n, 3, 6).
    """
    pts = np.asarray(xi, dtype=float)
    x1, x2, x3 = np.moveaxis(pts, -1, 0)
    z = np.zeros_like(x1)
    o = np.ones_like(x1)
    return np.stack([
        np.stack([o, z, z, z, x3, -x2], axis=-1),
        np.stack([z, o, z, -x3, z, x1], axis=-1),
        np.stack([z, z, o, x2, -x1, z], axis=-1),
    ], axis=-2)


def rigid_polyfield(c: Sequence) -> PolyField:
    """Rigid displacement d(y)c as an exact PolyField (third variable = zeta)."""
    y1, y2, y3 = Poly.var(0), Poly.var(1), Poly.var(2)
    c = [Q2.of(x) for x in c]
    return PolyField([
        Poly.const(c[0]) + y3 * c[4] - y2 * c[5],
        Poly.const(c[1]) - y3 * c[3] + y1 * c[5],
        Poly.const(c[2]) + y2 * c[3] - y1 * c[4],
    ])


# ---------------------------------------------------------------------------
# through-thickness operator split
# ---------------------------------------------------------------------------

def _to_exact_matrix(A):
    if isinstance(A, np.ndarray):
        return [[Q2.of(Q(x)) for x in row] for row in A.tolist()]
    return [[Q2.of(x) for x in row] for row in A]


def _dy(p: Poly, k: int, symbol: bool) -> Poly:
    """d/dy_k, or multiplication by s_k when p is a symbol in
    (s1, s2, zeta)."""
    return p * Poly.var(k) if symbol else p.diff(k)


def _strain_y(u: PolyField, symbol: bool = False):
    """D(grad_y, 0)u: in-plane derivative rows only."""
    d1 = [_dy(c, 0, symbol) for c in u]
    d2 = [_dy(c, 1, symbol) for c in u]
    s = INV_SQRT2
    z = Poly.zero()
    return [d1[0], d2[1], (d2[0] + d1[1]) * s, d1[2] * s, d2[2] * s, z]


def _strain_zeta(u: PolyField):
    """D(0, 0, d_zeta)u."""
    d3 = [c.diff(2) for c in u]
    s = INV_SQRT2
    z = Poly.zero()
    return [z, z, z, d3[0] * s, d3[1] * s, d3[2]]


def _div_y(sigma, symbol: bool = False):
    """D(grad_y, 0)^T sigma for a 6-column of Poly."""
    s = INV_SQRT2
    return [
        _dy(sigma[0], 0, symbol) + _dy(sigma[2], 1, symbol) * s,
        _dy(sigma[1], 1, symbol) + _dy(sigma[2], 0, symbol) * s,
        (_dy(sigma[3], 0, symbol) + _dy(sigma[4], 1, symbol)) * s,
    ]


def _div_zeta(sigma):
    """D(0, 0, d_zeta)^T sigma."""
    s = INV_SQRT2
    return [sigma[3].diff(2) * s, sigma[4].diff(2) * s, sigma[5].diff(2)]


# D(0, 0, +-1)^T: the traction rows of the faces zeta = +-1/2
_FACE_TRACTION = {"+": mat_transpose(strain_matrix_exact((0, 0, 1))),
                  "-": mat_transpose(strain_matrix_exact((0, 0, -1)))}


def layer_operator_parts(A, u: PolyField, which: str,
                         symbol: bool = False) -> PolyField:
    """Apply one part of the operator split to a PolyField, exactly.

    which is one of L0, L1, L2 (interior parts) or N0+, N0-, N1+, N1-
    (face traction parts; the result is still a polynomial in zeta, callers
    substitute zeta = +-1/2 for face values).

    With symbol=True, u is a symbol: its variables 0 and 1 are read as
    (s1, s2), and d/dy_k becomes multiplication by s_k; zeta stays a real
    variable.  The entries of A may be exact or binary floats: each product
    converts its coefficient exactly (``polyfield.lincomb``).
    """
    if which not in ("L0", "L1", "L2", "N0+", "N0-", "N1+", "N1-"):
        raise ValueError(f"unknown operator part {which!r}")
    if which == "L0":
        sigma = mat_apply(A, _strain_zeta(u))
        return PolyField([-p for p in _div_zeta(sigma)])
    if which == "L1":
        t1 = _div_zeta(mat_apply(A, _strain_y(u, symbol)))
        t2 = _div_y(mat_apply(A, _strain_zeta(u)), symbol)
        return PolyField([-(a + b) for a, b in zip(t1, t2)])
    if which == "L2":
        sigma = mat_apply(A, _strain_y(u, symbol))
        return PolyField([-p for p in _div_y(sigma, symbol)])
    strain = (_strain_zeta(u) if which.startswith("N0")
              else _strain_y(u, symbol))
    return PolyField(mat_apply(_FACE_TRACTION[which[-1]],
                               mat_apply(A, strain)))


def full_operator(A, u: PolyField) -> PolyField:
    """L(grad)u = D(-grad)^T A D(grad)u with the third variable read as z."""
    sigma = mat_apply(A, strain_of_polyfield(u))
    dy = _div_y(sigma)
    dz = _div_zeta(sigma)
    return PolyField([-(a + b) for a, b in zip(dy, dz)])
