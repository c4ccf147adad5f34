"""Fundamental matrices of the plane limit operators.

The in-plane operator has a 2x2 fundamental matrix Psi' ln r + psi'(phi);
the fourth-order vertical operator has a scalar one of the form
r^2 (c(phi) ln r + psi3(phi)).  Both are built by plane-wave angular
superposition: with M(w) = D'(w)^T A0 D'(w) and m3(w) = D3(w)^T (A0/6) D3(w)
on the unit circle,

    Phi'(y)  = -(1/4 pi^2) int M(w)^{-1} ln|w.y| dw
    Phi_3(y) = +(1/8 pi^2) int m3(w)^{-1} (w.y)^2 ln|w.y| dw

up to the free additive terms (a constant matrix, resp. a quadratic):
`normalize_membrane` fixes the constant by the energy pairing, and the gauge
stated at `FundamentalBending` fixes the quadratic.  The angular integrals
reduce to circular convolutions with ln|cos u| and cos^2 u ln|cos u|, whose
Fourier series are known in closed form, so every angular function is stored
as one array of Fourier coefficients and all derivatives are exact in that
representation.

For anisotropic A0 the reciprocal symbol 1/m3 carries a second harmonic and
the ln r coefficient of Phi_3 is genuinely angular; the scalar number quoted
for the isotropic case is its mean.  What defines a fundamental solution
here is the set of contour identities, which are validated after every
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .elastic import InvalidMaterial, lame_reduced

TWO_PI = 2.0 * math.pi
SQ2 = math.sqrt(2.0)


class SingularityError(ValueError):
    pass


class ConstructionError(RuntimeError):
    """A constructed Phi failed its defining contour identities."""


# ---------------------------------------------------------------------------
# Fourier helpers (coefficient arrays in numpy fft order)
# ---------------------------------------------------------------------------

def _harmonics(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def _mul_cos(c: np.ndarray) -> np.ndarray:
    return 0.5 * (np.roll(c, 1) + np.roll(c, -1))


def _mul_sin(c: np.ndarray) -> np.ndarray:
    return (np.roll(c, 1) - np.roll(c, -1)) / 2j


def _dphi(c: np.ndarray) -> np.ndarray:
    return 1j * _harmonics(len(c)) * c


def _samples(c: np.ndarray) -> np.ndarray:
    return np.fft.ifft(c).real * len(c)


def _coeffs(vals: np.ndarray) -> np.ndarray:
    # the FFT leaves round-off of about n eps times the largest coefficient
    # in harmonics the symbol lacks; cut it, so that _eval_fourier sums only
    # the harmonics that are there (three per isotropic symbol entry)
    c = np.fft.fft(vals) / len(vals)
    c[np.abs(c) <= len(c) * np.finfo(float).eps * np.abs(c).max()] = 0.0
    return c


def _eval_fourier(c: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values at the angles phi; only harmonics with nonzero coefficients
    are evaluated, which for isotropic fields is a handful of the n."""
    nz = np.flatnonzero(c)
    m = _harmonics(len(c))[nz]
    return (np.exp(1j * np.outer(phi, m)) @ c[nz]).real


def _log_cos_coeffs(n: int) -> np.ndarray:
    """Fourier coefficients of ln|cos u| = -ln2 + sum (-1)^{k+1} cos(2ku)/k."""
    g = np.zeros(n, dtype=complex)
    g[0] = -math.log(2.0)
    for k in range(1, n // 2):
        m = 2 * k
        if m >= n - m:
            break
        g[m] = g[-m] = (-1) ** (k + 1) / (2.0 * k)
    return g


def _cos2_coeffs(n: int) -> np.ndarray:
    c = np.zeros(n, dtype=complex)
    c[0] = 0.5
    c[2] = c[-2] = 0.25
    return c


# ---------------------------------------------------------------------------
# fields r^k (A(phi) ln r + B(phi))
# ---------------------------------------------------------------------------

@dataclass
class LogField:
    """Finite sum of terms r^k (A(phi) ln r + B(phi)), coefficients stored
    spectrally; closed under the Cartesian derivatives."""

    terms: dict       # k -> (log part coeffs, plain part coeffs)
    n: int

    @staticmethod
    def zero(n: int) -> "LogField":
        return LogField({}, n)

    def d(self, axis: int) -> "LogField":
        out = {}
        for k, (A, B) in self.terms.items():
            if axis == 1:
                Alog = k * _mul_cos(A) - _mul_sin(_dphi(A))
                Bpl = _mul_cos(A) + k * _mul_cos(B) - _mul_sin(_dphi(B))
            else:
                Alog = k * _mul_sin(A) + _mul_cos(_dphi(A))
                Bpl = _mul_sin(A) + k * _mul_sin(B) + _mul_cos(_dphi(B))
            a0, b0 = out.get(k - 1, (0.0, 0.0))
            out[k - 1] = (a0 + Alog, b0 + Bpl)
        return LogField(out, self.n)

    def __add__(self, other: "LogField") -> "LogField":
        out = dict(self.terms)
        for k, (A, B) in other.terms.items():
            a0, b0 = out.get(k, (0.0, 0.0))
            out[k] = (a0 + A, b0 + B)
        return LogField(out, self.n)

    def scaled(self, factor: float) -> "LogField":
        return LogField({k: (factor * A, factor * B)
                         for k, (A, B) in self.terms.items()}, self.n)

    def circle(self, r: float) -> np.ndarray:
        """Values on the circle |y| = r, on the stored angular grid."""
        out = np.zeros(self.n)
        lr = math.log(r)
        for k, (A, B) in self.terms.items():
            out += r ** k * (_samples(A) * lr + _samples(B))
        return out

    def eval(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.hypot(pts[:, 0], pts[:, 1])
        if np.any(r == 0.0):
            raise SingularityError("field evaluated at the origin")
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros(len(pts))
        for k, (A, B) in self.terms.items():
            out += r ** k * (_eval_fourier(A, phi) * np.log(r)
                             + _eval_fourier(B, phi))
        return out


def _const_coeffs(value: float, n: int) -> np.ndarray:
    c = np.zeros(n, dtype=complex)
    c[0] = value
    return c


# ---------------------------------------------------------------------------
# fundamentals
# ---------------------------------------------------------------------------

@dataclass
class FundamentalMembrane:
    Psi: np.ndarray          # constant symmetric 2x2 ln r coefficient
    psi: np.ndarray          # (2, 2, n) Fourier coefficients of psi'(phi)
    n: int

    def field(self, i: int, j: int) -> LogField:
        return LogField({0: (_const_coeffs(self.Psi[i, j], self.n),
                             self.psi[i, j])}, self.n)


@dataclass
class FundamentalBending:
    """Phi3 = r^2 (a(phi) ln r + b(phi)), a in `log_coeff`, b in `psi3`.

    Gauge: harmonics 0 and +-2 of b are zero.  Phi3 is fixed only up to a
    quadratic, and y1^2, y1 y2, y2^2 are r^2 times cos^2, cos sin, sin^2,
    which span exactly harmonics 0 and +-2 of b.  Zeroing them fixes the
    three free constants.  A rotation of A0 rotates b, which keeps each
    harmonic in place, so the gauge is rotation covariant; for isotropic A0
    b = 0, and Phi3 = c3 r^2 ln r is the closed form.
    """

    Psi3: float              # -2 x mean of the ln r coefficient of r^{-2} Phi3
    log_coeff: np.ndarray    # Fourier coeffs of the full ln r coefficient
    psi3: np.ndarray         # Fourier coeffs of the plain angular part
    n: int

    def field(self) -> LogField:
        return LogField({2: (self.log_coeff, self.psi3)}, self.n)

    def gradient(self) -> tuple:
        f = self.field()
        return f.d(1), f.d(2)


class PhiSharp(NamedTuple):
    """3x4 block matrix: Phi' top left, (-Phi3^2, Phi3^1) in the last row.

    The minus sign is forced by duality: the tilt columns must pair
    bi-orthogonally with the rigid tilts (vertical parts +y2 and -y1), and
    only this sign choice makes the capacity matrix built on the templates
    come out symmetric.
    """

    membrane: FundamentalMembrane
    bending: FundamentalBending

    def fields(self):
        z = LogField.zero(self.membrane.n)
        g1, g2 = self.bending.gradient()
        return [[self.membrane.field(0, 0), self.membrane.field(0, 1), z, z],
                [self.membrane.field(1, 0), self.membrane.field(1, 1), z, z],
                [z, z, g2.scaled(-1.0), g1]]


def eval_isotropic_fundamentals(lam: float, mu: float, y):
    """Closed forms: Phi'(y), Phi3(y), grad Phi3(y)."""
    if mu <= 0:
        raise InvalidMaterial(f"need mu > 0, got {mu}")
    y = np.asarray(y, dtype=float)
    r2 = float(y @ y)
    if r2 == 0.0:
        raise SingularityError("fundamental matrices are singular at y = 0")
    lp = lame_reduced(lam, mu)
    pref = (lp + 3 * mu) / (4 * math.pi * mu * (lp + 2 * mu))
    beta = (lp + mu) / (lp + 3 * mu)
    lnr = 0.5 * math.log(r2)
    phi_p = pref * (-lnr * np.eye(2) + beta * np.outer(y, y) / r2)
    c3 = 3 * (lam + 2 * mu) / (8 * math.pi * mu * (lam + mu))
    phi3 = c3 * r2 * lnr
    grad3 = c3 * (2 * lnr + 1.0) * y
    return phi_p, phi3, grad3


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _dprime(w1, w2):
    """Reduced 3x2 strain matrix of a plane vector direction."""
    return np.array([[w1, 0.0], [0.0, w2], [w2 / SQ2, w1 / SQ2]])


def _d3(w1, w2):
    return np.array([w1 ** 2 / SQ2, w2 ** 2 / SQ2, w1 * w2])


def construct_fundamental(A0, n_angular: int = 1024) -> PhiSharp:
    """Build PhiSharp(membrane, bending) for a reduced stiffness, then check
    the defining contour identities."""
    A0 = np.asarray(A0, dtype=float)
    if np.linalg.eigvalsh(0.5 * (A0 + A0.T)).min() <= 0:
        raise InvalidMaterial("reduced stiffness must be positive definite")
    mem, bend = _quadrature_fundamental(A0, int(n_angular))
    mem = normalize_membrane(mem, A0)
    report = verify_contour_identities((mem, bend), A0, 1.0)
    if report.max_defect > 1e-6:
        raise ConstructionError(
            f"identity {report.worst!r} defect {report.max_defect:.3e}")
    return PhiSharp(mem, bend)


def _quadrature_fundamental(A0, n):
    theta = TWO_PI * np.arange(n) / n
    minv = np.empty((2, 2, n))
    m3inv = np.empty(n)
    for k, t in enumerate(theta):
        w1, w2 = math.cos(t), math.sin(t)
        Dp = _dprime(w1, w2)
        minv[:, :, k] = np.linalg.inv(Dp.T @ A0 @ Dp)
        d3 = _d3(w1, w2)
        m3inv[k] = 1.0 / (d3 @ (A0 / 6.0) @ d3)
    g = _log_cos_coeffs(n)
    c2 = _cos2_coeffs(n)
    # h(u) = cos^2(u) ln|cos u| through the product of the two series
    h = 0.5 * g + 0.25 * (np.roll(g, 2) + np.roll(g, -2))
    psi = np.zeros((2, 2, n), dtype=complex)
    Psi = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            c = _coeffs(minv[i, j])
            Psi[i, j] = -c[0].real / TWO_PI
            psi[i, j] = -c * g / (2 * math.pi)
    f3 = _coeffs(m3inv)
    log_coeff = f3 * c2 / (4 * math.pi)
    psi3 = f3 * h / (4 * math.pi)
    psi3[[0, 2, -2]] = 0.0                # the gauge of FundamentalBending
    mem = FundamentalMembrane(Psi=Psi, psi=psi, n=n)
    bend = FundamentalBending(Psi3=-2.0 * log_coeff[0].real,
                              log_coeff=log_coeff, psi3=psi3, n=n)
    return mem, bend


# ---------------------------------------------------------------------------
# contour identities
# ---------------------------------------------------------------------------

def _membrane_tractions(mem: FundamentalMembrane, A0, r, theta):
    """N' Phi' sampled on the circle of radius r: shape (2, 2, len(theta))."""
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    out = np.empty((2, 2, len(theta)))
    for j in range(2):
        u = [mem.field(0, j), mem.field(1, j)]
        strain = [u[0].d(1), u[1].d(2),
                  (u[0].d(2) + u[1].d(1)).scaled(1.0 / SQ2)]
        sv = np.stack([s.circle(r) for s in strain])
        asv = np.asarray(A0, dtype=float) @ sv
        out[0, j] = cos_t * asv[0] + sin_t / SQ2 * asv[2]
        out[1, j] = sin_t * asv[1] + cos_t / SQ2 * asv[2]
    return out


def _energy_pairing(mem: FundamentalMembrane, A0, r, theta):
    """Tractions N' Phi' on the circle of radius r and the drift-corrected
    energy pairing int Phi'^T N' Phi' ds + ln(r) Psi'.

    The log part feeds the traction resultant back into the energy
    integral as an exact -ln(r) Psi' drift; with that drift removed the
    pairing of the angular part does not depend on the radius, so any
    contour serves to check it or to shift it to zero."""
    w = TWO_PI * r / len(theta)            # trapezoid weight, ds = r dtheta
    G = _membrane_tractions(mem, A0, r, theta)
    phi_vals = np.array([[mem.field(i, j).circle(r) for j in range(2)]
                         for i in range(2)])
    energy = w * np.einsum("kin,kjn->ij", phi_vals, G) + math.log(r) * mem.Psi
    return G, energy


def _bending_tractions(fld: LogField, A0, r, theta):
    """(N0 v, N1 v, N2 v) on the circle for a scalar field v."""
    A3 = np.asarray(A0, dtype=float) / 6.0
    d11, d22 = fld.d(1).d(1), fld.d(2).d(2)
    d12 = fld.d(1).d(2)
    curv = [d11.scaled(1.0 / SQ2), d22.scaled(1.0 / SQ2), d12]
    T = [curv[0].scaled(A3[a, 0]) + curv[1].scaled(A3[a, 1])
         + curv[2].scaled(A3[a, 2]) for a in range(3)]
    v1 = T[0].d(1) + T[2].d(2).scaled(1.0 / SQ2)
    v2 = T[1].d(2) + T[2].d(1).scaled(1.0 / SQ2)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    tv = np.stack([t.circle(r) for t in T])
    # the shear trace carries the minus sign, the moment traces do not:
    # integrating (L3 w, v) by parts twice gives the boundary functional
    # -(N0 w) v - sum_i (Ni w) di v with exactly these signs
    n0 = -(cos_t * v1.circle(r) + sin_t * v2.circle(r)) / SQ2
    n1 = (cos_t * tv[0] + sin_t / SQ2 * tv[2]) / SQ2
    n2 = (sin_t * tv[1] + cos_t / SQ2 * tv[2]) / SQ2
    return n0, n1, n2


@dataclass
class IdentityReport:
    radius: float
    traction_identity: np.ndarray      # -int N' Phi' ds, target I2
    energy_orthogonality: np.ndarray   # int Phi'^T N' Phi' ds + ln(r) Psi',
                                       # target 0 (radius-independent form)
    bending_charge: float              # -(1, N0 Phi3), target 1
    bending_moment: np.ndarray         # -((1,grad) y_k, N3 Phi3), target 0
    gradient_charge: np.ndarray        # -(1, N0 Phi3^i), target 0
    biorthogonality: np.ndarray        # ((1,grad) y_k, N3 Phi3^i), target I2
    defects: dict = field(default_factory=dict)

    @property
    def max_defect(self) -> float:
        return max(self.defects.values())

    @property
    def worst(self) -> str:
        return max(self.defects, key=self.defects.get)


def verify_contour_identities(fundamentals, A0, radius: float = 1.0
                              ) -> IdentityReport:
    """Quadrature check of the six defining relations on |y| = radius."""
    if radius <= 0:
        raise SingularityError("contour must avoid the origin")
    mem, bend = fundamentals
    n = mem.n
    theta = TWO_PI * np.arange(n) / n
    r = float(radius)
    w = TWO_PI * r / n                     # trapezoid weight, ds = r dtheta
    yk = r * np.stack([np.cos(theta), np.sin(theta)])

    G, energy = _energy_pairing(mem, A0, r, theta)
    traction = -w * G.sum(axis=2)

    n0, n1, n2 = _bending_tractions(bend.field(), A0, r, theta)
    charge = -w * n0.sum()
    moment = np.array([-w * (yk[0] * n0 + n1).sum(),
                       -w * (yk[1] * n0 + n2).sum()])
    g1, g2 = bend.gradient()
    grad_charge = np.empty(2)
    biorth = np.empty((2, 2))
    for i, gf in enumerate((g1, g2)):
        m0, m1, m2 = _bending_tractions(gf, A0, r, theta)
        grad_charge[i] = -w * m0.sum()
        biorth[i, 0] = w * (yk[0] * m0 + m1).sum()
        biorth[i, 1] = w * (yk[1] * m0 + m2).sum()

    defects = {
        "traction resultant": np.abs(traction - np.eye(2)).max(),
        "energy orthogonality": np.abs(energy).max(),
        "bending charge": abs(charge - 1.0),
        "bending moment": np.abs(moment).max(),
        "gradient charge": np.abs(grad_charge).max(),
        "biorthogonality": np.abs(biorth - np.eye(2)).max(),
    }
    return IdentityReport(radius=r, traction_identity=traction,
                          energy_orthogonality=energy, bending_charge=charge,
                          bending_moment=moment, gradient_charge=grad_charge,
                          biorthogonality=biorth, defects=defects)


def normalize_membrane(mem: FundamentalMembrane, A0) -> FundamentalMembrane:
    """Shift psi' by a constant matrix so the drift-corrected energy pairing
    vanishes.  The raw pairing slides by -ln(r) Psi' between contours;
    adding that drift back gives a contour-independent matrix, so the unit
    circle serves as the quadrature contour."""
    n = mem.n
    theta = TWO_PI * np.arange(n) / n
    _, T = _energy_pairing(mem, A0, 1.0, theta)
    # shifting Phi' by C changes the pairing by C^T (-int N' Phi') = -C^T
    psi = mem.psi.copy()
    C = T.T
    for i in range(2):
        for j in range(2):
            psi[i, j, 0] += C[i, j]
    return FundamentalMembrane(Psi=mem.Psi.copy(), psi=psi, n=n)
