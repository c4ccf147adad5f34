"""Dimension reduction for the thin plate: ansatz operators and residuals.

A matrix differential operator W(zeta, grad_y) is stored as a symbol table:
a dict mapping in-plane derivative multi-indices (a, b) to 3x3 matrices of
zeta-polynomials, so that

    (W w)_i = sum_{a,b} sum_j table[(a,b)][i][j](zeta) * d1^a d2^b w_j .

The four ansatz operators W0..W3 expand a mid-surface displacement
w = (w1, w2, w3) into a three-dimensional field on the scaled plate
omega x (-1/2, 1/2).  W0..W2 are assembled from closed formulas; W3 is
constructed by solving constant-coefficient Neumann problems in zeta with
polynomial right-hand sides, which is also what produces the limit membrane
and bending operators: they are the solvability conditions of those cell
problems.  Everything here is exact; no floating point.

All of these operators have constant coefficients in y, so the work is done
on symbols: column j of a table, read as a PolyField in (s1, s2, zeta), is
the image of e_j exp(s.y), and d/dy_k acts on it as multiplication by s_k
(layer_operator_parts with symbol=True).  The cell problems are solved once
per input component, for all monomial inputs at once, and W3 is read back
by s-monomial.  The residual cascade F^0..F^5, G^{0..4,+-} is composed the
same way, once per material (AnsatzOperators.residual_tables), and
residual_report applies those tables to a given field.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple

from .elastic import (_to_exact_matrix, layer_operator_parts,
                      reduced_stiffness_exact)
from .polyfield import (INV_SQRT2, Poly, PolyField, Q2, SQRT2, lincomb,
                        mat_apply, mat_inv, mat_mul)

Q = Fraction


class ReductionError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# symbol-table plumbing
# ---------------------------------------------------------------------------

def _zero_mat():
    z = Poly.zero()
    return [[z, z, z] for _ in range(3)]


def _table_add(table, key, i, j, poly):
    if poly.is_zero():
        return
    if key not in table:
        table[key] = _zero_mat()
    table[key][i][j] = table[key][i][j] + poly


def _dy(w, a: int, b: int, cache: dict | None = None):
    """d1^a d2^b of each component of w; cache maps (a, b) to the
    derivatives already taken of the same w."""
    if cache is None:
        cache = {}
    key = (a, b)
    if key not in cache:
        if a:
            cache[key] = [p.diff(0) for p in _dy(w, a - 1, b, cache)]
        elif b:
            cache[key] = [p.diff(1) for p in _dy(w, 0, b - 1, cache)]
        else:
            cache[key] = list(w)
    return cache[key]


def apply_operator_table(table: Mapping, w: PolyField,
                         derivatives: dict | None = None) -> PolyField:
    """Apply a symbol table to w.  Pass the same derivatives dict to apply
    several tables to one w without differentiating it twice."""
    if derivatives is None:
        derivatives = {}
    pairs = ([], [], [])
    for (a, b), M in table.items():
        dw = _dy(w, a, b, derivatives)
        for i in range(3):
            for j in range(3):
                m = M[i][j]
                if m and dw[j]:
                    pairs[i].append((m, dw[j]))
    return PolyField([lincomb(p) for p in pairs])


# ---------------------------------------------------------------------------
# W0, W1, W2 from closed formulas
# ---------------------------------------------------------------------------

def _w0_table():
    t = {}
    _table_add(t, (0, 0), 2, 2, Poly.const(1))
    return t


def _w1_table():
    zeta = Poly.var(2)
    t = {}
    _table_add(t, (0, 0), 0, 0, Poly.const(1))
    _table_add(t, (0, 0), 1, 1, Poly.const(1))
    _table_add(t, (1, 0), 0, 2, -zeta)
    _table_add(t, (0, 1), 1, 2, -zeta)
    return t


def _poisson_coupling(Ae):
    """K = J^{-1} A_zz^{-1} A_zy with J = diag(2^{-1/2}, 2^{-1/2}, 1)."""
    Azz = [row[3:] for row in Ae[3:]]
    Azy = [row[:3] for row in Ae[3:]]
    Ji = [[SQRT2, 0, 0], [0, SQRT2, 0], [0, 0, Q2.of(1)]]
    return mat_mul(Ji, mat_mul(mat_inv(Azz), Azy))


def _w2_table(Ae):
    """Transverse corrector: K applied to the in-plane strain of W1's field.

    W2 w = K [ -zeta * Dprime(grad) w' + sqrt2 (zeta^2/2 - 1/24) D3(grad) w3 ].
    """
    K = _poisson_coupling(Ae)
    zeta = Poly.var(2)
    pm = -zeta
    pb = (zeta * zeta * Q(1, 2) - Poly.const(Q(1, 24))) * SQRT2
    t = {}
    # membrane strain Dprime(grad) w' = (d1 w1, d2 w2, (d2 w1 + d1 w2)/sqrt2)
    strain_cols = {
        (1, 0): [(0, 0, 1), (2, 1, INV_SQRT2)],   # d1: row0 <- w1, row2 <- w2
        (0, 1): [(1, 1, 1), (2, 0, INV_SQRT2)],   # d2: row1 <- w2, row2 <- w1
    }
    for key, contribs in strain_cols.items():
        for row, j, fac in contribs:
            for i in range(3):
                _table_add(t, key, i, j, pm * (K[i][row] * fac))
    # bending strain D3(grad) w3 = (d1^2/sqrt2, d2^2/sqrt2, d1 d2) w3
    bend_cols = {(2, 0): (0, INV_SQRT2), (0, 2): (1, INV_SQRT2), (1, 1): (2, 1)}
    for key, (row, fac) in bend_cols.items():
        for i in range(3):
            _table_add(t, key, i, 2, pb * (K[i][row] * fac))
    return t


# ---------------------------------------------------------------------------
# direct limit-operator symbol tables (for cross-checks and kirchhoff)
# ---------------------------------------------------------------------------

def membrane_table_direct(A0):
    """Second-order membrane operator from the reduced stiffness: the symbol
    expansion of Dprime(-grad)^T A0 Dprime(grad), as {(a,b): 2x2 coeffs}."""
    s1, s2 = Poly.var(0), Poly.var(1)
    Dp = [[s1, Poly.zero()], [Poly.zero(), s2],
          [s2 * INV_SQRT2, s1 * INV_SQRT2]]
    P = [[Poly.zero(), Poly.zero()] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            acc = Poly.zero()
            for r in range(3):
                for c in range(3):
                    acc = acc + Dp[r][i] * Dp[c][j] * A0[r][c]
            P[i][j] = acc
    table = {}
    for a, b in ((2, 0), (1, 1), (0, 2)):
        M = [[-P[i][j].coeff(a, b, 0) for j in range(2)] for i in range(2)]
        if any(any(x for x in row) for row in M):
            table[(a, b)] = M
    return table


def bending_table_direct(A0):
    """Fourth-order bending operator (1/6) D3^T A0 D3 as {(a,b): coeff}."""
    s1, s2 = Poly.var(0), Poly.var(1)
    D3 = [s1 * s1 * INV_SQRT2, s2 * s2 * INV_SQRT2, s1 * s2]
    q = Poly.zero()
    for r in range(3):
        for c in range(3):
            q = q + D3[r] * D3[c] * A0[r][c]
    table = {}
    for a in range(5):
        b = 4 - a
        coef = q.coeff(a, b, 0) / 6
        if coef:
            table[(a, b)] = coef
    return table


def apply_membrane(table, w1: Poly, w2: Poly):
    out = [Poly.zero(), Poly.zero()]
    for (a, b), M in table.items():
        d = _dy([w1, w2], a, b)
        for i in range(2):
            for j in range(2):
                if M[i][j] and d[j]:
                    out[i] = out[i] + d[j] * M[i][j]
    return out


def apply_bending(table, w3: Poly) -> Poly:
    out = Poly.zero()
    for (a, b), c in table.items():
        out = out + _dy([w3], a, b)[0] * c
    return out


# ---------------------------------------------------------------------------
# W3 construction via through-thickness Neumann cell problems
# ---------------------------------------------------------------------------

class ResidualTables(NamedTuple):
    F: list                  # interior residual symbols F^0..F^5
    G_plus: list             # face residual symbols G^{0+}..G^{4+}
    G_minus: list            # face residual symbols G^{0-}..G^{4-}


@dataclass(frozen=True)
class AnsatzOperators:
    tables: tuple            # (W0, W1, W2, W3) symbol tables
    stiffness: tuple         # exact 6x6 entries
    reduced: tuple           # exact 3x3 reduced stiffness
    membrane: dict           # extracted second-order limit operator
    bending: dict            # extracted fourth-order limit operator

    @cached_property
    def residual_tables(self) -> ResidualTables:
        """Symbol tables of the residual cascade, composed once.

        F^q = sum_{p+k=q} L_k W^p and G^{q+-} = sum_{p+k=q} N_k+- W^p, with
        zeta = +-1/2 substituted in G.  Each is built from the symbol
        columns of W0..W3, so applying it with apply_operator_table gives
        the residual of any mid-surface field.
        """
        half = Q(1, 2)
        F = [{} for _ in range(6)]
        Gp = [{} for _ in range(5)]
        Gm = [{} for _ in range(5)]
        for j in range(3):
            f = [PolyField([0, 0, 0])] * 6
            gp = [PolyField([0, 0, 0])] * 5
            gm = [PolyField([0, 0, 0])] * 5
            for p, table in enumerate(self.tables):
                U = _symbol_column(table, j)
                for k in range(3):
                    f[p + k] = f[p + k] + layer_operator_parts(
                        self.stiffness, U, f"L{k}", symbol=True)
                for k in range(2):
                    gp[p + k] = gp[p + k] + layer_operator_parts(
                        self.stiffness, U, f"N{k}+", symbol=True)
                    gm[p + k] = gm[p + k] + layer_operator_parts(
                        self.stiffness, U, f"N{k}-", symbol=True)
            for q in range(6):
                _add_symbol_column(F[q], j, f[q])
            for q in range(5):
                _add_symbol_column(Gp[q], j, gp[q].subs_zeta(half))
                _add_symbol_column(Gm[q], j, gm[q].subs_zeta(-half))
        return ResidualTables(F=[_sorted_table(t) for t in F],
                              G_plus=[_sorted_table(t) for t in Gp],
                              G_minus=[_sorted_table(t) for t in Gm])


def _transverse_block(Ae):
    """Q = E3^T A E3 where E3 is the strain matrix of the thickness direction."""
    J = [[INV_SQRT2, 0, 0], [0, INV_SQRT2, 0], [0, 0, Q2.of(1)]]
    Azz = [row[3:] for row in Ae[3:]]
    return mat_mul(J, mat_mul(Azz, J))


def _symbol_column(table: Mapping, j: int) -> PolyField:
    """Column j of a symbol table as a PolyField in (s1, s2, zeta)."""
    comps = [Poly.zero(), Poly.zero(), Poly.zero()]
    for (a, b), M in table.items():
        s_ab = Poly.monomial(a, b, 0)
        for i in range(3):
            if M[i][j]:
                comps[i] = comps[i] + M[i][j] * s_ab
    return PolyField(comps)


def _s_coefficients(p: Poly) -> dict:
    """Split a symbol by s-monomial: {(a, b): zeta-polynomial}, sorted."""
    out: dict = {}
    for (a, b, c), v in sorted(p.terms.items()):
        out.setdefault((a, b), {})[(0, 0, c)] = v
    return {key: Poly(terms) for key, terms in out.items()}


def _first_s_monomial(p: Poly):
    """((a, b), zeta-coefficient) of the lowest s-monomial of a symbol."""
    return next(iter(_s_coefficients(p).items()))


def _add_symbol_column(table, j: int, field: PolyField) -> None:
    """Read a symbol column back into table entries (i, j) by s-monomial."""
    for i in range(3):
        for key, poly in _s_coefficients(field[i]).items():
            _table_add(table, key, i, j, poly)


def _sorted_table(table: dict) -> dict:
    return dict(sorted(table.items()))


def build_dimension_reduction(A) -> AnsatzOperators:
    """Assemble W0..W3 and extract the limit operators.

    The work is done on symbols: column j of W1 and W2 is a PolyField in
    (s1, s2, zeta), the image of e_j exp(s.y), and layer_operator_parts with
    symbol=True composes the operators on it, so each column covers every
    monomial input at once.  For each input component j the third-order
    corrector solves
        -Q U3'' = target - (L1 U2 + L2 U1)    on zeta in (-1/2, 1/2)
        +-Q U3'(+-1/2) = -(N1+- U2)|_{+-1/2}
    coefficient by coefficient in s, where target = (t1, t2, 0) is fixed by
    the solvability condition.  The s^(a,b) coefficients of t1, t2 are the
    membrane operator; the vertical solvability condition one order later
    gives the bending operator.  The homogeneous constant is fixed by zero
    zeta-average, and the W3 table is U3 read back by s-monomial.
    """
    Ae = _to_exact_matrix(A)   # binary floats convert to rationals exactly
    Aq = [[x.a if x.is_rational() else x for x in row] for row in Ae]
    try:
        A0 = reduced_stiffness_exact(Aq)
        w0, w1t, w2t = _w0_table(), _w1_table(), _w2_table(Ae)
        Qm = _transverse_block(Ae)
        Qinv = mat_inv(Qm)
    except ZeroDivisionError as exc:
        raise ReductionError(f"degenerate transverse stiffness block: {exc}")

    w3t: dict = {}
    membrane: dict = {}
    bending: dict = {}
    half = Q(1, 2)

    for j in range(3):
        U1 = _symbol_column(w1t, j)
        U2 = _symbol_column(w2t, j)
        L1U2 = layer_operator_parts(Ae, U2, "L1", symbol=True)
        L2U1 = layer_operator_parts(Ae, U1, "L2", symbol=True)
        n1p = layer_operator_parts(Ae, U2, "N1+", symbol=True) \
            .subs_zeta(half)
        n1m = layer_operator_parts(Ae, U2, "N1-", symbol=True) \
            .subs_zeta(-half)
        # solvability of the Neumann problem fixes the target
        t = [
            (L1U2[i] + L2U1[i]).integrate_zeta() + n1p[i] + n1m[i]
            for i in range(3)
        ]
        if not t[2].is_zero():
            (a, b), c = _first_s_monomial(t[2])
            raise ReductionError(
                f"vertical solvability defect for input "
                f"(component {j}, d1^{a} d2^{b}): {c!r}")
        # membrane extraction (in-plane inputs, second order)
        for i in range(2):
            for (a, b, _), c in sorted(t[i].terms.items()):
                if j == 2:
                    raise ReductionError(
                        "membrane/bending coupling should vanish, got "
                        f"{c!r} (component {j}, d1^{a} d2^{b}, row {i})")
                M = membrane.setdefault((a, b), [[Q2(), Q2()], [Q2(), Q2()]])
                M[i][j] = c
        # third-order corrector
        rhs = PolyField([
            t[0] - (L1U2[0] + L2U1[0]),
            t[1] - (L1U2[1] + L2U1[1]),
            -(L1U2[2] + L2U1[2]),
        ])
        U3dd = mat_apply(Qinv, [-p for p in rhs])
        U3d_lo = mat_apply(Qinv, list(n1m))   # U3'(-1/2) = Q^{-1} n1m
        U3d = []
        for i in range(3):
            F = U3dd[i].antiderivative_zeta()
            U3d.append(U3d_lo[i] + F - F.subs_zeta(-half))
        # top face condition must now hold identically
        for i in range(3):
            top = Qm[i][0] * U3d[0].subs_zeta(half) + \
                Qm[i][1] * U3d[1].subs_zeta(half) + \
                Qm[i][2] * U3d[2].subs_zeta(half)
            defect = top + n1p[i]
            if not defect.is_zero():
                (a, b), c = _first_s_monomial(defect)
                raise ReductionError(
                    f"face condition defect {c!r} "
                    f"(component {j}, d1^{a} d2^{b}, row {i})")
        U3 = []
        for i in range(3):
            F = U3d[i].antiderivative_zeta()
            F = F - F.subs_zeta(-half)
            U3.append(F - F.integrate_zeta())   # zero zeta-average
        U3 = PolyField(U3)
        # the symbol-table column of W3
        for i in range(3):
            for (a, b), c in _s_coefficients(U3[i]).items():
                if a + b > 3:
                    raise ReductionError(
                        "third corrector has symbols above order 3 "
                        f"(component {j}, d1^{a} d2^{b}, row {i})")
                _table_add(w3t, (a, b), i, j, c)
        # vertical solvability one order later: bending operator
        L1U3 = layer_operator_parts(Ae, U3, "L1", symbol=True)
        L2U2 = layer_operator_parts(Ae, U2, "L2", symbol=True)
        g4p = layer_operator_parts(Ae, U3, "N1+", symbol=True) \
            .subs_zeta(half)
        g4m = layer_operator_parts(Ae, U3, "N1-", symbol=True) \
            .subs_zeta(-half)
        v = (L1U3[2] + L2U2[2]).integrate_zeta() + g4p[2] + g4m[2]
        for (a, b, _), cv in sorted(v.terms.items()):
            if j != 2:
                raise ReductionError(
                    f"bending row couples to in-plane input: {cv!r} "
                    f"(component {j}, d1^{a} d2^{b})")
            bending[(a, b)] = cv

    return AnsatzOperators(
        tables=(w0, w1t, w2t, _sorted_table(w3t)),
        stiffness=tuple(tuple(r) for r in Ae),
        reduced=tuple(tuple(r) for r in A0),
        membrane=_sorted_table(membrane),
        bending=_sorted_table(bending),
    )


# ---------------------------------------------------------------------------
# applying the ansatz and the residual cascade
# ---------------------------------------------------------------------------

@dataclass
class AnsatzField:
    """h^{-3/2} sum_p h^p W^p w with rational h substituted.

    field holds the exact sum of h^p W^p w; the overall irrational prefactor
    h^{-3/2} is kept symbolic in prefactor_exponent and applied in eval().
    """
    field: PolyField
    h: Fraction
    prefactor_exponent: Fraction = Q(-3, 2)

    def eval(self, y1: float, y2: float, zeta: float):
        scale = float(self.h) ** float(self.prefactor_exponent)
        return [scale * c.eval(float(y1), float(y2), float(zeta))
                for c in self.field]


def apply_ansatz(ops: AnsatzOperators, w: PolyField, h=None):
    """Expand a mid-surface field; h=None returns the four exact terms."""
    terms = [apply_operator_table(t, w) for t in ops.tables]
    if h is None:
        return terms
    h = Q(h)
    out = terms[0]
    hp = Q(1)
    for p in (1, 2, 3):
        hp *= h
        out = out + terms[p] * hp
    return AnsatzField(field=out, h=h)


@dataclass
class ResidualReport:
    F: list                  # interior residuals F^0..F^5 (PolyField)
    G_plus: list             # face residuals G^{0+}..G^{4+} at zeta=+1/2
    G_minus: list            # face residuals at zeta=-1/2
    a15_ok: bool             # F^0..F^2 and G^{0..2,+-} vanish identically
    a16_ok: bool             # third-order interior/face structure
    a17_ok: bool             # averaged vertical equation gives the bending law
    membrane_rhs: list       # limit membrane operator applied to (w1, w2)
    bending_rhs: Poly        # limit bending operator applied to w3
    a17_integral: Poly       # int F3^4 dzeta + G3^{4+} + G3^{4-}


def residual_report(ops: AnsatzOperators, w: PolyField) -> ResidualReport:
    """Residual cascade of the ansatz applied to w, for the stiffness the
    operators were built from; the residuals come from ops.residual_tables.
    """
    tabs = ops.residual_tables
    dw: dict = {}
    F = [apply_operator_table(t, w, dw) for t in tabs.F]
    Gp = [apply_operator_table(t, w, dw) for t in tabs.G_plus]
    Gm = [apply_operator_table(t, w, dw) for t in tabs.G_minus]

    a15 = all(F[q].is_zero() for q in range(3)) and \
        all(Gp[q].is_zero() and Gm[q].is_zero() for q in range(3))

    mem = apply_membrane(ops.membrane, w[0], w[1])
    a16 = (F[3][0] == mem[0] and F[3][1] == mem[1] and F[3][2].is_zero()
           and Gp[3].is_zero() and Gm[3].is_zero())

    a17_int = F[4][2].integrate_zeta() + Gp[4][2] + Gm[4][2]
    bend = apply_bending(ops.bending, w[2])
    a17 = a17_int == bend

    return ResidualReport(F=F, G_plus=Gp, G_minus=Gm, a15_ok=a15,
                          a16_ok=a16, a17_ok=a17, membrane_rhs=mem,
                          bending_rhs=bend, a17_integral=a17_int)
