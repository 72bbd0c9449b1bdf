"""Statements of the paper that only the tests check.

No command reports them, so they live here rather than in ``src/qadhm``,
where every command would compile them.  Each is a function of exact data
that returns its verdict or the computed quantities; the tests in
``test_acceptance.py`` and the per-module test files assert on them.

The Hodge star used by ``laplace_via_star`` is *1 = q^-1 vol with
vol = dx11^dx12^dx21^dx22; on 1-forms the four images -(1/[2]) dx_g ^
(3-word) as given by the pairing table; on 3-forms the inverse of the
1-form star; on 4-forms f.vol -> q f.  The degree-2 star is not defined.
"""

import random
from fractions import Fraction
from functools import cache

from qadhm.adhm import classify, is_costable
from qadhm.chern import chi_twist
from qadhm.echelon import QRat
from qadhm.exactcore import (ADHMError, ComplexADHMDatum, Matrix,
                             _unit_column_block, is_complex_solution)
from qadhm.krylov import is_stable
from qadhm.monad import VARS, product_coefficients
from qadhm.qcalculus import (CalculusError, P_EXPONENTS, derive_table,
                             eigenvalue_tilde, partials)
from qadhm.qinstanton import (_monomials_upto, build_q_ops,
                              truncated_matrix)
from qadhm.qspacetime import (HarmonicIndex, NCPoly, X_NAMES, Y_NAMES,
                              add_to, basis_element, det_x, engine,
                              harmonic, monomials_of_degree)
from qadhm.scalars import GaussRational, QLaurent, qint

from forms_oracle import NCForm, d as exterior_d
from helpers import (bars, is_real_solution, pencil_residue, pencil_scalar,
                     qrat_as_qlaurent, small_gauss, submatrix)

_ZERO = GaussRational(0)
_ONE = GaussRational(1)
_R_ONE = QRat.one()
_R_ZERO = QRat.zero()
VOL_WORD = (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# real data
# ---------------------------------------------------------------------------

def real_stratify(d, xi):
    """One of "stable", "costable", "regular", "irregular" for a real
    solution at level xi; rejects non-solutions."""
    if not is_real_solution(d, xi):
        raise ADHMError("real_stratify: datum does not solve the equations "
                        f"at xi={xi}")
    stable = is_stable(d.B1, d.B2, d.i)[0]
    costable = is_costable(d.B1, d.B2, d.j)[0]
    if stable and costable:
        return "regular"
    if stable:
        return "stable"
    if costable:
        return "costable"
    return "irregular"


# ---------------------------------------------------------------------------
# monads
# ---------------------------------------------------------------------------

def normalize_monad(alpha, beta):
    """Recover a datum from a pair of linear pencils with beta*alpha = 0,
    each the table VARS -> coefficient matrix that ``Monad`` holds.

    Requires the product of the x/y coefficient blocks beta_1*alpha_2 to be
    invertible ("degenerate at infinity" otherwise) and the common kernel of
    beta_1, beta_2 to have dimension r = cols - 2c.  Changes basis on the
    middle term by T = [alpha_1 | alpha_2 | kernel basis] and rescales beta
    by (beta_1*alpha_2)^-1, after which the x/y coefficients take the
    standard unit forms and the datum is read off the z/w coefficients.
    The recovered datum always solves the quadratic equations.
    """
    c = beta["x"].rows
    n = beta["x"].cols
    r = n - 2 * c
    if r < 1 or (alpha["x"].rows, alpha["x"].cols) != (n, c):
        raise ADHMError("pencil shapes are not of monad type")
    bad = [uv for uv, m in product_coefficients(beta, alpha).items()
           if not m.is_zero()]
    if bad:
        raise ADHMError(f"not a monad: beta*alpha has nonzero "
                        f"coefficients at {bad}")

    a1, a2 = alpha["x"], alpha["y"]
    b1, b2 = beta["x"], beta["y"]
    ident_c = Matrix.identity(c, _ONE, _ZERO)
    h = (b1 * a2).solve(ident_c)
    if h is None:
        raise ADHMError("degenerate at infinity: beta_1*alpha_2 is "
                        "singular")
    wbasis = Matrix.vstack([b1, b2]).kernel()
    if wbasis.cols != r:
        raise ADHMError("degenerate at infinity: the common kernel of "
                        f"beta_1, beta_2 has dimension {wbasis.cols}, "
                        f"expected {r}")
    t = Matrix.hstack([a1, a2, wbasis])
    tinv = t.solve(Matrix.identity(n, _ONE, _ZERO))
    if tinv is None:
        raise ADHMError("degenerate at infinity: [alpha_1 | alpha_2 | W] "
                        "is singular")

    anew = {v: tinv * alpha[v] for v in VARS}
    bnew = {v: h * beta[v] * t for v in VARS}
    assert anew["x"] == _unit_column_block(n, 0, c)
    assert anew["y"] == _unit_column_block(n, c, c)
    assert bnew["x"] == _unit_column_block(n, c, c).transpose()
    assert bnew["y"] == -_unit_column_block(n, 0, c).transpose()

    rows_all = list(range(n))
    B11 = submatrix(anew["z"], rows_all[:c], range(c))
    B12 = submatrix(anew["z"], rows_all[c:2 * c], range(c))
    j1 = submatrix(anew["z"], rows_all[2 * c:], range(c))
    B21 = submatrix(anew["w"], rows_all[:c], range(c))
    B22 = submatrix(anew["w"], rows_all[c:2 * c], range(c))
    j2 = submatrix(anew["w"], rows_all[2 * c:], range(c))
    i1 = submatrix(bnew["z"], range(c), rows_all[2 * c:])
    i2 = submatrix(bnew["w"], range(c), rows_all[2 * c:])

    # beta*alpha = 0 forces the beta-side B blocks to agree with the
    # alpha-side ones; keep that as an internal consistency check.
    assert submatrix(bnew["z"], range(c), rows_all[:c]) == -B12
    assert submatrix(bnew["z"], range(c), rows_all[c:2 * c]) == B11
    assert submatrix(bnew["w"], range(c), rows_all[:c]) == -B22
    assert submatrix(bnew["w"], range(c), rows_all[c:2 * c]) == B21

    d = ComplexADHMDatum(c, r, B11, B12, B21, B22, i1, i2, j1, j2)
    assert is_complex_solution(d)
    return d


def find_intertwiner(d_new, d_old, seed=0, attempts=64):
    """Invertible (gV, gW) with B'_kl gV = gV B_kl, i'_k gW = gV i_k and
    j'_k gV = gW j_k, exhibiting d_new = (gV, gW) . d_old; None if the
    solution space contains no invertible pair among sampled combinations."""
    if (d_new.c, d_new.r) != (d_old.c, d_old.r):
        return None
    c, r = d_old.c, d_old.r
    nv, nw = c * c, r * r
    b_pairs = [(d_new.B11, d_old.B11), (d_new.B12, d_old.B12),
               (d_new.B21, d_old.B21), (d_new.B22, d_old.B22)]
    i_pairs = [(d_new.i1, d_old.i1), (d_new.i2, d_old.i2)]
    j_pairs = [(d_new.j1, d_old.j1), (d_new.j2, d_old.j2)]
    eye_v, eye_w = (Matrix.identity(n, _ONE, _ZERO) for n in (c, r))
    # the equations B' gV - gV B = 0, i' gW - gV i = 0 and j' gV - gW j = 0,
    # linear in the unknowns (gV, gW); X -> L*X*R is L (x) R^T
    system = Matrix.vstack(
        [Matrix.hstack([bn.kron(eye_v) - eye_v.kron(bo.transpose()),
                        Matrix.zero(nv, nw, _ZERO)]) for bn, bo in b_pairs]
        + [Matrix.hstack([-eye_v.kron(io.transpose()), inew.kron(eye_w)])
           for inew, io in i_pairs]
        + [Matrix.hstack([jn.kron(eye_v), -eye_w.kron(jo.transpose())])
           for jn, jo in j_pairs])
    ker = system.kernel()
    if ker.cols == 0:
        return None
    rng = random.Random(seed)
    for _ in range(attempts):
        coefs = [small_gauss(rng, 3, False)
                 for _ in range(ker.cols)]
        vec = [_ZERO] * (nv + nw)
        for t in range(ker.cols):
            for k in range(nv + nw):
                vec[k] = vec[k] + coefs[t] * ker[k, t]
        gv = Matrix(c, c, [[vec[a * c + b] for b in range(c)]
                           for a in range(c)])
        gw = Matrix(r, r, [[vec[nv + a * r + b] for b in range(r)]
                           for a in range(r)])
        if gv.rank() == c and gw.rank() == r:
            return gv, gw
    return None


class ChernClass:
    """Element a0 + a1*H + a2*H^2 + a3*H^3 of Q[H]/(H^4): the Chern
    characters on projective three-space, and the ch*td route to Euler
    characteristics that ``chi_twist`` is checked against."""

    __slots__ = ("a",)

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        object.__setattr__(self, "a", (Fraction(a0), Fraction(a1),
                                       Fraction(a2), Fraction(a3)))

    def __setattr__(self, *a):
        raise AttributeError("ChernClass is immutable")

    @classmethod
    def line(cls, k):
        """exp(k*H) truncated: the character of the twisting sheaf O(k)."""
        k = Fraction(k)
        return cls(1, k, k * k / 2, k ** 3 / 6)

    @classmethod
    def todd(cls):
        return cls(1, 2, Fraction(11, 6), 1)

    def __eq__(self, other):
        return isinstance(other, ChernClass) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __add__(self, other):
        return ChernClass(*(s + o for s, o in zip(self.a, other.a)))

    def __sub__(self, other):
        return ChernClass(*(s - o for s, o in zip(self.a, other.a)))

    def __neg__(self):
        return ChernClass(*(-s for s in self.a))

    def scale(self, k):
        k = Fraction(k)
        return ChernClass(*(s * k for s in self.a))

    def __mul__(self, other):
        out = [Fraction(0)] * 4
        for s, u in enumerate(self.a):
            if not u:
                continue
            for t in range(4 - s):
                out[s + t] += u * other.a[t]
        return ChernClass(*out)

    def chi(self):
        """H^3 coefficient of self * td: the Euler characteristic of a sheaf
        with this character."""
        return (self * ChernClass.todd()).a[3]

    def __str__(self):
        names = ["", "H", "H^2", "H^3"]
        parts = []
        for coef, name in zip(self.a, names):
            if not coef:
                continue
            if not name:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"ChernClass({self})"


def chern_of_monad(r, c):
    """Character of the monad cohomology: (2c+r)*ch(O) - c*ch(O(-1)) -
    c*ch(O(1)), which collapses to r - c*H^2."""
    if r < 0 or c < 0:
        raise ValueError("r and c must be nonnegative")
    out = (ChernClass(2 * c + r)
           - ChernClass.line(-1).scale(c) - ChernClass.line(1).scale(c))
    assert out == ChernClass(r, 0, -c, 0)
    return out


def suite_to_json(report):
    """JSON-ready copy of an appendix_b_suite report."""
    def conv(v):
        if isinstance(v, (ChernClass, Fraction)):
            return str(v)
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        return v
    return {k: conv(v) for k, v in report.items()}


def appendix_b_suite(r, c):
    """Euler-characteristic audit for the monad sheaf E with ch = r - c*H^2.

    Recomputes, from the exterior powers of the cotangent Euler sequence,

      ch(cotangent)        = 4*ch(O(-1)) - 1
      chi(E(-1))
      chi(E tensor cotangent)        = 4*chi(E(-1)) - chi(E)
      chi(E tensor 2-forms(1))       = 4*chi(E(-2)) - chi(E(-3))

    with each chi also taken through the ch*td pairing (the two routes are
    asserted equal).  Each quantity is compared against a quoted closed
    form; the quoted H^3 coefficient of the cotangent character (+2/3) and
    the quoted middle characteristic (-c-2r) fail the recomputation, which
    yields -2/3 and -(2c+r); the mismatches are reported, not adopted.
    Also reports the ideal-sheaf comparison for r = 1: the character of the
    ideal sheaf of 2c disjoint lines, 1 - 2c*H^2 + 2c*H^3, differs from
    1 - c*H^2 whenever c >= 1.
    """
    ch_e = chern_of_monad(r, c)

    ch_cot = ChernClass.line(-1).scale(4) - ChernClass(1)
    assert ch_cot == ChernClass(3, -4, 2, Fraction(-2, 3))
    quoted_ch_cot = ChernClass(3, -4, 2, Fraction(2, 3))

    chi_e_minus1 = chi_twist(r, c, -1)
    chi_e_cot = 4 * chi_twist(r, c, -1) - chi_twist(r, c, 0)
    assert chi_e_cot == (ch_e * ch_cot).chi()
    chi_e_two_forms_1 = 4 * chi_twist(r, c, -2) - chi_twist(r, c, -3)
    ch_two_forms_1 = (ChernClass.line(-2).scale(4) - ChernClass.line(-3))
    assert chi_e_two_forms_1 == (ch_e * ch_two_forms_1).chi()

    quoted = {"chi_E_minus1": Fraction(-c),
              "chi_E_cotangent": Fraction(-c - 2 * r),
              "chi_E_two_forms_1": Fraction(-c)}

    ch_line_curve = ChernClass(0, 0, 1, 0)
    # fix the H^3 part of the character of a line so that chi = 1
    ch_line_curve = ChernClass(0, 0, 1, 1 - ch_line_curve.chi())
    assert ch_line_curve.chi() == 1
    ch_ideal = ChernClass(1) - ch_line_curve.scale(2 * c)
    assert ch_ideal == ChernClass(1, 0, -2 * c, 2 * c)
    ch_rank_one = chern_of_monad(1, c)
    diff = ch_ideal - ch_rank_one

    return {
        "r": r, "c": c,
        "ch_E": ch_e,
        "ch_cotangent": {"value": ch_cot, "quoted": quoted_ch_cot,
                         "match": ch_cot == quoted_ch_cot},
        "chi_E_minus1": {"value": chi_e_minus1,
                         "quoted": quoted["chi_E_minus1"],
                         "match": chi_e_minus1 == quoted["chi_E_minus1"]},
        "chi_E_cotangent": {"value": chi_e_cot,
                            "quoted": quoted["chi_E_cotangent"],
                            "match": chi_e_cot == quoted["chi_E_cotangent"],
                            "quoted_ch_route": (ch_e * quoted_ch_cot).chi()},
        "chi_E_two_forms_1": {"value": chi_e_two_forms_1,
                              "quoted": quoted["chi_E_two_forms_1"],
                              "match": (chi_e_two_forms_1
                                        == quoted["chi_E_two_forms_1"])},
        "ideal_sheaf": {"ch_ideal_2c_lines": ch_ideal,
                        "ch_rank_one_monad": ch_rank_one,
                        "difference": diff,
                        "obstructed": bool(c >= 1 and diff != ChernClass())},
    }


# ---------------------------------------------------------------------------
# the chart algebras
# ---------------------------------------------------------------------------

# q-commutation exponents of det(x) against the generators:
# det * x_g = q^DET_TWIST[g] * x_g * det
DET_TWIST = (0, 2, -2, 0)


def det_commutators():
    """Verify det*x_g = q^t(g)*x_g*det for all generators; return the report."""
    d = det_x()
    report = {}
    for g, name in enumerate(X_NAMES):
        xg = NCPoly.gen("I", g)
        lhs = d * xg
        rhs = (xg * d).scale(QLaurent({DET_TWIST[g]: 1}))
        report[name] = {"exponent": DET_TWIST[g], "ok": lhs == rhs}
    return report


def det_mult_rank(d) -> bool:
    """Left multiplication by det(x): degree-d slice -> degree-(d+2) slice is
    injective (full column rank).

    Two independent certificates:
    1. structural: det * m = q^(2 n12) * (m + e11 + e22)  +  (lower term),
       where the second term has the same n11; the map sending each source
       monomial to its lead target (n11+1, n12, n21, n22+1) is injective and
       the lead coefficient is a unit, so the slice matrix is echelon after
       ordering rows by descending n11 -- full rank over the fraction field.
    2. exact cross-check: the rank of the slice matrix itself over the
       rational function field Q(i)(q).
    """
    det = det_x()
    monos = monomials_of_degree(d)
    cols = []
    for m in monos:
        img = det * NCPoly("I", {m: _ONE})
        lead = (m[0] + 1, m[1], m[2], m[3] + 1)
        c_lead = img.terms.get(lead)
        if c_lead is None or len(c_lead.terms) != 1:
            return False
        for t in img.terms:
            if t != lead and t[0] >= lead[0]:
                return False
        cols.append(img)
    mat = slice_matrix(cols, d + 2)
    return mat.rank() == len(monos)


def harmonic_Y(idx: HarmonicIndex) -> NCPoly:
    """Y^l_{m,n}: coefficient of t^(l-m) in (y11 t + y12)^(l-n) (y21 t + y22)^(l+n)."""
    return pencil_residue(idx, "J", ("y11", "y12"), ("y21", "y22"),
                          idx.two_n, idx.two_m)


def basis_indices_for_degree(d):
    """All (k, l, m, n) with 2k + 2l = d, |m|,|n| <= l."""
    out = []
    for two_l in range(d % 2, d + 1, 2):
        k = (d - two_l) // 2
        for two_m in range(-two_l, two_l + 1, 2):
            for two_n in range(-two_l, two_l + 1, 2):
                out.append(HarmonicIndex(two_l, two_m, two_n, k))
    return out


def basis_independence(d) -> bool:
    """The elements det^k X^l with 2k+2l = d: right count and full slice rank.

    The rank is the exact rank of the slice matrix over the rational
    function field Q(i)(q); full rank with a count equal to the slice
    dimension makes them a basis.  The classical limit q = 1 is checked
    separately.
    """
    idxs = basis_indices_for_degree(d)
    if len(idxs) != dimension_of_degree(d):
        return False
    polys = [basis_element(i) for i in idxs]
    mat = slice_matrix(polys, d)
    if mat.rank() != len(idxs):
        return False
    # classical limit q = 1: same matrices must keep full rank
    cls = mat.map(lambda c: c.subs_q1())
    return cls.rank() == len(idxs)


def y_mono_to_x(mono):
    """Rewrite an ordered y-monomial through y_kl' = det(x)^-1 x_kl'.

    Returns (qexp, detpow, xmono): the monomial equals
    q^qexp * det(x)^detpow * x-monomial, with the det power on the left.
    The x-monomial keeps the same exponents (the generator orders agree), and
    detpow = -(total degree).
    """
    qexp = 0
    n12 = n21 = 0
    placed = 0
    for g in range(4):
        for _ in range(mono[g]):
            # move this letter's det^-1 left past the letters already placed
            qexp += -2 * (n21 - n12)
            if g == 1:
                n12 += 1
            elif g == 2:
                n21 += 1
            placed += 1
    return qexp, -placed, tuple(mono)


def oast_check(idx: HarmonicIndex):
    """Proportionality det(x)^k X^l_{m,n} = lambda * det(y)^(-k-2l) Y^l_{m,n}.

    Both sides are reduced to the carrier form det(x)^k * (chart-I polynomial
    of degree 2l); the function returns the single scalar lambda, raising
    ValueError (with the offending monomial pair) if no single scalar works.
    """
    X = harmonic(HarmonicIndex(idx.two_l, idx.two_m, idx.two_n))
    Y = harmonic_Y(HarmonicIndex(idx.two_l, idx.two_m, idx.two_n))
    if X.is_zero() or Y.is_zero():
        raise ValueError("oast_check needs an in-range index")
    # det(y)^(-k-2l) Y = det(x)^(k+2l) Y;  substituting each y-monomial of Y
    # introduces det(x)^(-2l), leaving det(x)^k * (x-polynomial).
    sub = {}
    for mono, c in Y.terms.items():
        qexp, detpow, xmono = y_mono_to_x(mono)
        assert detpow == -sum(mono)
        add_to(sub, xmono, c * QLaurent({qexp: 1}))
    B = NCPoly("I", sub)
    if set(X.terms) != set(B.terms):
        extra = set(X.terms) ^ set(B.terms)
        raise ValueError(f"not proportional: support mismatch at {sorted(extra)[0]}")
    mono0 = next(iter(sorted(X.terms)))
    lam = QRat(X.terms[mono0], B.terms[mono0])
    for mono in X.terms:
        lhs = QRat(X.terms[mono], B.terms[mono])
        if lhs != lam:
            raise ValueError(
                f"not proportional: ratio at {mono} differs from {mono0}")
    try:
        return qrat_as_qlaurent(lam)
    except ValueError:
        return lam
def dimension_of_degree(d):
    return (d + 1) * (d + 2) * (d + 3) // 6


def slice_matrix(polys, degrees) -> Matrix:
    """Coefficient matrix: rows = monomials of the given degrees, cols = polys."""
    if isinstance(degrees, int):
        degrees = [degrees]
    monos = [m for d in degrees for m in monomials_of_degree(d)]
    zero = QLaurent.zero()
    return Matrix(len(monos), len(polys),
                  [[p.terms.get(m, zero) for p in polys] for m in monos])


# ---------------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------------

def anticommutation_audit(table):
    """Residual of dx_b^dx_a + dx_a^dx_b for the four crossed-proof pairs.

    For three pairs the residual vanishes; for (dx21, dx12) it equals
    (q^2-1)(dx11^dx22 - dx12^dx21), so that pair does not anticommute.
    """
    out = {}
    for (b, a) in ((2, 1), (2, 0), (3, 1), (3, 0)):
        acc = {(a, b): QLaurent.one()}
        for coeff, pair in table.wedge_rules[(b, a)]:
            add_to(acc, pair, coeff)
        residual = {k: c for k, c in acc.items() if c}
        out[f"d{X_NAMES[b]}^d{X_NAMES[a]}"] = {
            "anticommutes": not residual,
            "residual": {f"d{X_NAMES[c]}^d{X_NAMES[d]}": str(c2)
                         for (c, d), c2 in sorted(residual.items())},
        }
    return out


def delta_op(f: NCPoly, table) -> NCPoly:
    """Delta f = sum (del_g f) x_g (right multiplication by the generator)."""
    out = NCPoly.zero("I")
    for g, pg in enumerate(partials(f, table)):
        out = out + pg * NCPoly.gen("I", g)
    return out


def cech_exponents(idx: HarmonicIndex):
    """Inverse of cech_index on in-range indices with k = 0."""
    if idx.k != 0 or not idx.in_range():
        raise ValueError("cocycle monomials correspond to in-range k=0 indices")
    lm = (idx.two_l - idx.two_m) // 2
    lp = (idx.two_l + idx.two_m) // 2
    ln = (idx.two_l - idx.two_n) // 2
    lq = (idx.two_l + idx.two_n) // 2
    return (lm, lp, -(ln + 1), -(lq + 1))


def delta_eigenvalue(two_l, p_choice="q") -> QLaurent:
    """Delta X^l = p^(2l-1) [2l] X^l."""
    p_exp = P_EXPONENTS[p_choice]
    return QLaurent.q_power(p_exp * (two_l - 1)) * qint(two_l)


def conjugation_identity_check(k, two_l, p_choice="q") -> bool:
    """p^(2k+2l-3)[k][k+2l+1] = p^-8 p^(-2k''-2l+3)[k''][k''+2l+1],
    with k'' = -k - 2l - 1 (the eigenvalue form of the chart conjugation)."""
    p_exp = P_EXPONENTS[p_choice]
    lhs = eigenvalue_tilde(k, two_l, p_choice)
    k2 = -k - two_l - 1
    rhs = (QLaurent.q_power(p_exp * (-8 - 2 * k2 - two_l + 3))
           * qint(k2) * qint(k2 + two_l + 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# forms and the Hodge star
# ---------------------------------------------------------------------------

def left_mul(form, poly):
    """(poly) . form with poly an NCPoly over chart I."""
    if poly.chart != "I":
        raise ValueError("forms live over chart I")
    acc = {}
    for (w, m), c in form.terms.items():
        for m1, c1 in poly.terms.items():
            for m2, c2 in engine("I").mul_mono_mono(m1, m).items():
                add_to(acc, (w, m2), c * QRat(c1 * c2))
    return NCForm(form.table, form.degree, acc)


def as_poly(form):
    """Degree-0 form as an NCPoly (coefficients must be Laurent)."""
    if form.degree != 0:
        raise ValueError("not a degree-0 form")
    return NCPoly("I", {m: qrat_as_qlaurent(c)
                        for (_, m), c in form.terms.items()})


@cache
def _star1_words(table):
    """{g: {sorted 3-word: QRat}} for *dx_g."""
    raw = {0: (0, 1, 2), 1: (1, 3, 0), 2: (2, 0, 3), 3: (3, 2, 1)}
    scale = -(_R_ONE / QRat(qint(2)))
    return {g: {w2: scale * QRat(c) for w2, c in table.wedge_norm(w).items()}
            for g, w in raw.items()}


@cache
def _star3_words(table):
    """{sorted 3-word: {g: QRat}}: the inverse of the 1-form star."""
    words = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    star = _star1_words(table)
    mat = Matrix(4, 4, [[star[g].get(w, _R_ZERO) for g in range(4)]
                        for w in words])
    inv = mat.solve(Matrix.identity(4, _R_ONE, _R_ZERO))
    if inv is None:
        raise CalculusError("the 1-form star is not invertible")
    return {w: {g: inv[(g, i)] for g in range(4) if inv[(g, i)]}
            for i, w in enumerate(words)}


def hodge_star(omega: NCForm) -> NCForm:
    table = omega.table
    deg = omega.degree
    if deg == 0:
        scale = QRat(QLaurent.q_power(-1))
        return NCForm(table, 4, {(VOL_WORD, m): c * scale
                                 for (_, m), c in omega.terms.items()})
    if deg == 1:
        star = _star1_words(table)
        acc = {}
        for ((g,), m), c in omega.terms.items():
            for w, cw in star[g].items():
                add_to(acc, (w, m), c * cw)
        return NCForm(table, 3, acc)
    if deg == 3:
        star = _star3_words(table)
        acc = {}
        for (w, m), c in omega.terms.items():
            for g, cg in star[w].items():
                add_to(acc, ((g,), m), c * cg)
        return NCForm(table, 1, acc)
    if deg == 4:
        scale = QRat(QLaurent.q_power(1))
        return NCForm(table, 0, {((), m): c * scale
                                 for (_, m), c in omega.terms.items()})
    raise CalculusError("the degree-2 Hodge star is not defined here")


def laplace_via_star(f: NCPoly, table) -> NCPoly:
    """box f computed as * d * d f (must agree with laplacian)."""
    out = hodge_star(exterior_d(hodge_star(exterior_d(f, table))))
    return as_poly(out)


# ---------------------------------------------------------------------------
# the module operators
# ---------------------------------------------------------------------------

def homogeneous_part(p, degree):
    """The terms of the polynomial p of the given degree."""
    return NCPoly(p.chart, {m: c for m, c in p.terms.items()
                            if sum(m) == degree})


def beta_p_alpha_q(d, P, Q, chart="I"):
    """The pencil product beta_P alpha_Q of a solution datum.

    For solutions every such product is the scalar multiple
    (p1 q2 - p2 q1) * beta_1 alpha_2; the collapse is asserted before the
    product is returned.
    """
    p1, p2 = (pencil_scalar(v) for v in P)
    q1, q2 = (pencil_scalar(v) for v in Q)
    if (not p1 and not p2) or (not q1 and not q2):
        raise ADHMError("pencil parameters must not both vanish")
    if not is_complex_solution(d):
        raise ADHMError("pencil products collapse only for solutions")
    a1, a2, b1, b2 = build_q_ops(d, chart)
    prod = (b1.scale(p1) + b2.scale(p2)) * (a1.scale(q1) + a2.scale(q2))
    factor = p1 * q2 - p2 * q1
    if prod != (b1 * a2).scale(factor):
        raise ADHMError("pencil product failed to collapse")
    return prod


def xi_operator(d, chart="I"):
    """Xi = beta_1 alpha_2, the only pencil product surviving on solutions."""
    a1, a2, b1, b2 = build_q_ops(d, chart)
    return b1 * a2


def xi_leading(d):
    """True when the degree-2 part of Xi is det(x) times the identity of V."""
    xi = xi_operator(d, "I")
    det = det_x()
    zero = NCPoly.zero("I")
    for u in range(d.c):
        for v in range(d.c):
            want = det if u == v else zero
            if homogeneous_part(xi[u, v], 2) != want:
                return False
    return True


def kernel_slice_basis(d, dmax, chart="I"):
    """Basis of ker(beta-bar) intersected with the degree <= dmax slice.

    The target cap dmax+1 captures the image completely, so the kernel of
    the truncated matrix is the exact degree-capped kernel of the module
    map.  Vectors are returned with coefficients cleared to Laurent
    polynomials."""
    _, bbar = bars(*build_q_ops(d, chart))
    mat = truncated_matrix(bbar, dmax, dmax + 1)
    ker = mat.kernel()
    src = _monomials_upto(dmax)
    n = len(src)
    one = QLaurent.one()
    out = []
    for col in range(ker.cols):
        coeffs = [ker[i, col] for i in range(ker.rows)]
        common = one
        for c in coeffs:
            if c and c.den != one:
                common = common * c.den
        scale = QRat(common)
        vec = []
        for a in range(bbar.cols):
            terms = {}
            for s, mono in enumerate(src):
                c = coeffs[a * n + s]
                if c:
                    cleared = c * scale
                    if cleared.den != one:
                        raise ADHMError(
                            "failed to clear kernel denominators")
                    terms[mono] = cleared.num
            vec.append(NCPoly(chart, terms))
        out.append(vec)
    return out


def chart_j_pattern(d):
    """Structural mirror of the curvature shape over chart J.

    No wedge calculus is derived for the y-generators, so this checks the
    differential pattern symbolically: every block of the two stacked
    operators is a scalar block plus a single signed generator (or
    constant), the W row and column carry no generators, and the patterns
    match the chart-J operator layout."""
    abar, bbar = bars(*build_q_ops(d, "J"))
    y11, y12, y21, y22 = Y_NAMES
    want_a = [[(y22, -1), (y21, 1)], [(y12, 1), (y11, -1)], [None, None]]
    want_b = [[(y11, -1), (y21, -1), None], [(y12, -1), (y22, -1), None]]

    def pattern(op, bounds_r, bounds_c, want):
        found = []
        for a in range(len(bounds_r) - 1):
            row = []
            for b in range(len(bounds_c) - 1):
                expect = want[a][b]
                label = "0"
                for i in range(bounds_r[a], bounds_r[a + 1]):
                    for j in range(bounds_c[b], bounds_c[b + 1]):
                        lin = homogeneous_part(op[i, j], 1)
                        diag = (i - bounds_r[a]) == (j - bounds_c[b])
                        if not diag or expect is None:
                            if not lin.is_zero():
                                raise ADHMError(
                                    "unexpected generator off the diagonal")
                            continue
                        name, sign = expect
                        gen = NCPoly.gen("J", name)
                        if lin != (gen if sign == 1 else gen.scale(sign)):
                            raise ADHMError(
                                "chart-J generator pattern mismatch")
                        label = ("+" if sign == 1 else "-") + "d" + name
                row.append(label)
            found.append(row)
        return found

    bounds3 = [0, d.c, 2 * d.c, 2 * d.c + d.r]
    bounds2 = [0, d.c, 2 * d.c]
    return {
        "alpha_bar": pattern(abar, bounds3, bounds2, want_a),
        "beta_bar": pattern(bbar, bounds2, bounds3, want_b),
        "w_blocks_constant": True,
    }


def _as_zero_form(table, comp):
    if isinstance(comp, NCForm):
        if comp.degree != 0:
            raise ADHMError("projection input must have form degree 0")
        return comp
    if isinstance(comp, NCPoly):
        return NCForm.from_poly(table, comp)
    raise ADHMError("projection input must be chart-I polynomials")


def _flatten_form(form, monos, pos):
    """Coefficient vector of a 0-form on the monomial window; terms above
    the window are deliberately dropped (the solve matches coefficients
    degree by degree up to the cap)."""
    out = [QRat.zero()] * len(monos)
    for (word, mono), c in form.terms.items():
        if word != ():
            raise ADHMError("projection components must be 0-forms")
        k = pos.get(mono)
        if k is not None:
            out[k] = c
    return out


def projection_truncated(d, psi, dmax):
    """P(psi) = psi - alpha-bar Xi^-1 beta-bar psi by a degree-capped solve.

    Xi raises degree (its top part is det(x) times the identity), so it has
    no module inverse and P only exists after inverting the determinant;
    the computable version works degree by degree: the two components of
    Xi^-1 beta-bar psi are found as solutions phi, supported in degree
    <= dmax, of Xi phi = (beta-bar psi)_k with coefficients matched on
    every monomial of degree <= dmax.  For a regular datum with Xi's
    constant part invertible the window solve is a forward recursion with a
    unique solution; inconsistency (possible when the constant part is
    singular) raises the truncation error.  The function then certifies
    that every coefficient of beta-bar P(psi) in degree <= dmax vanishes.
    When psi lies in the kernel, or in the image of alpha-bar within the
    cap, the residual vanishes exactly and P(psi) reproduces psi or 0
    exactly.  Idempotency holds within the window by the same recursion: a
    second application solves against a right-hand side with no
    coefficients below degree dmax+1, so its phi is zero and P(P(psi)) =
    P(psi).  Components come back as 0-forms with exact rational-function
    coefficients."""
    rep = classify(d)
    if not rep["regular"]:
        raise ADHMError("projection requires a regular datum")
    table = derive_table("q")
    comps = [_as_zero_form(table, c) for c in psi]
    if len(comps) != 2 * d.c + d.r:
        raise ADHMError("projection input has the wrong length")

    a1, a2, b1, b2 = build_q_ops(d, "I")
    abar, bbar = bars(a1, a2, b1, b2)
    xi = b1 * a2    # Xi, as xi_operator builds it
    rhs = [sum((left_mul(comps[j], bbar[v, j])
                for j in range(bbar.cols)), NCForm(table, 0, {}))
           for v in range(bbar.rows)]

    monos = _monomials_upto(dmax)
    tpos = {m: k for k, m in enumerate(monos)}
    n = len(monos)
    mat = truncated_matrix(xi, dmax, dmax).map(QRat)

    phi = []
    for blk in range(2):
        cols = [_flatten_form(rhs[blk * d.c + v], monos, tpos)
                for v in range(d.c)]
        b = Matrix(n * d.c, 1,
                   [[cols[v][k]] for v in range(d.c) for k in range(n)])
        sol = mat.solve(b)
        if sol is None:
            raise ADHMError(
                f"truncation insufficient: no degree <= {dmax} solution of "
                "the kernel-projection solve; raise dmax")
        for v in range(d.c):
            terms = {}
            for s, mono in enumerate(monos):
                c = sol[v * n + s, 0]
                if c:
                    terms[((), mono)] = c
            phi.append(NCForm(table, 0, terms))

    out = []
    for i in range(2 * d.c + d.r):
        acc = comps[i]
        for k in range(2 * d.c):
            acc = acc - left_mul(phi[k], abar[i, k])
        out.append(acc)

    for v in range(bbar.rows):
        check = sum((left_mul(out[j], bbar[v, j])
                     for j in range(bbar.cols)), NCForm(table, 0, {}))
        if any(sum(mono) <= dmax for (_, mono) in check.terms):
            raise ADHMError(
                "projection image left the kernel within the window")
    return out
