"""Monads on projective three-space built from instanton-type matrix data.

A datum (B11, B12, B21, B22, i1, i2, j1, j2) with c x c / c x r / r x c
blocks yields two pencils of matrices linear in homogeneous coordinates
(x, y, z, w):

  alpha = ( z*B11 + w*B21 + x*1 )            (2c+r) x c
          ( z*B12 + w*B22 + y*1 )
          ( z*j1  + w*j2        )

  beta  = ( -z*B12 - w*B22 - y*1 | z*B11 + w*B21 + x*1 | z*i1 + w*i2 )

The product beta*alpha expands to z^2*r1 + zw*r3 + w^2*r2 where r1, r2, r3
are the three quadratic residuals of the datum, so beta*alpha = 0 holds
identically iff the datum solves the equations.  The cohomology of the
resulting three-term complex is a sheaf whose local behaviour is read off
the pointwise ranks: beta is surjective everywhere iff the datum is stable
everywhere, and the points where alpha drops rank are the singular points
of the sheaf.  With B~1 = z*B11 + w*B21, B~2 = z*B12 + w*B22 and
j~ = z*j1 + w*j2, a point X = [x:y:z:w] is singular iff some v != 0 in
ker j~ has B~1 v = -x v and B~2 v = -y v.  On a solution B~1 and B~2
commute on the largest B~-invariant subspace inside ker j~, so they have a
joint eigenvector there iff it is nonzero: some X over [z:w] is singular
iff the triple is not costable at [z:w].  So the singular locus is read off
the stability taxonomy, with no point evaluated:

  regular everywhere      -> locally free   (no singular point)
  semiregular             -> reflexive      (finitely many points, over the
                                             [z:w] where costability fails)
  stable everywhere       -> torsion free   (a curve, over every [z:w])

``normalize_monad`` inverts the construction: given any exact pair of
linear pencils with beta*alpha = 0 and an invertible product of the x/y
coefficient blocks, it changes bases on the middle term so the x and y
coefficients take the standard unit forms above and reads the matrix datum
back off the z and w coefficients.

The Chern/Euler-characteristic calculus works in Q[H]/(H^4): the monad
gives ch(E) = r - c*H^2, Euler characteristics of twists come both from
ch(E(k))*td and from additivity over the three monad terms, and
``appendix_b_suite`` recomputes the cotangent-twist characteristics from
the Euler-sequence identities, comparing them against a small table of
quoted closed forms.  Two quoted entries fail the recomputation (the H^3
coefficient of the cotangent Chern character and the value of
chi(E tensor cotangent)); the suite reports both sides with match flags
rather than silently adopting either.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .datum import ComplexADHMDatum, complex_residuals, is_complex_solution
from .exactcore import GaussRational, Matrix, random_gauss

__all__ = [
    "MonadError", "Monad", "ChernClass", "SheafClassification", "Pencil",
    "VARS", "monad_pencils", "product_coefficients", "build_monad",
    "check_exactness_at", "classify_sheaf",
    "normalize_monad", "find_intertwiner",
    "chern_of_monad", "chi_line", "chi_twist", "appendix_b_suite",
]

VARS = ("x", "y", "z", "w")

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


class MonadError(ValueError):
    """Malformed pencils, non-solutions, and degenerate normalizations."""


# ---------------------------------------------------------------------------
# linear pencils in named formal variables
# ---------------------------------------------------------------------------

class Pencil:
    """sum_v coeffs[v]*v + const, all Matrix of equal shape."""

    __slots__ = ("vars", "coeffs", "const")

    def __init__(self, vars, coeffs, const):
        self.vars = list(vars)
        self.coeffs = dict(coeffs)
        self.const = const
        shape = (const.rows, const.cols)
        for v in self.vars:
            m = self.coeffs[v]
            if (m.rows, m.cols) != shape:
                raise ValueError(f"pencil coefficient {v} has wrong shape")

    @property
    def rows(self):
        return self.const.rows

    @property
    def cols(self):
        return self.const.cols

    def evaluate(self, point) -> Matrix:
        """point: dict var->scalar, or sequence aligned with self.vars."""
        if not isinstance(point, dict):
            point = dict(zip(self.vars, point))
        out = self.const
        for v in self.vars:
            out = out + self.coeffs[v].scale(point[v])
        return out

    def to_json(self):
        obj = {v: self.coeffs[v].to_json() for v in self.vars}
        obj["const"] = self.const.to_json()
        return obj

    @classmethod
    def from_json(cls, obj, vars):
        coeffs = {v: Matrix.from_json(obj[v]) for v in vars}
        const = Matrix.from_json(obj["const"])
        return cls(vars, coeffs, const)


# ---------------------------------------------------------------------------
# building monads from data
# ---------------------------------------------------------------------------

def _unit_column_block(total, offset, c):
    """total x c matrix holding an identity block at the given row offset."""
    m = [[_ZERO] * c for _ in range(total)]
    for k in range(c):
        m[offset + k][k] = _ONE
    return Matrix(total, c, m)


def monad_pencils(d):
    """The (alpha, beta) pencils of a datum, without any solution check."""
    c, r = d.c, d.r
    n = 2 * c + r
    alpha = Pencil(VARS, {
        "x": _unit_column_block(n, 0, c),
        "y": _unit_column_block(n, c, c),
        "z": Matrix.vstack([d.B11, d.B12, d.j1]),
        "w": Matrix.vstack([d.B21, d.B22, d.j2]),
    }, Matrix.zero(n, c, _ZERO))
    beta = Pencil(VARS, {
        "x": _unit_column_block(n, c, c).transpose(),
        "y": -_unit_column_block(n, 0, c).transpose(),
        "z": Matrix.hstack([-d.B12, d.B11, d.i1]),
        "w": Matrix.hstack([-d.B22, d.B21, d.i2]),
    }, Matrix.zero(c, n, _ZERO))
    return alpha, beta


def product_coefficients(beta, alpha):
    """Coefficients of the quadratic form beta*alpha: a dict mapping each
    unordered variable pair (u, v) with u <= v to its matrix coefficient."""
    out = {}
    for a, u in enumerate(VARS):
        for v in VARS[a:]:
            if u == v:
                m = beta.coeffs[u] * alpha.coeffs[u]
            else:
                m = (beta.coeffs[u] * alpha.coeffs[v]
                     + beta.coeffs[v] * alpha.coeffs[u])
            out[(u, v)] = m
    return out


class Monad:
    """A pair of linear pencils alpha ((2c+r) x c) and beta (c x (2c+r))
    in (x, y, z, w) with beta*alpha = 0 as a quadratic form (checked)."""

    __slots__ = ("r", "c", "alpha", "beta")

    def __init__(self, r, c, alpha, beta):
        n = 2 * c + r
        if (alpha.rows, alpha.cols) != (n, c):
            raise MonadError(f"alpha must be {n}x{c}")
        if (beta.rows, beta.cols) != (c, n):
            raise MonadError(f"beta must be {c}x{n}")
        if list(alpha.vars) != list(VARS) or list(beta.vars) != list(VARS):
            raise MonadError(f"pencils must use variables {VARS}")
        if not alpha.const.is_zero() or not beta.const.is_zero():
            raise MonadError("pencils must be linear (zero constant term)")
        bad = [uv for uv, m in product_coefficients(beta, alpha).items()
               if not m.is_zero()]
        if bad:
            raise MonadError(f"not a monad: beta*alpha has nonzero "
                             f"coefficients at {bad}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    def __setattr__(self, *a):
        raise AttributeError("Monad is immutable")

    def __repr__(self):
        return f"Monad(r={self.r}, c={self.c})"

    def to_json(self):
        return {"r": self.r, "c": self.c,
                "alpha": self.alpha.to_json(), "beta": self.beta.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["r"], obj["c"],
                   Pencil.from_json(obj["alpha"], list(VARS)),
                   Pencil.from_json(obj["beta"], list(VARS)))


def build_monad(d):
    """Monad of a solution datum; rejects non-solutions, reporting which of
    the three residuals are nonzero."""
    bad = [k + 1 for k, m in enumerate(complex_residuals(d))
           if not m.is_zero()]
    if bad:
        raise MonadError("datum does not solve the equations: residual(s) "
                         f"{bad} nonzero")
    alpha, beta = monad_pencils(d)
    return Monad(d.r, d.c, alpha, beta)


# ---------------------------------------------------------------------------
# pointwise exactness and the sheaf classification
# ---------------------------------------------------------------------------

def check_exactness_at(m, point):
    """(rank alpha_X, rank beta_X, fiber_dim) at a point X of P^3, with
    fiber_dim = (2c+r) - rank alpha_X - rank beta_X."""
    point = tuple(point)
    if len(point) != 4 or not any(point):
        raise MonadError("point must have four coordinates, not all zero")
    ra = m.alpha.evaluate(point).rank()
    rb = m.beta.evaluate(point).rank()
    return ra, rb, (2 * m.c + m.r) - ra - rb


_LOCUS_DIMENSION = {"locally_free": -1, "reflexive": 0, "torsion_free": 1}
_LOCUS_METHOD = (
    "X = [x:y:z:w] is singular iff B~1, B~2 have a joint eigenvector in "
    "ker j~ at [z:w] (eigenvalues -x, -y), which exists iff the triple is "
    "not costable at [z:w]")


class SheafClassification:
    """kind is one of torsion_free / reflexive / locally_free.  For a
    reflexive sheaf, over lists the points [z:w] over which the singular
    locus lies and over_factors the factors (in t = z/w) of the costability
    gcd with no root in Q(i); over is None for a torsion-free sheaf, whose
    locus lies over every [z:w]; a locally free sheaf has neither."""

    __slots__ = ("kind", "over", "over_factors")

    def __init__(self, kind, over=(), over_factors=()):
        if kind not in _LOCUS_DIMENSION:
            raise MonadError(f"unknown kind {kind!r}")
        if (over is None) != (kind == "torsion_free"):
            raise MonadError("the singular locus of a torsion-free sheaf, "
                             "and only of one, lies over every [z:w]")
        if kind == "locally_free" and (over or over_factors):
            raise MonadError("locally free sheaves have no singular points")
        if kind == "reflexive" and not (over or over_factors):
            raise MonadError("a reflexive sheaf that is not locally free "
                             "has singular points")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "over", None if over is None else list(over))
        object.__setattr__(self, "over_factors", list(over_factors))

    def __setattr__(self, *a):
        raise AttributeError("SheafClassification is immutable")

    def __repr__(self):
        return f"SheafClassification({self.kind})"

    @property
    def dimension(self):
        """Dimension of the singular locus, -1 when it is empty."""
        return _LOCUS_DIMENSION[self.kind]

    def to_json(self):
        return {"kind": self.kind,
                "singular_locus": {
                    "dimension": self.dimension,
                    "over": None if self.over is None else [
                        {"z": str(z0), "w": str(w0)} for z0, w0 in self.over],
                    "over_factors": self.over_factors,
                    "method": _LOCUS_METHOD}}


def classify_sheaf(d):
    """Sheaf type and singular locus of the monad cohomology of a solution
    that is stable everywhere, both read off ``adhm.classify`` (see the
    module docstring); other data are rejected."""
    from .adhm import classify
    build_monad(d)  # rejects non-solutions
    rep = classify(d)
    if not rep.stable_everywhere:
        raise MonadError("datum is not stable everywhere: no sheaf to "
                         "classify")
    if rep.regular:
        return SheafClassification("locally_free")
    if rep.semiregular:
        return SheafClassification(
            "reflexive",
            [pt for side, pt, _ in rep.failing_points if side == "costable"],
            [f for side, f in rep.leftover_factors if side == "costable"])
    return SheafClassification("torsion_free", None)


# ---------------------------------------------------------------------------
# normalization: from pencils back to a datum
# ---------------------------------------------------------------------------

def normalize_monad(alpha, beta):
    """Recover a datum from a pair of linear pencils with beta*alpha = 0.

    Requires the product of the x/y coefficient blocks beta_1*alpha_2 to be
    invertible ("degenerate at infinity" otherwise) and the common kernel of
    beta_1, beta_2 to have dimension r = cols - 2c.  Changes basis on the
    middle term by T = [alpha_1 | alpha_2 | kernel basis] and rescales beta
    by (beta_1*alpha_2)^-1, after which the x/y coefficients take the
    standard unit forms and the datum is read off the z/w coefficients.
    The recovered datum always solves the quadratic equations.
    """
    c = beta.rows
    n = beta.cols
    r = n - 2 * c
    if r < 1 or alpha.rows != n or alpha.cols != c:
        raise MonadError("pencil shapes are not of monad type")
    if not alpha.const.is_zero() or not beta.const.is_zero():
        raise MonadError("pencils must be linear (zero constant term)")
    bad = [uv for uv, m in product_coefficients(beta, alpha).items()
           if not m.is_zero()]
    if bad:
        raise MonadError(f"not a monad: beta*alpha has nonzero "
                         f"coefficients at {bad}")

    a1, a2 = alpha.coeffs["x"], alpha.coeffs["y"]
    b1, b2 = beta.coeffs["x"], beta.coeffs["y"]
    ident_c = Matrix.identity(c, _ONE, _ZERO)
    h = (b1 * a2).solve(ident_c)
    if h is None:
        raise MonadError("degenerate at infinity: beta_1*alpha_2 is "
                         "singular")
    wbasis = Matrix.vstack([b1, b2]).kernel()
    if wbasis.cols != r:
        raise MonadError("degenerate at infinity: the common kernel of "
                         f"beta_1, beta_2 has dimension {wbasis.cols}, "
                         f"expected {r}")
    t = Matrix.hstack([a1, a2, wbasis])
    tinv = t.solve(Matrix.identity(n, _ONE, _ZERO))
    if tinv is None:
        raise MonadError("degenerate at infinity: [alpha_1 | alpha_2 | W] "
                         "is singular")

    anew = {v: tinv * alpha.coeffs[v] for v in VARS}
    bnew = {v: h * beta.coeffs[v] * t for v in VARS}
    assert anew["x"] == _unit_column_block(n, 0, c)
    assert anew["y"] == _unit_column_block(n, c, c)
    assert bnew["x"] == _unit_column_block(n, c, c).transpose()
    assert bnew["y"] == -_unit_column_block(n, 0, c).transpose()

    rows_all = list(range(n))
    B11 = anew["z"].submatrix(rows_all[:c], range(c))
    B12 = anew["z"].submatrix(rows_all[c:2 * c], range(c))
    j1 = anew["z"].submatrix(rows_all[2 * c:], range(c))
    B21 = anew["w"].submatrix(rows_all[:c], range(c))
    B22 = anew["w"].submatrix(rows_all[c:2 * c], range(c))
    j2 = anew["w"].submatrix(rows_all[2 * c:], range(c))
    i1 = bnew["z"].submatrix(range(c), rows_all[2 * c:])
    i2 = bnew["w"].submatrix(range(c), rows_all[2 * c:])

    # beta*alpha = 0 forces the beta-side B blocks to agree with the
    # alpha-side ones; keep that as an internal consistency check.
    assert bnew["z"].submatrix(range(c), rows_all[:c]) == -B12
    assert bnew["z"].submatrix(range(c), rows_all[c:2 * c]) == B11
    assert bnew["w"].submatrix(range(c), rows_all[:c]) == -B22
    assert bnew["w"].submatrix(range(c), rows_all[c:2 * c]) == B21

    d = ComplexADHMDatum(c, r, B11, B12, B21, B22, i1, i2, j1, j2)
    assert is_complex_solution(d)
    return d


def find_intertwiner(d_new, d_old, seed=0, attempts=64):
    """Invertible (gV, gW) with B'_kl gV = gV B_kl, i'_k gW = gV i_k and
    j'_k gV = gW j_k, exhibiting d_new = (gV, gW) . d_old; None if the
    solution space contains no invertible pair among sampled combinations."""
    from .adhm import _linear_map_matrix
    if (d_new.c, d_new.r) != (d_old.c, d_old.r):
        return None
    c, r = d_old.c, d_old.r
    nv, nw = c * c, r * r
    b_pairs = [(d_new.B11, d_old.B11), (d_new.B12, d_old.B12),
               (d_new.B21, d_old.B21), (d_new.B22, d_old.B22)]
    i_pairs = [(d_new.i1, d_old.i1), (d_new.i2, d_old.i2)]
    j_pairs = [(d_new.j1, d_old.j1), (d_new.j2, d_old.j2)]
    zero = Matrix.zero(c, c, _ZERO)
    # the equations B' gV - gV B = 0, i' gW - gV i = 0 and j' gV - gW j = 0,
    # linear in the unknowns (gV, gW)
    system = _linear_map_matrix([
        (c, c, lambda gv: [bn * gv - gv * bo for bn, bo in b_pairs]
         + [-(gv * io) for _, io in i_pairs]
         + [jn * gv for jn, _ in j_pairs]),
        (r, r, lambda gw: [zero] * len(b_pairs)
         + [inew * gw for inew, _ in i_pairs]
         + [-(gw * jo) for _, jo in j_pairs]),
    ])
    ker = system.kernel()
    if ker.cols == 0:
        return None
    rng = random.Random(seed)
    for _ in range(attempts):
        coefs = [random_gauss(rng, complex_parts=False)
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


# ---------------------------------------------------------------------------
# Chern classes in Q[H]/(H^4) and Euler characteristics
# ---------------------------------------------------------------------------

class ChernClass:
    """Element a0 + a1*H + a2*H^2 + a3*H^3 of Q[H]/(H^4)."""

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

    def to_json(self):
        return [str(v) for v in self.a]


def chern_of_monad(r, c):
    """Character of the monad cohomology: (2c+r)*ch(O) - c*ch(O(-1)) -
    c*ch(O(1)), which collapses to r - c*H^2."""
    if r < 0 or c < 0:
        raise MonadError("r and c must be nonnegative")
    out = (ChernClass(2 * c + r)
           - ChernClass.line(-1).scale(c) - ChernClass.line(1).scale(c))
    assert out == ChernClass(r, 0, -c, 0)
    return out


def chi_line(k):
    """chi(O(k)) = (k+1)(k+2)(k+3)/6."""
    return Fraction((k + 1) * (k + 2) * (k + 3), 6)


def chi_twist(r, c, k):
    """chi(E(k)) for the monad sheaf, via ch(E(k))*td; cross-checked against
    the additivity formula (2c+r)*chi(O(k)) - c*chi(O(k-1)) - c*chi(O(k+1))
    on every call."""
    value = (chern_of_monad(r, c) * ChernClass.line(k)).chi()
    additive = ((2 * c + r) * chi_line(k) - c * chi_line(k - 1)
                - c * chi_line(k + 1))
    if value != additive:
        raise MonadError(f"twist characteristic routes disagree at k={k}")
    return value


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
