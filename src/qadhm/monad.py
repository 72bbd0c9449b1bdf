"""Monads on projective three-space built from instanton-type matrix data.

A datum (B11, B12, B21, B22, i1, i2, j1, j2) with c x c / c x r / r x c
blocks yields two pencils of matrices linear in homogeneous coordinates
(x, y, z, w), each kept as the table {"x", "y", "z", "w": Matrix} of its
coefficients:

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

The Chern characters and Euler characteristics of the twists of the sheaf
need no matrix; they are in ``chern``.
"""

from .datum import ADHMError
from .exactcore import Matrix
from .scalars import GaussRational, Immutable

__all__ = [
    "Monad", "SheafClassification", "VARS", "monad_pencils",
    "product_coefficients", "build_monad", "check_exactness_at",
    "classify_sheaf",
]

VARS = ("x", "y", "z", "w")

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


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
    alpha = {"x": _unit_column_block(n, 0, c),
             "y": _unit_column_block(n, c, c),
             "z": Matrix.vstack([d.B11, d.B12, d.j1]),
             "w": Matrix.vstack([d.B21, d.B22, d.j2])}
    beta = {"x": _unit_column_block(n, c, c).transpose(),
            "y": -_unit_column_block(n, 0, c).transpose(),
            "z": Matrix.hstack([-d.B12, d.B11, d.i1]),
            "w": Matrix.hstack([-d.B22, d.B21, d.i2])}
    return alpha, beta


def product_coefficients(beta, alpha):
    """Coefficients of the quadratic form beta*alpha: a dict mapping each
    unordered variable pair (u, v) with u <= v to its matrix coefficient."""
    out = {}
    for a, u in enumerate(VARS):
        for v in VARS[a:]:
            if u == v:
                m = beta[u] * alpha[u]
            else:
                m = beta[u] * alpha[v] + beta[v] * alpha[u]
            out[(u, v)] = m
    return out


def _pencil_json(pencil):
    """A pencil as ``monad build`` writes it, with its zero constant term."""
    m = pencil["x"]
    return {**{v: pencil[v].to_json() for v in VARS},
            "const": Matrix.zero(m.rows, m.cols, _ZERO).to_json()}


class Monad(Immutable):
    """Linear pencils alpha ((2c+r) x c) and beta (c x (2c+r)) in (x, y, z,
    w), each a table VARS -> coefficient matrix, with beta*alpha = 0 as a
    quadratic form (checked)."""

    __slots__ = ("r", "c", "alpha", "beta")

    def __init__(self, r, c, alpha, beta):
        n = 2 * c + r
        if {(m.rows, m.cols) for m in alpha.values()} != {(n, c)}:
            raise ADHMError(f"alpha must be {n}x{c}")
        if {(m.rows, m.cols) for m in beta.values()} != {(c, n)}:
            raise ADHMError(f"beta must be {c}x{n}")
        bad = [uv for uv, m in product_coefficients(beta, alpha).items()
               if not m.is_zero()]
        if bad:
            raise ADHMError(f"not a monad: beta*alpha has nonzero "
                            f"coefficients at {bad}")
        for name, value in zip(self.__slots__, (r, c, alpha, beta)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"Monad(r={self.r}, c={self.c})"

    def to_json(self):
        return {"r": self.r, "c": self.c, "alpha": _pencil_json(self.alpha),
                "beta": _pencil_json(self.beta)}


def build_monad(d):
    """Monad of a solution datum; rejects non-solutions, reporting which of
    the three residuals are nonzero."""
    d.require_solution()
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
        raise ADHMError("point must have four coordinates, not all zero")
    x, y, z, w = point
    ra, rb = ((p["x"].scale(x) + p["y"].scale(y) + p["z"].scale(z)
               + p["w"].scale(w)).rank() for p in (m.alpha, m.beta))
    return ra, rb, (2 * m.c + m.r) - ra - rb


_LOCUS_DIMENSION = {"locally_free": -1, "reflexive": 0, "torsion_free": 1}
_LOCUS_METHOD = (
    "X = [x:y:z:w] is singular iff B~1, B~2 have a joint eigenvector in "
    "ker j~ at [z:w] (eigenvalues -x, -y), which exists iff the triple is "
    "not costable at [z:w]")


class SheafClassification(Immutable):
    """kind is one of torsion_free / reflexive / locally_free.  For a
    reflexive sheaf, over lists the points [z:w] over which the singular
    locus lies and over_factors the factors (in t = z/w) of the costability
    gcd with no root in Q(i); over is None for a torsion-free sheaf, whose
    locus lies over every [z:w]; a locally free sheaf has neither."""

    __slots__ = ("kind", "over", "over_factors")

    def __init__(self, kind, over=(), over_factors=()):
        if kind not in _LOCUS_DIMENSION:
            raise ADHMError(f"unknown kind {kind!r}")
        if (over is None) != (kind == "torsion_free"):
            raise ADHMError("the singular locus of a torsion-free sheaf, "
                            "and only of one, lies over every [z:w]")
        if kind == "locally_free" and (over or over_factors):
            raise ADHMError("locally free sheaves have no singular points")
        if kind == "reflexive" and not (over or over_factors):
            raise ADHMError("a reflexive sheaf that is not locally free "
                            "has singular points")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "over", None if over is None else list(over))
        object.__setattr__(self, "over_factors", list(over_factors))

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
    d.require_solution()
    rep = classify(d)
    if not rep.stable_everywhere:
        raise ADHMError("datum is not stable everywhere: no sheaf to "
                        "classify")
    if rep.regular:
        return SheafClassification("locally_free")
    if rep.semiregular:
        return SheafClassification(
            "reflexive",
            [pt for side, pt, _ in rep.failing_points if side == "costable"],
            [f for side, f in rep.leftover_factors if side == "costable"])
    return SheafClassification("torsion_free", None)
