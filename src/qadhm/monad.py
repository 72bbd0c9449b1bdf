"""Monads on projective three-space built from instanton-type matrix data.

The pencils alpha ((2c+r) x c) and beta (c x (2c+r)) of a datum, the
coefficient tables of ``exactcore.monad_pencils``, have beta*alpha = 0
identically iff the datum solves the equations, as its three residuals are
the z^2, w^2 and zw coefficients of beta*alpha.  The cohomology of the
resulting three-term complex is a sheaf whose local behaviour is read off
the pointwise ranks: beta is surjective everywhere iff the datum is stable
everywhere, and the points where alpha drops rank are the singular points
of the sheaf.  With B~1 = z*B11 + w*B21, B~2 = z*B12 + w*B22 and
j~ = z*j1 + w*j2, a point X = [x:y:z:w] is singular iff some v != 0 in
ker j~ has B~1 v = -x v and B~2 v = -y v.  On a solution B~1 and B~2
commute on the largest B~-invariant subspace inside ker j~, so they have a
joint eigenvector there iff it is nonzero: some X over [z:w] is singular
iff the triple is not costable at [z:w].  So the singular locus is read off
the stability taxonomy, with no point evaluated; ``classify_sheaf``
returns the class as the dict that ``monad classify`` prints:

  regular everywhere      -> locally free   (no singular point)
  semiregular             -> reflexive      (finitely many points, over the
                                             [z:w] where costability fails)
  stable everywhere       -> torsion free   (a curve, over every [z:w])

The Chern characters and Euler characteristics of the twists of the sheaf
need no matrix; they are in ``chern``.
"""

from .exactcore import ADHMError, Matrix, monad_pencils
from .scalars import _GR_ZERO, Immutable

__all__ = [
    "Monad", "VARS", "product_coefficients",
    "build_monad", "check_exactness_at", "classify_sheaf",
]

VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# building monads from data
# ---------------------------------------------------------------------------

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
            "const": Matrix.zero(m.rows, m.cols, _GR_ZERO).to_json()}


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
    """Monad of a solution datum; ``Monad``'s check refuses a non-solution,
    which is then named by its nonzero residuals."""
    try:
        return Monad(d.r, d.c, *monad_pencils(d))
    except ADHMError:
        d.require_solution()
        raise


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


def classify_sheaf(d):
    """Sheaf type and singular locus of the monad cohomology of a solution
    that is stable everywhere: the dict that ``monad classify`` prints, read
    off the ``adhm.classify`` dict (see the module docstring); other data
    are rejected.  kind is torsion_free, reflexive or locally_free;
    dimension is that of the singular locus, -1 when it is empty.  For a
    reflexive sheaf, over lists the points [z:w] over which the locus lies
    and over_factors the factors (in t = z/w) of the costability gcd with
    no root in Q(i); over is None for a torsion-free sheaf, whose locus
    lies over every [z:w]; a locally free sheaf has neither."""
    from .adhm import classify
    d.require_solution()
    rep = classify(d)
    if not rep["stable_everywhere"]:
        raise ADHMError("datum is not stable everywhere: no sheaf to "
                        "classify")
    kind = ("locally_free" if rep["regular"] else
            "reflexive" if rep["semiregular"] else "torsion_free")
    # the stable side holds everywhere, so every failing point and leftover
    # factor is a costable one, and a torsion-free datum has neither
    over = [{"z": p["z"], "w": p["w"]} for p in rep["failing_points"]]
    return {"kind": kind,
            "singular_locus": {
                "dimension": _LOCUS_DIMENSION[kind],
                "over": None if kind == "torsion_free" else over,
                "over_factors": [f["factor"]
                                 for f in rep["leftover_factors"]],
                "method": _LOCUS_METHOD}}
