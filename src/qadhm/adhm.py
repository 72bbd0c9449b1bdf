"""Stability taxonomy, rank criteria and generators of instanton-type data.

The complex data themselves (``datum``) are tuples (B11, B12, B21, B22, i1,
i2, j1, j2) of matrices over the Gaussian rationals, with the quadratic
matrix equations

  [B11,B12] + i1*j1,   [B21,B22] + i2*j2,
  [B11,B22] + [B21,B12] + i1*j2 + i2*j1      (all three must vanish)

A complex datum spans a pencil of plain triples over the projective line:

  B~1 = z*B11 + w*B21,  B~2 = z*B12 + w*B22,  i~ = z*i1 + w*i2,  j~ = z*j1 + w*j2

and the three complex residuals are exactly the (z^2, zw, w^2) coefficients of
[B~1,B~2] + i~*j~.  A triple (B1, B2, i) is *stable* when no proper subspace
is invariant under both B's and contains the image of i; *costable* is the
transpose-dual notion with ker j.  ``krylov`` decides stability at every
point [z:w] from the homogeneous gcd of the Krylov minors of the pencil, and
costability from that of the transposed pencil.  The taxonomy reported by
``classify`` is:

  stable_everywhere    minor gcd has degree 0
  semistable           some minor is not identically zero
  costable_everywhere  same test on the transposed pencil seeded by j~
  semiregular          stable everywhere and costable somewhere
  regular              stable everywhere and costable everywhere

An independent rank criterion is provided by ``derivative_rank``: the
derivative of the three residuals in all datum entries is a
3c^2 x (4c^2 + 4cr) matrix whose rank is 3c^2 exactly on the stable locus.

Seeded generators produce exact solutions that are stable everywhere or
unstable at one planted point; both draw from small-height Gaussian
rationals for reproducibility.
"""

import random

from .datum import ADHMError, ComplexADHMDatum, is_complex_solution
from .exactcore import Matrix, random_gauss
from .krylov import _gcd_roots, _gcd_str, _krylov_minor_gcd, is_stable
from .scalars import _QL_ONE, GaussRational

__all__ = [
    "StabilityReport", "is_costable", "classify", "derivative_rank",
    "random_stable_solution", "random_nonstable_solution",
]

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


class StabilityReport:
    """Outcome of ``classify``.

    failing_points lists (side, (z0, w0), multiplicity) with side "stable" or
    "costable"; points outside Q(i) appear in leftover_factors as (side,
    factor string).  The gcd strings record the minor gcd of each side,
    monic in z: the product of the pivots of a Hermite basis of the Krylov
    module in the chart w = 1, times w^v for the multiplicity v of [1:0]
    found in the chart z = 1.  "0" means every minor vanishes identically
    (the basis has fewer than c pivots: that side fails at every point, and
    no individual points are enumerated).  witness_subspace, when
    present, is a column basis of a violating invariant subspace at the first
    recorded failing point.
    """

    __slots__ = ("stable_everywhere", "costable_everywhere", "semistable",
                 "semiregular", "regular", "failing_points",
                 "witness_subspace", "stability_gcd", "costability_gcd",
                 "leftover_factors")

    def __init__(self, stable_everywhere, costable_everywhere, semistable,
                 semiregular, regular, failing_points, witness_subspace,
                 stability_gcd, costability_gcd, leftover_factors):
        if regular != (stable_everywhere and costable_everywhere):
            raise ADHMError("regular must equal stable and costable everywhere")
        if semiregular and not stable_everywhere:
            raise ADHMError("semiregular requires stable everywhere")
        object.__setattr__(self, "stable_everywhere", stable_everywhere)
        object.__setattr__(self, "costable_everywhere", costable_everywhere)
        object.__setattr__(self, "semistable", semistable)
        object.__setattr__(self, "semiregular", semiregular)
        object.__setattr__(self, "regular", regular)
        object.__setattr__(self, "failing_points", list(failing_points))
        object.__setattr__(self, "witness_subspace", witness_subspace)
        object.__setattr__(self, "stability_gcd", stability_gcd)
        object.__setattr__(self, "costability_gcd", costability_gcd)
        object.__setattr__(self, "leftover_factors", list(leftover_factors))

    def __setattr__(self, *a):
        raise AttributeError("StabilityReport is immutable")

    def __repr__(self):
        flags = [n for n in ("stable_everywhere", "costable_everywhere",
                             "semistable", "semiregular", "regular")
                 if getattr(self, n)]
        return f"StabilityReport({', '.join(flags) or 'nothing holds'})"

    def to_json(self):
        return {
            "stable_everywhere": self.stable_everywhere,
            "costable_everywhere": self.costable_everywhere,
            "semistable": self.semistable,
            "semiregular": self.semiregular,
            "regular": self.regular,
            "stability_gcd": self.stability_gcd,
            "costability_gcd": self.costability_gcd,
            "failing_points": [
                {"side": side, "z": str(z0), "w": str(w0), "multiplicity": m}
                for side, (z0, w0), m in self.failing_points],
            "leftover_factors": [
                {"side": side, "factor": f} for side, f in self.leftover_factors],
            "witness_subspace": (None if self.witness_subspace is None
                                 else self.witness_subspace.to_json()),
        }


def is_costable(B1, B2, j):
    """(costable, witness): witness is a column basis of a nonzero invariant
    subspace inside ker j when the triple is not costable, else None.

    Decided through the transpose duality: (B1, B2, j) is costable iff
    (B1^T, B2^T, j^T) is stable; the witness is the annihilator of the
    transposed closure.
    """
    stable, dual_wit = is_stable(B1.transpose(), B2.transpose(), j.transpose())
    if stable:
        return True, None
    c = B1.rows
    if dual_wit.cols == 0:
        return False, Matrix.identity(c, _ONE, _ZERO)
    return False, dual_wit.transpose().kernel()


def classify(d):
    """Full stability taxonomy of a complex datum (see the module docstring).

    The stable side analyses the pencil (B~1, B~2) acting on i~; the costable
    side analyses the transposed pencil acting on j~^T.  Failing points are
    the Q(i)-rational projective roots of the respective minor gcds;
    irreducible factors without rational roots are reported as strings.
    """
    s_zero, s_gcd = _krylov_minor_gcd(d.B11, d.B21, d.B12, d.B22, d.i1, d.i2)
    c_zero, c_gcd = _krylov_minor_gcd(
        d.B11.transpose(), d.B21.transpose(),
        d.B12.transpose(), d.B22.transpose(),
        d.j1.transpose(), d.j2.transpose())

    semistable = not s_zero
    stable_everywhere = semistable and s_gcd == (_QL_ONE, 0)
    costable_somewhere = not c_zero
    costable_everywhere = costable_somewhere and c_gcd == (_QL_ONE, 0)
    semiregular = stable_everywhere and costable_somewhere
    regular = stable_everywhere and costable_everywhere

    failing, leftovers = [], []
    for side, zero, gcd in (("stable", s_zero, s_gcd),
                            ("costable", c_zero, c_gcd)):
        roots, lefts = _gcd_roots(zero, gcd)
        failing.extend((side, pt, m) for pt, m in roots)
        leftovers.extend((side, f) for f in lefts)

    witness = None
    if not semistable:
        B1p, B2p, ip, _ = d.evaluate(1, 0)
        witness = is_stable(B1p, B2p, ip)[1]
    else:
        for side, (z0, w0), _m in failing:
            B1p, B2p, ip, jp = d.evaluate(z0, w0)
            if side == "stable":
                witness = is_stable(B1p, B2p, ip)[1]
            else:
                witness = is_costable(B1p, B2p, jp)[1]
            break
        if witness is None and c_zero:
            B1p, B2p, _, jp = d.evaluate(1, 0)
            witness = is_costable(B1p, B2p, jp)[1]

    return StabilityReport(
        stable_everywhere, costable_everywhere, semistable, semiregular,
        regular, failing, witness,
        "0" if s_zero else _gcd_str(*s_gcd),
        "0" if c_zero else _gcd_str(*c_gcd),
        leftovers)


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------

def _unit_matrix(rows, cols, a, b):
    """The rows x cols matrix with a single 1, at (a, b)."""
    m = Matrix.zero(rows, cols, _ZERO)
    m.a[a][b] = _ONE
    return m


def _linear_map_matrix(blocks):
    """Matrix of a linear map on tuples of matrices.

    ``blocks`` holds one (rows, cols, image) triple per input matrix: the
    map sends the unit matrix E_ab of that input (every other input zero)
    to the matrices ``image(E_ab)``.  There is one column per unit matrix,
    inputs in order and (a, b) row-major within each, holding the row-major
    flattening of its images one after another."""
    cols = [[x for m in image(_unit_matrix(rows, ncols, a, b))
             for row in m.a for x in row]
            for rows, ncols, image in blocks
            for a in range(rows) for b in range(ncols)]
    return Matrix(len(cols[0]), len(cols), [list(r) for r in zip(*cols)])


def derivative_rank(d):
    """Exact rank of the derivative of the three residuals in all entries.

    The matrix is 3c^2 x (4c^2 + 4cr), columns ordered by perturbed block
    (B11, B12, B21, B22, i1, i2, j1, j2), each block row-major.  Rank 3c^2 is
    equivalent to classify(d).stable_everywhere for solutions; when full, the
    count (4c^2 + 4cr) - rank - c^2 = 4cr is the expected parameter count of
    the quotient.
    """
    c, r = d.c, d.r
    zero = Matrix.zero(c, c, _ZERO)
    return _linear_map_matrix([
        (c, c, lambda e: (e.commutator(d.B12), zero, e.commutator(d.B22))),
        (c, c, lambda e: (d.B11.commutator(e), zero, d.B21.commutator(e))),
        (c, c, lambda e: (zero, e.commutator(d.B22), e.commutator(d.B12))),
        (c, c, lambda e: (zero, d.B21.commutator(e), d.B11.commutator(e))),
        (c, r, lambda e: (e * d.j1, zero, e * d.j2)),
        (c, r, lambda e: (zero, e * d.j2, e * d.j1)),
        (r, c, lambda e: (d.i1 * e, zero, d.i2 * e)),
        (r, c, lambda e: (zero, d.i2 * e, d.i1 * e)),
    ]).rank()


# ---------------------------------------------------------------------------
# generators (all deterministic in the seed)
# ---------------------------------------------------------------------------

def _shift_matrix(c):
    return Matrix(c, c, [[_ONE if a == b + 1 else _ZERO for b in range(c)]
                         for a in range(c)])


def _poly_in_shift(c, n_coef, id_coef):
    ident = Matrix.identity(c, _ONE, _ZERO)
    return _shift_matrix(c).scale(n_coef) + ident.scale(id_coef)


def random_stable_solution(r, c, seed):
    """Seeded exact solution that classifies stable everywhere.

    All four B blocks are polynomials in one shift matrix N (so every
    commutator vanishes) and j = 0, which kills all three residuals
    identically.  The N-coefficients are drawn with the 2 x 2 determinant of
    their pencil nonzero, so at every point of the line at least one
    evaluated operator has a nonzero N part and the word closure contains the
    full N-orbit of Im i~; the top rows of i1 and i2 are drawn linearly
    independent so that orbit is everything at every point.  Requires r >= 2
    and c >= 1.
    """
    if r < 2:
        raise ADHMError("random_stable_solution needs r >= 2")
    if c < 1:
        raise ADHMError("random_stable_solution needs c >= 1")
    rng = random.Random(seed)
    while True:
        a = [random_gauss(rng) for _ in range(4)]  # N-coefficients
        if not (a[0] * a[3] - a[1] * a[2]):
            continue
        b = [random_gauss(rng) for _ in range(4)]  # identity coefficients
        i1 = Matrix(c, r, [[random_gauss(rng) for _ in range(r)]
                           for _ in range(c)])
        i2 = Matrix(c, r, [[random_gauss(rng) for _ in range(r)]
                           for _ in range(c)])
        top = Matrix(2, r, [i1.a[0], i2.a[0]])
        if top.rank() != 2:
            continue
        d = ComplexADHMDatum(
            c, r,
            _poly_in_shift(c, a[0], b[0]), _poly_in_shift(c, a[1], b[1]),
            _poly_in_shift(c, a[2], b[2]), _poly_in_shift(c, a[3], b[3]),
            i1, i2, Matrix.zero(r, c, _ZERO), Matrix.zero(r, c, _ZERO))
        assert is_complex_solution(d)
        if classify(d).stable_everywhere:
            return d


def random_nonstable_solution(r, c, seed):
    """Seeded exact solution that fails stability at one planted point.

    Same commuting-B construction as random_stable_solution, but i2 = lam*i1,
    so i~ = (z + lam*w)*i1 vanishes at [-lam : 1].  Returns (datum, point)
    with point = (-lam, 1); every c x c Krylov minor carries the factor
    (z + lam*w)^c, so classify reports that root with multiplicity >= c.
    """
    rng = random.Random(seed)
    while True:
        a = [random_gauss(rng) for _ in range(4)]
        if not (a[0] * a[3] - a[1] * a[2]):
            continue
        b = [random_gauss(rng) for _ in range(4)]
        i1 = Matrix(c, r, [[random_gauss(rng) for _ in range(r)]
                           for _ in range(c)])
        if all(not x for x in i1.a[0]):
            continue
        lam = random_gauss(rng)
        d = ComplexADHMDatum(
            c, r,
            _poly_in_shift(c, a[0], b[0]), _poly_in_shift(c, a[1], b[1]),
            _poly_in_shift(c, a[2], b[2]), _poly_in_shift(c, a[3], b[3]),
            i1, i1.scale(lam),
            Matrix.zero(r, c, _ZERO), Matrix.zero(r, c, _ZERO))
        assert is_complex_solution(d)
        return d, (-lam, _ONE)


