"""Stability taxonomy, rank criteria and generators of instanton-type data.

A complex datum (B11, B12, B21, B22, i1, i2, j1, j2) of ``exactcore`` spans
a pencil of plain triples over the projective line:

  B~1 = z*B11 + w*B21,  B~2 = z*B12 + w*B22,  i~ = z*i1 + w*i2,  j~ = z*j1 + w*j2

and the three complex residuals are exactly the (z^2, zw, w^2) coefficients of
[B~1,B~2] + i~*j~.  A triple (B1, B2, i) is *stable* when no proper subspace
is invariant under both B's and contains the image of i; *costable* is the
transpose-dual notion with ker j.  ``krylov`` decides stability at every
point [z:w] from the homogeneous gcd of the Krylov minors of the pencil, and
costability from that of the transposed pencil.  ``classify`` returns the
taxonomy as the dict that ``adhm check`` prints, with these flags:

  stable_everywhere    minor gcd has degree 0
  semistable           some minor is not identically zero
  costable_everywhere  same test on the transposed pencil seeded by j~
  semiregular          stable everywhere and costable somewhere
  regular              stable everywhere and costable everywhere

``derivative_rank`` gives the rank of the derivative of the three residuals
in all datum entries, a 3c^2 x (4c^2 + 4cr) matrix: full on solutions stable
everywhere and on those costable everywhere, so it does not imply stability.

Seeded generators produce exact solutions that are stable everywhere or
unstable at one planted point; both draw from small-height Gaussian
rationals for reproducibility.
"""

import random

from .exactcore import (ADHMError, ComplexADHMDatum, Matrix,
                        is_complex_solution, random_gauss)
from .krylov import holds_everywhere, is_stable, line_side, stable_side_of
from .scalars import _GR_ONE, _GR_ZERO

__all__ = [
    "is_costable", "classify", "derivative_rank",
    "random_stable_solution", "random_nonstable_solution",
]


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
        return False, Matrix.identity(c, _GR_ONE, _GR_ZERO)
    return False, dual_wit.transpose().kernel()


def classify(d):
    """Full stability taxonomy of a complex datum (see the module
    docstring): the dict that ``adhm check`` prints as its classification.

    The stable side is the ``krylov.line_side`` of the pencil (B~1, B~2)
    acting on i~, the costable side that of the transposed pencil acting on
    j~^T.  failing_points are the Q(i)-rational roots [z:w] of each side's
    minor gcd, leftover_factors its factors with no root in Q(i).  A gcd
    string is monic in z: the pivot product of a Hermite basis of the
    Krylov module in the chart w = 1, times w^v for the multiplicity v of
    [1:0]; "0" means every minor vanishes (the side fails at every point).
    witness_subspace is a column basis of a violating invariant subspace
    where a side first fails, the stable side first: at [1:0] when it fails
    everywhere, else at its first failing point; None when neither fails.
    """
    sides = (stable_side_of(d),
             line_side(d.B11.transpose(), d.B21.transpose(),
                       d.B12.transpose(), d.B22.transpose(),
                       d.j1.transpose(), d.j2.transpose()))
    witness = None
    for costable, (fails, _gcd, roots, _lefts) in enumerate(sides):
        if fails or roots:
            B1p, B2p, ip, jp = d.evaluate(*(roots[0][0] if roots else (1, 0)))
            witness = (is_costable(B1p, B2p, jp) if costable
                       else is_stable(B1p, B2p, ip))[1].to_json()
            break
    (s_fail, s_gcd, _, _), (c_fail, c_gcd, _, _) = sides
    stable, costable = map(holds_everywhere, sides)
    named = list(zip(("stable", "costable"), sides))
    return {
        "stable_everywhere": stable, "costable_everywhere": costable,
        "semistable": not s_fail, "semiregular": stable and not c_fail,
        "regular": stable and costable,
        "stability_gcd": s_gcd, "costability_gcd": c_gcd,
        "failing_points": [
            {"side": name, "z": str(z0), "w": str(w0), "multiplicity": m}
            for name, (_, _, roots, _) in named for (z0, w0), m in roots],
        "leftover_factors": [{"side": name, "factor": f}
                             for name, (*_, lefts) in named for f in lefts],
        "witness_subspace": witness,
    }


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------

def derivative_rank(d):
    """Exact rank of the derivative of the three residuals in all entries.

    The matrix is 3c^2 x (4c^2 + 4cr), columns ordered by perturbed block
    (B11, B12, B21, B22, i1, i2, j1, j2), each block row-major, so E -> L*E*R
    is the Kronecker product L (x) R^T.  Rank 3c^2 holds on solutions stable
    everywhere and, by the transpose dual, on those costable everywhere: it
    does not imply stability.  When full, (4c^2 + 4cr) - rank - c^2 = 4cr is
    the expected parameter count of the quotient.
    """
    c, r = d.c, d.r
    eye = Matrix.identity(c, _GR_ONE, _GR_ZERO)

    def right(x):   # E -> E*x
        return eye.kron(x.transpose())

    def left(x):    # E -> x*E
        return x.kron(eye)

    a11, a12, a21, a22 = (right(x) - left(x)   # E -> [E, x]
                          for x in (d.B11, d.B12, d.B21, d.B22))
    ej1, ej2, i1e, i2e = right(d.j1), right(d.j2), left(d.i1), left(d.i2)
    o, p = (Matrix.zero(c * c, n, _GR_ZERO) for n in (c * c, c * r))
    return Matrix.vstack([Matrix.hstack(row) for row in (
        [a12, -a11, o, o, ej1, p, i1e, p],
        [o, o, a22, -a21, p, ej2, p, i2e],
        [a22, -a21, a12, -a11, ej2, ej1, i2e, i1e],
    )]).rank()


# ---------------------------------------------------------------------------
# generators (all deterministic in the seed)
# ---------------------------------------------------------------------------

def _commuting_draw(rng, c, r):
    """The draw both generators share: four blocks a*N + b*I in the shift
    matrix N, the N-coefficients a redrawn until a0*a3 - a1*a2 is nonzero,
    then a c x r block i1.  Returns ([B11, B12, B21, B22], i1)."""
    while True:
        a = [random_gauss(rng) for _ in range(4)]  # N-coefficients
        if a[0] * a[3] - a[1] * a[2]:
            break
    b = [random_gauss(rng) for _ in range(4)]  # identity coefficients
    i1 = Matrix(c, r, [[random_gauss(rng) for _ in range(r)]
                       for _ in range(c)])
    n = Matrix(c, c, [[_GR_ONE if k == i + 1 else _GR_ZERO for i in range(c)]
                      for k in range(c)])
    ident = Matrix.identity(c, _GR_ONE, _GR_ZERO)
    return [n.scale(x) + ident.scale(y) for x, y in zip(a, b)], i1


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
        blocks, i1 = _commuting_draw(rng, c, r)
        i2 = Matrix(c, r, [[random_gauss(rng) for _ in range(r)]
                           for _ in range(c)])
        a, b = i1.a[0], i2.a[0]
        if not any(a[k] * b[m] != a[m] * b[k]   # some 2 x 2 minor
                   for k in range(r) for m in range(k)):
            continue
        j = Matrix.zero(r, c, _GR_ZERO)
        d = ComplexADHMDatum(c, r, *blocks, i1, i2, j, j)
        assert is_complex_solution(d)
        if holds_everywhere(stable_side_of(d)):
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
        blocks, i1 = _commuting_draw(rng, c, r)
        if all(not x for x in i1.a[0]):
            continue
        lam = random_gauss(rng)
        j = Matrix.zero(r, c, _GR_ZERO)
        d = ComplexADHMDatum(c, r, *blocks, i1, i1.scale(lam), j, j)
        assert is_complex_solution(d)
        return d, (-lam, _GR_ONE)


