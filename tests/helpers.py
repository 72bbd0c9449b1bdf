"""Seeded data generators, small helpers and oracles that only the tests use.

They live here rather than in ``src/qadhm`` so that no command compiles
them.  The generators are deterministic in their seed, like
``adhm.random_stable_solution`` (which ``adhm random`` runs) and
``adhm.random_nonstable_solution`` (which the benchmark uses).  The slice
echelons over Q(i)(q) at the end are the oracle of ``slices.slice_verdict``.
The paper statements that only the tests check are in ``statements.py``.
"""

import itertools
import random

from qadhm.adhm import _linear_map_matrix, classify
from qadhm.datum import (ADHMError, ComplexADHMDatum, RealADHMDatum,
                         is_complex_solution)
from qadhm.echelon import _echelon
from qadhm.exactcore import Matrix, random_gauss
from qadhm.krylov import _closure_basis
from qadhm.qinstanton import (QInstantonError, _monomials_upto, _slice_rows,
                              build_q_ops, truncated_matrix)
from qadhm.real import real_residuals
from qadhm.scalars import _QL_ONE, GaussRational, QLaurent, _as_gauss

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def matrix_from_rows(entries):
    """The Matrix with these rows."""
    return Matrix(len(entries), len(entries[0]) if entries else 0, entries)


def submatrix(m, rows, cols):
    """The rows x cols part of the matrix m, in the given orders."""
    return Matrix(len(rows), len(cols),
                  [[m[i, j] for j in cols] for i in rows])


def pencil_scalar(v):
    """v as a Gaussian rational, for the pencil parameters P and Q."""
    g = _as_gauss(v)
    if g is NotImplemented:
        raise QInstantonError(
            "pencil parameters must be exact rational scalars")
    return g


def is_real_solution(d, xi):
    return all(m.is_zero() for m in real_residuals(d, xi))


def dagger_involution(d):
    """(B11,B12,B21,B22,i1,i2,j1,j2) -> (B22^+, -B21^+, -B12^+, B11^+,
    j2^+, -j1^+, -i2^+, i1^+); an involution on complex data, whose fixed
    points are the images of real data under ``real.embed_real``."""
    return ComplexADHMDatum(
        d.c, d.r,
        d.B22.dagger(), -d.B21.dagger(), -d.B12.dagger(), d.B11.dagger(),
        d.j2.dagger(), -d.j1.dagger(), -d.i2.dagger(), d.i1.dagger())


def quadratic_pencil_value(d, z0, w0):
    """[B~1,B~2] + i~*j~ evaluated at [z0:w0] (a c x c matrix).

    Equals z0^2*r1 + z0*w0*r3 + w0^2*r2 for the three residuals.
    """
    B1p, B2p, ip, jp = d.evaluate(z0, w0)
    return B1p.commutator(B2p) + ip * jp


def closure_rank(B1, B2, i):
    """Dimension of the full word closure of Im i under (B1, B2)."""
    return _closure_basis([B1, B2], i)[0].cols


def stabilizer_dim(B1, B2, i):
    """Dimension of {X : [B1,X] = [B2,X] = 0, X*i = 0}; zero iff no nonzero
    endomorphism commutes with both B's and kills Im i (true for stable
    triples, since ker X would be a proper invariant subspace over Im i)."""
    c = B1.rows
    system = _linear_map_matrix(
        [(c, c, lambda e: (B1.commutator(e), B2.commutator(e), e * i))])
    return c * c - system.rank()


def is_dagger_fixed(d):
    return dagger_involution(d) == d


def c1_generator(r, seed):
    """Random solution with c = 1: scalar B's are unconstrained, and the
    residuals reduce to three bilinear equations on the vectors
    x = i1, y = i2, z = j1, w = j2:

        sum x_k z_k = 0,   sum y_k w_k = 0,   sum (x_k w_k + y_k z_k) = 0.

    Draws x, y linearly independent (so i~ never vanishes and the output is
    stable everywhere) and (z, w) from the kernel of the 3 x 2r system.
    Requires r >= 2: with r = 1 the row i~ = z*i1 + w*i2 vanishes at a point
    of the line, so no stable solution exists.
    """
    if r < 2:
        raise ADHMError("c1_generator needs r >= 2: no datum with a "
                        "one-dimensional W is stable everywhere")
    rng = random.Random(seed)
    while True:
        B = [random_gauss(rng) for _ in range(4)]
        x = [random_gauss(rng) for _ in range(r)]
        y = [random_gauss(rng) for _ in range(r)]
        if Matrix(2, r, [x, y]).rank() != 2:
            continue
        rows = [x + [_ZERO] * r, [_ZERO] * r + y, y + x]
        system = Matrix(3, 2 * r, rows)
        ker = system.kernel()
        zw = [_ZERO] * (2 * r)
        for t in range(ker.cols):
            coef = random_gauss(rng)
            for k in range(2 * r):
                zw[k] = zw[k] + coef * ker[k, t]
        d = ComplexADHMDatum(
            1, r, [[B[0]]], [[B[1]]], [[B[2]]], [[B[3]]],
            [x], [y],
            [[zw[k]] for k in range(r)], [[zw[r + k]] for k in range(r)])
        if not is_complex_solution(d):
            continue
        if classify(d).stable_everywhere:
            return d


def random_c1r1_solution(seed):
    """Seeded solution with c = r = 1 and i~ not identically zero.

    With scalars, the equations force i1*j1 = i2*j2 = i1*j2 + i2*j1 = 0, so
    (j1, j2) = 0 whenever (i1, i2) != 0 is drawn truly generic; the row
    i~ = z*i1 + w*i2 still vanishes at exactly one point of the line, so no
    datum of this shape is ever stable everywhere.
    """
    rng = random.Random(seed)
    while True:
        B = [random_gauss(rng) for _ in range(4)]
        x, y = random_gauss(rng), random_gauss(rng)
        if not (x or y):
            continue
        return ComplexADHMDatum(
            1, 1, [[B[0]]], [[B[1]]], [[B[2]]], [[B[3]]],
            [[x]], [[y]], [[_ZERO]], [[_ZERO]])


def random_complex_datum(r, c, seed):
    """Raw random datum (generally not a solution)."""
    rng = random.Random(seed)

    def m(rows, cols):
        return Matrix(rows, cols, [[random_gauss(rng) for _ in range(cols)]
                                   for _ in range(rows)])

    return ComplexADHMDatum(c, r, m(c, c), m(c, c), m(c, c), m(c, c),
                            m(c, r), m(c, r), m(r, c), m(r, c))


def random_real_solution(r, seed, kind="stable"):
    """Seeded real solution with c = 1; returns (datum, xi).

    kind "stable":    j = 0, i nonzero, xi = i*i^+ > 0 (stable, not costable).
    kind "regular":   xi = 0 with i and j nonzero: j pairs up the entries of
                      i as (-i2, i1, -i4, i3, ...), which makes i*j = 0 and
                      |i|^2 = |j|^2 exactly (odd r keeps the last entry of i
                      zero).  Requires r >= 2.
    kind "irregular": the zero datum at xi = 0.
    """
    rng = random.Random(seed)
    if kind == "irregular":
        d = RealADHMDatum(1, r, [[_ZERO]], [[_ZERO]],
                          [[_ZERO] * r], [[_ZERO]] * r)
        return d, GaussRational(0)
    if kind == "stable":
        while True:
            B1, B2 = random_gauss(rng), random_gauss(rng)
            i = [random_gauss(rng) for _ in range(r)]
            if any(i):
                break
        xi = sum((v * v.conjugate() for v in i), GaussRational(0))
        d = RealADHMDatum(1, r, [[B1]], [[B2]], [i], [[_ZERO]] * r)
        return d, xi
    if kind == "regular":
        if r < 2:
            raise ADHMError("regular real samples here need r >= 2")
        while True:
            B1, B2 = random_gauss(rng), random_gauss(rng)
            i = [random_gauss(rng) for _ in range(r)]
            if r % 2 == 1:
                i[-1] = _ZERO
            if not any(i):
                continue
            j = [_ZERO] * r
            for k in range(0, r - 1, 2):
                j[k] = -i[k + 1]
                j[k + 1] = i[k]
            d = RealADHMDatum(1, r, [[B1]], [[B2]], [i],
                              [[v] for v in j])
            if is_real_solution(d, 0):
                return d, GaussRational(0)
    raise ADHMError(f"unknown kind {kind!r}")


def random_invertible(c, rng):
    """Random invertible c x c matrix over the Gaussian rationals."""
    while True:
        g = Matrix(c, c, [[random_gauss(rng) for _ in range(c)]
                          for _ in range(c)])
        if g.rank() == c:
            return g


def gl_action(g, d):
    """(B, i, j) -> (g B g^-1, g i, j g^-1) on every block of a complex
    datum; residuals transform by conjugation, so solutions map to
    solutions and the classification is unchanged."""
    ginv = g.solve(Matrix.identity(d.c, _ONE, _ZERO))
    if ginv is None:
        raise ADHMError("gl_action: matrix is not invertible")
    return ComplexADHMDatum(
        d.c, d.r,
        g * d.B11 * ginv, g * d.B12 * ginv, g * d.B21 * ginv, g * d.B22 * ginv,
        g * d.i1, g * d.i2, d.j1 * ginv, d.j2 * ginv)




def grid_points():
    """Deterministic grid: all points of P^3 with coordinates in
    {0, 1, -1, i}, deduplicated up to scaling (first nonzero coordinate
    normalized to 1)."""
    values = [_ZERO, _ONE, -_ONE, GaussRational(0, 1)]
    seen = {}
    for pt in itertools.product(values, repeat=4):
        if not any(pt):
            continue
        lead = next(v for v in pt if v)
        norm = tuple(v / lead for v in pt)
        seen.setdefault(tuple(str(v) for v in norm), norm)
    return list(seen.values())


def seeded_points(n, seed):
    """n reproducible points of P^3 with small Gaussian-rational entries."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        pt = tuple(random_gauss(rng) for _ in range(4))
        if any(pt):
            out.append(pt)
    return out


def qbrace(n: int) -> QLaurent:
    """{n} = (q^(2n) - 1)/(q^2 - 1) = 1 + q^2 + ... + q^(2n-2), n >= 0."""
    if n < 0:
        raise ValueError("qbrace needs n >= 0")
    return QLaurent({2 * k: 1 for k in range(n)})


def qfact(n: int) -> QLaurent:
    """Brace factorial {n}! = {1}{2}...{n}; {0}! = 1."""
    if n < 0:
        raise ValueError("qfact needs n >= 0")
    out = _QL_ONE
    for k in range(1, n + 1):
        out = out * qbrace(k)
    return out


def qbinom(n: int, r: int) -> QLaurent:
    """Gaussian binomial {n}!/({r}!{n-r}!) via the Pascal recursion in q^2."""
    if not (0 <= r <= n):
        raise ValueError(f"qbinom out of range: ({n},{r})")
    # row-by-row: C(m, j) = C(m-1, j-1) + q^(2j) C(m-1, j)
    row = [_QL_ONE]
    for m in range(1, n + 1):
        new = [_QL_ONE]
        for j in range(1, m):
            new.append(row[j - 1] + QLaurent({2 * j: 1}) * row[j])
        new.append(_QL_ONE)
        row = new
    return row[r]


def qrat_as_qlaurent(r):
    """The QLaurent a QRat equals; ValueError if it equals none."""
    if r.den == _QL_ONE:
        return r.num
    try:
        return r.num / r.den
    except ValueError:
        raise ValueError(f"{r} is not a Laurent polynomial") from None


# ---------------------------------------------------------------------------
# the containment echelon over Q(i)(q): the oracle of adhm.slice_verdict
# ---------------------------------------------------------------------------

def _sparse_containment(rows, n_s, n_t, n_comp, n_e=None):
    """(image_rank, missed) for the slice rows of beta_P from _slice_rows
    (n_comp source components, n_s source and n_t target monomials): the
    echelon of [image | slice embedding] over the Laurent ring, where the
    slice is spanned by the first n_e target monomials of each component
    (n_s by default).  The embedding entries are added to ``rows`` in
    place.

    Columns are eliminated left to right, image block first, so a pivot
    landing in the embedding block is exactly a slice direction missed by
    the image of the capped source: image_rank = rank(image) and
    missed = rank([image | embedding]) - rank(image)."""
    n_e = n_s if n_e is None else n_e
    a_cols = n_comp * n_s
    n_v = len(rows) // n_t
    # the first n_s target monomials are exactly the degree <= dmax ones
    for v in range(n_v):
        for k in range(n_e):
            rows[v * n_t + k][a_cols + v * n_e + k] = QLaurent.one()
    pivots = _echelon(rows, a_cols + n_v * n_e)
    image_rank = sum(1 for j, _, _ in pivots if j < a_cols)
    return image_rank, len(pivots) - image_rank


def slice_rank_report(d, P, dmax, chart="I"):
    """Does the image of beta_P on degree <= dmax sources cover the degree
    <= dmax slice of V (x) M?  The one-point case of slice_rank_grid.

    Entries never lower degree, so the image of the capped source lives
    completely inside the degree <= dmax+1 slice and covering is an exact
    linear containment question.  Two routes, both sound:

    * the W block of beta_P is the constant matrix i~(P) with no generator
      part, so when i~(P) is onto V every slice element v (x) f is hit
      exactly by a preimage of the same degree -- an O(1) certificate;
    * otherwise a sparse echelon reduction of the image matrix next to the
      slice embedding decides containment over the rational function
      field.  beta_P = p1 beta_1 + p2 beta_2 is linear in P, and so are
      its slice rows: they are p1 R1 + p2 R2 for the slice rows R1, R2 of
      beta_1 and beta_2, which a grid builds once.  No q-specialization
      shortcut is used: specializing can move the ranks of the image and
      of the joined matrix independently, so it certifies nothing about a
      containment.
    """
    return slice_rank_grid(d, [P], dmax, chart)[0]


def slice_rank_grid(d, points, dmax, chart="I"):
    """slice_rank_report at each pencil point, with the operators and the
    slice rows of beta_1 and beta_2 built once for all points."""
    points = [tuple(pencil_scalar(v) for v in P) for P in points]
    if any(not p1 and not p2 for p1, p2 in points):
        raise QInstantonError("pencil parameters must not both vanish")
    n = len(_monomials_upto(dmax))
    _, _, b1, b2 = build_q_ops(d, chart)
    zero = QLaurent.zero()
    slices = None
    reports = []
    for p1, p2 in points:
        report = {"chart": chart, "P": [str(p1), str(p2)], "dmax": dmax,
                  "source_dim": b1.cols * n, "slice_dim": d.c * n}
        reports.append(report)
        if (d.i1.scale(p1) + d.i2.scale(p2)).rank() == d.c:
            report.update(image_rank=None, covered_dim=d.c * n,
                          surjective=True,
                          method="constant W-block i~(P) is onto V")
            continue
        if slices is None:
            slices = [_slice_rows(b, dmax, dmax + 1) for b in (b1, b2)]
        (r1, n_s, n_t), (r2, _, _) = slices
        rows = [{k: s for k in x.keys() | y.keys()
                 if (s := x.get(k, zero) * p1 + y.get(k, zero) * p2)}
                for x, y in zip(r1, r2)]
        image_rank, missed = _sparse_containment(rows, n_s, n_t, b1.cols)
        report.update(
            image_rank=image_rank, covered_dim=d.c * n - missed,
            surjective=missed == 0,
            method="exact sparse echelon over the rational function field")
    return reports


def least_covering_cap(d, P, up_to):
    """The least s <= up_to at which the image of beta_P on sources of
    degree <= s contains every e_v (x) 1, or None.  Entries never lower
    degree, so the target cap s + 1 holds that image whole."""
    p1, p2 = (pencil_scalar(v) for v in P)
    _, _, b1, b2 = build_q_ops(d)
    bp = b1.scale(p1) + b2.scale(p2)
    for s in range(up_to + 1):
        rows, n_s, n_t = _slice_rows(bp, s, s + 1)
        if _sparse_containment(rows, n_s, n_t, bp.cols, n_e=1)[1] == 0:
            return s
    return None


def alpha_slice_report(d, Q, dmax, chart="I"):
    """Rank of alpha_Q out of the degree <= dmax slice (injectivity test).

    The target cap dmax+1 captures every term of the image, so full column
    rank is exactly injectivity of alpha_Q on the capped slice.  The rank
    is the exact sparse echelon rank over the rational function field."""
    q1, q2 = (pencil_scalar(v) for v in Q)
    if not q1 and not q2:
        raise QInstantonError("pencil parameters must not both vanish")
    a1, a2, b1, b2 = build_q_ops(d, chart)
    aq = a1.scale(q1) + a2.scale(q2)
    mat = truncated_matrix(aq, dmax, dmax + 1)
    full = d.c * len(_monomials_upto(dmax))
    rank = mat.rank()
    return {
        "chart": chart,
        "Q": [str(q1), str(q2)],
        "dmax": dmax,
        "source_dim": full,
        "target_dim": mat.rows,
        "rank": rank,
        "injective": rank == full,
        "method": "exact sparse echelon over the rational function field",
    }
