"""Seeded data generators, small helpers and oracles that only the tests use.

They live here rather than in ``src/qadhm`` so that no command compiles
them.  The generators are deterministic in their seed, like
``adhm.random_stable_solution`` (which ``adhm random`` runs) and
``adhm.random_nonstable_solution`` (which the benchmark uses).  The slice
echelons over Q(i)(q) at the end are the oracle of ``slices.slice_verdict``,
and the pencil expansion before them that of the harmonic closed forms,
as the engine products with det(x) are that of ``basis_element``.  The
locally free and reflexive generators give solutions with j != 0.
The residuals by commutators and the module operators block by block, with
one sign table per chart, are the oracles of ``exactcore.complex_residuals``
and ``qinstanton.build_q_ops``, which read both off the monad pencils;
the full curvature product of a datum in the forms of
``forms_oracle.py``, audited entry by entry, is that of
``qinstanton.curvature_asd``, which reads the blocks off the wedge table.
The readers of an ``adhm.classify`` dict parse its points and witness
back into Gaussian rationals and a Matrix.
The paper statements that only the tests check are in ``statements.py``.
"""

import itertools
import random

from qadhm.adhm import _commuting_draw, classify
from qadhm.echelon import _as_qrat, _echelon
from qadhm.exactcore import (ADHMError, ComplexADHMDatum, Matrix,
                             RealADHMDatum, is_complex_solution, random_gauss)
from qadhm.krylov import _closure_basis
from qadhm.qinstanton import (_monomials_upto, _slice_rows, build_q_ops,
                              scalar_operator, truncated_matrix)
from qadhm.qspacetime import (HarmonicIndex, NCPoly, X_NAMES, Y_NAMES,
                              det_x, harmonic)
from qadhm.real import real_residuals
from qadhm.scalars import (_QL_ONE, GaussRational, QLaurent, _as_gauss, _gauss,
                           parse_gauss)

from forms_oracle import NCForm, d as exterior_d

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def small_gauss(rng, height, complex_parts=True):
    """a/d + (b/e)*i with |a|, |b| <= height and 1 <= d, e <= height, drawn
    from ``rng`` in the order a, d, b, e, or a/d alone when not
    ``complex_parts``: ``random_gauss`` is the height-3 complex draw."""
    a, d = rng.randint(-height, height), rng.randint(1, height)
    b, e = ((rng.randint(-height, height), rng.randint(1, height))
            if complex_parts else (0, 1))
    return _gauss(a * e, b * d, d * e)


def matrix_from_rows(entries):
    """The Matrix with these rows."""
    return Matrix(len(entries), len(entries[0]) if entries else 0, entries)


def read_point(p):
    """The point (z0, w0) of a report entry {"z": ..., "w": ...}."""
    return parse_gauss(p["z"]), parse_gauss(p["w"])


def failing_points(rep):
    """The failing points of an ``adhm.classify`` dict as (side, (z0, w0),
    multiplicity) triples."""
    return [(p["side"], read_point(p), p["multiplicity"])
            for p in rep["failing_points"]]


def witness_matrix(rep):
    """The witness subspace of an ``adhm.classify`` dict as a Matrix, None
    when it has none."""
    rows = rep["witness_subspace"]
    return None if rows is None else matrix_from_rows(
        [[parse_gauss(x) for x in row] for row in rows])


def submatrix(m, rows, cols):
    """The rows x cols part of the matrix m, in the given orders."""
    return Matrix(len(rows), len(cols),
                  [[m[i, j] for j in cols] for i in rows])


def pencil_scalar(v):
    """v as a Gaussian rational, for the pencil parameters P and Q."""
    g = _as_gauss(v)
    if g is NotImplemented:
        raise ADHMError(
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
    eye = Matrix.identity(c, _ONE, _ZERO)
    # X -> [B, X] is B (x) I - I (x) B^T and X -> X*i is I (x) i^T
    system = Matrix.vstack([B.kron(eye) - eye.kron(B.transpose())
                            for B in (B1, B2)] + [eye.kron(i.transpose())])
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
        if classify(d)["stable_everywhere"]:
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


def gl_r_action(h, d):
    """(i, j) -> (i h^-1, h j) on every block of a complex datum, the B's
    kept: i~j~ is unchanged, so solutions map to solutions."""
    hinv = h.solve(Matrix.identity(d.r, _ONE, _ZERO))
    if hinv is None:
        raise ADHMError("gl_r_action: matrix is not invertible")
    return ComplexADHMDatum(d.c, d.r, d.B11, d.B12, d.B21, d.B22,
                            d.i1 * hinv, d.i2 * hinv, h * d.j1, h * d.j2)


def transpose_dual(d):
    """(B12^T, B11^T, B22^T, B21^T, j1^T, j2^T, i1^T, i2^T): its residuals
    are the transposes of those of d, and it swaps the stable and costable
    sides."""
    return ComplexADHMDatum(d.c, d.r, *(m.transpose() for m in (
        d.B12, d.B11, d.B22, d.B21, d.j1, d.j2, d.i1, d.i2)))


def _dense_change_of_basis(d, rng):
    """d moved by a seeded dense element of GL(c) x GL(r), which hides its
    block structure."""
    return gl_r_action(random_invertible(d.r, rng),
                       gl_action(random_invertible(d.c, rng), d))


def semiregular_not_regular():
    """c=1, r=3: zero B's, independent i-rows, j1 = e3, j2 = 0.  Stable
    everywhere and costable everywhere but at [0:1], where j~ = z*e3
    vanishes."""
    return ComplexADHMDatum(1, 3, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0, 0]], [[0, 1, 0]],
                            [[0], [0], [1]], [[0], [0], [0]])


def _locally_free(c, rng):
    """The r = 2 datum of ``random_locally_free_solution`` before its
    change of basis."""
    blocks, _ = _commuting_draw(rng, c, 2)

    def draw(n, keep):
        while True:
            x = [random_gauss(rng) for _ in range(n)]
            if keep(x):
                return x
    # f = fz*z + fw*w and g = gz*z + gw*w, independent
    fz, fw, gz, gw = draw(4, lambda x: x[0] * x[3] != x[1] * x[2])
    v = draw(c, lambda x: x[0])         # cyclic for the shift N
    h = draw(c, lambda x: x[-1])        # cyclic for its transpose
    return ComplexADHMDatum(
        c, 2, *blocks,
        [[x * fz, x * gz] for x in v], [[x * fw, x * gw] for x in v],
        [[gz * y for y in h], [-fz * y for y in h]],
        [[gw * y for y in h], [-fw * y for y in h]])


def random_locally_free_solution(c, seed, dense=True):
    """Seeded regular solution with r = 2 and j != 0, whose sheaf is
    locally free (Barth and Hulek, Manuscripta Math. 25, 1978).

    The B's are those of ``adhm._commuting_draw``; i~ = v (f, g) for two
    independent linear forms f, g in (z, w) and v[0] != 0, and
    j~ = (g h^T; -f h^T) with h[c-1] != 0, so i~j~ = v(fg - gf)h^T = 0.
    Span v generates V under B~ at every point, and ker j~ = ker h^T holds
    no B~-invariant subspace ker N^k.  A seeded dense GL(c) x GL(r) change
    of basis follows unless not ``dense``."""
    rng = random.Random(seed)
    d = _locally_free(c, rng)
    return _dense_change_of_basis(d, rng) if dense else d


def _block_diagonal(a, b):
    return Matrix.vstack([
        Matrix.hstack([a, Matrix.zero(a.rows, b.cols, _ZERO)]),
        Matrix.hstack([Matrix.zero(b.rows, a.cols, _ZERO), b])])


def random_reflexive_solution(c, seed, dense=True):
    """Seeded semiregular solution with r = 5 and c >= 2 whose sheaf is
    reflexive with its singular locus over [0:1]: the direct sum of the
    charge-(c-1) datum of ``random_locally_free_solution`` with
    ``semiregular_not_regular``, then (if ``dense``) a seeded dense
    GL(c) x GL(r) change of basis.  A direct sum is stable where both
    summands are, and costable where both are."""
    rng = random.Random(seed)
    a, b = _locally_free(c - 1, rng), semiregular_not_regular()
    d = ComplexADHMDatum(c, 5, *(_block_diagonal(getattr(a, n), getattr(b, n))
                                 for n, _, _ in ComplexADHMDatum._BLOCKS))
    return _dense_change_of_basis(d, rng) if dense else d


def random_generic_solution(r, c, seed):
    """Seeded dense solution with r >= 2c: the four B's, i1 and i2 drawn
    dense, then (j1, j2) solved from the three residuals, which are linear
    in j: i1 j1 = -[B11,B12], i2 j2 = -[B21,B22] and i1 j2 + i2 j1 =
    -[B11,B22] - [B21,B12], 3c^2 equations in 2rc unknowns.  With rows
    read row-major, i j is (i (x) 1_c) vec(j).  ``solve`` sets the free
    unknowns to zero, which at c = 1 gives j = 0; a seeded combination of
    the kernel columns is added to the particular solution."""
    if r < 2 * c:
        raise ADHMError("a generic solution needs r >= 2c")
    rng = random.Random(seed)

    def dense(rows, cols):
        return Matrix(rows, cols, [[random_gauss(rng) for _ in range(cols)]
                                   for _ in range(rows)])
    B11, B12, B21, B22 = (dense(c, c) for _ in range(4))
    i1, i2 = dense(c, r), dense(c, r)
    eye = Matrix.identity(c, _ONE, _ZERO)
    k1, k2 = i1.kron(eye), i2.kron(eye)
    zero = Matrix.zero(c * c, r * c, _ZERO)
    system = Matrix.vstack([Matrix.hstack(row) for row in (
        [k1, zero], [zero, k2], [k2, k1])])
    rhs = Matrix(3 * c * c, 1, [[-x] for m in (
        B11.commutator(B12), B21.commutator(B22),
        B11.commutator(B22) + B21.commutator(B12))
        for row in m.a for x in row])
    x = system.solve(rhs)
    if x is None:
        raise ADHMError("the j equations have no solution for this draw")
    kernel = system.kernel()
    if kernel.cols:
        x = x + kernel * dense(kernel.cols, 1)
    v = [row[0] for row in x.a]
    j1, j2 = (Matrix(r, c, [v[k + i * c:k + (i + 1) * c] for i in range(r)])
              for k in (0, r * c))
    return ComplexADHMDatum(c, r, B11, B12, B21, B22, i1, i2, j1, j2)


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


def ncpoly_power(p, n):
    """p^n (n >= 0), multiplied out one factor at a time."""
    out = NCPoly.one(p.chart)
    for _ in range(n):
        out = out * p
    return out


def basis_element_by_products(idx):
    """det(x)^k X^l_{m,n} as k engine products of det_x() with harmonic(),
    the oracle of ``qspacetime.basis_element``."""
    out = harmonic(HarmonicIndex(idx.two_l, idx.two_m, idx.two_n))
    for _ in range(idx.k):
        out = det_x() * out
    return out


def gauss_power(x, n):
    """x^n for a GaussRational x and an int n, one product at a time."""
    out = _ONE
    for _ in range(abs(n)):
        out = out * x
    return out if n >= 0 else _ONE / out


def ql_evaluate(f: QLaurent, q0: GaussRational) -> GaussRational:
    """The value of the Laurent polynomial f at q = q0."""
    return sum((c * gauss_power(q0, e) for e, c in f.terms.items()), _ZERO)


def ncpoly_q1(f):
    """The classical limit q = 1 of an NCPoly: {monomial: GaussRational}."""
    out = {m: c.subs_q1() for m, c in f.terms.items()}
    return {m: v for m, v in out.items() if v}


def qrat_as_qlaurent(r):
    """The QLaurent a QRat equals; ValueError if it equals none."""
    if r.den == _QL_ONE:
        return r.num
    try:
        return r.num / r.den
    except ValueError:
        raise ValueError(f"{r} is not a Laurent polynomial") from None


# ---------------------------------------------------------------------------
# the pencil expansion: the oracle of the harmonic closed forms
# ---------------------------------------------------------------------------

def pencil_power(gen_s, gen_c, n, chart):
    """(gen_s*s + gen_c)^n as a list of NCPoly coefficients of s^0..s^n,
    multiplied out one factor at a time through the chart's engine."""
    a = NCPoly.gen(chart, gen_s)
    b = NCPoly.gen(chart, gen_c)
    acc = [NCPoly.one(chart)]
    for _ in range(n):
        nxt = []
        for r in range(len(acc) + 1):
            t = NCPoly.zero(chart)
            if r - 1 >= 0:
                t = t + a * acc[r - 1]
            if r < len(acc):
                t = t + b * acc[r]
            nxt.append(t)
        acc = nxt
    return acc


def pencil_residue(idx, chart, pair1, pair2, two_p, two_t):
    """Coefficient of s^(l-t) in (a1 s + b1)^(l-p) (a2 s + b2)^(l+p) for
    the generator pairs (a1, b1), (a2, b2) of the chart, expanded and
    multiplied through the chart's engine; p and t are the halves of two_p
    and two_t.  Out-of-range indices give 0; needs k = 0."""
    if idx.k != 0:
        raise ValueError("the pencil residue expects k = 0")
    if not idx.in_range():
        return NCPoly.zero(chart)
    first = pencil_power(*pair1, (idx.two_l - two_p) // 2, chart)
    second = pencil_power(*pair2, (idx.two_l + two_p) // 2, chart)
    target = (idx.two_l - two_t) // 2
    acc = NCPoly.zero(chart)
    for r1 in range(len(first)):
        r2 = target - r1
        if 0 <= r2 < len(second):
            acc = acc + first[r1] * second[r2]
    return acc


def harmonic_by_pencils(idx):
    """X^l_{m,n} as the engine expands it: the oracle of harmonic()."""
    return pencil_residue(idx, "I", ("x11", "x21"), ("x12", "x22"),
                          idx.two_m, idx.two_n)


# ---------------------------------------------------------------------------
# the residuals and the module operators written block by block
# ---------------------------------------------------------------------------

def complex_residuals_by_commutators(d):
    """The three residuals [B11,B12] + i1*j1, [B21,B22] + i2*j2 and
    [B11,B22] + [B21,B12] + i1*j2 + i2*j1, from their commutators."""
    r1 = d.B11.commutator(d.B12) + d.i1 * d.j1
    r2 = d.B21.commutator(d.B22) + d.i2 * d.j2
    r3 = (d.B11.commutator(d.B22) + d.B21.commutator(d.B12)
          + d.i1 * d.j2 + d.i2 * d.j1)
    return r1, r2, r3


def _shifted_block(chart, b, gen_name, gen_sign):
    """Block B (+|-) generator: entries B[u][v] + gen_sign * delta_uv * gen."""
    g = NCPoly.gen(chart, gen_name).scale(gen_sign)
    return scalar_operator(b, chart) + Matrix.identity(b.rows, g,
                                                       NCPoly.zero(chart))


def build_q_ops_by_blocks(d, chart="I"):
    """The four operators (alpha_1, alpha_2, beta_1, beta_2) of a datum,
    each block shifted by its generator as a sign table of the chart gives.

    Chart I pairs the generators (x11, x12) with alpha_1/beta_1 and
    (x21, x22) with alpha_2/beta_2; chart J swaps in the y-generators with
    the sign pattern demanded by its exchange rules.  The alphas stack their
    blocks as V|V|W rows over V, the betas join them as V|V|W columns into V.
    """
    if chart == "I":
        g11, g12, g21, g22 = X_NAMES
        a1 = [(d.B11, g11, -1), (d.B12, g12, -1)]
        a2 = [(d.B21, g21, -1), (d.B22, g22, -1)]
        b1 = [(-d.B12, g12, 1), (d.B11, g11, -1)]
        b2 = [(-d.B22, g22, 1), (d.B21, g21, -1)]
    elif chart == "J":
        y11, y12, y21, y22 = Y_NAMES
        a1 = [(d.B11, y22, -1), (d.B12, y12, 1)]
        a2 = [(d.B21, y21, 1), (d.B22, y11, -1)]
        b1 = [(-d.B12, y12, -1), (d.B11, y22, -1)]
        b2 = [(-d.B22, y11, 1), (d.B21, y21, 1)]
    else:
        raise ADHMError(f"unknown chart {chart!r}")

    def op(stack, shifted, const):
        return stack([_shifted_block(chart, *blk) for blk in shifted]
                     + [scalar_operator(const, chart)])

    return (op(Matrix.vstack, a1, d.j1), op(Matrix.vstack, a2, d.j2),
            op(Matrix.hstack, b1, d.i1), op(Matrix.hstack, b2, d.i2))


def bars(a1, a2, b1, b2):
    """(alpha-bar, beta-bar) from one build of the four operators: the
    joined (alpha_1 | alpha_2) : V|V -> V|V|W and the stacked
    (-beta_2 ; beta_1) : V|V|W -> V|V."""
    return Matrix.hstack([a1, a2]), Matrix.vstack([-b2, b1])


# ---------------------------------------------------------------------------
# the containment echelon over Q(i)(q): the oracle of adhm.slice_verdict
# ---------------------------------------------------------------------------

def _sparse_containment(rows, n_s, n_t, n_comp, n_e=None):
    """(image_rank, missed) for the slice rows of beta_P from _slice_rows
    (n_comp source components, n_s source and n_t target monomials): the
    echelon of [image | slice embedding] over Q(i)(q), the entries lifted
    to QRat, where the slice is spanned by the first n_e target monomials
    of each component (n_s by default).  The embedding entries are added
    to ``rows`` in place.

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
    pivots = _echelon([{k: _as_qrat(v) for k, v in r.items()} for r in rows],
                      a_cols + n_v * n_e)
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
        raise ADHMError("pencil parameters must not both vanish")
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
        raise ADHMError("pencil parameters must not both vanish")
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


# ---------------------------------------------------------------------------
# reference curvature product, SD/ASD split and quoted curvature display
# ---------------------------------------------------------------------------

def curvature_by_datum_product(d, p_choice="q"):
    """Reference for the blocks of ``qinstanton.curvature_asd``: the full
    (2c+r) x (2c+r) product d(alpha-bar) ^ d(beta-bar) of the datum's own
    operators, in the forms of ``forms_oracle``, audited entry by entry to
    be one 2-form times an identity matrix in each of the 3x3 blocks;
    returns the nine block 2-forms."""
    from qadhm.qcalculus import derive_table
    table = derive_table(p_choice)

    def dform(p):
        return exterior_d(p, table)

    abar, bbar = bars(*build_q_ops(d))
    prod = abar.map(dform) * bbar.map(dform)
    bounds = [0, d.c, 2 * d.c, prod.rows]
    zero = NCForm(table, 2)
    blocks = []
    for a in range(3):
        row = []
        for b in range(3):
            comp = prod[bounds[a], bounds[b]]
            for i in range(bounds[a], bounds[a + 1]):
                for j in range(bounds[b], bounds[b + 1]):
                    want = comp if i - bounds[a] == j - bounds[b] else zero
                    if prod[i, j] != want:
                        raise AssertionError(
                            f"curvature block ({a}, {b}) is not scalar at "
                            f"entry ({i}, {j})")
            row.append(comp)
        blocks.append(row)
    return blocks


def grouped_sd_asd_split(omega):
    """Reference for ``qinstanton.sd_asd_split`` on a constant 2-form
    {word: QLaurent}: split its six coordinates, the mixed pair (c+, c-) on
    dx11^dx22, dx12^dx21 into (c+ - c-)/2 along the SD vector dx11^dx22 -
    dx12^dx21 and (c+ + c-)/2 along the ASD vector dx11^dx22 +
    dx12^dx21."""
    zero, half = QLaurent.zero(), QLaurent.one() / 2
    mix_plus, mix_minus = (0, 3), (1, 2)
    sd, asd = {}, {}
    for words, part in ((((0, 1), (2, 3)), sd), (((0, 2), (1, 3)), asd)):
        for w in words:
            if omega.get(w):
                part[w] = omega[w]
    cp = omega.get(mix_plus, zero)
    cm = omega.get(mix_minus, zero)
    alpha, beta = (cp - cm) * half, (cp + cm) * half
    if alpha:
        sd[mix_plus] = alpha
        sd[mix_minus] = -alpha
    if beta:
        asd[mix_plus] = beta
        asd[mix_minus] = beta
    return sd, asd


def quoted_display_reference(table):
    """The quoted curvature block matrix, written out as constant-coefficient
    2-forms of ``forms_oracle`` with GaussRational-valued Laurent
    coefficients."""
    def form(coeffs):
        return NCForm(table, 2, {(w, (0, 0, 0, 0)): QLaurent(
            {0: GaussRational(c)}) for w, c in coeffs.items()})
    zero = form({})
    return [[form({(0, 3): -1, (1, 2): -1}), form({(0, 2): 2}), zero],
            [form({(1, 3): -2}), form({(0, 3): 1, (1, 2): 1}), zero],
            [zero, zero, zero]]
