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
transpose-dual notion with ker j.  Pointwise stability of the pencil for every
[z:w] is decided exactly: the Krylov matrix whose columns are all words of
length <= c-1 in (B~1, B~2) applied to the columns of i~ has full rank at
[z0:w0] iff the evaluated triple is stable there, so the common projective
roots of its c x c minors - the roots of their homogeneous gcd - are precisely
the unstable points.  No minor is expanded: the gcd is the c-th determinantal
divisor of the module the Krylov columns span over Q(i)[t], the product of
the pivots of a Hermite basis of at most c columns.  The module is built in
the chart w = 1 (t = z), where B~k = t*Bzk + Bwk, one word length per round;
the multiplicity of [1:0] comes from the same reduction in the chart z = 1
(t = w).  The taxonomy reported by ``classify`` is:

  stable_everywhere    minor gcd has degree 0
  semistable           some minor is not identically zero
  costable_everywhere  same test on the transposed pencil seeded by j~
  semiregular          stable everywhere and costable somewhere
  regular              stable everywhere and costable everywhere

The word closure also decides whether the module map beta_P of
``qinstanton`` is onto at a point; ``slices`` holds that verdict, and reads
the whole line off the stable side of the taxonomy.

An independent rank criterion is provided by ``derivative_rank``: the
derivative of the three residuals in all datum entries is a
3c^2 x (4c^2 + 4cr) matrix whose rank is 3c^2 exactly on the stable locus.

Seeded generators produce exact solutions that are stable everywhere or
unstable at one planted point; both draw from small-height Gaussian
rationals for reproducibility.
"""

from __future__ import annotations

import random
from collections import deque
from math import comb, prod

from .datum import ADHMError, ComplexADHMDatum, is_complex_solution
from .exactcore import Matrix, random_gauss
from .scalars import _QL_ONE, GaussRational, QLaurent, _ql_divmod

__all__ = [
    "StabilityReport", "is_stable", "is_costable", "classify",
    "derivative_rank", "gcd_projective_roots", "random_stable_solution",
    "random_nonstable_solution",
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


# ---------------------------------------------------------------------------
# pointwise stability by word closure
# ---------------------------------------------------------------------------

def _apply(m, col):
    """The column m * col, with col a list."""
    return [sum((x * y for x, y in zip(row, col) if x and y), _ZERO)
            for row in m.a]


def _reduce(echelon, col):
    """col minus a combination of the echelon vectors.  Each (p, v) has
    v[p] = 1 and vanishes at the pivots of the vectors before it, so one
    pass in order leaves col zero at every pivot: the result is zero exactly
    when col lies in their span."""
    for p, v in echelon:
        f = col[p]
        if f:
            col = [x - f * y if y else x for x, y in zip(col, v)]
    return col


def _closure_basis(ops, seed):
    """(basis, words) of the smallest subspace containing the columns of
    seed and invariant under every operator in ops.  Column k of basis is
    ops[w[0]] ... ops[w[-1]] applied to seed column t for words[k] = (t, w),
    w a string of 1-based operator indices.  Candidates are taken breadth
    first, so the longest word is the closure depth, and kept when one
    incremental echelon finds them independent of those kept before."""
    c = seed.rows
    basis, words, echelon = [], [], []
    queue = deque((seed.col(t), t, "") for t in range(seed.cols))
    while queue and len(basis) < c:
        col, t, w = queue.popleft()
        rest = _reduce(echelon, col)
        p = next((k for k, x in enumerate(rest) if x), None)
        if p is None:
            continue
        inv = _ONE / rest[p]
        echelon.append((p, [x * inv if x else x for x in rest]))
        basis.append(col)
        words.append((t, w))
        if len(basis) < c:
            queue.extend((_apply(op, col), t, f"{k}{w}")
                         for k, op in enumerate(ops, 1))
    rows = [list(r) for r in zip(*basis)] or [[] for _ in range(c)]
    return Matrix(c, len(basis), rows), words


def is_stable(B1, B2, i):
    """(stable, witness): witness is a column basis of a proper invariant
    subspace containing Im i when the triple is not stable, else None."""
    c = B1.rows
    if B1.cols != c or B2.rows != c or B2.cols != c or i.rows != c:
        raise ADHMError("is_stable: inconsistent shapes")
    closure, _ = _closure_basis([B1, B2], i)
    if closure.cols == c:
        return True, None
    return False, closure


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


# ---------------------------------------------------------------------------
# homogeneous gcds in (z, w) and their projective roots
# ---------------------------------------------------------------------------
# A homogeneous gcd is a pair (g, v): g is its chart-w = 1 polynomial in
# t = z (a nonzero QLaurent with no negative exponent) and v the
# multiplicity of [1:0], so the gcd is w^(deg g + v) * g(z/w).

def _gcd_str(g, v):
    """The gcd (g, v) as ``(c)*z^a*w^b + ...``, highest power of z first."""
    n = g.deg() + v

    def mono(a, b):
        parts = []
        if a:
            parts.append("z" if a == 1 else f"z^{a}")
        if b:
            parts.append("w" if b == 1 else f"w^{b}")
        return "*".join(parts) or "1"
    return " + ".join(f"({c})*{mono(a, n - a)}"
                      for a, c in sorted(g.terms.items(), reverse=True))


def _gauss_from_sympy(x):
    from fractions import Fraction
    re_, im_ = x.as_real_imag()
    return GaussRational(Fraction(int(re_.p), int(re_.q)),
                         Fraction(int(im_.p), int(im_.q)))


def gcd_projective_roots(g, v):
    """Split the homogeneous gcd (g, v) into Q(i)-rational projective roots
    and leftover irreducible factors (as display strings).

    Returns (roots, leftovers): roots are ([z0:w0], multiplicity) pairs with
    GaussRational coordinates, z = 0 first (multiplicity g.val()), then
    w = 0 (multiplicity v), then the rest; leftovers are strings for
    factors with no Q(i) root.  The rest, g shifted to valuation 0, is
    checked exactly against lc*(t - a)^d with a = -g_(d-1)/(d*g_d), which
    gives its one root without sympy; any other rest is factored by sympy
    over QQ_I.
    """
    if not g:
        raise ValueError("zero polynomial has every root")
    za = g.val()
    roots = []
    if za:
        roots.append(((GaussRational(0), GaussRational(1)), za))  # z = 0
    if v:
        roots.append(((GaussRational(1), GaussRational(0)), v))   # w = 0
    d = g.deg() - za
    if d == 0:
        return roots, []
    coeffs = [g.coeff(za + k) for k in range(d + 1)]
    lead = coeffs[d]
    root = -coeffs[d - 1] / (lead * d)
    if all(coeffs[k] == lead * comb(d, k) * (-root) ** (d - k)
           for k in range(d - 1)):
        roots.append(((root, GaussRational(1)), d))
        return roots, []

    import sympy

    t = sympy.Symbol("t")
    expr = sympy.Integer(0)
    for k, c in enumerate(coeffs):
        coef = sympy.Rational(c.re.numerator, c.re.denominator) \
            + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)
        expr += coef * t ** k
    poly = sympy.Poly(expr, t, domain="QQ_I")
    _, factors = poly.factor_list()
    leftovers = []
    for fac, mult in factors:
        if fac.degree() == 1:
            c1, c0 = (_gauss_from_sympy(x) for x in fac.all_coeffs())
            roots.append(((-c0 / c1, GaussRational(1)), mult))
        else:
            leftovers.append(sympy.sstr(fac.as_expr()))
    return roots, leftovers


# ---------------------------------------------------------------------------
# global stability over the projective line
# ---------------------------------------------------------------------------
# Polynomial columns are lists of QLaurent in t with no negative exponent.

def _lead(e):
    """The top coefficient of a nonzero polynomial."""
    return e.terms[e.deg()]


def _monic(col, p):
    """col scaled to make its entry at p monic."""
    inv = _ONE / _lead(col[p])
    return [x * inv if x else x for x in col]


def _hermite_diagonal(cols, c):
    """Pivots of a column Hermite basis of the module spanned by cols, which
    has rank c: each new column is reduced by Euclid on the columns at each
    pivot row in turn, and each pivot is made monic.  Their product is the
    gcd of the c x c minors of cols."""
    basis = {}
    for col in cols:
        for p in range(c):
            if not col[p]:
                continue
            h = basis.get(p)
            if h is not None:
                while col[p]:
                    q, _ = _ql_divmod(h[p], col[p])
                    h, col = col, ([x - q * y for x, y in zip(h, col)]
                                   if q else h)
            else:
                h, col = col, None
            basis[p] = _monic(h, p)
            if col is None:
                break
    return [basis[p][p] for p in range(c)]


def _krylov_pivots(ops, seed):
    """Hermite pivots of the Q(i)[t]-module spanned by all words of length
    <= c-1 in the operators applied to the seed columns, or None when that
    module has rank < c.

    ops and seed are matrices of polynomials in t.  The module is kept as a
    weak Popov basis: at most c columns, each with a distinct leading
    position (the last row where the column reaches its degree); a new
    column is reduced by subtracting c*t^k times the basis column with its
    leading position until it vanishes or takes a free one.  Each round
    adds B~1*H and B~2*H for the basis H; since the B~ are Q(i)[t]-linear,
    c-1 rounds span the words of length <= c-1.  The column degrees of a
    full-rank weak Popov basis sum to the degree of its determinant, so the
    rounds stop once they are all 0 (the module is all of Q(i)[t]^c).
    Otherwise the basis, of small degree, goes to ``_hermite_diagonal``;
    reducing every column there instead lets the coefficients of the Euclid
    remainders grow to tens of thousands of bits at c = 6.
    """
    c, basis = seed.rows, {}

    def insert(col):
        while any(col):
            degs = [e.deg() if e else -1 for e in col]
            d = max(degs)
            p = max(k for k, e in enumerate(degs) if e == d)
            h = basis.get(p)
            if h is not None and h[p].deg() <= d:
                m = QLaurent({d - h[p].deg(): -_lead(col[p])})
                col = [x + m * y if y else x for x, y in zip(col, h)]
                continue
            basis[p] = _monic(col, p)
            if h is None:
                return
            col = h

    def done():
        return len(basis) == c and all(not h[p].deg()
                                       for p, h in basis.items())

    for k in range(seed.cols):
        insert(seed.col(k))
    for _ in range(c - 1):
        for h in list(basis.values()):
            h = Matrix(c, 1, [[e] for e in h])
            for op in ops:
                if done():
                    return [_QL_ONE] * c
                insert((op * h).col(0))
    if len(basis) < c:
        return None
    return _hermite_diagonal(list(basis.values()), c)


def _krylov_minor_gcd(Bz1, Bw1, Bz2, Bw2, Sz, Sw):
    """Analyse the Krylov pencil of (z*Bz1 + w*Bw1, z*Bz2 + w*Bw2) seeded by
    the columns of z*Sz + w*Sw.

    Returns (all_zero, gcd): all_zero is True when every c x c minor of the
    Krylov matrix vanishes identically (gcd is then None); otherwise gcd is
    the monic-in-z homogeneous gcd (g, v) of the minors.  That gcd is the
    c-th determinantal divisor of the module the Krylov columns span: g is
    the product of the pivots of a Hermite basis in the chart w = 1 (t = z),
    and the multiplicity v of [1:0] is the t-adic valuation of the divisor
    in the chart z = 1 (t = w), needed only when the triple at [1:0] is not
    stable.
    """
    def pencil(bt, b0):
        return Matrix(bt.rows, bt.cols,
                      [[QLaurent({1: x, 0: y}) for x, y in zip(rt, r0)]
                       for rt, r0 in zip(bt.a, b0.a)])

    pivots = _krylov_pivots([pencil(Bz1, Bw1), pencil(Bz2, Bw2)],
                            pencil(Sz, Sw))
    if pivots is None:
        return True, None
    g = prod(pivots, start=_QL_ONE)
    v = 0
    if not is_stable(Bz1, Bz2, Sz)[0]:
        v = sum(p.val() for p in _krylov_pivots(
            [pencil(Bw1, Bz1), pencil(Bw2, Bz2)], pencil(Sw, Sz)))
    return False, (g, v)


def _gcd_roots(zero, gcd):
    """The projective roots and leftover factors of one side's minor gcd:
    none when every minor vanishes (zero) or the gcd is 1."""
    if zero or gcd == (_QL_ONE, 0):
        return [], []
    return gcd_projective_roots(*gcd)


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


