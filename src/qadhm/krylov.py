"""The Krylov closure of a triple pencil: stability at a point and over the
projective line.

A triple (B1, B2, i) of c x c, c x c and c x r matrices is *stable* when no
proper subspace is invariant under both B's and contains the image of i.
``is_stable`` decides it from the word closure ``_closure_basis`` over Q(i),
whose basis words ``slices`` also reads for the beta_P verdicts.

For a pencil B~k = z*Bzk + w*Bwk, i~ = z*Sz + w*Sw over the line [z:w], the
Krylov matrix whose columns are all words of length <= c-1 in (B~1, B~2)
applied to the columns of i~ has full rank at [z0:w0] iff the evaluated
triple is stable there, so the common projective roots of its c x c minors
- the roots of their homogeneous gcd - are precisely the unstable points.
No minor is expanded: the gcd is the c-th determinantal divisor of the
module the Krylov columns span over Q(i)[t], the product of the pivots of a
Hermite basis of at most c columns.  The module is built in the chart w = 1
(t = z), where B~k = t*Bzk + Bwk, one word length per round; the
multiplicity of [1:0] comes from the same reduction in the chart z = 1
(t = w).  ``gcd_projective_roots`` splits the gcd into its Q(i)-rational
roots.

The taxonomy of ``adhm`` and the verdicts of ``slices`` both import from
here, so ``inst slices`` does not load ``adhm``.
"""

from collections import deque
from math import comb, prod

from .datum import ADHMError
from .exactcore import Matrix
from .scalars import _QL_ONE, GaussRational, QLaurent, _ql_divmod

__all__ = ["is_stable", "gcd_projective_roots"]

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


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
