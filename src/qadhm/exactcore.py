"""Exact matrices over the scalars of ``scalars``, and the ADHM data.

``Matrix`` is a dense matrix whose rank, kernel and solve run through the
one sparse row echelon ``echelon._echelon`` over the fraction field of the
entries (it takes field rows, so QLaurent entries are lifted to QRat here),
and whose products skip zero factors.  Only those three methods load
``echelon``, when they are called.
``random_gauss`` draws the small random entries of the seeded data.

A complex datum is a tuple (B11, B12, B21, B22, i1, i2, j1, j2) of c x c,
c x r and r x c matrices over the Gaussian rationals, a real datum a tuple
(B1, B2, i, j).  ``monad_pencils`` is the one place that writes the blocks
and signs of the two pencils of a complex datum, linear in (x, y, z, w):

  alpha = ( z*B11 + w*B21 + x*1 )            (2c+r) x c
          ( z*B12 + w*B22 + y*1 )
          ( z*j1  + w*j2        )

  beta  = ( -z*B12 - w*B22 - y*1 | z*B11 + w*B21 + x*1 | z*i1 + w*i2 )

The three residuals of the datum are the z^2, w^2 and zw coefficients of
beta*alpha, and the module operators of ``qinstanton`` the z and w
coefficients with (x, y) replaced by generators of a chart.

The scalar types are defined in ``scalars`` and ``echelon``.  They are bound
here too because the benchmark (``perfbench/``) imports and traces them
through this module; the objects are the same.  ``QRat`` is bound on first
read, by the module ``__getattr__`` (PEP 562), so that importing this module
does not load ``echelon``.  No ``q`` command loads this module.
"""

from .scalars import (_GR_ONE, _GR_ZERO, GaussRational, Immutable, QLaurent,
                      _as_gauss, _gauss, parse_gauss)

__all__ = [
    "GaussRational", "QLaurent", "QRat", "Matrix", "random_gauss",
    "ADHMError", "ComplexADHMDatum", "RealADHMDatum", "datum_from_json",
    "monad_pencils", "complex_residuals", "is_complex_solution",
]


def __getattr__(name):
    if name == "QRat":
        from .echelon import QRat
        return QRat
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def random_gauss(rng) -> GaussRational:
    """a/d + (b/e)*i with |a|, |b| <= 3 and 1 <= d, e <= 3, drawn from
    ``rng`` in the order a, d, b, e."""
    a, d, b, e = (rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-3, 3),
                  rng.randint(1, 3))
    return _gauss(a * e, b * d, d * e)


# ---------------------------------------------------------------------------
# dense exact matrices
# ---------------------------------------------------------------------------

class Matrix:
    """Dense matrix over an exact scalar type (GaussRational/QLaurent/QRat),
    or over a ring whose elements add and multiply with ``+`` and ``*``: the
    module operators of ``qinstanton`` hold chart polynomials (``NCPoly``).

    Entries are stored row-major as a list of lists; instances are treated as
    immutable (operations return fresh matrices).  Rank, kernel and solve
    need scalar entries and hand the nonzero ones to ``_echelon``.
    """

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows, cols, entries):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match shape")
        self.rows = rows
        self.cols = cols
        self.a = [list(r) for r in entries]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, rows, cols, zero_elt):
        return cls(rows, cols, [[zero_elt] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n, one_elt, zero_elt):
        return cls(n, n, [[one_elt if i == j else zero_elt for j in range(n)]
                          for i in range(n)])

    # -- structural ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.a == other.a)

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def col(self, j):
        return [self.a[i][j] for i in range(self.rows)]

    def is_zero(self):
        return all(not x for r in self.a for x in r)

    def map(self, fn):
        return Matrix(self.rows, self.cols,
                      [[fn(x) for x in r] for r in self.a])

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.a[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def dagger(self):
        """Conjugate transpose (i -> -i entrywise)."""
        return Matrix(self.cols, self.rows,
                      [[self.a[i][j].conjugate() for i in range(self.rows)]
                       for j in range(self.cols)])

    @classmethod
    def hstack(cls, mats):
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row mismatch")
        return cls(rows, sum(m.cols for m in mats),
                   [sum((m.a[i] for m in mats), []) for i in range(rows)])

    @classmethod
    def vstack(cls, mats):
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: col mismatch")
        return cls(sum(m.rows for m in mats), cols,
                   [r for m in mats for r in m.a])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in add")
        return Matrix(self.rows, self.cols,
                      [[self.a[i][j] + other.a[i][j]
                        for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in sub")
        return Matrix(self.rows, self.cols,
                      [[self.a[i][j] - other.a[i][j]
                        for j in range(self.cols)] for i in range(self.rows)])

    def __neg__(self):
        return self.map(lambda x: -x)

    def scale(self, c):
        return self.map(lambda x: x * c)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matmul")
        if not self.cols:
            raise ValueError("cannot infer scalar type of an empty product")
        # Each entry sums only the products of two nonzero factors and
        # starts at the first of them, never at a zero of the entry type:
        # NCPoly.zero() is a chart-I zero, which a chart-J product cannot be
        # added to.  An entry with no such product is r[0]*b[0][j], a zero
        # of the factors' own kind.
        b = other.a
        out = []
        for r in self.a:
            nonzero = [(k, x) for k, x in enumerate(r) if x]
            row = []
            for j in range(other.cols):
                acc = None
                for k, x in nonzero:
                    y = b[k][j]
                    if y:
                        acc = x * y if acc is None else acc + x * y
                row.append(r[0] * b[0][j] if acc is None else acc)
            out.append(row)
        return Matrix(self.rows, other.cols, out)

    def commutator(self, other):
        return self * other - other * self

    def kron(self, other):
        """Kronecker product: block (a, b) is self[a, b] * other.  A zero
        factor is copied, not multiplied, as products skip zero factors."""
        return Matrix(self.rows * other.rows, self.cols * other.cols,
                      [[x and y and x * y for x in r for y in s]
                       for r in self.a for s in other.a])

    # -- elimination --------------------------------------------------------

    def _field_rows(self):
        """Sparse rows {col: nonzero entry}, QLaurent entries lifted to QRat."""
        from .echelon import QRat
        return [{j: QRat(x) if isinstance(x, QLaurent) else x
                 for j, x in enumerate(r) if x} for r in self.a]

    def _field_zero_one(self):
        if not (self.rows and self.cols):
            raise ValueError("cannot infer scalar type of an empty matrix")
        kind = type(self.a[0][0])
        if kind is QLaurent:
            from .echelon import QRat as kind
        return kind.zero(), kind.one()

    def rank(self) -> int:
        """Exact rank over the fraction field of the entries."""
        from .echelon import _echelon
        return len(_echelon(self._field_rows(), self.cols))

    def kernel(self):
        """Columns spanning {v : self*v = 0}, over the fraction field,
        read off the reduced row echelon form (one column per free
        variable)."""
        if self.cols == 0:
            return Matrix(0, 0, [])
        if self.rows == 0:
            raise ValueError("kernel of a 0-row matrix is everything; "
                             "build an identity explicitly")
        from .echelon import _echelon
        zero, one = self._field_zero_one()
        pivots = _echelon(self._field_rows(), self.cols, reduced=True)
        pivot_cols = {j for j, _, _ in pivots}
        vecs = []
        for f in range(self.cols):
            if f in pivot_cols:
                continue
            v = [zero] * self.cols
            v[f] = one
            for pj, _, row in pivots:
                x = row.get(f)
                if x is not None:
                    v[pj] = -x
            vecs.append(v)
        if not vecs:
            return Matrix(self.cols, 0, [[] for _ in range(self.cols)])
        return Matrix(self.cols, len(vecs),
                      [[vec[i] for vec in vecs] for i in range(self.cols)])

    def solve(self, rhs):
        """One exact solution of self*x = rhs (Matrix with rhs.cols columns),
        or None when inconsistent.  Free variables are set to zero."""
        if rhs.rows != self.rows:
            raise ValueError("solve: shape mismatch")
        aug = Matrix.hstack([self, rhs])
        from .echelon import _echelon
        zero, _ = aug._field_zero_one()
        pivots = _echelon(aug._field_rows(), aug.cols, reduced=True)
        out = [[zero] * rhs.cols for _ in range(self.cols)]
        for pj, _, row in pivots:
            if pj >= self.cols:
                return None  # a pivot on the right-hand side: inconsistent
            for k in range(rhs.cols):
                out[pj][k] = row.get(self.cols + k, zero)
        return Matrix(self.cols, rhs.cols, out)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return [[str(x) for x in r] for r in self.a]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# complex and real data
# ---------------------------------------------------------------------------

class ADHMError(ValueError):
    """Every refused input: bad shapes, unmet preconditions, non-solutions."""


def _scalar(x):
    """An input entry as a GaussRational; a JSON boolean is refused."""
    if isinstance(x, str):
        return parse_gauss(x)
    g = NotImplemented if isinstance(x, bool) else _as_gauss(x)
    if g is NotImplemented:
        raise ADHMError(f"cannot coerce {x!r} to a Gaussian rational")
    return g


def _check_counts(c, r):
    """Refuse c and r unless both are positive ints.  A JSON true or false
    loads as a bool, which is an int too, and is refused by name."""
    for name, n in (("c", c), ("r", r)):
        if isinstance(n, bool):
            raise ADHMError(f"{name} must be an integer, not a boolean")
    if not (isinstance(c, int) and c >= 1 and isinstance(r, int) and r >= 1):
        raise ADHMError("c and r must be positive integers")


def _as_matrix(m, rows, cols, name):
    entries = m.a if isinstance(m, Matrix) else m
    try:
        if not all(isinstance(x, (list, tuple)) for x in (entries, *entries)):
            raise TypeError("expected a list of rows, each a list")
        return Matrix(rows, cols,
                      [[_scalar(x) for x in row] for row in entries])
    except (ValueError, TypeError) as exc:
        raise ADHMError(f"{name} must be a {rows}x{cols} matrix: "
                        f"{exc}") from exc


class _Datum(Immutable):
    """A datum as a table of blocks: ``_BLOCKS`` lists (name, rows, cols),
    the sizes named "c" or "r", in the order of the constructor and of the
    JSON form, whose ``kind`` is ``_KIND``."""

    __slots__ = ("c", "r")

    def __init__(self, c, r, *blocks):
        if len(blocks) != len(self._BLOCKS):
            raise TypeError(f"{type(self).__name__} takes c, r and "
                            f"{len(self._BLOCKS)} blocks")
        _check_counts(c, r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        size = {"c": c, "r": r}
        for (name, rows, cols), m in zip(self._BLOCKS, blocks):
            object.__setattr__(self, name,
                               _as_matrix(m, size[rows], size[cols], name))

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.c == other.c and self.r == other.r
                and all(getattr(self, n) == getattr(other, n)
                        for n, _, _ in self._BLOCKS))

    def __repr__(self):
        return f"{type(self).__name__}(c={self.c}, r={self.r})"

    def to_json(self):
        return {"kind": self._KIND, "r": self.r, "c": self.c,
                **{n: getattr(self, n).to_json() for n, _, _ in self._BLOCKS}}


class ComplexADHMDatum(_Datum):
    """Matrices (B11, B12, B21, B22 : c x c), (i1, i2 : c x r),
    (j1, j2 : r x c)."""

    _KIND = "complex"
    _BLOCKS = (("B11", "c", "c"), ("B12", "c", "c"), ("B21", "c", "c"),
               ("B22", "c", "c"), ("i1", "c", "r"), ("i2", "c", "r"),
               ("j1", "r", "c"), ("j2", "r", "c"))
    __slots__ = tuple(name for name, _, _ in _BLOCKS)

    def evaluate(self, z0, w0):
        """The plain quadruple (B~1, B~2, i~, j~) at the point [z0:w0]."""
        z0, w0 = _scalar(z0), _scalar(w0)
        return (self.B11.scale(z0) + self.B21.scale(w0),
                self.B12.scale(z0) + self.B22.scale(w0),
                self.i1.scale(z0) + self.i2.scale(w0),
                self.j1.scale(z0) + self.j2.scale(w0))

    def require_solution(self):
        """Raise ADHMError naming the nonzero residuals, unless the datum
        solves the equations."""
        bad = [k + 1 for k, m in enumerate(complex_residuals(self))
               if not m.is_zero()]
        if bad:
            raise ADHMError("datum does not solve the equations: "
                            f"residual(s) {bad} nonzero")


class RealADHMDatum(_Datum):
    """Matrices (B1, B2 : c x c), (i : c x r), (j : r x c)."""

    _KIND = "real"
    _BLOCKS = (("B1", "c", "c"), ("B2", "c", "c"), ("i", "c", "r"),
               ("j", "r", "c"))
    __slots__ = tuple(name for name, _, _ in _BLOCKS)


def datum_from_json(obj):
    kind = obj.get("kind")
    for cls in (ComplexADHMDatum, RealADHMDatum):
        if kind == cls._KIND:
            return cls(obj["c"], obj["r"],
                       *(obj[name] for name, _, _ in cls._BLOCKS))
    raise ADHMError(f"unknown datum kind {kind!r}")


# ---------------------------------------------------------------------------
# the monad pencils of a complex datum and its residuals
# ---------------------------------------------------------------------------

def _unit_column_block(total, offset, c):
    """total x c matrix holding an identity block at the given row offset."""
    return Matrix(total, c, [[_GR_ONE if i == offset + k else _GR_ZERO
                              for k in range(c)] for i in range(total)])


def monad_pencils(d):
    """The (alpha, beta) pencils of a datum, each a table {"x", "y", "z",
    "w": Matrix} of coefficients (see the module docstring), without any
    solution check."""
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


def complex_residuals(d):
    """The three c x c residuals [B11,B12] + i1*j1, [B21,B22] + i2*j2 and
    [B11,B22] + [B21,B12] + i1*j2 + i2*j1: the z^2, w^2 and zw coefficients
    of beta*alpha.  The datum solves the equations iff all vanish, iff
    [B~1,B~2] + i~*j~ = 0 at every point of the line."""
    alpha, beta = monad_pencils(d)
    return (beta["z"] * alpha["z"], beta["w"] * alpha["w"],
            beta["z"] * alpha["w"] + beta["w"] * alpha["z"])


def is_complex_solution(d):
    return all(m.is_zero() for m in complex_residuals(d))
