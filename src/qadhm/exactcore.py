"""Exact matrices over the scalars of ``scalars``.

``Matrix`` is a dense matrix whose rank, kernel and solve run through the
one sparse row echelon ``echelon._echelon`` over the fraction field of the
entries (QLaurent entries are lifted to QRat), and whose products skip zero
factors.  Only those three methods load ``echelon``, when they are called.
``random_gauss`` draws the small random entries of the seeded data.  The
matrix pencils of ``monad`` and the projective roots of ``krylov`` live in
those modules.

The scalar types are defined in ``scalars`` and ``echelon``.  They are bound
here too because the benchmark (``perfbench/``) imports and traces them
through this module; the objects are the same.  ``QRat`` is bound on first
read, by the module ``__getattr__`` (PEP 562), so that importing this module
does not load ``echelon``.  No ``q`` command loads this module.
"""

from .scalars import GaussRational, QLaurent, _gauss, parse_gauss

__all__ = ["GaussRational", "QLaurent", "QRat", "Matrix", "random_gauss"]


def __getattr__(name):
    if name == "QRat":
        from .echelon import QRat
        return QRat
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def random_gauss(rng, height=3, complex_parts=True) -> GaussRational:
    """Small-height random Gaussian rational, reproducible from ``rng``."""
    def small():
        num = rng.randint(-height, height)
        return num, rng.randint(1, height)
    (a, d), (b, e) = small(), small() if complex_parts else (0, 1)
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

    def row(self, i):
        return list(self.a[i])

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
        if not isinstance(other, Matrix):
            return self.scale(other)
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

    @classmethod
    def from_json(cls, obj):
        return cls(len(obj), len(obj[0]) if obj else 0,
                   [[parse_gauss(x) for x in r] for r in obj])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in r) + "]"
                         for r in self.a)
