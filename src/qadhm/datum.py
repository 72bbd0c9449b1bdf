"""The complex and real ADHM data, their JSON form and the complex residuals.

A *complex datum* is a tuple (B11, B12, B21, B22, i1, i2, j1, j2) of matrices
over the Gaussian rationals; a *real datum* is a tuple (B1, B2, i, j).  This
module holds only what every command that reads a datum needs: the two
types, parsing, and the three complex residuals.  The stability taxonomy and
the rank criteria live in ``adhm``.
"""

from .exactcore import Matrix
from .scalars import Immutable, _as_gauss, parse_gauss

__all__ = [
    "ADHMError", "ComplexADHMDatum", "RealADHMDatum", "datum_from_json",
    "complex_residuals", "is_complex_solution",
]


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
    if isinstance(m, Matrix):
        entries = m.a
    else:
        entries = m
    try:
        out = Matrix(rows, cols, [[_scalar(x) for x in row] for row in entries])
    except (ValueError, TypeError) as exc:
        raise ADHMError(f"{name} must be a {rows}x{cols} matrix: {exc}") from exc
    return out


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
        obj = {"kind": self._KIND, "r": self.r, "c": self.c}
        for name, _, _ in self._BLOCKS:
            obj[name] = getattr(self, name).to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") != cls._KIND:
            raise ADHMError(f"expected kind {cls._KIND!r}")
        return cls(obj["c"], obj["r"],
                   *(obj[name] for name, _, _ in cls._BLOCKS))


class ComplexADHMDatum(_Datum):
    """Matrices (B11, B12, B21, B22 : c x c), (i1, i2 : c x r), (j1, j2 : r x c)."""

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
            return cls.from_json(obj)
    raise ADHMError(f"unknown datum kind {kind!r}")


def complex_residuals(d):
    """The three c x c residual matrices; the datum solves the equations iff
    all vanish, iff [B~1,B~2] + i~*j~ = 0 at every point of the line."""
    r1 = d.B11.commutator(d.B12) + d.i1 * d.j1
    r2 = d.B21.commutator(d.B22) + d.i2 * d.j2
    r3 = (d.B11.commutator(d.B22) + d.B21.commutator(d.B12)
          + d.i1 * d.j2 + d.i2 * d.j1)
    return r1, r2, r3


def is_complex_solution(d):
    return all(m.is_zero() for m in complex_residuals(d))
