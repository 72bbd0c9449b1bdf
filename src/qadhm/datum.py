"""The complex and real ADHM data, their JSON form and the complex residuals.

A *complex datum* is a tuple (B11, B12, B21, B22, i1, i2, j1, j2) of matrices
over the Gaussian rationals; a *real datum* is a tuple (B1, B2, i, j).  This
module holds only what every command that reads a datum needs: the two
types, parsing, and the three complex residuals.  The stability taxonomy and
the rank criteria live in ``adhm``.
"""

from .exactcore import Matrix
from .scalars import _as_gauss, parse_gauss

__all__ = [
    "ADHMError", "ComplexADHMDatum", "RealADHMDatum", "datum_from_json",
    "complex_residuals", "is_complex_solution",
]


class ADHMError(ValueError):
    """Shape errors, unmet preconditions, and rejected inputs."""


def _scalar(x):
    if isinstance(x, str):
        return parse_gauss(x)
    g = _as_gauss(x)
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


class ComplexADHMDatum:
    """Matrices (B11, B12, B21, B22 : c x c), (i1, i2 : c x r), (j1, j2 : r x c)."""

    __slots__ = ("c", "r", "B11", "B12", "B21", "B22", "i1", "i2", "j1", "j2")

    _BLOCKS = ("B11", "B12", "B21", "B22", "i1", "i2", "j1", "j2")

    def __init__(self, c, r, B11, B12, B21, B22, i1, i2, j1, j2):
        _check_counts(c, r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        for name, m in (("B11", B11), ("B12", B12), ("B21", B21), ("B22", B22)):
            object.__setattr__(self, name, _as_matrix(m, c, c, name))
        for name, m in (("i1", i1), ("i2", i2)):
            object.__setattr__(self, name, _as_matrix(m, c, r, name))
        for name, m in (("j1", j1), ("j2", j2)):
            object.__setattr__(self, name, _as_matrix(m, r, c, name))

    def __setattr__(self, *a):
        raise AttributeError("ComplexADHMDatum is immutable")

    def __eq__(self, other):
        return (isinstance(other, ComplexADHMDatum)
                and self.c == other.c and self.r == other.r
                and all(getattr(self, n) == getattr(other, n)
                        for n in self._BLOCKS))

    def __repr__(self):
        return f"ComplexADHMDatum(c={self.c}, r={self.r})"

    def evaluate(self, z0, w0):
        """The plain quadruple (B~1, B~2, i~, j~) at the point [z0:w0]."""
        z0, w0 = _scalar(z0), _scalar(w0)
        return (self.B11.scale(z0) + self.B21.scale(w0),
                self.B12.scale(z0) + self.B22.scale(w0),
                self.i1.scale(z0) + self.i2.scale(w0),
                self.j1.scale(z0) + self.j2.scale(w0))

    def to_json(self):
        obj = {"kind": "complex", "r": self.r, "c": self.c}
        for name in self._BLOCKS:
            obj[name] = getattr(self, name).to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") != "complex":
            raise ADHMError("expected kind 'complex'")
        return cls(obj["c"], obj["r"],
                   *(obj[name] for name in cls._BLOCKS))


class RealADHMDatum:
    """Matrices (B1, B2 : c x c), (i : c x r), (j : r x c)."""

    __slots__ = ("c", "r", "B1", "B2", "i", "j")

    _BLOCKS = ("B1", "B2", "i", "j")

    def __init__(self, c, r, B1, B2, i, j):
        _check_counts(c, r)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "B1", _as_matrix(B1, c, c, "B1"))
        object.__setattr__(self, "B2", _as_matrix(B2, c, c, "B2"))
        object.__setattr__(self, "i", _as_matrix(i, c, r, "i"))
        object.__setattr__(self, "j", _as_matrix(j, r, c, "j"))

    def __setattr__(self, *a):
        raise AttributeError("RealADHMDatum is immutable")

    def __eq__(self, other):
        return (isinstance(other, RealADHMDatum)
                and self.c == other.c and self.r == other.r
                and all(getattr(self, n) == getattr(other, n)
                        for n in self._BLOCKS))

    def __repr__(self):
        return f"RealADHMDatum(c={self.c}, r={self.r})"

    def to_json(self):
        obj = {"kind": "real", "r": self.r, "c": self.c}
        for name in self._BLOCKS:
            obj[name] = getattr(self, name).to_json()
        return obj

    @classmethod
    def from_json(cls, obj):
        if obj.get("kind") != "real":
            raise ADHMError("expected kind 'real'")
        return cls(obj["c"], obj["r"], obj["B1"], obj["B2"], obj["i"], obj["j"])


def datum_from_json(obj):
    kind = obj.get("kind")
    if kind == "complex":
        return ComplexADHMDatum.from_json(obj)
    if kind == "real":
        return RealADHMDatum.from_json(obj)
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
