"""The fraction field Q(i)(q) and the one sparse row echelon of the package.

* ``QRat`` -- the fraction field of ``scalars.QLaurent``, kept reduced with a
  canonical denominator (valuation 0, constant term 1).  A QRat whose
  denominator is a unit c*q^n needs no gcd to be reduced, so lifting a
  QLaurent is cheap; a QRat with denominator 1 hashes as its numerator.
* ``_echelon`` -- the sparse row echelon: the matrices of ``exactcore`` run
  it on field rows, and the test oracles of the calculus tables and of the
  slices on Laurent rows.

Only a command that eliminates loads this module: ``Matrix.rank``,
``kernel`` and ``solve`` import it when called, and ``exactcore`` binds
``QRat`` on first read.
"""

from .scalars import (_GR_ONE, _QL_ONE, _QL_ZERO, GaussRational, QLaurent,
                      _as_qlaurent, _ql_divmod)

__all__ = ["QRat"]


def _ql_gcd(a: QLaurent, b: QLaurent) -> QLaurent:
    """Monic gcd in the Laurent ring (defined up to units q^n * c), by
    Euclid in Q(i)[q] on the valuation-0 parts of a and b."""
    a, b = a.shift(-a.val()), b.shift(-b.val())
    while b:
        _, r = _ql_divmod(a, b)
        a, b = b, r
    if not a:
        return _QL_ZERO
    # normalize: valuation 0, lowest-exponent coefficient 1
    a = a.shift(-a.val())
    c0 = a.terms[0]
    return a * (_GR_ONE / c0)


class QRat:
    """Element of the fraction field of QLaurent, kept in canonical form.

    Canonical form: num/den reduced by their gcd; den has valuation 0 and
    constant coefficient 1 (the zero element is 0/1).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_qlaurent(num)
        den = _QL_ONE if den is None else _as_qlaurent(den)
        if den is NotImplemented or num is NotImplemented:
            raise TypeError("bad QRat components")
        if not den:
            raise ZeroDivisionError("QRat with zero denominator")
        if not num:
            den = _QL_ONE
        elif den != _QL_ONE:
            if len(den.terms) > 1:       # a monomial is a unit: gcd 1
                g = _ql_gcd(num, den)
                if g != _QL_ONE:
                    num = num / g
                    den = den / g
            # unit-normalize the denominator
            v = den.val()
            c0 = den.terms[v]
            den = den.shift(-v) * (_GR_ONE / c0)
            num = num.shift(-v) * (_GR_ONE / c0)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("QRat is immutable")

    @classmethod
    def zero(cls):
        return cls(_QL_ZERO)

    @classmethod
    def one(cls):
        return cls(_QL_ONE)

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == _QL_ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = QRat.__new__(QRat)
        object.__setattr__(out, "num", -self.num)
        object.__setattr__(out, "den", self.den)
        return out

    def __sub__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("QRat division by zero")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def subs_q1(self) -> GaussRational:
        d = self.den.subs_q1()
        if not d:
            raise ZeroDivisionError("denominator vanishes at q=1")
        return self.num.subs_q1() / d

    def __repr__(self):
        return f"QRat({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == _QL_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _as_qrat(x):
    if isinstance(x, QRat):
        return x
    x = _as_qlaurent(x)
    if x is NotImplemented:
        return NotImplemented
    return QRat(x)


# ---------------------------------------------------------------------------
# sparse elimination over a field
# ---------------------------------------------------------------------------

def _echelon(rows, ncols, reduced=False):
    """Row echelon form of sparse rows over Q(i), Q(i)(q) or Q(i)[q, q^-1].

    ``rows`` are {col: nonzero entry} dicts of field elements or
    ``QLaurent`` ring elements, and one system may mix ``QLaurent`` with
    ``QRat``; they are not modified.  Columns 0..ncols-1 are eliminated
    from left to right.  Each column pivots on the shortest live row whose
    entry there is a unit -- a field element or a Laurent monomial c*q^k --
    so Laurent rows stay Laurent; only when no candidate is a unit does the
    shortest row pivot on a ``QRat`` inverse, so Laurent equations build
    a ``QRat`` only at such a pivot.  Returns the pivots in column order as
    (col, index of the input row, row normalised to 1 at col).  With
    ``reduced`` each pivot column is also cleared from the earlier pivot
    rows, which gives the reduced row echelon form.  Rank,
    pivot columns and the reduced form (over the fraction field) depend
    only on the rows, not on the pivoting rule.
    """
    work = [dict(r) for r in rows]
    live = [i for i, r in enumerate(work) if r]
    pivots = []
    one = None
    for j in range(ncols):
        cand = [i for i in live if j in work[i]]
        if not cand:
            continue
        p = min(cand, key=lambda i: len(work[i]))
        lead = work[p][j]
        if type(lead) is QLaurent and len(lead.terms) > 1:
            p = min((i for i in cand if type(work[i][j]) is not QLaurent
                     or len(work[i][j].terms) == 1),
                    key=lambda i: len(work[i]), default=p)
        live.remove(p)
        row = work[p]
        lead = row.pop(j)
        if type(lead) is not QLaurent:
            if one is None:
                one = lead / lead     # the field's 1, built once per call
            unit, inv = one, one / lead
        elif len(lead.terms) == 1:    # a monomial c*q^k: inverse c^-1*q^-k
            (e, c), = lead.terms.items()
            unit, inv = _QL_ONE, QLaurent({-e: _GR_ONE / c})
        else:
            unit, inv = QRat(_QL_ONE), QRat(_QL_ONE, lead)
        norm = {k: inv * v for k, v in row.items()}
        targets = [work[i] for i in cand if i != p]
        if reduced:
            targets += [r for _, _, r in pivots if j in r]
        for r in targets:
            f = r.pop(j)
            for k, v in norm.items():
                cur = r.get(k)
                val = -(f * v) if cur is None else cur - f * v
                if val:
                    r[k] = val
                elif cur is not None:
                    del r[k]
        norm[j] = unit
        pivots.append((j, p, norm))
    return pivots
