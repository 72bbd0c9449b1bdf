"""Exact scalars: the Gaussian rationals and the Laurent polynomials in q.

* ``GaussRational`` -- complex rationals (a + b*i)/d stored as three ints in
  lowest terms (d > 0, gcd(a, b, d) = 1); ``re`` and ``im`` read the parts as
  ``fractions.Fraction``.  Ground field for all matrix data.  Nothing else
  here makes a ``Fraction``, so only ``re``, ``im`` and ``repr`` import
  ``fractions`` (which loads ``decimal``): a ``Fraction`` operand is
  recognised by ``_is_fraction``, and hashes follow the numeric hash of the
  language reference.
* ``QLaurent``      -- Laurent polynomials in a formal parameter q with
  GaussRational coefficients, stored sparsely as {exponent: coefficient}.
  With no negative exponent they are also the polynomials in t of the
  Krylov reduction in ``krylov``, divided by ``_ql_divmod``.

Plus the quantum integers [n] and ``parse_gauss`` (which compiles its
pattern on first use).  Their fraction field ``QRat`` and the sparse echelon
are in ``echelon``, which only the commands that eliminate load.  The ``q``
commands need nothing else, so they load this module and not ``exactcore``.

Equal scalars hash alike across types: a GaussRational with zero imaginary
part hashes as its real part, and a constant QLaurent as its coefficient.
"""

from math import gcd, lcm
from sys import hash_info, modules as _modules

__all__ = ["GaussRational", "QLaurent", "qint", "parse_gauss"]


def _is_fraction(x):
    """Whether x is a ``fractions.Fraction``.  None exists before that module
    is loaded, so this asks it only once it is."""
    fractions = _modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int) or _is_fraction(x):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def _rational_hash(n, d):
    """The numeric hash of n/d, d > 0, in the language reference: |n| * d^-1
    modulo the hash modulus, or inf's hash when d has no inverse, signed
    like n.  Python hashes it, as it hashes Fraction(n, d), to -2 if -1."""
    g = gcd(n, d)
    n, d = n // g, d // g
    m = hash_info.modulus
    h = abs(n) * pow(d, -1, m) % m if d % m else hash_info.inf
    return h if n >= 0 else -h


class GaussRational:
    """An element (a + b*i)/d of Q(i), stored as three ints.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equal values have
    equal triples.  ``re`` and ``im`` give the parts as ``Fraction``s.  The
    public attributes are read-only; operations return fresh values.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            # parts in lowest terms over the lcm of their denominators leave
            # no common factor of a, b and d
            (a, e), (b, f) = _ratio(re), _ratio(im)
            d = lcm(e, f)
            a *= d // e
            b *= d // f
        self._a = a
        self._b = b
        self._d = d

    @property
    def re(self):
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self):
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @classmethod
    def zero(cls):
        return _GR_ZERO

    @classmethod
    def one(cls):
        return _GR_ONE

    @classmethod
    def i(cls):
        return _GR_I

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, GaussRational):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if _is_fraction(other):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        if self._b:
            # the hash of (self.re, self.im)
            return hash((_rational_hash(self._a, self._d),
                         _rational_hash(self._b, self._d)))
        if self._d == 1:
            return hash(self._a)
        return _rational_hash(self._a, self._d)

    def __add__(self, other):
        if not isinstance(other, GaussRational):
            other = _as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _gauss(self._a + other._a, self._b + other._b, d)
        return _gauss(self._a * e + other._a * d, self._b * e + other._b * d,
                      d * e)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if not isinstance(other, GaussRational):
            other = _as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _gauss(self._a - other._a, self._b - other._b, d)
        return _gauss(self._a * e - other._a * d, self._b * e - other._b * d,
                      d * e)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GaussRational):
            other = _as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        if not b and not e:                       # fast path: both rational
            return _gauss(a * c, 0, self._d * other._d)
        return _gauss(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, GaussRational):
            other = _as_gauss(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero GaussRational")
            if c < 0:
                return _gauss(-a * f, -b * f, -self._d * c)
            return _gauss(a * f, b * f, self._d * c)
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i)*f / (d*(c^2 + e^2))
        return _gauss((a * c + b * e) * f, (b * c - a * e) * f,
                      self._d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("GaussRational power needs an integer")
        if n < 0:
            return _GR_ONE / (self ** (-n))
        out = _GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return _reduced(self._a, -self._b, self._d)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        # Serialization format: "a/b" or "a/b+c/d*i" / "a/b-c/d*i", no spaces,
        # denominators always written.
        d = self._d

        def fr(n):
            g = gcd(n, d)
            return f"{n // g}/{d // g}"
        if not self._b:
            return fr(self._a)
        sign = "+" if self._b > 0 else "-"
        return f"{fr(self._a)}{sign}{fr(abs(self._b))}*i"


_new_object = object.__new__


def _gauss(a, b, d):
    """(a + b*i)/d in canonical form, for ints a, b and d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _reduced(a, b, d)


def _reduced(a, b, d):
    """The GaussRational of a triple that is already canonical."""
    out = _new_object(GaussRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _as_gauss(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int) or _is_fraction(x):
        return GaussRational(x)
    return NotImplemented


_GR_ZERO = GaussRational(0)
_GR_ONE = GaussRational(1)
_GR_I = GaussRational(0, 1)

# compiled by the first parse_gauss: only the datum loaders and
# ``q penrose`` read Gauss strings
_GAUSS_RE = None


def parse_gauss(s: str) -> GaussRational:
    """Parse the serialization format of ``str(GaussRational)``.

    Accepts "a", "a/b", "a/b+c/d*i", "a/b-c/d*i" (integer parts allowed).
    """
    global _GAUSS_RE
    if _GAUSS_RE is None:
        import re
        _GAUSS_RE = re.compile(r"^(?P<re>[+-]?\d+(?:/\d+)?)"
                               r"(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)\*i)?$")
    m = _GAUSS_RE.match(s.strip())
    if not m:
        raise ValueError(f"malformed GaussRational string: {s!r}")
    a, d = _parse_ratio(m.group("re"))
    b, e = _parse_ratio(m.group("im") or "0")
    if not d or not e:
        raise ValueError(f"zero denominator in GaussRational string: {s!r}")
    if m.group("sign") == "-":
        b = -b
    return _gauss(a * e, b * d, d * e)


def _parse_ratio(text):
    """(numerator, denominator) of "n" or "n/d"."""
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


# ---------------------------------------------------------------------------
# Laurent polynomials in q
# ---------------------------------------------------------------------------

class QLaurent:
    """Laurent polynomial in q over Q(i): {exponent: GaussRational}, no zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _as_gauss(c)
                if c is NotImplemented:
                    raise TypeError(f"bad coefficient {terms[e]!r}")
                if c:
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("QLaurent is immutable")

    @classmethod
    def zero(cls):
        return _QL_ZERO

    @classmethod
    def one(cls):
        return _QL_ONE

    @classmethod
    def q_power(cls, n, coeff=1):
        return cls({n: coeff})

    @classmethod
    def from_scalar(cls, c):
        return cls({0: c})

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        g = _as_gauss(other)
        if g is NotImplemented:
            return NotImplemented
        if not g:
            return not self.terms
        return self.terms == {0: g}

    def __hash__(self):
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = _as_qlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            else:
                s = s + c
                if s:
                    t[e] = s
                else:
                    del t[e]
        out = QLaurent.__new__(QLaurent)
        object.__setattr__(out, "terms", t)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = QLaurent.__new__(QLaurent)
        object.__setattr__(out, "terms", {e: -c for e, c in self.terms.items()})
        return out

    def __sub__(self, other):
        other = _as_qlaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            g = _as_gauss(other)
            if g is NotImplemented:
                return NotImplemented
            if not g:
                return _QL_ZERO
            out = QLaurent.__new__(QLaurent)
            object.__setattr__(out, "terms",
                               {e: c * g for e, c in self.terms.items()})
            return out
        a, b = self.terms, other.terms
        if len(a) == 1:                       # fast path: monomial factor
            (ea, ca), = a.items()
            out = QLaurent.__new__(QLaurent)
            object.__setattr__(out, "terms",
                               {ea + e: ca * c for e, c in b.items()})
            return out
        t = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                c = ca * cb
                s = t.get(e)
                if s is None:
                    if c:
                        t[e] = c
                else:
                    s = s + c
                    if s:
                        t[e] = s
                    else:
                        del t[e]
        out = QLaurent.__new__(QLaurent)
        object.__setattr__(out, "terms", t)
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("QLaurent power needs n >= 0")
        out = _QL_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        """Exact division; raises ValueError when the quotient is not Laurent."""
        if not isinstance(other, QLaurent):
            g = _as_gauss(other)
            if g is NotImplemented:
                return NotImplemented
            return self * (GaussRational(1) / g)
        # units q^n divide everything: divide the valuation-0 parts
        va, vb = self.val(), other.val()
        q, r = _ql_divmod(self.shift(-va), other.shift(-vb))
        if r:
            raise ValueError(f"inexact QLaurent division: {self} / {other}")
        return q.shift(va - vb)

    def val(self):
        """Lowest exponent (valuation); 0 for the zero polynomial."""
        return min(self.terms) if self.terms else 0

    def deg(self):
        """Highest exponent; 0 for the zero polynomial."""
        return max(self.terms) if self.terms else 0

    def shift(self, n):
        """Multiply by q^n."""
        if not n or not self.terms:
            return self
        out = QLaurent.__new__(QLaurent)
        object.__setattr__(out, "terms",
                           {e + n: c for e, c in self.terms.items()})
        return out

    def coeff(self, e):
        return self.terms.get(e, _GR_ZERO)

    def evaluate(self, q0: GaussRational) -> GaussRational:
        if not q0 and any(e < 0 for e in self.terms):
            raise ZeroDivisionError("negative exponent at q=0")
        acc = _GR_ZERO
        for e, c in self.terms.items():
            if e >= 0:
                acc = acc + c * (q0 ** e if e else _GR_ONE)
            else:
                acc = acc + c / (q0 ** (-e))
        return acc

    def subs_q1(self) -> GaussRational:
        """Classical limit q = 1."""
        acc = _GR_ZERO
        for c in self.terms.values():
            acc = acc + c
        return acc

    def conjugate(self):
        return QLaurent({e: c.conjugate() for e, c in self.terms.items()})

    def to_json(self):
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, obj):
        return cls({int(e): parse_gauss(c) for e, c in obj.items()})

    def __repr__(self):
        return f"QLaurent({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:] or "*" in cs:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*q")
            else:
                parts.append(f"{cs}*q^{e}")
        return "+".join(parts).replace("+-", "-")


def _as_qlaurent(x):
    if isinstance(x, QLaurent):
        return x
    g = _as_gauss(x)
    if g is NotImplemented:
        return NotImplemented
    return QLaurent({0: g}) if g else _QL_ZERO


_QL_ZERO = QLaurent()
_QL_ONE = QLaurent({0: 1})


def _ql_divmod(a: QLaurent, b: QLaurent):
    """Division on the top degree: a = quo*b + rem, where quo has no
    negative exponent and rem is 0 or has top degree below b's.

    On polynomials this is the division of Q(i)[q]; on Laurent
    polynomials rem keeps the terms of a below b's top degree.
    """
    if not b.terms:
        raise ZeroDivisionError("QLaurent division by zero")
    db = max(b.terms)
    lead_b = b.terms[db]
    quo = {}
    rem = dict(a.terms)
    while rem and max(rem) >= db:
        dr = max(rem)
        piece = rem[dr] / lead_b
        quo[dr - db] = piece
        for e, c in b.terms.items():
            k = e + dr - db
            s = rem.get(k, _GR_ZERO) - piece * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return QLaurent(quo), QLaurent(rem)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def qint(n: int) -> QLaurent:
    """[n] = (q^n - q^-n)/(q - q^-1) = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n == 0:
        return _QL_ZERO
    if n < 0:
        return -qint(-n)
    return QLaurent({n - 1 - 2 * k: 1 for k in range(n)})
