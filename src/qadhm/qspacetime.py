"""Quantum Minkowski algebra charts: normal forms, determinant, harmonics.

Chart I is generated by x11', x12', x21', x22' with relations

    x11 x12 = x12 x11          x21 x22 = x22 x21
    x11 x21 = q^-2 x21 x11     x12 x22 = q^-2 x22 x12
    x21 x12 = q^2  x12 x21     [x11, x22] + [x21, x12] = 0

and the ordered monomials x11^a x12^b x21^c x22^d form a PBW basis.  Chart J
mirrors it in generators y11', y12', y21', y22' (with the roles of rows and
columns swapped in the q-commutation pattern).  Both charts share one sorting
engine driven by a six-rule rewrite table; every rewrite strictly decreases
the inversion count of a word, so normalization terminates.  The engine is
one letter-insertion loop: ``feed`` multiplies letters into a sparse sum of
normal forms from the right, and ``apply_rule`` substitutes a rule's
(coefficient, pair) terms through it.  The differential calculus runs its
wedge words through the same two functions, and its dx-x crossings through
the engine's ``split_first``, ``add_to`` and chart-I products.

Harmonic polynomials are given by the residue formula

    X^l_{m,n} = coefficient of s^(l-n) in (x11 s + x21)^(l-m) (x12 s + x22)^(l+m)

with l in (1/2)Z+, m the exponent-splitting index, n the residue index
(indices are stored doubled so everything stays integral), and computed from
its q-binomial closed form.  Out-of-range indices (|m| > l or |n| > l)
denote the zero element.
"""

from functools import cache

from .scalars import _QL_ONE, Immutable, QLaurent, _as_qlaurent, mono_str

__all__ = [
    "NCPoly", "HarmonicIndex", "SortEngine",
    "X_NAMES", "Y_NAMES", "normalize", "monomials_of_degree",
    "det_x", "times_det",
    "harmonic", "basis_element", "engine",
]

X_NAMES = ("x11", "x12", "x21", "x22")
Y_NAMES = ("y11", "y12", "y21", "y22")

_ZMONO = (0, 0, 0, 0)                 # the ordered monomial 1
_Q2 = QLaurent({2: 1})
_QM2 = QLaurent({-2: 1})

# Sorting rules: (hi, lo) -> list of (coefficient, replacement pair), where the
# replacement pairs are already in nondecreasing generator order.  Generator
# indices: 0,1,2,3 in the name order above.
CHART_I_RULES = {
    (1, 0): [(_QL_ONE, (0, 1))],
    (2, 0): [(_Q2, (0, 2))],
    (2, 1): [(_Q2, (1, 2))],
    (3, 0): [(_QL_ONE, (0, 3)), (QLaurent({2: 1, 0: -1}), (1, 2))],
    (3, 1): [(_Q2, (1, 3))],
    (3, 2): [(_QL_ONE, (2, 3))],
}

CHART_J_RULES = {
    (1, 0): [(_Q2, (0, 1))],
    (2, 0): [(_QL_ONE, (0, 2))],
    (2, 1): [(_QM2, (1, 2))],
    (3, 0): [(_QL_ONE, (0, 3)), (QLaurent({0: 1, -2: -1}), (1, 2))],
    (3, 1): [(_QL_ONE, (1, 3))],
    (3, 2): [(_Q2, (2, 3))],
}


def _gen_mono(g):
    """The ordered monomial x_g."""
    return tuple(int(i == g) for i in range(4))


def _inc(mono, g):
    lst = list(mono)
    lst[g] += 1
    return tuple(lst)


def add_to(acc, key, c):
    """acc[key] += c in a sparse sum; zeros are pruned by the caller."""
    s = acc.get(key)
    acc[key] = c if s is None else s + c


def mono_word(mono):
    """The word of an ordered monomial: generator g repeated mono[g] times."""
    return sum(((g,) * mono[g] for g in range(4)), ())


def split_first(mono):
    """(first generator of mono, mono with it removed); None for mono = 1."""
    for i, e in enumerate(mono):
        if e:
            return i, mono[:i] + (e - 1,) + mono[i + 1:]
    return None


def feed(insert, letters, start):
    """letters[0] ... letters[-1] * start as a sparse sum of normal forms.

    ``insert(g, key)`` is letter g times the normal form ``key``, as
    {key': coefficient}; ``start`` is {key: coefficient}.  The letters are
    multiplied in from the right end, one at a time.
    """
    acc = start
    for g in reversed(letters):
        nxt = {}
        for key, c in acc.items():
            for k2, c2 in insert(g, key).items():
                add_to(nxt, k2, c * c2)
        acc = {k: c for k, c in nxt.items() if c}
    return acc


def apply_rule(insert, rule, rest):
    """sum coeff * (pair[0] pair[1] rest) over a rule [(coeff, pair)]."""
    acc = {}
    for coeff, pair in rule:
        for k, c in feed(insert, pair, {rest: coeff}).items():
            add_to(acc, k, c)
    return {k: c for k, c in acc.items() if c}


class SortEngine:
    """Normal-form multiplication for one chart's rewrite table; x_g * mono
    is cached for the process and shared, so callers never change it."""

    def __init__(self, rules):
        self.rules = rules

    @cache
    def mul_gen_mono(self, g, mono):
        """x_g * (ordered monomial) as {ordered monomial: QLaurent}."""
        split = split_first(mono)
        if split is None or g <= split[0]:
            return {_inc(mono, g): _QL_ONE}
        first, rest = split
        return apply_rule(self.mul_gen_mono, self.rules[(g, first)], rest)

    def mul_mono_mono(self, m1, m2):
        """(ordered m1) * (ordered m2) as {ordered monomial: QLaurent}."""
        return feed(self.mul_gen_mono, mono_word(m1), {m2: _QL_ONE})

    def normalize_word(self, word):
        """A word (tuple of generator indices) as {ordered monomial: QLaurent}."""
        return feed(self.mul_gen_mono, word, {_ZMONO: _QL_ONE})


_ENGINES = {"I": SortEngine(CHART_I_RULES), "J": SortEngine(CHART_J_RULES)}


def engine(chart: str) -> SortEngine:
    return _ENGINES[chart]


class NCPoly(Immutable):
    """Normal-form element of a chart algebra: {exponent 4-tuple: QLaurent}."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms=None):
        if chart not in ("I", "J"):
            raise ValueError(f"unknown chart {chart!r}")
        clean = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, QLaurent):
                    c = QLaurent({0: c})
                if c:
                    clean[tuple(m)] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    # -- sums and equality ---------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_to(t, k, c)
        return NCPoly(self.chart, t)

    def __neg__(self):
        return NCPoly(self.chart, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a central scalar (QLaurent / GaussRational / int)."""
        if not isinstance(c, QLaurent):
            c = QLaurent({0: c})
        return NCPoly(self.chart, {k: cc * c for k, cc in self.terms.items()}
                      if c else {})

    def _check(self, other):
        if self.chart != other.chart:
            raise ValueError("cannot mix charts")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, chart="I"):
        return cls(chart)

    @classmethod
    def one(cls, chart="I"):
        return cls(chart, {_ZMONO: _QL_ONE})

    @classmethod
    def gen(cls, chart, which):
        names = X_NAMES if chart == "I" else Y_NAMES
        idx = which if isinstance(which, int) else names.index(which)
        return cls(chart, {_gen_mono(idx): _QL_ONE})

    @classmethod
    def scalar(cls, chart, c):
        c = c if isinstance(c, QLaurent) else QLaurent({0: c})
        return cls(chart, {_ZMONO: c})

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return self.__rmul__(other)         # a central scalar
        self._check(other)
        eng = _ENGINES[self.chart]
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for m3, c3 in eng.mul_mono_mono(m1, m2).items():
                    add_to(acc, m3, c12 * c3)
        return NCPoly(self.chart, acc)

    def __rmul__(self, other):
        c = _as_qlaurent(other)
        if c is NotImplemented:
            return NotImplemented
        return self.scale(c)

    # -- structure -----------------------------------------------------------

    def degree(self):
        """Total degree (max over monomials); -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # -- display / serialization ---------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = X_NAMES if self.chart == "I" else Y_NAMES
        parts = []
        for m in sorted(self.terms):
            mono = mono_str(m, names)
            cs = str(self.terms[m])
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPoly({self.chart!r}, {len(self.terms)} terms)"

    def to_json(self):
        return {
            "chart": self.chart,
            "terms": [
                {"k": 0, "e": list(m), "coef": c.to_json()}
                for m, c in sorted(self.terms.items())
            ],
        }


def normalize(items, chart="I") -> NCPoly:
    """Normal form of sum(coeff * word); word = iterable of generator names."""
    names = X_NAMES if chart == "I" else Y_NAMES
    eng = _ENGINES[chart]
    acc = NCPoly.zero(chart)
    for coeff, word in items:
        idxs = tuple(
            g if isinstance(g, int) else names.index(g) for g in word
        )
        part = eng.normalize_word(idxs)
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent({0: coeff})
        acc = acc + NCPoly(chart, {m: c * coeff for m, c in part.items()})
    return acc


# ---------------------------------------------------------------------------
# degree slices
# ---------------------------------------------------------------------------

def monomials_of_degree(d):
    """All exponent 4-tuples of total degree d, in lexicographic order."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            for c in range(d - a - b, -1, -1):
                out.append((a, b, c, d - a - b - c))
    out.reverse()  # ascending lex
    return out


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

def det_x() -> NCPoly:
    """det(x) = x11x22 - x12x21 (the normal form of both of its displays)."""
    return NCPoly("I", {(1, 0, 0, 1): _QL_ONE, (0, 1, 1, 0): -_QL_ONE})


def times_det(f: NCPoly, left=True) -> NCPoly:
    """det(x) . f (left) or f . det(x), with no rewriting.  det commutes
    with x11 and x22, det x12 = q^2 x12 det and x21 det = q^2 det x21, so
    det . x^(a,b,c,d) = q^(2b) (x^(a+1,b,c,d+1) - x^(a,b+1,c+1,d)), and
    x^(a,b,c,d) . det is the same difference times q^(2c)."""
    if f.chart != "I":
        raise ValueError("det(x) lives on chart I")
    acc = {}
    for (a, b, c, d), coeff in f.terms.items():
        u = coeff.shift(2 * (b if left else c))
        add_to(acc, (a + 1, b, c, d + 1), u)
        add_to(acc, (a, b + 1, c + 1, d), -u)
    return NCPoly("I", acc)


# ---------------------------------------------------------------------------
# harmonic basis
# ---------------------------------------------------------------------------

class HarmonicIndex(Immutable):
    """Index (l, m, n) with a det-power k; half-integers stored doubled.

    Immutable; equal (and hashed alike) exactly when all four fields are."""

    __slots__ = ("two_l", "two_m", "two_n", "k")

    def __init__(self, two_l, two_m, two_n, k=0):
        if two_l < 0:
            raise ValueError("two_l must be >= 0")
        if (two_m - two_l) % 2 or (two_n - two_l) % 2:
            raise ValueError("m, n must be congruent to l mod 1")
        for name, value in zip(self.__slots__, (two_l, two_m, two_n, k)):
            object.__setattr__(self, name, value)

    def _key(self):
        return (self.two_l, self.two_m, self.two_n, self.k)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return HarmonicIndex, self._key()

    def __repr__(self):
        return ("HarmonicIndex(two_l=%r, two_m=%r, two_n=%r, k=%r)"
                % self._key())

    def in_range(self):
        return abs(self.two_m) <= self.two_l and abs(self.two_n) <= self.two_l

    def __str__(self):
        def h(t):
            return str(t // 2) if t % 2 == 0 else f"{t}/2"
        s = f"X[l={h(self.two_l)},m={h(self.two_m)},n={h(self.two_n)}]"
        if self.k:
            s = f"det^{self.k}*" + s
        return s


@cache
def _gauss_row(n):
    """The Gaussian binomials [n, 0..n] in q^2, by the q-Pascal rule
    [n, k] = [n-1, k-1] + q^(2k) [n-1, k]."""
    if n == 0:
        return (_QL_ONE,)
    prev = _gauss_row(n - 1)
    return (_QL_ONE, *(prev[k - 1] + prev[k].shift(2 * k)
                       for k in range(1, n)), _QL_ONE)


def harmonic(idx: HarmonicIndex) -> NCPoly:
    """X^l_{m,n}: coefficient of s^(l-n) in (x11 s + x21)^(l-m) (x12 s + x22)^(l+m).

    As x21 x11 = q^2 x11 x21, x22 x12 = q^2 x12 x22 and x21 x12 = q^2 x12 x21,
    the q-binomial theorem gives, with a = l-m, b = l+m and t = l-n,

        sum over r1 + r2 = t of [a, r1] [b, r2] q^(2(a-r1)r2)
            x11^r1 x12^r2 x21^(a-r1) x22^(b-r2).

    Out-of-range indices give 0.  Requires k = 0 (use basis_element for k > 0).
    """
    if idx.k != 0:
        raise ValueError("harmonic() expects k = 0")
    if not idx.in_range():
        return NCPoly.zero("I")
    a, b = (idx.two_l - idx.two_m) // 2, (idx.two_l + idx.two_m) // 2
    t = (idx.two_l - idx.two_n) // 2
    row_a, row_b = _gauss_row(a), _gauss_row(b)
    return NCPoly("I", {
        (r1, t - r1, a - r1, b - t + r1):
            (row_a[r1] * row_b[t - r1]).shift(2 * (a - r1) * (t - r1))
        for r1 in range(max(0, t - b), min(a, t) + 1)})


def basis_element(idx: HarmonicIndex) -> NCPoly:
    """det(x)^k X^l_{m,n} (k >= 0), as a chart-I normal form."""
    if idx.k < 0:
        raise ValueError("chart I needs k >= 0")
    out = harmonic(HarmonicIndex(idx.two_l, idx.two_m, idx.two_n))
    for _ in range(idx.k):
        out = times_det(out)
    return out
