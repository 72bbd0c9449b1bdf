"""Differential forms over the chart-I calculus: the exterior derivative and
the self-dual / anti-self-dual split of 2-forms.

Only the curvature audit of ``qinstanton`` uses forms; the ``q`` commands
work with the partial derivatives of ``qcalculus`` and never load this
module.

Conventions:
  * d(fg) = (df) g + f (dg), and d(f . dx-word) = df ^ dx-word; forms are kept
    in left-coefficient normal form (ordered monomial times strictly sorted
    wedge word), with Laurent coefficients: the table rules, the products
    of monomials and the 1/2 of the split all are.

The products (wedge word) . monomial of each table are memoized for the
life of the table.
"""

from weakref import WeakKeyDictionary

from .exactcore import QLaurent
from .qcalculus import CalculusError
from .qspacetime import NCPoly, X_NAMES, add_to, engine

_ONE = QLaurent.one()
_ZERO = QLaurent.zero()
_ENG = engine("I")

# calculus table -> its memo {(word, mono): (word) . mono}
_MEMOS = WeakKeyDictionary()


def _word_past_mono(table, memo, word, mono):
    """(wedge word) . mono as {(mono', word'): QLaurent}, words unsorted;
    ``memo`` is the table's entry of ``_MEMOS``."""
    if not word:
        return {(mono, ()): _ONE}
    key = (word, mono)
    hit = memo.get(key)
    if hit is not None:
        return hit
    head, last = word[:-1], word[-1]
    acc = {}
    for (m1, e), c1 in table.cross(last, mono).items():
        for (m0, w0), c0 in _word_past_mono(table, memo, head, m1).items():
            add_to(acc, (m0, w0 + (e,)), c1 * c0)
    out = {k: c for k, c in acc.items() if c}
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class NCForm:
    """Left-coefficient differential form: {(sorted word, mono): QLaurent}."""

    __slots__ = ("table", "degree", "terms")

    def __init__(self, table, degree, terms=None):
        if not 0 <= degree <= 4:
            raise ValueError("form degree out of range")
        clean = {}
        if terms:
            for (w, m), c in terms.items():
                if c:
                    if len(w) != degree:
                        raise ValueError("wedge word length != degree")
                    clean[(tuple(w), tuple(m))] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("NCForm is immutable")

    @classmethod
    def zero(cls, table, degree=0):
        return cls(table, degree)

    @classmethod
    def from_poly(cls, table, poly):
        if poly.chart != "I":
            raise ValueError("forms live over chart I")
        return cls(table, 0, {((), m): c for m, c in poly.terms.items()})

    def _check(self, other):
        if self.table is not other.table:
            raise ValueError("cannot mix calculus tables")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCForm):
            return NotImplemented
        return (self.table is other.table and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.table), self.degree,
                     frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, NCForm):
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_to(t, k, c)
        return NCForm(self.table, self.degree, t)

    def __neg__(self):
        return NCForm(self.table, self.degree,
                      {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return NCForm(self.table, self.degree)
        return NCForm(self.table, self.degree,
                      {k: cc * c for k, cc in self.terms.items()})

    def wedge(self, other):
        """self ^ other (moves the right factor's coefficients left)."""
        if self.table is not other.table:
            raise ValueError("cannot mix calculus tables")
        deg = self.degree + other.degree
        if deg > 4:
            return NCForm(self.table, 4)
        table = self.table
        memo = _MEMOS.setdefault(table, {})
        acc = {}
        for (w1, m1), c1 in self.terms.items():
            for (w2, m2), c2 in other.terms.items():
                c12 = c1 * c2
                for (mm, w1p), cm in _word_past_mono(table, memo, w1,
                                                     m2).items():
                    for wn, cw in table.wedge_norm(w1p + w2).items():
                        base = c12 * (cm * cw)
                        for mn, cx in _ENG.mul_mono_mono(m1, mm).items():
                            add_to(acc, (wn, mn), base * cx)
        return NCForm(table, deg, acc)

    __mul__ = wedge     # so a Matrix of forms multiplies by wedging entries

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (w, m), c in sorted(self.terms.items()):
            mono = "*".join(f"{X_NAMES[g]}^{m[g]}" if m[g] > 1 else X_NAMES[g]
                            for g in range(4) if m[g])
            word = "^".join("d" + X_NAMES[g] for g in w)
            parts = [p for p in (f"({c})", mono, word) if p]
            bits.append("*".join(parts))
        return " + ".join(bits)

    def __repr__(self):
        return f"NCForm({self.degree}, {self})"

    def to_json(self):
        return {"degree": self.degree,
                "terms": [{"word": [X_NAMES[g] for g in w], "e": list(m),
                           "coef": c.to_json()}
                          for (w, m), c in sorted(self.terms.items())]}


# ---------------------------------------------------------------------------
# the exterior derivative
# ---------------------------------------------------------------------------

def d(x, table=None):
    """Exterior derivative of an NCPoly (degree 0) or an NCForm."""
    if isinstance(x, NCPoly):
        if table is None:
            raise ValueError("d(poly) needs a table")
        x = NCForm.from_poly(table, x)
    if not isinstance(x, NCForm):
        raise TypeError("d expects an NCPoly or NCForm")
    table = x.table
    if x.degree == 4:
        return NCForm(table, 4)  # nothing above top degree
    acc = {}
    for (w, mono), c in x.terms.items():
        for (m1, e), c1 in table.d_mono(mono).items():
            for wn, cw in table.wedge_norm((e,) + w).items():
                add_to(acc, (wn, m1), c * (c1 * cw))
    return NCForm(table, x.degree + 1, acc)


# ---------------------------------------------------------------------------
# self-dual / anti-self-dual decomposition of 2-forms
# ---------------------------------------------------------------------------

_SD_WORDS = ((0, 1), (2, 3))       # dx11^dx12, dx21^dx22
_ASD_WORDS = ((0, 2), (1, 3))      # dx11^dx21, dx12^dx22
_MIX_PLUS = (0, 3)                 # dx11^dx22
_MIX_MINUS = (1, 2)                # dx12^dx21


def sd_asd_split(omega: NCForm):
    """Split a 2-form into its self-dual and anti-self-dual components.

    Basis: SD = <dx11^dx12, dx21^dx22, dx11^dx22 - dx12^dx21>,
           ASD = <dx11^dx21, dx12^dx22, dx11^dx22 + dx12^dx21>.
    """
    if omega.degree != 2:
        raise ValueError("sd_asd_split expects a 2-form")
    table = omega.table
    half = _ONE / 2
    sd = {}
    asd = {}
    polys = {}
    for (w, m), c in omega.terms.items():
        polys.setdefault(m, {})[w] = c
    for m, coords in polys.items():
        for w in _SD_WORDS:
            c = coords.get(w)
            if c:
                sd[(w, m)] = c
        for w in _ASD_WORDS:
            c = coords.get(w)
            if c:
                asd[(w, m)] = c
        cp = coords.get(_MIX_PLUS, _ZERO)
        cm = coords.get(_MIX_MINUS, _ZERO)
        alpha = (cp - cm) * half   # along dx11^dx22 - dx12^dx21 (SD)
        beta = (cp + cm) * half    # along dx11^dx22 + dx12^dx21 (ASD)
        if alpha:
            sd[(_MIX_PLUS, m)] = sd.get((_MIX_PLUS, m), _ZERO) + alpha
            sd[(_MIX_MINUS, m)] = sd.get((_MIX_MINUS, m), _ZERO) - alpha
        if beta:
            asd[(_MIX_PLUS, m)] = asd.get((_MIX_PLUS, m), _ZERO) + beta
            asd[(_MIX_MINUS, m)] = asd.get((_MIX_MINUS, m), _ZERO) + beta
    sd_form = NCForm(table, 2, sd)
    asd_form = NCForm(table, 2, asd)
    if sd_form + asd_form != omega:
        raise CalculusError("SD/ASD split failed to reassemble")
    return sd_form, asd_form


def asd_membership(omega: NCForm):
    """Classify a 2-form as zero / SD / ASD / mixed, with the exact split."""
    sd_form, asd_form = sd_asd_split(omega)
    if omega.is_zero():
        verdict = "zero"
    elif sd_form.is_zero():
        verdict = "ASD"
    elif asd_form.is_zero():
        verdict = "SD"
    else:
        verdict = "mixed"
    return {"verdict": verdict, "sd_part": sd_form, "asd_part": asd_form}
