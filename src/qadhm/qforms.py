"""Differential forms over the chart-I calculus: the exterior derivative, the
Hodge star and the self-dual / anti-self-dual split of 2-forms.

Only the curvature audit of ``qinstanton`` uses forms; the ``q`` commands
work with the partial derivatives of ``qcalculus`` and never load this
module.

Conventions:
  * d(fg) = (df) g + f (dg), and d(f . dx-word) = df ^ dx-word; forms are kept
    in left-coefficient normal form (ordered monomial times strictly sorted
    wedge word).  Form coefficients live in the fraction field QRat because
    the Hodge star introduces 1/[2].
  * Hodge star: *1 = q^-1 vol with vol = dx11^dx12^dx21^dx22; on 1-forms the
    four images -(1/[2]) dx_g ^ (3-word) as given by the pairing table; on
    3-forms the inverse of the 1-form star; on 4-forms f.vol -> q f.  The
    degree-2 star is not defined and raises.

The products (wedge word) . monomial and the star words of each table are
memoized for the life of the table.
"""

from weakref import WeakKeyDictionary

from .exactcore import Matrix, QLaurent, QRat, qint
from .qcalculus import CalculusError
from .qspacetime import NCPoly, X_NAMES, add_to, engine

_ONE = QLaurent.one()
_R_ONE = QRat.one()
_R_ZERO = QRat.zero()
_ENG = engine("I")
VOL_WORD = (0, 1, 2, 3)


class _Memo:
    """The forms memos of one calculus table: {(word, mono): (word) . mono},
    and the Hodge star words of 1-forms and of 3-forms once computed."""

    __slots__ = ("word_mono", "star1", "star3")

    def __init__(self):
        self.word_mono = {}
        self.star1 = None
        self.star3 = None


_MEMOS = WeakKeyDictionary()


def _memo(table):
    memo = _MEMOS.get(table)
    if memo is None:
        memo = _MEMOS[table] = _Memo()
    return memo


def _word_past_mono(table, memo, word, mono):
    """(wedge word) . mono as {(mono', word'): QLaurent}, words unsorted;
    ``memo`` is the table's ``word_mono``."""
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


def _star1_words(table):
    """{g: {sorted 3-word: QRat}} for *dx_g."""
    memo = _memo(table)
    if memo.star1 is None:
        raw = {0: (0, 1, 2), 1: (1, 3, 0), 2: (2, 0, 3), 3: (3, 2, 1)}
        scale = -(_R_ONE / QRat(qint(2)))
        memo.star1 = {g: {w2: scale * QRat(c)
                          for w2, c in table.wedge_norm(w).items()}
                      for g, w in raw.items()}
    return memo.star1


def _star3_words(table):
    """{sorted 3-word: {g: QRat}}: the inverse of the 1-form star."""
    memo = _memo(table)
    if memo.star3 is None:
        words = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        star = _star1_words(table)
        mat = Matrix(4, 4, [[star[g].get(w, _R_ZERO) for g in range(4)]
                            for w in words])
        inv = mat.solve(Matrix.identity(4, _R_ONE, _R_ZERO))
        if inv is None:
            raise CalculusError("the 1-form star is not invertible")
        memo.star3 = {w: {g: inv[(g, i)] for g in range(4) if inv[(g, i)]}
                      for i, w in enumerate(words)}
    return memo.star3


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class NCForm:
    """Left-coefficient differential form: {(sorted word, mono): QRat}."""

    __slots__ = ("table", "degree", "terms")

    def __init__(self, table, degree, terms=None):
        if not 0 <= degree <= 4:
            raise ValueError("form degree out of range")
        clean = {}
        if terms:
            for (w, m), c in terms.items():
                if not isinstance(c, QRat):
                    c = QRat(c)
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
        return cls(table, 0, {((), m): QRat(c) for m, c in poly.terms.items()})

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
        if not isinstance(c, QRat):
            c = QRat(c)
        if not c:
            return NCForm(self.table, self.degree)
        return NCForm(self.table, self.degree,
                      {k: cc * c for k, cc in self.terms.items()})

    def left_mul(self, poly):
        """(poly) . self with poly an NCPoly over chart I."""
        if poly.chart != "I":
            raise ValueError("forms live over chart I")
        acc = {}
        for (w, m), c in self.terms.items():
            for m1, c1 in poly.terms.items():
                for m2, c2 in _ENG.mul_mono_mono(m1, m).items():
                    add_to(acc, (w, m2), c * QRat(c1 * c2))
        return NCForm(self.table, self.degree, acc)

    def wedge(self, other):
        """self ^ other (moves the right factor's coefficients left)."""
        if self.table is not other.table:
            raise ValueError("cannot mix calculus tables")
        deg = self.degree + other.degree
        if deg > 4:
            return NCForm(self.table, 4)
        table = self.table
        memo = _memo(table).word_mono
        acc = {}
        for (w1, m1), c1 in self.terms.items():
            for (w2, m2), c2 in other.terms.items():
                c12 = c1 * c2
                for (mm, w1p), cm in _word_past_mono(table, memo, w1,
                                                     m2).items():
                    for wn, cw in table.wedge_norm(w1p + w2).items():
                        base = c12 * QRat(cm * cw)
                        for mn, cx in _ENG.mul_mono_mono(m1, mm).items():
                            add_to(acc, (wn, mn), base * QRat(cx))
        return NCForm(table, deg, acc)

    __mul__ = wedge     # so a Matrix of forms multiplies by wedging entries

    def as_poly(self):
        """Degree-0 form as an NCPoly (coefficients must be Laurent)."""
        if self.degree != 0:
            raise ValueError("not a degree-0 form")
        return NCPoly("I", {m: c.as_qlaurent()
                            for (_, m), c in self.terms.items()})

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
        items = []
        for (w, m), c in sorted(self.terms.items()):
            num = c.num.to_json()
            entry = {"word": [X_NAMES[g] for g in w], "e": list(m),
                     "coef_num": num}
            if c.den != _ONE:
                entry["coef_den"] = c.den.to_json()
            items.append(entry)
        return {"degree": self.degree, "terms": items}


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
                add_to(acc, (wn, m1), c * QRat(c1 * cw))
    return NCForm(table, x.degree + 1, acc)


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def hodge_star(omega: NCForm) -> NCForm:
    table = omega.table
    deg = omega.degree
    if deg == 0:
        scale = QRat(QLaurent.q_power(-1))
        return NCForm(table, 4, {(VOL_WORD, m): c * scale
                                 for (_, m), c in omega.terms.items()})
    if deg == 1:
        star = _star1_words(table)
        acc = {}
        for ((g,), m), c in omega.terms.items():
            for w, cw in star[g].items():
                add_to(acc, (w, m), c * cw)
        return NCForm(table, 3, acc)
    if deg == 3:
        star = _star3_words(table)
        acc = {}
        for (w, m), c in omega.terms.items():
            for g, cg in star[w].items():
                add_to(acc, ((g,), m), c * cg)
        return NCForm(table, 1, acc)
    if deg == 4:
        scale = QRat(QLaurent.q_power(1))
        return NCForm(table, 0, {((), m): c * scale
                                 for (_, m), c in omega.terms.items()})
    raise CalculusError("the degree-2 Hodge star is not defined here")


def laplace_via_star(f: NCPoly, table) -> NCPoly:
    """box f computed as * d * d f (must agree with laplacian)."""
    out = hodge_star(d(hodge_star(d(f, table))))
    return out.as_poly()


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
    half = QRat(_ONE, QLaurent.from_scalar(2))
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
        cp = coords.get(_MIX_PLUS, _R_ZERO)
        cm = coords.get(_MIX_MINUS, _R_ZERO)
        alpha = (cp - cm) * half   # along dx11^dx22 - dx12^dx21 (SD)
        beta = (cp + cm) * half    # along dx11^dx22 + dx12^dx21 (ASD)
        if alpha:
            sd[(_MIX_PLUS, m)] = sd.get((_MIX_PLUS, m), _R_ZERO) + alpha
            sd[(_MIX_MINUS, m)] = sd.get((_MIX_MINUS, m), _R_ZERO) - alpha
        if beta:
            asd[(_MIX_PLUS, m)] = asd.get((_MIX_PLUS, m), _R_ZERO) + beta
            asd[(_MIX_MINUS, m)] = asd.get((_MIX_MINUS, m), _R_ZERO) + beta
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
