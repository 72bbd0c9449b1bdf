"""Differential forms over the chart-I calculus: the wedge product, the
exterior derivative and the self-dual / anti-self-dual split of 2-forms.

No command needs forms over the algebra: ``qinstanton.curvature_asd`` reads
its constant 2-forms off ``qcalculus.partials`` and the table's
``wedge_norm``.  These forms are the oracle the tests check it and the
calculus against (d^2 = 0, Leibniz, the chart automorphism, the Hodge
star, the curvature product of a datum's own operators).  They run the
``qcalculus`` engines: ``cross`` moves dx past monomials, ``d_mono``
differentiates one and ``wedge_norm`` orders the wedge words.

Conventions:
  * d(fg) = (df) g + f (dg), and d(f . dx-word) = df ^ dx-word; forms are kept
    in left-coefficient normal form (ordered monomial times strictly sorted
    wedge word), with Laurent coefficients: the table rules, the products
    of monomials and the 1/2 of the split all are.
"""

from qadhm.qcalculus import CalculusError
from qadhm.qspacetime import NCPoly, X_NAMES, add_to, engine, feed
from qadhm.scalars import _QL_ONE, Immutable, QLaurent, mono_str

_ENG = engine("I")


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class NCForm(Immutable):
    """Left-coefficient differential form: {(sorted word, mono): QLaurent},
    with no zero coefficient; sums are within one table and degree."""

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

    def _like(self, terms):
        return NCForm(self.table, self.degree, terms)

    def _key(self):
        return id(self.table), self.degree

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCForm):
            return NotImplemented
        return self._key() == other._key() and self.terms == other.terms

    def __hash__(self):
        return hash((self._key(), frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, NCForm):
            return NotImplemented
        if self.table is not other.table:
            raise ValueError("cannot mix calculus tables")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_to(t, k, c)
        return self._like(t)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a central scalar (QLaurent / GaussRational / int)."""
        if not isinstance(c, QLaurent):
            c = QLaurent({0: c})
        return self._like({k: cc * c for k, cc in self.terms.items()}
                          if c else {})

    @classmethod
    def from_poly(cls, table, poly):
        if poly.chart != "I":
            raise ValueError("forms live over chart I")
        return cls(table, 0, {((), m): c for m, c in poly.terms.items()})

    def wedge(self, other):
        """self ^ other (moves the right factor's coefficients left)."""
        if self.table is not other.table:
            raise ValueError("cannot mix calculus tables")
        deg = self.degree + other.degree
        if deg > 4:
            return NCForm(self.table, 4)
        table = self.table

        def insert(g, key):             # dx_g . (mono . word)
            m, w = key
            return {(m1, (e,) + w): c
                    for (m1, e), c in table.cross(g, m).items()}
        acc = {}
        for (w1, m1), c1 in self.terms.items():
            for (w2, m2), c2 in other.terms.items():
                c12 = c1 * c2
                past = feed(insert, w1, {(m2, ()): _QL_ONE})   # w1 . m2
                for (mm, w1p), cm in past.items():
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
            mono = mono_str(m, X_NAMES)
            word = "^".join("d" + X_NAMES[g] for g in w)
            parts = [p for p in (f"({c})", mono, word) if p]
            bits.append("*".join(parts))
        return " + ".join(bits)

    def __repr__(self):
        return f"NCForm({self.degree}, {self})"


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
    Term by term: c.dx11^dx22 is c/2 on each mixed vector, c.dx12^dx21
    is -c/2 on the SD one and c/2 on the ASD one.
    """
    if omega.degree != 2:
        raise ValueError("sd_asd_split expects a 2-form")
    half = _QL_ONE / 2
    sd = {}
    asd = {}
    for (w, m), c in omega.terms.items():
        if w in _SD_WORDS:
            add_to(sd, (w, m), c)
        elif w in _ASD_WORDS:
            add_to(asd, (w, m), c)
        else:
            h = c * half
            s = h if w == _MIX_PLUS else -h
            add_to(sd, (_MIX_PLUS, m), s)
            add_to(sd, (_MIX_MINUS, m), -s)
            add_to(asd, (_MIX_PLUS, m), h)
            add_to(asd, (_MIX_MINUS, m), h)
    sd_form = NCForm(omega.table, 2, sd)
    asd_form = NCForm(omega.table, 2, asd)
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
