"""First-order differential calculus on the chart-I quantum algebra.

The calculus exists in two flavours, selected by ``p_choice``: the structure
constant p equals q ("q") or q^-1 ("qinv").  Everything here is *derived*, not
transcribed: the sixteen commutation rules

    dx_b . x_a  =  sum  coeff * x_c . dx_d

are the unique solution, under a charge-conservation ansatz (each rule only
involves generator pairs with the same row and column multisets), of the
constraint system

  * pencil covariances:  (dx11 s + dx21)(x11 s + x21) = p^2 (x11 s + x21)(dx11 s + dx21)
    and the mirror pencil in (x12, x22); the mixed pencil
    (dx11 s + dx21)(x12 s + x22) = p^2 (x12 s + x22)(dx11 s + dx21) for p = q,
    respectively (dx12 s + dx22)(x11 s + x21) = p^2 (x11 s + x21)(dx12 s + dx22)
    for p = q^-1;
  * well-definedness of d on the quadratic relations of the algebra;
  * the determinant covariances  dx_g . det = p^2 q^t(g) det . dx_g  with
    t = (0, -2, +2, 0).

The wedge relations on 2-forms are then forced by d о d = 0 on products of two
generators.  Three pairs anticommute classically and keep doing so:

    dx21^dx11 = -dx11^dx21,   dx22^dx12 = -dx12^dx22,   dx22^dx11 = -dx11^dx22,

the two same-charge pairs pick up scalars,

    dx12^dx11 = -q^-2 dx11^dx12,   dx22^dx21 = -q^-2 dx21^dx22,

all squares vanish, and the remaining crossed pair is *not* a pure
anticommutation for generic q:

    dx21^dx12 = (q^2 - 1) dx11^dx22 - q^2 dx12^dx21.

That mixed rule is independent of the p-choice and is pinned by the same
d^2 = 0 computation that fixes the rest of the table; replacing it with the
naive anticommutation -dx12^dx21 is inconsistent with the derived x-dx table
(the residual is exactly (q^2-1)(dx11^dx22 - dx12^dx21), vanishing only at
q^2 = 1).  ``CalculusTable.anticommutation_audit`` reports this residual.

The rules are solved through the table's own engines, ``cross`` for the
x-dx rules and ``insert_wedge`` for d^2 = 0, run on a ``CalculusTable`` whose
unsolved rules carry unknowns; the derived table is then re-checked against
all 35 constraints, its classical limit and the closed form of d(det).

Conventions:
  * d(fg) = (df) g + f (dg), and d(f . dx-word) = df ^ dx-word; forms are kept
    in left-coefficient normal form (ordered monomial times strictly sorted
    wedge word).  Form coefficients live in the fraction field QRat because
    the Hodge star introduces 1/[2].
  * partials: df = sum (del_g f) dx_g defines the four partial derivatives.
  * laplacian: box = del11 del22 - del21 del12 = del22 del11 - del12 del21
    (both orderings are computed and compared on every call).
  * delta_op: Delta f = sum (del_g f) x_g (generator multiplied on the right).
  * tilde_laplacian: f -> (box f) . det, i.e. box followed by *right*
    multiplication by det.  With this reading det^k X^l_{m,n} is an exact
    eigenvector with eigenvalue p^(2k+2l-3) [k] [k+2l+1] for every m, n; the
    left-multiplication reading would twist the eigenvalue by q^(2(m-n)).
  * Hodge star: *1 = q^-1 vol with vol = dx11^dx12^dx21^dx22; on 1-forms the
    four images -(1/[2]) dx_g ^ (3-word) as given by the pairing table; on
    3-forms the inverse of the 1-form star; on 4-forms f.vol -> q f.  The
    degree-2 star is not defined and raises.
"""

from functools import partial

from .exactcore import (GaussRational, Matrix, QLaurent, QRat, _echelon,
                        qint)
from .qspacetime import (CHART_I_RULES, HarmonicIndex, NCPoly, X_NAMES,
                         add_to, apply_rule, det_x, engine, feed, harmonic,
                         split_first)

_ONE = QLaurent.one()
_ZERO = QLaurent.zero()
_R_ONE = QRat.one()
_R_ZERO = QRat.zero()
_ENG = engine("I")
_ZMONO = (0, 0, 0, 0)
VOL_WORD = (0, 1, 2, 3)

# generator g = 2*(row-1) + (col-1): x11, x12, x21, x22
_ROWS = (0, 0, 1, 1)
_COLS = (0, 1, 0, 1)

# dx_g . det = p^2 q^DX_DET_TWIST[g] det . dx_g
DX_DET_TWIST = (0, -2, 2, 0)

P_EXPONENTS = {"q": 1, "qinv": -1}


class CalculusError(Exception):
    """Raised when the rule derivation is inconsistent or underdetermined."""


def _charge_targets(a, b):
    """Ordered pairs (c, d) with the same row and column multisets as (a, b)."""
    key = (tuple(sorted((_ROWS[a], _ROWS[b]))),
           tuple(sorted((_COLS[a], _COLS[b]))))
    out = []
    for c in range(4):
        for d in range(4):
            if key == (tuple(sorted((_ROWS[c], _ROWS[d]))),
                       tuple(sorted((_COLS[c], _COLS[d])))):
                out.append((c, d))
    return tuple(out)


# ---------------------------------------------------------------------------
# linear solver over Q(i)(q)
# ---------------------------------------------------------------------------

def _solve_system(equations):
    """Solve (lin: {var: c}, const: c, name) equations exactly.

    Each equation asserts sum(lin[v] * v) + const = 0, with coefficients in
    QLaurent or QRat.  Returns the dict of uniquely determined variables;
    raises CalculusError on inconsistency.  Variables are the columns of a
    reduced row echelon in sorted order, with the constant as the last
    column: a pivot there is an inconsistency, and a variable is determined
    when its pivot row holds no other variable.  ``_echelon`` pivots on
    units, so a value is a QLaurent unless a non-unit pivot made it a QRat.
    """
    names = sorted({v for lin, _, _ in equations for v, c in lin.items() if c})
    col = {v: j for j, v in enumerate(names)}
    const_col = len(names)
    rows = []
    for lin, const, _ in equations:
        row = {col[v]: c for v, c in lin.items() if c}
        if const:
            row[const_col] = const
        rows.append(row)
    solved = {}
    for j, i, row in _echelon(rows, const_col + 1, reduced=True):
        if j == const_col:
            raise CalculusError(f"inconsistent constraints: {equations[i][2]}")
        if all(k == j or k == const_col for k in row):
            solved[names[j]] = -row.get(const_col, _ZERO)
    return solved


# ---------------------------------------------------------------------------
# rule tables with unknown coefficients
# ---------------------------------------------------------------------------

class _Nonlinear(Exception):
    """A constraint expansion needed the product of two unknown rules."""


class _Affine:
    """A coefficient affine in the unknown rule coefficients.

    ``terms`` maps each unknown, or None for the constant part, to a nonzero
    QLaurent, and holds at least one unknown (a sum without one collapses to
    its QLaurent constant).  The reflected operators let QLaurent values mix
    in, so ``CalculusTable``'s engines expand a constraint over a table whose
    unsolved rules carry unknowns; a product of two unknowns raises
    _Nonlinear.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        t = dict(self.terms)
        more = other.terms if isinstance(other, _Affine) else {None: other}
        for v, c in more.items():
            add_to(t, v, c)
            if not t[v]:
                del t[v]
        if any(v is not None for v in t):
            return _Affine(t)
        return t.get(None, QLaurent.zero())

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Affine):
            raise _Nonlinear()
        if not other:
            return QLaurent.zero()
        return _Affine({v: c * other for v, c in self.terms.items()})

    __rmul__ = __mul__


def _unknown_rule(kind, g, a, targets):
    """A rule for (g, a) with the unknown (kind, g, a, c, d) per target."""
    return tuple((_Affine({(kind, g, a) + t: _ONE}), t) for t in targets)


def _solved_rule(solved, kind, g, a, targets):
    """The rule read off ``solved``; None while an unknown is undetermined."""
    vals = [solved.get((kind, g, a) + t) for t in targets]
    if any(v is None for v in vals):
        return None
    return tuple((v if type(v) is QLaurent else v.as_qlaurent(), t)
                 for v, t in zip(vals, targets) if v)


def _equations(name, residual):
    """One linear equation per nonzero coefficient of a residual, with the
    QLaurent coefficients as they are."""
    eqs = []
    for c in residual.values():
        if c:
            terms = c.terms if isinstance(c, _Affine) else {None: c}
            eqs.append(({v: x for v, x in terms.items() if v is not None},
                        terms.get(None, _ZERO), name))
    return eqs


def _solve_rules(kind, targets, pending, table_of, equations):
    """Solve for the rules (g, a) of ``targets`` {(g, a): [(c, d)]}.

    ``table_of(rules)`` is the table carrying ``rules``; unsolved ones get
    one unknown per target.  Each round expands every pending constraint
    through it, keeping back those that would multiply two unknowns, and
    solves ``equations`` with everything gathered so far when the round
    added any; rounds end when one expands no constraint and solves no rule.
    """
    rules = {}
    solved = None
    while True:
        table = table_of({k: rules[k] if k in rules
                          else _unknown_rule(kind, *k, ts)
                          for k, ts in targets.items()})
        left = []
        before = len(equations)
        for name, residual in pending:
            try:
                equations += _equations(name, residual(table))
            except _Nonlinear:
                left.append((name, residual))
        if solved is None or len(equations) > before:
            solved = _solve_system(equations)
        found = {}
        for k, ts in targets.items():
            rule = _solved_rule(solved, kind, *k, ts)
            if rule is not None:
                found[k] = rule
        if len(found) == len(targets) and not left:
            return found
        if len(found) == len(rules) and len(left) == len(pending):
            sep = "." if kind == "x" else "^d"
            missing = [f"d{X_NAMES[g]}{sep}{X_NAMES[a]}"
                       for g, a in targets if (g, a) not in found]
            raise CalculusError(f"underdetermined rules: {missing}")
        rules, pending = found, left


# ---------------------------------------------------------------------------
# the defining constraints, as residuals expanded by a table's engines
# ---------------------------------------------------------------------------

def _gen_mono(g):
    """The ordered monomial x_g."""
    return tuple(int(i == g) for i in range(4))


def _cross_residual(crossed, plain, t):
    """sum coeff * dx_g . mono over ``crossed`` [(coeff, g, mono)] plus
    sum coeff * mono . dx_e over ``plain`` [(coeff, mono, e)]."""
    acc = {}
    for coeff, g, mono in crossed:
        for k, c in t.cross(g, mono).items():
            add_to(acc, k, coeff * c)
    for coeff, mono, e in plain:
        add_to(acc, (mono, e), coeff)
    return acc


def _x_constraints(p_exp):
    """[(name, residual)] for the constraints that pin the dx-x rules.

    ``residual(table)`` is {(mono, e): coefficient}, expanded with
    ``table.cross``; it vanishes exactly when the constraint holds.  Each
    pencil (dx_g1 s + dx_g2)(x_a1 s + x_a2) - p^2 (x_a1 s + x_a2)(dx_g1 s +
    dx_g2) gives one residual per power of s; d(x_u x_v) = dx_u . x_v +
    x_u . dx_v gives those of the relations.
    """
    p2 = QLaurent.q_power(2 * p_exp)
    mixed = (("pencil(11,21|12,22)", (0, 2), (1, 3)) if p_exp == 1
             else ("pencil(12,22|11,21)", (1, 3), (0, 2)))
    out = []
    for tag, (g1, g2), (a1, a2) in (("pencil(11,21)", (0, 2), (0, 2)),
                                    ("pencil(12,22)", (1, 3), (1, 3)),
                                    mixed):
        for which, pairs in (("s^2", ((g1, a1),)),
                             ("s", ((g1, a2), (g2, a1))),
                             ("s^0", ((g2, a2),))):
            out.append((f"{tag}[{which}]", partial(
                _cross_residual, [(_ONE, g, _gen_mono(a)) for g, a in pairs],
                [(-p2, _gen_mono(a), g) for g, a in pairs])))
    for b, a in sorted(CHART_I_RULES):
        # d(x_b x_a - sum coeff x_u x_v) for the sorting relation of (b, a)
        terms = [(_ONE, (b, a))] + [(-c, w) for c, w in CHART_I_RULES[(b, a)]]
        out.append((f"d[{X_NAMES[b]}*{X_NAMES[a]} relation]", partial(
            _cross_residual, [(c, u, _gen_mono(v)) for c, (u, v) in terms],
            [(c, _gen_mono(u), v) for c, (u, v) in terms])))
    det = det_x().terms
    for g in range(4):
        # dx_g . det - p^2 q^t(g) det . dx_g
        scale = QLaurent.q_power(2 * p_exp + DX_DET_TWIST[g])
        out.append((f"det covariance[d{X_NAMES[g]}]", partial(
            _cross_residual, [(c, g, m) for m, c in det.items()],
            [(-scale * c, m, g) for m, c in det.items()])))
    return out


def _d2_constraints():
    """[(name, residual)] for d(d(x_a x_b)) = 0 on all sixteen pairs.

    dx_a . x_b = sum coeff x_c . dx_d makes d(x_a x_b) = sum coeff x_c dx_d
    + x_a dx_b, so d applied again is sum coeff dx_c^dx_d + dx_a^dx_b,
    normal-ordered by ``table.insert_wedge``.
    """
    return [(f"d^2[{X_NAMES[a]}*{X_NAMES[b]}]",
             lambda t, a=a, b=b: apply_rule(
                 t.insert_wedge, t.x_rules[(a, b)] + ((_ONE, (a, b)),), ()))
            for a in range(4) for b in range(4)]


def _solve_x_rules(p_exp, extra_equations=()):
    """Derive the sixteen dx-x rules for p = q^p_exp.  Returns {(g, a): rule}.

    Raises CalculusError("inconsistent constraints: ...") or
    CalculusError("underdetermined ...") when the system misbehaves.
    """
    p_choice = next(pc for pc, e in P_EXPONENTS.items() if e == p_exp)
    targets = {(g, a): _charge_targets(g, a)
               for g in range(4) for a in range(4)}
    return _solve_rules("x", targets, _x_constraints(p_exp),
                        lambda rules: CalculusTable(p_choice, rules, {}),
                        list(extra_equations))


def _solve_wedge_rules(p_choice, x_rules):
    """Wedge relations forced by d^2 = 0 on all products of two generators.

    Each dx_b ^ dx_a (b >= a) gets one unknown per sorted pair of its charge
    class.  A square has no sorted pair in its class and is zero by the
    charge ansatz (consistently: its coefficient in every residual is a unit
    multiple, so the relations force the same answer).
    """
    targets = {(b, a): [(c, d) for c, d in _charge_targets(b, a) if c < d]
               for b in range(4) for a in range(b + 1)}
    return _solve_rules("w", targets, _d2_constraints(),
                        lambda rules: CalculusTable(p_choice, x_rules, rules),
                        [])


# ---------------------------------------------------------------------------
# the derived table
# ---------------------------------------------------------------------------

class CalculusTable:
    """Derived rule tables plus memoized normal-form engines for one p-choice."""

    def __init__(self, p_choice, x_rules, wedge_rules):
        self.p_choice = p_choice
        self.p_exp = P_EXPONENTS[p_choice]
        self.p = QLaurent.q_power(self.p_exp)
        self.x_rules = x_rules
        self.wedge_rules = wedge_rules
        self.leibniz = "d(fg) = (df)g + f(dg)"
        self._cross_memo = {}
        self._dmono_memo = {}
        self._insert_memo = {}
        self._word_mono_memo = {}
        self._star1 = None
        self._star3 = None

    # -- 1-form engine ------------------------------------------------------

    def cross(self, g, mono):
        """dx_g . mono as {(mono', e): QLaurent} (x moved to the left)."""
        key = (g, mono)
        hit = self._cross_memo.get(key)
        if hit is not None:
            return hit
        split = split_first(mono)
        if split is None:
            out = {(_ZMONO, g): _ONE}
        else:
            first, rest = split
            acc = {}
            for coeff, (c, d) in self.x_rules[(g, first)]:
                for (m1, e), c1 in self.cross(d, rest).items():
                    for m2, c2 in _ENG.mul_gen_mono(c, m1).items():
                        add_to(acc, (m2, e), coeff * c1 * c2)
            out = {k: c for k, c in acc.items() if c}
        self._cross_memo[key] = out
        return out

    def d_mono(self, mono):
        """d of an ordered monomial as {(mono', e): QLaurent}."""
        hit = self._dmono_memo.get(mono)
        if hit is not None:
            return hit
        split = split_first(mono)
        if split is None:
            out = {}
        else:
            first, rest = split
            acc = dict(self.cross(first, rest))
            for (m1, e), c1 in self.d_mono(rest).items():
                for m2, c2 in _ENG.mul_gen_mono(first, m1).items():
                    add_to(acc, (m2, e), c1 * c2)
            out = {k: c for k, c in acc.items() if c}
        self._dmono_memo[mono] = out
        return out

    # -- wedge engine ---------------------------------------------------------

    def insert_wedge(self, g, word):
        """dx_g ^ (strictly sorted word) as {sorted word: QLaurent}."""
        key = (g, word)
        hit = self._insert_memo.get(key)
        if hit is not None:
            return hit
        if not word:
            out = {(g,): _ONE}
        else:
            h = word[0]
            if g < h:
                out = {(g,) + word: _ONE}
            elif g == h:
                out = {}
            else:
                out = apply_rule(self.insert_wedge, self.wedge_rules[(g, h)],
                                 word[1:])
        self._insert_memo[key] = out
        return out

    def wedge_norm(self, word):
        """Any wedge word as {strictly sorted word: QLaurent}."""
        return feed(self.insert_wedge, word, {(): _ONE})

    def word_past_mono(self, word, mono):
        """(wedge word) . mono as {(mono', word'): QLaurent}, words unsorted."""
        if not word:
            return {(mono, ()): _ONE}
        key = (word, mono)
        hit = self._word_mono_memo.get(key)
        if hit is not None:
            return hit
        head, last = word[:-1], word[-1]
        acc = {}
        for (m1, e), c1 in self.cross(last, mono).items():
            for (m0, w0), c0 in self.word_past_mono(head, m1).items():
                add_to(acc, (m0, w0 + (e,)), c1 * c0)
        out = {k: c for k, c in acc.items() if c}
        self._word_mono_memo[key] = out
        return out

    # -- Hodge data -----------------------------------------------------------

    def star1_words(self):
        """{g: {sorted 3-word: QRat}} for *dx_g."""
        if self._star1 is None:
            raw = {0: (0, 1, 2), 1: (1, 3, 0), 2: (2, 0, 3), 3: (3, 2, 1)}
            scale = -(_R_ONE / QRat(qint(2)))
            star = {}
            for g, w in raw.items():
                star[g] = {w2: scale * QRat(c)
                           for w2, c in self.wedge_norm(w).items()}
            self._star1 = star
        return self._star1

    def star3_words(self):
        """{sorted 3-word: {g: QRat}}: the inverse of the 1-form star."""
        if self._star3 is None:
            words = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
            star = self.star1_words()
            mat = Matrix(4, 4, [[star[g].get(w, _R_ZERO) for g in range(4)]
                                for w in words])
            cols = Matrix.identity(4, _R_ONE, _R_ZERO)
            inv = mat.solve(cols)
            if inv is None:
                raise CalculusError("the 1-form star is not invertible")
            self._star3 = {w: {g: inv[(g, i)] for g in range(4)
                               if inv[(g, i)]}
                           for i, w in enumerate(words)}
        return self._star3

    # -- reports --------------------------------------------------------------

    def anticommutation_audit(self):
        """Residual of dx_b^dx_a + dx_a^dx_b for the four crossed-proof pairs.

        For three pairs the residual vanishes; for (dx21, dx12) it equals
        (q^2-1)(dx11^dx22 - dx12^dx21), so that pair does not anticommute.
        """
        out = {}
        for (b, a) in ((2, 1), (2, 0), (3, 1), (3, 0)):
            acc = {(a, b): _ONE}
            for coeff, pair in self.wedge_rules[(b, a)]:
                add_to(acc, pair, coeff)
            residual = {k: c for k, c in acc.items() if c}
            out[f"d{X_NAMES[b]}^d{X_NAMES[a]}"] = {
                "anticommutes": not residual,
                "residual": {f"d{X_NAMES[c]}^d{X_NAMES[d]}": str(c2)
                             for (c, d), c2 in sorted(residual.items())},
            }
        return out

    def to_json(self):
        """The ``q table`` report: each rule keyed "dx11*x12" or
        "dx21*dx12", as a list of {"coeff", "left", "right"} terms."""
        def rules(table, x):
            return {f"d{X_NAMES[g]}*{x}{X_NAMES[h]}": [
                {"coeff": c.to_json(), "left": f"{x}{X_NAMES[a]}",
                 "right": f"d{X_NAMES[b]}"} for c, (a, b) in terms]
                for (g, h), terms in table.items()}
        return {"p_choice": self.p_choice, "leibniz": self.leibniz,
                "x_rules": rules(self.x_rules, ""),
                "wedge_rules": rules(self.wedge_rules, "d")}


_TABLE_CACHE = {}


def derive_table(p_choice="q") -> CalculusTable:
    """Derive (and cache) the calculus table for p = q or p = q^-1."""
    if p_choice not in P_EXPONENTS:
        raise ValueError(f"unknown p_choice {p_choice!r}")
    table = _TABLE_CACHE.get(p_choice)
    if table is None:
        x_rules = _solve_x_rules(P_EXPONENTS[p_choice])
        table = CalculusTable(p_choice, x_rules,
                              _solve_wedge_rules(p_choice, x_rules))
        _verify_table(table)
        _TABLE_CACHE[p_choice] = table
    return table


def _classical(rule):
    """The q = 1 limit of a rule [(coeff, pair)] as {pair: GaussRational}."""
    cls = {}
    for coeff, pair in rule:
        add_to(cls, pair, coeff.subs_q1())
    return {pair: c for pair, c in cls.items() if c}


def _verify_table(table):
    """Recheck a table: two independent oracles (the classical limit and
    the closed form of d(det)), then every defining constraint expanded
    through the table's own engines."""
    # classical limit: every rule degenerates to plain (anti)commutation
    for (g, a), rule in table.x_rules.items():
        if _classical(rule) != {(a, g): GaussRational.one()}:
            raise CalculusError(
                f"classical limit broken for d{X_NAMES[g]}.{X_NAMES[a]}")
    for (b, a), rule in table.wedge_rules.items():
        want = {} if b == a else {(a, b): -GaussRational.one()}
        if _classical(rule) != want:
            raise CalculusError(
                f"classical limit broken for d{X_NAMES[b]}^d{X_NAMES[a]}")
    # d(det) in closed form
    p_exp = table.p_exp
    want = {}
    for coeff, mono_g, g in (
            (QLaurent.q_power(1 - p_exp), 0, 3),
            (-QLaurent.q_power(1 - p_exp), 1, 2),
            (QLaurent.q_power(-1 - p_exp), 3, 0),
            (-QLaurent.q_power(-1 - p_exp), 2, 1)):
        want[((g,), _gen_mono(mono_g))] = QRat(coeff)
    if d(det_x(), table).terms != want:
        raise CalculusError("d(det) does not match its closed form")
    for name, residual in _x_constraints(p_exp) + _d2_constraints():
        if any(residual(table).values()):
            raise CalculusError(f"constraint broken by the table: {name}")


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
        acc = {}
        for (w1, m1), c1 in self.terms.items():
            for (w2, m2), c2 in other.terms.items():
                c12 = c1 * c2
                for (mm, w1p), cm in table.word_past_mono(w1, m2).items():
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
# the exterior derivative and its derived operators
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


def partials(f: NCPoly, table) -> tuple:
    """(del11 f, del12 f, del21 f, del22 f) with df = sum (del_g f) dx_g."""
    if f.chart != "I":
        raise ValueError("partials live on chart I")
    acc = [{}, {}, {}, {}]
    for mono, c in f.terms.items():
        for (m1, e), c1 in table.d_mono(mono).items():
            add_to(acc[e], m1, c * c1)
    return tuple(NCPoly("I", t) for t in acc)


def laplacian(f: NCPoly, table) -> NCPoly:
    """box f = del11 del22 f - del21 del12 f (both orderings, compared)."""
    p11, p12, p21, p22 = partials(f, table)
    first = partials(p22, table)[0] - partials(p12, table)[2]
    second = partials(p11, table)[3] - partials(p21, table)[1]
    if first != second:
        raise CalculusError("laplacian orderings disagree")
    return first


def delta_op(f: NCPoly, table) -> NCPoly:
    """Delta f = sum (del_g f) x_g (right multiplication by the generator)."""
    out = NCPoly.zero("I")
    for g, pg in enumerate(partials(f, table)):
        out = out + pg * NCPoly.gen("I", g)
    return out


def det_right(f: NCPoly) -> NCPoly:
    """f . det(x)."""
    return f * det_x()


def tilde_laplacian(f: NCPoly, table) -> NCPoly:
    """f -> (box f) . det: box followed by right multiplication by det.

    On the basis det^k X^l_{m,n} this operator has the exact eigenvalue
    p^(2k+2l-3) [k] [k+2l+1], independent of m and n; composing with det on
    the left instead would multiply the eigenvalue by q^(2(m-n)).
    """
    return det_right(laplacian(f, table))


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
        star = table.star1_words()
        acc = {}
        for ((g,), m), c in omega.terms.items():
            for w, cw in star[g].items():
                add_to(acc, (w, m), c * cw)
        return NCForm(table, 3, acc)
    if deg == 3:
        star = table.star3_words()
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


# ---------------------------------------------------------------------------
# scalar residue transform (degree -2 cocycle monomials -> harmonics)
# ---------------------------------------------------------------------------

def cech_index(exps) -> HarmonicIndex:
    """Index of the cocycle monomial X^ex Y^ey Z^ez W^ew (ez, ew <= -1)."""
    ex, ey, ez, ew = exps
    if ex < 0 or ey < 0 or ez > -1 or ew > -1 or ex + ey + ez + ew != -2:
        raise ValueError(f"not a degree -2 cocycle monomial: {exps}")
    return HarmonicIndex(ex + ey, ey - ex, ez - ew)


def cech_exponents(idx: HarmonicIndex):
    """Inverse of cech_index on in-range indices with k = 0."""
    if idx.k != 0 or not idx.in_range():
        raise ValueError("cocycle monomials correspond to in-range k=0 indices")
    lm = (idx.two_l - idx.two_m) // 2
    lp = (idx.two_l + idx.two_m) // 2
    ln = (idx.two_l - idx.two_n) // 2
    lq = (idx.two_l + idx.two_n) // 2
    return (lm, lp, -(ln + 1), -(lq + 1))


def penrose_scalar(cocycle) -> NCPoly:
    """Linear extension of (cocycle monomial -> harmonic polynomial).

    ``cocycle`` is an iterable of ((ex, ey, ez, ew), coeff) pairs.
    """
    acc = NCPoly.zero("I")
    for exps, coeff in cocycle:
        idx = cech_index(exps)
        acc = acc + harmonic(idx).scale(coeff)
    return acc


# ---------------------------------------------------------------------------
# eigenvalue formulas and the conjugation identity
# ---------------------------------------------------------------------------

def delta_eigenvalue(two_l, p_choice="q") -> QLaurent:
    """Delta X^l = p^(2l-1) [2l] X^l."""
    p_exp = P_EXPONENTS[p_choice]
    return QLaurent.q_power(p_exp * (two_l - 1)) * qint(two_l)


def eigenvalue_tilde(k, two_l, p_choice="q") -> QLaurent:
    """tilde-box (det^k X^l) = p^(2k+2l-3) [k] [k+2l+1] det^k X^l."""
    p_exp = P_EXPONENTS[p_choice]
    return (QLaurent.q_power(p_exp * (2 * k + two_l - 3))
            * qint(k) * qint(k + two_l + 1))


def conjugation_identity_check(k, two_l, p_choice="q") -> bool:
    """p^(2k+2l-3)[k][k+2l+1] = p^-8 p^(-2k''-2l+3)[k''][k''+2l+1],
    with k'' = -k - 2l - 1 (the eigenvalue form of the chart conjugation)."""
    p_exp = P_EXPONENTS[p_choice]
    lhs = eigenvalue_tilde(k, two_l, p_choice)
    k2 = -k - two_l - 1
    rhs = (QLaurent.q_power(p_exp * (-8 - 2 * k2 - two_l + 3))
           * qint(k2) * qint(k2 + two_l + 1))
    return lhs == rhs
