"""First-order differential calculus on the chart-I quantum algebra.

The calculus exists in two flavours, selected by ``p_choice``: the structure
constant p equals q ("q") or q^-1 ("qinv").  Its sixteen commutation rules

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
q^2 = 1).

The tables depend on no input, so they were solved once and are kept here
as the constants ``_X_RULES`` and ``_WEDGE_RULES``.  The solver is the test
oracle ``tests/calculus_oracle.py``: it expands each constraint through the
table's own engines (``cross`` for the x-dx rules, ``insert_wedge`` for
d^2 = 0) with unknown coefficients, and the tests assert that its unique
solution is these constants, term for term.  Each rule is still checked in
the process before it is used: ``derive_table`` checks the x rules against
their classical limit, the closed form of d(det) and their 19 constraints;
a table checks the wedge rules, which most commands never read, on their
first read, against their classical limit and the 16 d^2 = 0 constraints.
The p = q^-1 x rules are kept as the image of the p = q ones under the
automorphism sigma of chart I, and checked like them.

Differential forms and the exterior derivative on them are in ``qforms``.

Conventions:
  * d(fg) = (df) g + f (dg).
  * partials: df = sum (del_g f) dx_g defines the four partial derivatives.
  * laplacian: box = del11 del22 - del21 del12 = del22 del11 - del12 del21
    (both orderings are computed and compared on every call).
  * tilde_laplacian: f -> (box f) . det, i.e. box followed by *right*
    multiplication by det.  With this reading det^k X^l_{m,n} is an exact
    eigenvector with eigenvalue p^(2k+2l-3) [k] [k+2l+1] for every m, n; the
    left-multiplication reading would twist the eigenvalue by q^(2(m-n)).
"""

from functools import cache, partial

from .qspacetime import (_ZMONO, CHART_I_RULES, HarmonicIndex, NCPoly,
                         X_NAMES, _gen_mono, add_to, apply_rule, det_x,
                         engine, feed, harmonic, split_first, times_det)
from .scalars import _QL_ONE, GaussRational, QLaurent, qint

_ENG = engine("I")

# dx_g . det = p^2 q^DX_DET_TWIST[g] det . dx_g
DX_DET_TWIST = (0, -2, 2, 0)

P_EXPONENTS = {"q": 1, "qinv": -1}


class CalculusError(Exception):
    """Raised when a rule table fails a check or cannot be solved for."""


# ---------------------------------------------------------------------------
# the solved tables
# ---------------------------------------------------------------------------

# generator g = 2*(row-1) + (col-1): x11, x12, x21, x22.  Rule (g, a) is
# dx_g . x_a = sum coeff * x_c . dx_d as ((coeff, (c, d)), ...), each coeff
# an integer Laurent dict {exponent: coefficient}, the terms sorted by pair,
# the order the solver gives them (``q table`` prints that order).
_X_RULES = {
    "q": {
        (0, 0): (({2: 1}, (0, 0)),),
        (0, 1): (({2: 1}, (1, 0)),),
        (0, 2): (({0: 1}, (2, 0)),),
        (0, 3): (({0: 1}, (3, 0)),),
        (1, 0): (({0: 1}, (0, 1)), ({0: -1, 2: 1}, (1, 0))),
        (1, 1): (({2: 1}, (1, 1)),),
        (1, 2): (({-2: 1}, (2, 1)), ({0: 1, -2: -1}, (3, 0))),
        (1, 3): (({0: 1}, (3, 1)),),
        (2, 0): (({2: 1}, (0, 2)), ({2: 1, 0: -1}, (2, 0))),
        (2, 1): (({2: 1}, (1, 2)), ({2: 1, 0: -1}, (3, 0))),
        (2, 2): (({2: 1}, (2, 2)),),
        (2, 3): (({2: 1}, (3, 2)),),
        (3, 0): (({0: 1}, (0, 3)), ({2: 1, 0: -1}, (1, 2)),
                 ({0: 1, -2: -1}, (2, 1)), ({2: 1, 0: -2, -2: 1}, (3, 0))),
        (3, 1): (({2: 1}, (1, 3)), ({2: 1, 0: -1}, (3, 1))),
        (3, 2): (({0: 1}, (2, 3)), ({0: -1, 2: 1}, (3, 2))),
        (3, 3): (({2: 1}, (3, 3)),),
    },
}

# sigma: x_g -> x_(3-g), q -> q^-1 is an automorphism of chart I that fixes
# det (it maps x21 x11 = q^2 x11 x21 to x12 x22 = q^-2 x22 x12), so it maps
# the constraints for p onto those for p^-1: the p = q rule (g, a) onto the
# p = q^-1 rule (3-g, 3-a), with x_c . dx_d -> x_(3-c) . dx_(3-d).
_X_RULES["qinv"] = {
    (3 - g, 3 - a): tuple(sorted(
        (({-e: n for e, n in coeff.items()}, (3 - c, 3 - d))
         for coeff, (c, d) in terms), key=lambda term: term[1]))
    for (g, a), terms in reversed(_X_RULES["q"].items())}

# dx_b ^ dx_a = sum coeff * dx_c ^ dx_d for b >= a, the same for both
# p-choices; every square is zero.
_WEDGE_RULES = {
    (0, 0): (),
    (1, 0): (({-2: -1}, (0, 1)),),
    (1, 1): (),
    (2, 0): (({0: -1}, (0, 2)),),
    (2, 1): (({2: 1, 0: -1}, (0, 3)), ({2: -1}, (1, 2))),
    (2, 2): (),
    (3, 0): (({0: -1}, (0, 3)),),
    (3, 1): (({0: -1}, (1, 3)),),
    (3, 2): (({-2: -1}, (2, 3)),),
    (3, 3): (),
}


# ---------------------------------------------------------------------------
# the defining constraints, as residuals expanded by a table's engines
# ---------------------------------------------------------------------------

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
                _cross_residual,
                [(_QL_ONE, g, _gen_mono(a)) for g, a in pairs],
                [(-p2, _gen_mono(a), g) for g, a in pairs])))
    for (b, a), rule in sorted(CHART_I_RULES.items()):
        # d(x_b x_a - sum coeff x_u x_v) for the sorting relation of (b, a)
        terms = [(_QL_ONE, (b, a))] + [(-c, w) for c, w in rule]
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
                 t.insert_wedge, t.x_rules[(a, b)] + ((_QL_ONE, (a, b)),), ()))
            for a in range(4) for b in range(4)]


# ---------------------------------------------------------------------------
# the derived table
# ---------------------------------------------------------------------------

class CalculusTable:
    """Derived rule tables plus normal-form engines for one p-choice, whose
    results are cached for the process and shared: callers never change them.

    A table built with ``wedge_rules=None`` loads the stored wedge relations
    on the first read of ``wedge_rules``, and checks them against its x
    rules before it returns them.
    """

    def __init__(self, p_choice, x_rules, wedge_rules=None):
        self.p_choice = p_choice
        self.p_exp = P_EXPONENTS[p_choice]
        self.x_rules = x_rules
        self._wedge_rules = wedge_rules
        self.leibniz = "d(fg) = (df)g + f(dg)"

    @property
    def wedge_rules(self):
        if self._wedge_rules is None:
            rules = _rules(_WEDGE_RULES)
            _verify_wedge_rules(
                CalculusTable(self.p_choice, self.x_rules, rules))
            self._wedge_rules = rules
        return self._wedge_rules

    # -- 1-form engine ------------------------------------------------------

    @cache
    def cross(self, g, mono):
        """dx_g . mono as {(mono', e): QLaurent} (x moved to the left)."""
        split = split_first(mono)
        if split is None:
            return {(_ZMONO, g): _QL_ONE}
        first, rest = split
        acc = {}
        for coeff, (c, d) in self.x_rules[(g, first)]:
            for (m1, e), c1 in self.cross(d, rest).items():
                for m2, c2 in _ENG.mul_gen_mono(c, m1).items():
                    add_to(acc, (m2, e), coeff * c1 * c2)
        return {k: c for k, c in acc.items() if c}

    @cache
    def d_mono(self, mono):
        """d of an ordered monomial as {(mono', e): QLaurent}."""
        split = split_first(mono)
        if split is None:
            return {}
        first, rest = split
        acc = dict(self.cross(first, rest))
        for (m1, e), c1 in self.d_mono(rest).items():
            for m2, c2 in _ENG.mul_gen_mono(first, m1).items():
                add_to(acc, (m2, e), c1 * c2)
        return {k: c for k, c in acc.items() if c}

    # -- wedge engine ---------------------------------------------------------

    @cache
    def insert_wedge(self, g, word):
        """dx_g ^ (strictly sorted word) as {sorted word: QLaurent}."""
        if not word or g < word[0]:
            return {(g,) + word: _QL_ONE}
        if g == word[0]:
            return {}
        return apply_rule(self.insert_wedge, self.wedge_rules[(g, word[0])],
                          word[1:])

    def wedge_norm(self, word):
        """Any wedge word as {strictly sorted word: QLaurent}."""
        return feed(self.insert_wedge, word, {(): _QL_ONE})

    # -- reports --------------------------------------------------------------

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


def _rules(stored):
    """A stored rule table with its coefficients as QLaurents."""
    return {k: tuple((QLaurent(c), pair) for c, pair in terms)
            for k, terms in stored.items()}


def derive_table(p_choice="q") -> CalculusTable:
    """The (cached) calculus table for p = q or p = q^-1.

    The stored x rules are checked here; the wedge relations, which only
    ``q table`` and the forms read, on their first read.
    """
    if p_choice not in P_EXPONENTS:
        raise ValueError(f"unknown p_choice {p_choice!r}")
    table = _TABLE_CACHE.get(p_choice)
    if table is None:
        table = CalculusTable(p_choice, _rules(_X_RULES[p_choice]))
        _verify_x_rules(table)
        _TABLE_CACHE[p_choice] = table
    return table


def _classical(rule):
    """The q = 1 limit of a rule [(coeff, pair)] as {pair: GaussRational}."""
    cls = {}
    for coeff, pair in rule:
        add_to(cls, pair, coeff.subs_q1())
    return {pair: c for pair, c in cls.items() if c}


def _check_constraints(table, constraints):
    """Raise at the first constraint whose residual over ``table`` is not 0."""
    for name, residual in constraints:
        if any(residual(table).values()):
            raise CalculusError(f"constraint broken by the table: {name}")


def _verify_x_rules(table):
    """Recheck the x rules of a table: two independent oracles (the
    classical limit and the closed form of d(det)), then every x constraint
    expanded through the table's own engines."""
    # classical limit: every rule degenerates to plain commutation
    for (g, a), rule in table.x_rules.items():
        if _classical(rule) != {(a, g): GaussRational.one()}:
            raise CalculusError(
                f"classical limit broken for d{X_NAMES[g]}.{X_NAMES[a]}")
    # d(det) in closed form: its partials del_g det = coeff * x_mono
    p_exp = table.p_exp
    want = [{}, {}, {}, {}]
    for coeff, mono_g, g in (
            (QLaurent.q_power(1 - p_exp), 0, 3),
            (-QLaurent.q_power(1 - p_exp), 1, 2),
            (QLaurent.q_power(-1 - p_exp), 3, 0),
            (-QLaurent.q_power(-1 - p_exp), 2, 1)):
        want[g][_gen_mono(mono_g)] = coeff
    if [p.terms for p in partials(det_x(), table)] != want:
        raise CalculusError("d(det) does not match its closed form")
    _check_constraints(table, _x_constraints(p_exp))


def _verify_wedge_rules(table):
    """Recheck the wedge rules of a table: the classical limit, then d^2 = 0
    on every product of two generators, expanded through its engines."""
    # classical limit: every rule degenerates to plain anticommutation
    for (b, a), rule in table.wedge_rules.items():
        want = {} if b == a else {(a, b): -GaussRational.one()}
        if _classical(rule) != want:
            raise CalculusError(
                f"classical limit broken for d{X_NAMES[b]}^d{X_NAMES[a]}")
    _check_constraints(table, _d2_constraints())


# ---------------------------------------------------------------------------
# the partial derivatives and their derived operators
# ---------------------------------------------------------------------------

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


def tilde_laplacian(f: NCPoly, table) -> NCPoly:
    """f -> (box f) . det: box followed by right multiplication by det.

    On the basis det^k X^l_{m,n} this operator has the exact eigenvalue
    p^(2k+2l-3) [k] [k+2l+1], independent of m and n; composing with det on
    the left instead would multiply the eigenvalue by q^(2(m-n)).
    """
    return times_det(laplacian(f, table), left=False)


# ---------------------------------------------------------------------------
# scalar residue transform (degree -2 cocycle monomials -> harmonics)
# ---------------------------------------------------------------------------

def cech_index(exps) -> HarmonicIndex:
    """Index of the cocycle monomial X^ex Y^ey Z^ez W^ew (ez, ew <= -1)."""
    ex, ey, ez, ew = exps
    if ex < 0 or ey < 0 or ez > -1 or ew > -1 or ex + ey + ez + ew != -2:
        raise ValueError(f"not a degree -2 cocycle monomial: {exps}")
    return HarmonicIndex(ex + ey, ey - ex, ez - ew)


def penrose_scalar(cocycle) -> NCPoly:
    """Linear extension of (cocycle monomial -> harmonic polynomial).

    ``cocycle`` is an iterable of ((ex, ey, ez, ew), coeff) pairs.  The
    coefficients are summed per index first, so each harmonic is computed
    once, and not at all when its coefficients cancel.
    """
    sums = {}
    for exps, coeff in cocycle:
        idx = cech_index(exps)
        sums[idx] = sums.get(idx, 0) + coeff
    acc = NCPoly.zero("I")
    for idx, coeff in sums.items():
        if coeff:
            acc = acc + harmonic(idx).scale(coeff)
    return acc


# ---------------------------------------------------------------------------
# eigenvalue formula
# ---------------------------------------------------------------------------

def eigenvalue_tilde(k, two_l, p_choice="q") -> QLaurent:
    """tilde-box (det^k X^l) = p^(2k+2l-3) [k] [k+2l+1] det^k X^l."""
    p_exp = P_EXPONENTS[p_choice]
    return (QLaurent.q_power(p_exp * (2 * k + two_l - 3))
            * qint(k) * qint(k + two_l + 1))
