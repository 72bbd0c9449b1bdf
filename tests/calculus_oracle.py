"""The solver of the calculus tables: the test oracle of the constants
``qcalculus._X_RULES`` and ``qcalculus._WEDGE_RULES``.

The sixteen dx-x rules of each p-choice, and the wedge rules, are solved for
under the charge-conservation ansatz from the constraints that
``qcalculus`` checks the stored tables against: ``_x_constraints`` (pencil
covariances, the relations, the determinant covariances) and
``_d2_constraints`` (d^2 = 0).  Each constraint is expanded through the
table's own engines, run on a ``CalculusTable`` whose unsolved rules carry
unknowns, and the linear equations are solved exactly in the Laurent ring
by ``echelon._echelon``.  A rule is returned only when every one of its
coefficients is determined, so a solve that returns all the rules proves
them unique.  The tables depend on no input, so no command solves them;
``tests/test_qcalculus.py`` asserts that this solve returns the constants.
"""

from qadhm.echelon import _echelon
from qadhm.qcalculus import (CalculusError, CalculusTable, P_EXPONENTS,
                             _d2_constraints, _x_constraints)
from qadhm.qspacetime import X_NAMES, add_to
from qadhm.scalars import QLaurent

from helpers import qrat_as_qlaurent

_ONE = QLaurent.one()
_ZERO = QLaurent.zero()

# generator g = 2*(row-1) + (col-1): x11, x12, x21, x22
_ROWS = (0, 0, 1, 1)
_COLS = (0, 1, 0, 1)

# (c, d) -> its charge: the row and column multisets of the pair, which over
# {0, 1} are fixed by their sums
_CHARGE = {(c, d): (_ROWS[c] + _ROWS[d], _COLS[c] + _COLS[d])
           for c in range(4) for d in range(4)}


def _charge_targets(a, b):
    """Ordered pairs (c, d) with the same row and column multisets as (a, b)."""
    key = _CHARGE[(a, b)]
    return tuple(pair for pair, charge in _CHARGE.items() if charge == key)


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
    return tuple((v if type(v) is QLaurent else qrat_as_qlaurent(v), t)
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
# the two solves
# ---------------------------------------------------------------------------

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

