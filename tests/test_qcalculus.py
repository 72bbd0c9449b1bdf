"""Tests for the derived differential calculus (both p-choices).

The expected rule tables below were derived by hand from the pencil
covariances plus compatibility with the sorting relations and the
determinant, and are asserted verbatim against the stored tables.  The
solver in ``calculus_oracle`` must return the stored tables term for term.
"""

import json
import random
import sys

import pytest

import qadhm.qcalculus as qcalculus
from qadhm import echelon
from qadhm.adhm import random_stable_solution
from qadhm.cli import run
from qadhm.echelon import QRat
from qadhm.qcalculus import (CalculusError, CalculusTable, P_EXPONENTS,
                             cech_index, derive_table, eigenvalue_tilde,
                             laplacian, partials, penrose_scalar,
                             tilde_laplacian)
from qadhm.qforms import NCForm, asd_membership, d, sd_asd_split
from qadhm.qinstanton import curvature_asd
from qadhm.qspacetime import (CHART_I_RULES, X_NAMES, HarmonicIndex, NCPoly,
                              SortEngine, basis_element, det_x, engine,
                              harmonic, monomials_of_degree, normalize)
from qadhm.scalars import GaussRational, QLaurent, qint

import calculus_oracle
from calculus_oracle import _solve_system, _solve_wedge_rules, _solve_x_rules
from helpers import ncpoly_power
from statements import (VOL_WORD, anticommutation_audit, cech_exponents,
                        conjugation_identity_check, delta_eigenvalue,
                        delta_op, hodge_star, laplace_via_star, left_mul,
                        slice_matrix)

P_CHOICES = ("q", "qinv")


def qp(n, c=1):
    return QLaurent.q_power(n, c)


def ql(d_):
    return QLaurent(d_)


ONE = QLaurent.one()
Q2 = qp(2)
QM2 = qp(-2)


def mono(i, j, k, l):
    return (i, j, k, l)


def gen_poly(g):
    return NCPoly.gen("I", g)


def random_poly(rng, max_deg=3, nterms=4, chart="I"):
    monos = [m for d_ in range(max_deg + 1) for m in monomials_of_degree(d_)]
    picks = rng.sample(monos, min(nterms, len(monos)))
    return NCPoly(chart, {m: rng.randint(-3, 3) for m in picks})


# ---------------------------------------------------------------------------
# the hand-derived rule tables (the oracle for the solver)
# ---------------------------------------------------------------------------

# dx_g . x_a  =  sum coeff * x_c . dx_d, encoded {(g, a): {(c, d): coeff}}
HAND_X_RULES_Q = {
    # diagonal
    (0, 0): {(0, 0): Q2},
    (1, 1): {(1, 1): Q2},
    (2, 2): {(2, 2): Q2},
    (3, 3): {(3, 3): Q2},
    # same column
    (0, 2): {(2, 0): ONE},
    (2, 0): {(0, 2): Q2, (2, 0): Q2 - ONE},
    (1, 3): {(3, 1): ONE},
    (3, 1): {(1, 3): Q2, (3, 1): Q2 - ONE},
    # same row
    (0, 1): {(1, 0): Q2},
    (1, 0): {(0, 1): ONE, (1, 0): Q2 - ONE},
    (2, 3): {(3, 2): Q2},
    (3, 2): {(2, 3): ONE, (3, 2): Q2 - ONE},
    # crossed
    (0, 3): {(3, 0): ONE},
    (1, 2): {(3, 0): ONE - QM2, (2, 1): QM2},
    (2, 1): {(3, 0): Q2 - ONE, (1, 2): Q2},
    (3, 0): {(0, 3): ONE, (3, 0): Q2 - 2 * ONE + QM2,
             (1, 2): Q2 - ONE, (2, 1): ONE - QM2},
}

HAND_X_RULES_QINV = {
    # diagonal
    (0, 0): {(0, 0): QM2},
    (1, 1): {(1, 1): QM2},
    (2, 2): {(2, 2): QM2},
    (3, 3): {(3, 3): QM2},
    # same column
    (0, 2): {(0, 2): QM2 - ONE, (2, 0): QM2},
    (2, 0): {(0, 2): ONE},
    (1, 3): {(1, 3): QM2 - ONE, (3, 1): QM2},
    (3, 1): {(1, 3): ONE},
    # same row
    (1, 0): {(0, 1): QM2},
    (0, 1): {(0, 1): QM2 - ONE, (1, 0): ONE},
    (3, 2): {(2, 3): QM2},
    (2, 3): {(2, 3): QM2 - ONE, (3, 2): ONE},
    # crossed
    (0, 3): {(0, 3): Q2 - 2 * ONE + QM2, (3, 0): ONE,
             (1, 2): ONE - Q2, (2, 1): QM2 - ONE},
    (1, 2): {(0, 3): QM2 - ONE, (2, 1): QM2},
    (2, 1): {(0, 3): ONE - Q2, (1, 2): Q2},
    (3, 0): {(0, 3): ONE},
}

# dx_b ^ dx_a (b > a)  =  sum coeff * dx_c ^ dx_d, both p-choices
HAND_WEDGE_RULES = {
    (1, 0): {(0, 1): -QM2},
    (2, 0): {(0, 2): -ONE},
    (3, 1): {(1, 3): -ONE},
    (3, 2): {(2, 3): -QM2},
    (3, 0): {(0, 3): -ONE},
    (2, 1): {(0, 3): Q2 - ONE, (1, 2): -Q2},
}


class TestRuleDerivation:
    def test_x_rules_match_hand_table_q(self):
        t = derive_table("q")
        got = {k: dict((tgt, c) for c, tgt in v) for k, v in t.x_rules.items()}
        assert got == HAND_X_RULES_Q

    def test_x_rules_match_hand_table_qinv(self):
        t = derive_table("qinv")
        got = {k: dict((tgt, c) for c, tgt in v) for k, v in t.x_rules.items()}
        assert got == HAND_X_RULES_QINV

    def test_wedge_rules_match_hand_table(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            got = {k: dict((tgt, c) for c, tgt in v)
                   for k, v in t.wedge_rules.items() if v or k[0] != k[1]}
            got = {k: v for k, v in got.items() if k[0] != k[1]}
            assert got == HAND_WEDGE_RULES
            for g in range(4):
                assert t.wedge_rules[(g, g)] == ()

    def test_rules_are_p_sensitive(self):
        assert derive_table("q").x_rules != derive_table("qinv").x_rules

    def test_classical_limit(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for (g, a), rule in t.x_rules.items():
                cls = {}
                for c, tgt in rule:
                    cls[tgt] = cls.get(tgt, GaussRational.zero()) + c.subs_q1()
                assert {k: v for k, v in cls.items() if v} == \
                    {(a, g): GaussRational.one()}

    def test_rederivation_is_identical(self):
        t = derive_table("q")
        rules = _solve_x_rules(1)
        assert rules == t.x_rules

    def test_unknown_p_choice(self):
        with pytest.raises(ValueError):
            derive_table("p")

    def test_inconsistent_extra_constraint(self):
        # pin dx11.x11 -> x11 dx11 coefficient to 1 (it must be q^2)
        bad = ({("x", 0, 0, 0, 0): QRat.one()}, -QRat.one(), "doctored pin")
        with pytest.raises(CalculusError, match="inconsistent"):
            _solve_x_rules(1, extra_equations=(bad,))

    def test_consistent_extra_constraint_is_noop(self):
        extra = ({("x", 0, 0, 0, 0): QRat.one()}, -QRat(Q2), "redundant pin")
        assert _solve_x_rules(1, extra_equations=(extra,)) == \
            derive_table("q").x_rules

    def test_solver_underdetermined_reports_nothing(self):
        x, y = ("v", 1), ("v", 2)
        sols = _solve_system([({x: QRat.one(), y: QRat.one()},
                               -QRat.one(), "plane")])
        assert sols == {}

    def test_solver_contradiction(self):
        x = ("v", 1)
        eqs = [({x: QRat.one()}, -QRat.one(), "first"),
               ({x: QRat.one()}, -QRat(Q2), "second")]
        with pytest.raises(CalculusError, match="inconsistent"):
            _solve_system(eqs)

    def test_table_json(self):
        # the ``q table`` report: rules keyed "dx11*x21" and "dx21*dx12"
        js = derive_table("q").to_json()
        assert js["p_choice"] == "q"
        assert js["leibniz"] == "d(fg) = (df)g + f(dg)"
        assert len(js["x_rules"]) == 16
        assert len(js["wedge_rules"]) == 10    # pairs with g >= h
        assert js["x_rules"]["dx11*x21"] == [
            {"coeff": ONE.to_json(), "left": "x21", "right": "dx11"}]
        assert js["wedge_rules"]["dx21*dx12"] == [
            {"coeff": (Q2 - ONE).to_json(), "left": "dx11", "right": "dx22"},
            {"coeff": (-Q2).to_json(), "left": "dx12", "right": "dx21"}]
        assert js["wedge_rules"]["dx22*dx22"] == []
        assert derive_table("qinv").to_json()["p_choice"] == "qinv"

    def test_verification_rejects_naive_anticommutation(self, monkeypatch):
        # dx21^dx12 = -dx12^dx21 keeps the classical limit and d(det), but
        # breaks d^2 = 0 on x12*x21; the first read of the wedge rules
        # checks them, and a rejected table is never kept
        doctored = dict(qcalculus._WEDGE_RULES)
        doctored[(2, 1)] = (({0: -1}, (1, 2)),)
        monkeypatch.setattr(qcalculus, "_WEDGE_RULES", doctored)
        table = CalculusTable("q", derive_table("q").x_rules)
        for _ in range(2):
            with pytest.raises(CalculusError, match=r"d\^2\[x12\*x21\]"):
                table.wedge_rules

    @pytest.mark.parametrize("p_choice", P_CHOICES)
    @pytest.mark.parametrize("rule", [(0, 3), (1, 2)])
    def test_verification_rejects_a_doctored_x_rule(self, p_choice, rule,
                                                    monkeypatch):
        # q^2 times the rule keeps its classical limit but not d(det), which
        # derive_table checks before it returns
        stored = qcalculus._X_RULES[p_choice]
        doctored = dict(stored)
        doctored[rule] = tuple(({e + 2: c for e, c in coeff.items()}, pair)
                               for coeff, pair in stored[rule])
        monkeypatch.setattr(qcalculus, "_X_RULES",
                            {**qcalculus._X_RULES, p_choice: doctored})
        monkeypatch.setattr(qcalculus, "_TABLE_CACHE", {})
        with pytest.raises(CalculusError,
                           match=r"d\(det\) does not match its closed form"):
            derive_table(p_choice)

    def test_charge_targets_match_the_sorted_multisets(self):
        rows, cols = (0, 0, 1, 1), (0, 1, 0, 1)

        def charge(a, b):
            return (sorted((rows[a], rows[b])), sorted((cols[a], cols[b])))
        for a in range(4):
            for b in range(4):
                assert calculus_oracle._charge_targets(a, b) == tuple(
                    (c, e) for c in range(4) for e in range(4)
                    if charge(c, e) == charge(a, b))


def _stored(rules):
    """Solved rules in the form of the stored constants: each coefficient
    as its Laurent dict, the rules and their terms in the solver's order."""
    return [(k, tuple((c.terms, pair) for c, pair in terms))
            for k, terms in rules.items()]


def _count_wedge_checks(monkeypatch):
    """The p-choices of the tables ``_verify_wedge_rules`` checks from now
    on, one entry per call."""
    calls = []
    verify = qcalculus._verify_wedge_rules

    def spy(table):
        calls.append(table.p_choice)
        return verify(table)

    monkeypatch.setattr(qcalculus, "_verify_wedge_rules", spy)
    return calls


class TestStoredTables:
    """The stored tables are the oracle's solve, term for term, and every
    rule is checked in the process before a command reads it."""

    @pytest.mark.parametrize("pc", P_CHOICES)
    def test_the_oracle_solves_the_stored_tables(self, pc):
        x_rules = _solve_x_rules(P_EXPONENTS[pc])
        wedge_rules = _solve_wedge_rules(pc, x_rules)
        assert _stored(x_rules) == list(qcalculus._X_RULES[pc].items())
        assert _stored(wedge_rules) == list(qcalculus._WEDGE_RULES.items())
        # the loaded table, its ``q table`` report included, byte for byte
        table = derive_table(pc)
        assert table.x_rules == x_rules
        assert json.dumps(table.to_json()) == json.dumps(
            CalculusTable(pc, x_rules, wedge_rules).to_json())

    def test_wedge_rules_are_checked_once_per_table(self, monkeypatch):
        calls = _count_wedge_checks(monkeypatch)
        table = CalculusTable("qinv", derive_table("qinv").x_rules)
        assert table.wedge_rules == table.wedge_rules
        assert calls == ["qinv"]

    @pytest.mark.parametrize("argv,checks", [
        (["q", "partial", "x11*x22"], 0),
        (["q", "table"], 1),
    ], ids=["q partial", "q table"])
    def test_only_commands_that_read_wedge_rules_check_them(
            self, argv, checks, monkeypatch, capsys):
        calls = _count_wedge_checks(monkeypatch)
        monkeypatch.setattr(qcalculus, "_TABLE_CACHE", {})
        assert run(argv) == 0
        assert capsys.readouterr().out
        assert len(calls) == checks

    @pytest.mark.parametrize("argv", [
        ["q", "normalize", "x11*x22"],
        ["q", "partial", "x11*x22"],
        ["q", "laplace", "x11*x22"],
        ["q", "harmonic", "-l", "1", "-m", "1", "-n", "-1"],
        ["q", "eigen", "-k", "1", "-l", "2"],
        ["q", "table"],
        ["q", "penrose", "<cocycle>"],
        ["inst", "curvature", "<datum>"],
    ], ids=" ".join)
    def test_no_command_solves_the_tables(self, argv, tmp_path, monkeypatch,
                                          capsys):
        # no echelon runs on the calculus path: echelon._echelon, and every
        # loaded module's binding of it, is a spy that counts its calls
        files = {
            "<cocycle>": {"cocycle": [{"exponents": [1, 0, -2, -1],
                                       "coeff": "1"}]},
            "<datum>": random_stable_solution(2, 1, 4).to_json(),
        }
        path = tmp_path / "in.json"
        for a in argv:
            if a in files:
                path.write_text(json.dumps(files[a]))
        argv = [str(path) if a in files else a for a in argv]
        calls = []

        def spy(rows, ncols, reduced=False):
            calls.append(ncols)
            return original(rows, ncols, reduced)

        original = echelon._echelon
        for name, module in list(sys.modules.items()):
            if (name.startswith("qadhm")
                    and getattr(module, "_echelon", None) is original):
                monkeypatch.setattr(module, "_echelon", spy)
        monkeypatch.setattr(qcalculus, "_TABLE_CACHE", {})
        assert run(argv) == 0
        assert capsys.readouterr().out
        assert calls == []


class TestOracleSolveRounds:
    """The oracle hands the solver the rule equations with their QLaurent
    coefficients, and solves once per round that added equations."""

    @pytest.mark.parametrize("pc", P_CHOICES)
    def test_one_laurent_solve_per_round_that_added_equations(
            self, pc, monkeypatch):
        sizes = []
        solve = calculus_oracle._solve_system

        def spy(equations):
            sizes.append(len(equations))
            assert all(type(c) is QLaurent for lin, const, _ in equations
                       for c in (*lin.values(), const))
            return solve(equations)

        monkeypatch.setattr(calculus_oracle, "_solve_system", spy)
        x_rules = _solve_x_rules(P_EXPONENTS[pc])
        # x rules: rounds of 32 and 40 equations, then a round that only
        # expands the deferred det covariances to zero and solves nothing
        assert sizes == [32, 40]
        # wedge rules: one round of 16
        _solve_wedge_rules(pc, x_rules)
        assert sizes == [32, 40, 16]


class TestPencilCovariance:
    """The defining s-pencil identities, recomputed through the engines."""

    def _pencil_holds(self, t, gens, letters):
        p2 = qp(2 * t.p_exp)
        (g1, g2), (a1, a2) = gens, letters
        comps = {"s2": ((g1, a1),), "s1": ((g1, a2), (g2, a1)),
                 "s0": ((g2, a2),)}
        rhs = {"s2": ((a1, g1),), "s1": ((a1, g2), (a2, g1)),
               "s0": ((a2, g2),)}
        for which in comps:
            acc = {}
            for g, a in comps[which]:
                m = tuple(1 if i == a else 0 for i in range(4))
                for k, c in t.cross(g, m).items():
                    acc[k] = acc.get(k, QLaurent.zero()) + c
            for a, g in rhs[which]:
                m = tuple(1 if i == a else 0 for i in range(4))
                acc[(m, g)] = acc.get((m, g), QLaurent.zero()) - p2
            if any(c for c in acc.values()):
                return False
        return True

    def test_column_pencils_both_choices(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            assert self._pencil_holds(t, (0, 2), (0, 2))
            assert self._pencil_holds(t, (1, 3), (1, 3))

    def test_mixed_pencil_selects_p_choice(self):
        tq = derive_table("q")
        assert self._pencil_holds(tq, (0, 2), (1, 3))
        assert not self._pencil_holds(tq, (1, 3), (0, 2))
        ti = derive_table("qinv")
        assert self._pencil_holds(ti, (1, 3), (0, 2))
        assert not self._pencil_holds(ti, (0, 2), (1, 3))


class TestDeterminantIdentities:
    def test_dx_det_covariance(self):
        det = det_x()
        for pc in P_CHOICES:
            t = derive_table(pc)
            for g, twist in enumerate((0, -2, 2, 0)):
                acc = {}
                for m, c in det.terms.items():
                    for k, c1 in t.cross(g, m).items():
                        acc[k] = acc.get(k, QLaurent.zero()) + c * c1
                scale = qp(2 * t.p_exp + twist)
                want = {(m, g): c * scale for m, c in det.terms.items()}
                assert {k: c for k, c in acc.items() if c} == want

    def test_d_det_closed_form(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            pe = t.p_exp
            want = NCForm(t, 1, {
                ((3,), mono(1, 0, 0, 0)): qp(1 - pe),
                ((2,), mono(0, 1, 0, 0)): -qp(1 - pe),
                ((0,), mono(0, 0, 0, 1)): qp(-1 - pe),
                ((1,), mono(0, 0, 1, 0)): -qp(-1 - pe),
            })
            assert d(det_x(), t) == want

    def test_partials_of_f_det(self):
        rng = random.Random(20260815)
        det = det_x()
        for pc in P_CHOICES:
            t = derive_table(pc)
            pe = t.p_exp
            for _ in range(10):
                f = random_poly(rng)
                p = partials(f * det, t)
                pf = partials(f, t)
                assert p[0] == pf[0].scale(qp(2 * pe)) * det + \
                    (f * gen_poly(3)).scale(qp(-pe - 1))
                assert p[1] == pf[1].scale(qp(2 * pe - 2)) * det - \
                    (f * gen_poly(2)).scale(qp(-pe - 1))
                assert p[2] == pf[2].scale(qp(2 * pe + 2)) * det - \
                    (f * gen_poly(1)).scale(qp(-pe + 1))
                assert p[3] == pf[3].scale(qp(2 * pe)) * det + \
                    (f * gen_poly(0)).scale(qp(-pe + 1))


class TestWedgeStructure:
    def test_anticommutation_audit(self):
        for pc in P_CHOICES:
            audit = anticommutation_audit(derive_table(pc))
            assert audit["dx21^dx11"]["anticommutes"]
            assert audit["dx22^dx11"]["anticommutes"]
            assert audit["dx22^dx12"]["anticommutes"]
            bad = audit["dx21^dx12"]
            assert not bad["anticommutes"]
            assert set(bad["residual"]) == {"dx11^dx22", "dx12^dx21"}

    def test_crossed_pair_residual_is_exact(self):
        # dx21^dx12 + dx12^dx21 = (q^2 - 1)(dx11^dx22 - dx12^dx21)
        for pc in P_CHOICES:
            t = derive_table(pc)
            acc = dict(((c, d), coeff) for coeff, (c, d)
                       in t.wedge_rules[(2, 1)])
            acc[(1, 2)] = acc.get((1, 2), QLaurent.zero()) + ONE
            assert {k: c for k, c in acc.items() if c} == \
                {(0, 3): Q2 - ONE, (1, 2): ONE - Q2}

    def test_naive_anticommutation_breaks_d_squared(self):
        # replacing the mixed rule by a pure anticommutation leaves
        # d(d(x12 x21)) = (q^-2 - 1)(dx11^dx22 - dx12^dx21) for either p
        for pc in P_CHOICES:
            t = derive_table(pc)
            naive = dict(t.wedge_rules)
            naive[(2, 1)] = ((-ONE, (1, 2)),)
            tn = CalculusTable(pc, t.x_rules, naive)
            f = NCPoly("I", {mono(0, 1, 1, 0): 1})
            got = d(d(f, tn))
            want = NCForm(tn, 2, {
                ((0, 3), mono(0, 0, 0, 0)): QM2 - ONE,
                ((1, 2), mono(0, 0, 0, 0)): ONE - QM2,
            })
            assert got == want
            # and the honest table kills it
            assert d(d(f, t)).is_zero()

    def test_volume_reversal(self):
        # dx22^dx21^dx12^dx11 = q^-2 dx11^dx12^dx21^dx22
        for pc in P_CHOICES:
            t = derive_table(pc)
            assert t.wedge_norm((3, 2, 1, 0)) == {VOL_WORD: QM2}

    def test_five_letters_vanish(self):
        t = derive_table("q")
        for g in range(4):
            assert t.wedge_norm((g,) + VOL_WORD) == {}
            assert t.wedge_norm(VOL_WORD + (g,)) == {}

    def test_squares_vanish_inside_words(self):
        t = derive_table("q")
        assert t.wedge_norm((2, 2)) == {}
        assert t.wedge_norm((3, 1, 3)) == {}


class TestExteriorDerivative:
    def test_d_of_generators(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for g in range(4):
                got = d(gen_poly(g), t)
                assert got == NCForm(t, 1, {((g,), mono(0, 0, 0, 0)): 1})

    def test_d_squared_zero_on_monomials(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for deg in range(5):
                for m in monomials_of_degree(deg):
                    f = NCPoly("I", {m: 1})
                    assert d(d(f, t)).is_zero()

    def test_d_squared_zero_on_one_forms(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for deg in range(4):
                for m in monomials_of_degree(deg):
                    for g in range(4):
                        omega = NCForm(t, 1, {((g,), m): 1})
                        assert d(d(omega)).is_zero()

    def test_leibniz_rule(self):
        rng = random.Random(17)
        for pc in P_CHOICES:
            t = derive_table(pc)
            for _ in range(8):
                f = random_poly(rng, max_deg=2, nterms=3)
                g = random_poly(rng, max_deg=2, nterms=3)
                lhs = d(f * g, t)
                rhs = d(f, t).wedge(NCForm.from_poly(t, g)) + \
                    NCForm.from_poly(t, f).wedge(d(g, t))
                assert lhs == rhs

    def test_d_of_top_degree_vanishes(self):
        t = derive_table("q")
        omega = NCForm(t, 4, {(VOL_WORD, mono(1, 1, 0, 0)): 3})
        assert d(omega).is_zero()

    def test_d_rejects_chart_j(self):
        # forms live over chart I; a chart-J polynomial must not be read as
        # the chart-I polynomial with the same exponents
        t = derive_table("q")
        y11y22 = NCPoly("J", {mono(1, 0, 0, 1): 1})
        with pytest.raises(ValueError, match="chart I"):
            d(y11y22, t)
        with pytest.raises(ValueError, match="chart I"):
            partials(y11y22, t)


class TestPartials:
    def test_partials_of_generators(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for g in range(4):
                ps = partials(gen_poly(g), t)
                for h, ph in enumerate(ps):
                    want = NCPoly.one("I") if h == g else NCPoly.zero("I")
                    assert ph == want

    def test_commutation_identities(self):
        def P(f, t, g):
            return partials(f, t)[g]
        for pc in P_CHOICES:
            t = derive_table(pc)
            monos = [m for d_ in range(5) for m in monomials_of_degree(d_)]
            for m in monos:
                f = NCPoly("I", {m: 1})
                assert P(P(f, t, 2), t, 0) == P(P(f, t, 0), t, 2)
                assert P(P(f, t, 3), t, 1) == P(P(f, t, 1), t, 3)
                assert P(P(f, t, 1), t, 0) == P(P(f, t, 0), t, 1).scale(QM2)
                assert P(P(f, t, 3), t, 2) == P(P(f, t, 2), t, 3).scale(QM2)
                assert P(P(f, t, 2), t, 1) == P(P(f, t, 1), t, 2).scale(Q2)
                mixed = (P(P(f, t, 3), t, 0) - P(P(f, t, 0), t, 3)
                         + P(P(f, t, 2), t, 1) - P(P(f, t, 1), t, 2))
                assert mixed.is_zero()

    def test_partials_of_harmonics(self):
        # del_ab X^l_{m,n} = p^(2l-1) q^(m±l) [l∓m] X^(l-1/2)_{m±1/2, n±1/2}
        for pc in P_CHOICES:
            t = derive_table(pc)
            pe = t.p_exp
            for two_l in range(0, 5):
                for two_m in range(-two_l, two_l + 1, 2):
                    for two_n in range(-two_l, two_l + 1, 2):
                        f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                        ps = partials(f, t)

                        def H(tm, tn):
                            if (two_l < 1 or abs(tm) > two_l - 1
                                    or abs(tn) > two_l - 1):
                                return NCPoly.zero("I")
                            return harmonic(HarmonicIndex(two_l - 1, tm, tn))

                        c_plus = qp(pe * (two_l - 1)) * \
                            qp((two_m + two_l) // 2) * \
                            qint((two_l - two_m) // 2)
                        c_minus = qp(pe * (two_l - 1)) * \
                            qp((two_m - two_l) // 2) * \
                            qint((two_l + two_m) // 2)
                        assert ps[0] == H(two_m + 1, two_n + 1).scale(c_plus)
                        assert ps[1] == H(two_m - 1, two_n + 1).scale(c_minus)
                        assert ps[2] == H(two_m + 1, two_n - 1).scale(c_plus)
                        assert ps[3] == H(two_m - 1, two_n - 1).scale(c_minus)


class TestLaplacian:
    def test_harmonics_are_harmonic(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for two_l in range(6):
                for two_m in range(-two_l, two_l + 1, 2):
                    for two_n in range(-two_l, two_l + 1, 2):
                        f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                        assert laplacian(f, t).is_zero()

    def test_box_det(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            want = NCPoly.scalar("I", qp(-t.p_exp) * qint(2))
            assert laplacian(det_x(), t) == want

    def test_box_crossed_quadratics(self):
        tq = derive_table("q")
        assert laplacian(NCPoly("I", {mono(1, 0, 0, 1): 1}), tq) == \
            NCPoly.one("I")
        assert laplacian(NCPoly("I", {mono(0, 1, 1, 0): 1}), tq) == \
            NCPoly.scalar("I", -QM2)
        ti = derive_table("qinv")
        assert laplacian(NCPoly("I", {mono(1, 0, 0, 1): 1}), ti) == \
            NCPoly.scalar("I", Q2)
        assert laplacian(NCPoly("I", {mono(0, 1, 1, 0): 1}), ti) == \
            NCPoly.scalar("I", -ONE)

    def test_kernel_dimension_per_degree(self):
        # dim ker(box restricted to degree d) = (d+1)^2 for d <= 5
        for pc in P_CHOICES:
            t = derive_table(pc)
            for deg in range(6):
                monos = monomials_of_degree(deg)
                images = [laplacian(NCPoly("I", {m: 1}), t) for m in monos]
                if deg < 2:
                    rank = 0
                else:
                    mat = slice_matrix(images, [deg - 2])
                    rank = mat.rank()
                assert len(monos) - rank == (deg + 1) ** 2

    def test_star_d_star_d_equals_box(self):
        rng = random.Random(42)
        for pc in P_CHOICES:
            t = derive_table(pc)
            samples = []
            for deg in range(4):
                for m in monomials_of_degree(deg)[:3]:
                    samples.append(NCPoly("I", {m: 1}))
            for two_l in range(4):
                samples.append(harmonic(HarmonicIndex(two_l, two_l, -two_l)))
            while len(samples) < 30:
                samples.append(random_poly(rng))
            assert len(samples) >= 30
            for f in samples:
                assert laplace_via_star(f, t) == laplacian(f, t)


class TestHodgeStar:
    def test_star_on_scalars_and_volume(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            one = NCForm(t, 0, {((), mono(0, 0, 0, 0)): 1})
            assert hodge_star(one) == \
                NCForm(t, 4, {(VOL_WORD, mono(0, 0, 0, 0)): qp(-1)})
            vol = NCForm(t, 4, {(VOL_WORD, mono(0, 0, 1, 0)): 1})
            assert hodge_star(vol) == \
                NCForm(t, 0, {((), mono(0, 0, 1, 0)): qp(1)})

    def test_star_on_basis_one_forms(self):
        two = QRat(qint(2))
        want = {
            0: ((0, 1, 2), -QRat.one() / two),
            1: ((0, 1, 3), -QRat(QM2) / two),
            2: ((0, 2, 3), QRat.one() / two),
            3: ((1, 2, 3), QRat.one() / two),
        }
        for pc in P_CHOICES:
            t = derive_table(pc)
            for g, (w, c) in want.items():
                got = hodge_star(NCForm(t, 1, {((g,), mono(0, 0, 0, 0)): 1}))
                assert got == NCForm(t, 3, {(w, mono(0, 0, 0, 0)): c})

    def test_star_three_inverts_star_one(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for g in range(4):
                omega = NCForm(t, 1, {((g,), mono(1, 0, 0, 0)): 1})
                assert hodge_star(hodge_star(omega)) == omega

    def test_degree_two_star_rejected(self):
        t = derive_table("q")
        omega = NCForm(t, 2, {((0, 1), mono(0, 0, 0, 0)): 1})
        with pytest.raises(CalculusError, match="degree-2"):
            hodge_star(omega)


class TestTildeLaplacian:
    def test_recurrence_pins_the_eigenvalue(self):
        # c_{k+1} = p^4 c_k + p^2 d_k + p^-2 + 1,  d_{k+1} = p^2 d_k + p^-2 + 1
        # with c_0 = 0, d_0 = p^(2l-1) [2l]  resolves to the closed form
        # c_k = p^(2k+2l-3) [k] [k+2l+1], not [...] [k+2l+2].
        for pc in P_CHOICES:
            pe = 1 if pc == "q" else -1
            for two_l in range(0, 7):
                c = QLaurent.zero()
                dd = qp(pe * (two_l - 1)) * qint(two_l)
                step = qp(-2 * pe) + ONE
                for k in range(0, 7):
                    want = qp(pe * (2 * k + two_l - 3)) * qint(k) * \
                        qint(k + two_l + 1)
                    assert c == want
                    other = qp(pe * (2 * k + two_l - 3)) * qint(k) * \
                        qint(k + two_l + 2)
                    if k >= 1:
                        assert c != other
                    c = qp(4 * pe) * c + qp(2 * pe) * dd + step
                    dd = qp(2 * pe) * dd + step

    def test_eigenvalue_on_basis_elements(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for k in range(4):
                for two_l in range(3):
                    for two_m in {-two_l, 0 if two_l % 2 == 0 else two_l}:
                        for two_n in {two_l, -two_l}:
                            idx = HarmonicIndex(two_l, two_m, two_n, k)
                            f = basis_element(idx)
                            lam = eigenvalue_tilde(k, two_l, pc)
                            assert tilde_laplacian(f, t) == f.scale(lam)

    def test_eigenvalue_independent_of_factor_order(self):
        # X^l det^k is an eigenvector with the same eigenvalue as det^k X^l
        t = derive_table("q")
        det = det_x()
        for k in (1, 2):
            for (two_l, two_m, two_n) in ((1, 1, -1), (2, 0, 2)):
                f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                g = f * ncpoly_power(det, k)
                lam = eigenvalue_tilde(k, two_l, "q")
                assert tilde_laplacian(g, t) == g.scale(lam)

    def test_left_multiplication_twists_the_eigenvalue(self):
        # composing box with *left* det-multiplication is NOT diagonal with
        # the same eigenvalue once m != n: it picks up q^(2(m-n))
        t = derive_table("q")
        idx = HarmonicIndex(1, 1, -1, 1)   # l = m = 1/2, n = -1/2, k = 1
        f = basis_element(idx)
        left = det_x() * laplacian(f, t)
        lam = eigenvalue_tilde(1, 1, "q")
        twist = qp(2 * ((idx.two_m - idx.two_n) // 2))
        assert left == f.scale(lam * twist)
        assert left != f.scale(lam)

    def test_box_det_recursion(self):
        rng = random.Random(5)
        det = det_x()
        for pc in P_CHOICES:
            t = derive_table(pc)
            pe = t.p_exp
            for _ in range(6):
                f = random_poly(rng)
                lhs = laplacian(f * det, t)
                rhs = (laplacian(f, t).scale(qp(4 * pe)) * det
                       + delta_op(f, t).scale(qp(2 * pe))
                       + f.scale(qp(-2 * pe) + ONE))
                assert lhs == rhs

    def test_delta_det_recursion(self):
        rng = random.Random(6)
        det = det_x()
        for pc in P_CHOICES:
            t = derive_table(pc)
            pe = t.p_exp
            for _ in range(6):
                f = random_poly(rng)
                lhs = delta_op(f * det, t)
                rhs = (delta_op(f, t).scale(qp(2 * pe)) * det
                       + (f * det).scale(qp(-2 * pe) + ONE))
                assert lhs == rhs

    def test_delta_eigenvalue_on_harmonics(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            for two_l in range(4):
                for two_m, two_n in ((two_l, -two_l), (-two_l, two_l)):
                    f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                    lam = delta_eigenvalue(two_l, pc)
                    assert delta_op(f, t) == f.scale(lam)

    def test_eigenvalue_formula_values(self):
        assert eigenvalue_tilde(1, 0, "q") == qp(-1) * qint(2)
        assert eigenvalue_tilde(1, 0, "qinv") == qp(1) * qint(2)
        assert eigenvalue_tilde(0, 3, "q") == QLaurent.zero()
        assert delta_eigenvalue(1, "q") == ONE
        assert delta_eigenvalue(2, "q") == qp(1) * qint(2)

    def test_conjugation_identity(self):
        for pc in P_CHOICES:
            for k in range(5):
                for two_l in range(5):
                    assert conjugation_identity_check(k, two_l, pc)


class TestSelfDuality:
    def _basis_form(self, t, w):
        return NCForm(t, 2, {(w, mono(0, 0, 0, 0)): 1})

    def test_pure_memberships(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            assert asd_membership(self._basis_form(t, (0, 1)))["verdict"] == "SD"
            assert asd_membership(self._basis_form(t, (2, 3)))["verdict"] == "SD"
            assert asd_membership(self._basis_form(t, (0, 2)))["verdict"] == "ASD"
            assert asd_membership(self._basis_form(t, (1, 3)))["verdict"] == "ASD"
            plus = self._basis_form(t, (0, 3)) - self._basis_form(t, (1, 2))
            minus = self._basis_form(t, (0, 3)) + self._basis_form(t, (1, 2))
            assert asd_membership(plus)["verdict"] == "SD"
            assert asd_membership(minus)["verdict"] == "ASD"
            assert asd_membership(NCForm(t, 2))["verdict"] == "zero"

    def test_mixed_form_splits_exactly(self):
        for pc in P_CHOICES:
            t = derive_table(pc)
            omega = self._basis_form(t, (0, 3)).scale(Q2 - 2 * ONE) - \
                self._basis_form(t, (1, 2)).scale(Q2)
            res = asd_membership(omega)
            assert res["verdict"] == "mixed"
            assert res["sd_part"] + res["asd_part"] == omega
            sd, asd = sd_asd_split(omega)
            assert asd_membership(sd)["verdict"] == "SD"
            assert asd_membership(asd)["verdict"] == "ASD"

    def test_split_with_polynomial_coefficients(self):
        t = derive_table("q")
        omega = NCForm(t, 2, {((0, 3), mono(1, 0, 0, 0)): 1,
                              ((0, 1), mono(0, 0, 0, 2)): QRat(Q2)})
        sd, asd = sd_asd_split(omega)
        assert sd + asd == omega


class TestScalarResidues:
    def test_spec_examples(self):
        # X/(Z^2 W) -> x11,  XY/(Z^2 W^2) -> X^1_{0,0},  1/(ZW) -> 1
        assert penrose_scalar([((1, 0, -2, -1), 1)]) == gen_poly(0)
        want = NCPoly("I", {mono(1, 0, 0, 1): ONE, mono(0, 1, 1, 0): Q2})
        assert penrose_scalar([((1, 1, -2, -2), 1)]) == want
        assert penrose_scalar([((0, 0, -1, -1), 1)]) == NCPoly.one("I")

    def test_linearity(self):
        got = penrose_scalar([((1, 0, -2, -1), 2), ((0, 1, -1, -2), qp(3))])
        want = gen_poly(0).scale(2) + harmonic(
            HarmonicIndex(1, 1, 1)).scale(qp(3))
        assert got == want

    @staticmethod
    def _seeded_cocycle(seed):
        """Items over four indices: one index repeated, one whose items
        cancel, coefficients mixing ints, Gaussian rationals and q-powers."""
        rng = random.Random(seed)
        indices = [HarmonicIndex(two_l, two_m, two_n)
                   for two_l in range(4)
                   for two_m in range(-two_l, two_l + 1, 2)
                   for two_n in range(-two_l, two_l + 1, 2)]
        kept, cancelled, *rest = rng.sample(indices, 4)
        items = []
        for idx in [kept] * 3 + rest:
            coeff = rng.choice([rng.randint(1, 5),
                                GaussRational(rng.randint(-3, 3), 1) / 4,
                                qp(rng.randint(-2, 2), rng.randint(1, 3))])
            items.append((cech_exponents(idx), coeff))
        c = GaussRational(rng.randint(1, 3), rng.randint(-3, 3)) / 2
        items += [(cech_exponents(cancelled), c),
                  (cech_exponents(cancelled), qp(0, -c))]
        rng.shuffle(items)
        return items, {kept, *rest}

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_items_sum_like_single_items(self, seed):
        items, _ = self._seeded_cocycle(seed)
        want = NCPoly.zero("I")
        for exps, coeff in items:
            want = want + harmonic(cech_index(exps)).scale(coeff)
        assert penrose_scalar(items) == want

    def test_one_harmonic_per_distinct_index(self, monkeypatch):
        items, live = self._seeded_cocycle(7)
        calls = []
        monkeypatch.setattr(qcalculus, "harmonic",
                            lambda idx: calls.append(idx) or harmonic(idx))
        penrose_scalar(items)
        # the cancelling index computes no harmonic
        assert sorted(calls, key=HarmonicIndex._key) == sorted(
            live, key=HarmonicIndex._key)

    def test_index_bijection(self):
        seen = set()
        for two_l in range(5):
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    idx = HarmonicIndex(two_l, two_m, two_n)
                    exps = cech_exponents(idx)
                    assert sum(exps) == -2
                    assert cech_index(exps) == idx
                    assert exps not in seen
                    seen.add(exps)

    def test_image_is_harmonic_and_independent(self):
        t = derive_table("q")
        for two_l in range(5):
            images = []
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    idx = HarmonicIndex(two_l, two_m, two_n)
                    f = penrose_scalar([(cech_exponents(idx), 1)])
                    assert laplacian(f, t).is_zero()
                    images.append(f)
            mat = slice_matrix(images, [two_l])
            assert mat.rank() == (two_l + 1) ** 2

    def test_bad_exponents_rejected(self):
        for exps in ((1, 0, -2, 0), (-1, 1, -1, -1), (1, 1, -1, -1),
                     (0, 0, 0, -2)):
            with pytest.raises(ValueError):
                cech_index(exps)
        with pytest.raises(ValueError):
            cech_exponents(HarmonicIndex(1, 1, 1, k=2))


class TestFormAlgebra:
    def test_forms_are_immutable_and_normalized(self):
        t = derive_table("q")
        omega = NCForm(t, 1, {((0,), mono(0, 0, 0, 0)): 0})
        assert omega.is_zero()
        with pytest.raises(AttributeError):
            omega.degree = 2
        with pytest.raises(ValueError):
            NCForm(t, 2, {((0,), mono(0, 0, 0, 0)): 1})

    def test_left_mul_matches_wedge_with_degree_zero(self):
        rng = random.Random(9)
        t = derive_table("q")
        for _ in range(5):
            f = random_poly(rng, max_deg=2, nterms=3)
            omega = d(random_poly(rng, max_deg=2, nterms=3), t)
            assert left_mul(omega, f) == \
                NCForm.from_poly(t, f).wedge(omega)

    def test_wedge_is_associative(self):
        rng = random.Random(11)
        t = derive_table("q")
        for _ in range(5):
            a = d(random_poly(rng, max_deg=2, nterms=2), t)
            b = d(random_poly(rng, max_deg=1, nterms=2), t)
            c = d(random_poly(rng, max_deg=1, nterms=2), t)
            assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    def test_tables_do_not_mix(self):
        tq = derive_table("q")
        ti = derive_table("qinv")
        a = NCForm(tq, 1, {((0,), mono(0, 0, 0, 0)): 1})
        b = NCForm(ti, 1, {((1,), mono(0, 0, 0, 0)): 1})
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a.wedge(b)


# ---------------------------------------------------------------------------
# the chart-I automorphism sigma that maps the p = q calculus onto p = q^-1
# ---------------------------------------------------------------------------

def sigma_ql(c):
    """q -> q^-1 on a Laurent polynomial."""
    return QLaurent({-e: x for e, x in c.terms.items()})


def sigma_poly(f):
    """sigma(f) for x_g -> x_(3-g), q -> q^-1: the ordered monomial
    x11^a x12^b x21^c x22^d goes to the word x22^a x21^b x12^c x11^d."""
    return normalize([(sigma_ql(coeff), (3,) * a + (2,) * b + (1,) * c
                       + (0,) * e) for (a, b, c, e), coeff in f.terms.items()])


def sigma_form(omega, table):
    """sigma of a form over the p = q table, as a form over ``table``:
    mono . dx_w goes to sigma(mono) . dx_(3-w), the word wedge-normalized."""
    acc = {}
    for (w, m), c in omega.terms.items():
        image = sigma_poly(NCPoly("I", {m: c})).terms
        for wn, cw in table.wedge_norm(tuple(3 - g for g in w)).items():
            for mn, cm in image.items():
                key = (wn, mn)
                acc[key] = acc.get(key, QLaurent.zero()) + cm * cw
    return NCForm(table, omega.degree, acc)


def _sigma_rules(rules):
    """The x rules of a ``q table`` report relabelled by sigma, with the
    exponents of every coefficient negated and each term list sorted."""
    names = {d_ + n: d_ + m for d_ in ("", "d")
             for n, m in zip(X_NAMES, reversed(X_NAMES))}
    out = {}
    for key, terms in rules.items():
        left, right = key.split("*")
        out[f"{names[left]}*{names[right]}"] = sorted(
            ({"coeff": {str(-int(e)): c for e, c in t["coeff"].items()},
              "left": names[t["left"]], "right": names[t["right"]]}
             for t in terms), key=lambda t: (t["left"], t["right"]))
    return out


class TestSigmaSymmetry:
    """sigma: x_g -> x_(3-g), q -> q^-1 is an automorphism of chart I that
    carries the p = q calculus onto the p = q^-1 one; the p = q^-1 x rules
    are computed from the p = q ones by it, so its consequences are pinned
    here."""

    def test_sigma_fixes_det_and_the_relations(self):
        assert sigma_poly(det_x()) == det_x()
        for (b, a), rule in CHART_I_RULES.items():
            lhs = normalize([(ONE, (3 - b, 3 - a))])
            rhs = normalize([(sigma_ql(c), (3 - u, 3 - v))
                             for c, (u, v) in rule])
            assert lhs == rhs

    def test_sigma_is_an_involution_and_multiplicative(self):
        rng = random.Random(37)
        for _ in range(20):
            f, g = random_poly(rng), random_poly(rng)
            assert sigma_poly(sigma_poly(f)) == f
            assert sigma_poly(f * g) == sigma_poly(f) * sigma_poly(g)

    def test_harmonics_go_to_their_mirror(self):
        idxs = [HarmonicIndex(two_l, two_m, two_n)
                for two_l in range(9) for two_m in range(-two_l, two_l + 1, 2)
                for two_n in range(-two_l, two_l + 1, 2)]
        assert len(idxs) == 285
        for i in idxs:
            mirror = HarmonicIndex(i.two_l, -i.two_m, -i.two_n)
            assert sigma_poly(harmonic(i)) == harmonic(mirror)

    def test_partials_and_laplacian_commute_with_sigma(self):
        tq, ti = derive_table("q"), derive_table("qinv")
        rng = random.Random(2024)
        for _ in range(40):
            f = random_poly(rng, max_deg=4, nterms=5)
            sf = sigma_poly(f)
            assert partials(sf, ti) == tuple(
                sigma_poly(p) for p in reversed(partials(f, tq)))
            assert laplacian(sf, ti) == sigma_poly(laplacian(f, tq))

    def test_exterior_derivative_commutes_with_sigma(self):
        tq, ti = derive_table("q"), derive_table("qinv")
        rng = random.Random(2025)
        for _ in range(25):
            f = random_poly(rng, max_deg=3, nterms=4)
            omega = NCForm(tq, 1, {
                ((g,), m): c for g in range(4)
                for m, c in random_poly(rng, 2, 2).terms.items()})
            df = d(f, tq)
            assert d(sigma_poly(f), ti) == sigma_form(df, ti)
            assert d(sigma_form(omega, ti)) == sigma_form(d(omega), ti)
            for a, b in ((df, omega), (omega, df), (omega, omega)):
                w = a.wedge(b)
                sw = sigma_form(w, ti)
                assert sw == sigma_form(a, ti).wedge(sigma_form(b, ti))
                assert (asd_membership(sw)["verdict"]
                        == asd_membership(w)["verdict"])
                sd = asd_membership(sigma_form(sd_asd_split(w)[0], ti))
                assert sd["verdict"] in ("SD", "zero")
        # the wedges of two generators: zero, SD, ASD and mixed ones
        verdicts = set()
        for a in range(4):
            for b in range(4):
                w = d(gen_poly(a), tq).wedge(d(gen_poly(b), tq))
                verdicts.add(asd_membership(w)["verdict"])
                assert (asd_membership(sigma_form(w, ti))["verdict"]
                        == asd_membership(w)["verdict"])
        assert verdicts == {"zero", "SD", "ASD", "mixed"}

    def test_sigma_keeps_the_sd_forms_but_not_the_mixed_asd_vector(self):
        tq, ti = derive_table("q"), derive_table("qinv")
        basis = {w: NCForm(tq, 2, {(w, mono(0, 0, 0, 0)): 1})
                 for w in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))}
        sd = [basis[(0, 1)], basis[(2, 3)], basis[(0, 3)] - basis[(1, 2)]]
        asd = [basis[(0, 2)], basis[(1, 3)]]
        for w in sd:
            assert asd_membership(sigma_form(w, ti))["verdict"] == "SD"
        for w in asd:
            assert asd_membership(sigma_form(w, ti))["verdict"] == "ASD"
        # dx22^dx11 + dx21^dx12 = (q^2 - 2) dx11^dx22 - q^2 dx12^dx21
        image = sigma_form(basis[(0, 3)] + basis[(1, 2)], ti)
        one = mono(0, 0, 0, 0)
        assert image == NCForm(ti, 2, {((0, 3), one): Q2 - 2 * ONE,
                                       ((1, 2), one): -Q2})
        assert asd_membership(image)["verdict"] == "mixed"

    def test_eigenvalue_is_sigma_of_the_p_equals_q_one(self):
        for k in range(6):
            for two_l in range(9):
                assert eigenvalue_tilde(k, two_l, "qinv") == sigma_ql(
                    eigenvalue_tilde(k, two_l, "q"))

    def test_q_table_reports_are_sigma_of_each_other(self, capsys):
        reports = {}
        for pc in P_CHOICES:
            assert run(["q", "table", "--p-choice", pc]) == 0
            reports[pc] = json.loads(capsys.readouterr().out)
        q, qinv = reports["q"], reports["qinv"]
        assert qinv["x_rules"] == _sigma_rules(q["x_rules"])
        assert list(qinv["x_rules"]) == sorted(qinv["x_rules"])
        assert qinv["wedge_rules"] == q["wedge_rules"]
        assert (q["p_choice"], qinv["p_choice"]) == P_CHOICES

    @pytest.mark.parametrize("k,two_l", [(0, 0), (1, 2), (3, 1), (16, 32)])
    def test_q_eigen_reports_are_sigma_of_each_other(self, k, two_l, capsys):
        reports = {}
        for pc in P_CHOICES:
            assert run(["q", "eigen", "-k", str(k), "-l", str(two_l),
                        "--p-choice", pc]) == 0
            reports[pc] = json.loads(capsys.readouterr().out)
        q, qinv = reports["q"], reports["qinv"]
        assert qinv["eigenvalue"] == {str(-int(e)): c
                                      for e, c in q["eigenvalue"].items()}
        assert q["verified_on_witness"] and qinv["verified_on_witness"]


# every function the q engines cache for the life of the process
_CACHED = (SortEngine.mul_gen_mono, CalculusTable.cross, CalculusTable.d_mono,
           CalculusTable.insert_wedge)


class TestMemoTransparency:
    """A cached result is the result: computed with the caches full, then
    again with every cache cleared, then full again, it is the same each
    time.  A caller that changed a cached dict in place would break it."""

    @staticmethod
    def same_warm_and_cold(compute):
        warm = compute()
        for fn in _CACHED:
            fn.cache_clear()
        cold = compute()
        assert sum(fn.cache_info().currsize for fn in _CACHED)
        assert warm == cold == compute()

    @pytest.mark.parametrize("chart", ["I", "J"])
    def test_normalize_word(self, chart):
        rng = random.Random(41)
        words = [tuple(rng.randrange(4) for _ in range(rng.randint(0, 7)))
                 for _ in range(40)]
        self.same_warm_and_cold(
            lambda: [engine(chart).normalize_word(w) for w in words])

    @pytest.mark.parametrize("pc", P_CHOICES)
    def test_partials_and_laplacian(self, pc):
        idxs = [HarmonicIndex(two_l, two_m, two_n, k)
                for two_l in range(4) for two_m in range(-two_l, two_l + 1, 2)
                for two_n in (-two_l, two_l) for k in (0, 1)]

        def compute():
            t = derive_table(pc)
            polys = [basis_element(i) for i in idxs]
            return ([partials(f, t) for f in polys],
                    [laplacian(f, t) for f in polys])
        self.same_warm_and_cold(compute)

    @pytest.mark.parametrize("pc", P_CHOICES)
    def test_exterior_derivative_and_curvature(self, pc):
        rng = random.Random(43)
        polys = [random_poly(rng, max_deg=3, nterms=3) for _ in range(6)]
        datum = random_stable_solution(2, 3, 5)

        def compute():
            t = derive_table(pc)
            forms = [d(f, t) for f in polys]
            return ([d(w) for w in forms],
                    [a.wedge(b) for a, b in zip(forms, forms[1:])],
                    curvature_asd(datum, pc))
        self.same_warm_and_cold(compute)
