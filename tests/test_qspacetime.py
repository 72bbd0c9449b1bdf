"""Tests for the quantum Minkowski algebra charts and harmonic bases."""

import copy
import pickle
import random
from dataclasses import dataclass

import pytest

from qadhm.qspacetime import (HarmonicIndex, NCPoly, X_NAMES, Y_NAMES,
                              basis_element, det_x, harmonic,
                              monomials_of_degree, normalize)
from qadhm.echelon import QRat
from qadhm.scalars import GaussRational, QLaurent

from helpers import qbinom, qfact
from statements import (basis_independence, basis_indices_for_degree,
                        det_commutators, det_mult_rank, dimension_of_degree,
                        harmonic_Y, oast_check, y_mono_to_x)

Q2 = QLaurent({2: 1})
QM2 = QLaurent({-2: 1})


# ---------------------------------------------------------------------------
# test-local helpers: homogeneity, chart-J normal forms, det(y), the det
# twist of a monomial and the q-multinomial oracle of harmonic()
# ---------------------------------------------------------------------------

def is_homogeneous(p) -> bool:
    return len({sum(m) for m in p.terms}) <= 1


def normalize_J(items) -> NCPoly:
    """Chart-J counterpart of normalize()."""
    return normalize(items, "J")


def det_y() -> NCPoly:
    """det(y) = y11y22 - y21y12, in chart-J normal form."""
    return NCPoly("J", {(1, 0, 0, 1): QLaurent.one(), (0, 1, 1, 0): -QM2})


def mono_det_twist(mono, j=1):
    """q-exponent picked up when an ordered monomial crosses det(x)^j:
    mono * det^j = q^(2j(n21-n12)) * det^j * mono."""
    return 2 * j * (mono[2] - mono[1])


def b9_sum(idx: HarmonicIndex) -> NCPoly:
    """The four-factor q-multinomial expansion of X^l_{m,n} (times {2l}!):

        sum_r  {2l}! / ({r}! {l-m-r}! {l-n-r}! {r+m+n}!)
               * x11^r x21^(l-m-r) x12^(l-n-r) x22^(r+m+n)

    An independent cross-check of harmonic(): the two must agree up to one
    global scalar per index.
    """
    if not idx.in_range():
        return NCPoly.zero("I")
    if (idx.two_m + idx.two_n) % 2:
        raise ValueError("m+n must be integral for the multinomial form")
    two_l, two_m, two_n = idx.two_l, idx.two_m, idx.two_n
    acc = NCPoly.zero("I")
    for r in range(0, two_l + 1):
        e11 = r
        e21 = (two_l - two_m) // 2 - r
        e12 = (two_l - two_n) // 2 - r
        e22 = r + (two_m + two_n) // 2
        if min(e21, e12, e22) < 0:
            continue
        coeff = qfact(two_l)
        for e in (e11, e21, e12, e22):
            coeff = coeff / qfact(e)
        word = ("x11",) * e11 + ("x21",) * e21 + ("x12",) * e12 + ("x22",) * e22
        acc = acc + normalize([(coeff, word)], "I")
    return acc


@dataclass(frozen=True)
class OracleIndex:
    """The frozen-dataclass form of HarmonicIndex, as the oracle for its
    constructor, validation, equality, hash, repr and immutability."""

    two_l: int
    two_m: int
    two_n: int
    k: int = 0

    def __post_init__(self):
        if self.two_l < 0:
            raise ValueError("two_l must be >= 0")
        if (self.two_m - self.two_l) % 2 or (self.two_n - self.two_l) % 2:
            raise ValueError("m, n must be congruent to l mod 1")


# the dataclass repr reads the class's qualified name
OracleIndex.__qualname__ = "HarmonicIndex"


def xgens():
    return tuple(NCPoly.gen("I", n) for n in X_NAMES)


def ygens():
    return tuple(NCPoly.gen("J", n) for n in Y_NAMES)


def proportional_scalar(a, b):
    """The single lambda with a = lambda*b, or None if there is none."""
    if a.is_zero() and b.is_zero():
        return QRat.one()
    if set(a.terms) != set(b.terms):
        return None
    lam = None
    for m, ca in a.terms.items():
        r = QRat(ca, b.terms[m])
        if lam is None:
            lam = r
        elif lam != r:
            return None
    return lam


def random_poly(rng, chart="I", max_terms=3, max_deg=3, height=2):
    nterms = rng.randint(1, max_terms)
    terms = {}
    for _ in range(nterms):
        d = rng.randint(0, max_deg)
        mono = rng.choice(monomials_of_degree(d))
        coeff = QLaurent({
            rng.randint(-2, 2): GaussRational(rng.randint(-height, height),
                                              rng.randint(-height, height))
        })
        if coeff:
            terms[mono] = terms.get(mono, QLaurent.zero()) + coeff
    return NCPoly(chart, terms)


# ---------------------------------------------------------------------------
# defining relations and sorting rules
# ---------------------------------------------------------------------------

class TestChartIRelations:
    def test_row_commutations(self):
        x11, x12, x21, x22 = xgens()
        assert x11 * x12 == x12 * x11
        assert x21 * x22 == x22 * x21

    def test_column_q_commutations(self):
        x11, x12, x21, x22 = xgens()
        assert x11 * x21 == (x21 * x11).scale(QM2)
        assert x12 * x22 == (x22 * x12).scale(QM2)

    def test_antidiagonal_and_diagonal_relations(self):
        x11, x12, x21, x22 = xgens()
        assert x21 * x12 == (x12 * x21).scale(Q2)
        assert (x11 * x22 - x22 * x11 + x21 * x12 - x12 * x21).is_zero()

    def test_sorting_examples(self):
        x11, x12, x21, x22 = xgens()
        assert normalize([(1, ("x21", "x11"))]) == (x11 * x21).scale(Q2)
        expected = x11 * x22 + (x12 * x21).scale(QLaurent({2: 1, 0: -1}))
        assert normalize([(1, ("x22", "x11"))]) == expected
        assert normalize([(1, ("x11", "x12"))]) == NCPoly(
            "I", {(1, 1, 0, 0): QLaurent.one()})


class TestChartJRelations:
    def test_defining_relations(self):
        y11, y12, y21, y22 = ygens()
        assert y11 * y12 == (y12 * y11).scale(QM2)
        assert y21 * y22 == (y22 * y21).scale(QM2)
        assert y11 * y21 == y21 * y11
        assert y12 * y22 == y22 * y12
        assert y12 * y21 == (y21 * y12).scale(Q2)
        assert (y11 * y22 - y22 * y11 + y12 * y21 - y21 * y12).is_zero()

    def test_sorting_example(self):
        y11, y12, y21, y22 = ygens()
        assert normalize_J([(1, ("y22", "y21"))]) == (y21 * y22).scale(Q2)


# ---------------------------------------------------------------------------
# ring axioms
# ---------------------------------------------------------------------------

class TestRingAxioms:
    def test_associativity_seeded(self):
        rng = random.Random(20260815)
        for _ in range(60):
            f = random_poly(rng)
            g = random_poly(rng)
            h = random_poly(rng)
            assert (f * g) * h == f * (g * h)

    def test_associativity_chart_j(self):
        rng = random.Random(7)
        for _ in range(30):
            f = random_poly(rng, "J")
            g = random_poly(rng, "J")
            h = random_poly(rng, "J")
            assert (f * g) * h == f * (g * h)

    def test_degree_grading(self):
        rng = random.Random(11)
        for _ in range(30):
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            f = NCPoly("I", {rng.choice(monomials_of_degree(d1)): QLaurent.one()})
            g = NCPoly("I", {rng.choice(monomials_of_degree(d2)): QLaurent.one()})
            p = f * g
            assert is_homogeneous(p) and p.degree() == d1 + d2

    def test_q1_limit_commutative(self):
        rng = random.Random(13)
        for _ in range(25):
            f = random_poly(rng)
            g = random_poly(rng)
            assert (f * g).subs_q1() == (g * f).subs_q1()

    def test_distributivity(self):
        rng = random.Random(17)
        for _ in range(20):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert f * (g + h) == f * g + f * h

    def test_mixed_chart_rejected(self):
        with pytest.raises(ValueError):
            NCPoly.gen("I", "x11") * NCPoly.gen("J", "y11")

    def test_word_normalization_matches_products(self):
        rng = random.Random(19)
        for _ in range(20):
            word = [rng.choice(X_NAMES) for _ in range(rng.randint(0, 5))]
            prod = NCPoly.one("I")
            for name in word:
                prod = prod * NCPoly.gen("I", name)
            assert normalize([(1, word)]) == prod


class TestQBinomialTheorem:
    """(a+b)^n = sum_r C_q(n,r) a^r b^(n-r) whenever ab = q^-2 ba."""

    @pytest.mark.parametrize("pair", [("x11", "x21"), ("x12", "x22")])
    def test_expansion(self, pair):
        a = NCPoly.gen("I", pair[0])
        b = NCPoly.gen("I", pair[1])
        assert a * b == (b * a).scale(QM2)
        for n in range(7):
            lhs = (a + b) ** n
            rhs = NCPoly.zero("I")
            for r in range(n + 1):
                rhs = rhs + ((a ** r) * (b ** (n - r))).scale(qbinom(n, r))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------

class TestDeterminant:
    def test_normal_form(self):
        assert det_x() == NCPoly("I", {
            (1, 0, 0, 1): QLaurent.one(),
            (0, 1, 1, 0): QLaurent({0: -1}),
        })

    def test_second_expression_normalizes_to_first(self):
        assert normalize([(1, ("x22", "x11")), (-1, ("x21", "x12"))]) == det_x()

    def test_commutator_table(self):
        rep = det_commutators()
        assert all(v["ok"] for v in rep.values())
        assert [rep[n]["exponent"] for n in X_NAMES] == [0, 2, -2, 0]

    def test_det_x12_twist_explicitly(self):
        x12 = NCPoly.gen("I", "x12")
        assert det_x() * x12 - (x12 * det_x()).scale(Q2) == NCPoly.zero("I")

    def test_q1_det_central(self):
        rng = random.Random(23)
        d = det_x()
        for _ in range(10):
            f = random_poly(rng)
            assert (d * f).subs_q1() == (f * d).subs_q1()

    def test_monomial_det_power_twist(self):
        rng = random.Random(29)
        for _ in range(10):
            mono = rng.choice(monomials_of_degree(rng.randint(0, 3)))
            j = rng.randint(1, 2)
            m = NCPoly("I", {mono: QLaurent.one()})
            dj = det_x() ** j
            tw = QLaurent({mono_det_twist(mono, j): 1})
            assert m * dj == (dj * m).scale(tw)

    def test_det_y_normal_form(self):
        assert normalize_J([(1, ("y11", "y22")), (-1, ("y21", "y12"))]) == det_y()

    def test_det_y_substitutes_to_inverse_det(self):
        # y-determinant, pushed through y = det(x)^-1 x, must give
        # det(x)^-2 * det(x); i.e. the collected x-polynomial is det(x).
        acc = {}
        for mono, c in det_y().terms.items():
            qexp, detpow, xmono = y_mono_to_x(mono)
            assert detpow == -2
            cc = c * QLaurent({qexp: 1})
            acc[xmono] = acc.get(xmono, QLaurent.zero()) + cc
        assert NCPoly("I", acc) == det_x()


class TestDetMultRank:
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_full_rank(self, d):
        assert det_mult_rank(d)


# ---------------------------------------------------------------------------
# harmonic basis
# ---------------------------------------------------------------------------

class TestHarmonicIndex:
    def test_parity_validation(self):
        with pytest.raises(ValueError):
            HarmonicIndex(2, 1, 0)
        with pytest.raises(ValueError):
            HarmonicIndex(-2, 0, 0)

    def test_out_of_range_is_zero(self):
        assert harmonic(HarmonicIndex(2, 4, 0)).is_zero()
        assert harmonic_Y(HarmonicIndex(2, 0, -4)).is_zero()

    def test_k_rejected_by_harmonic(self):
        with pytest.raises(ValueError):
            harmonic(HarmonicIndex(2, 0, 0, k=1))


class TestHarmonicIndexOracle:
    """HarmonicIndex against the frozen dataclass it replaced."""

    ARGS = [(l, m, n, k) for l in range(-1, 4) for m in range(-4, 5)
            for n in range(-3, 4) for k in (0, 1, -2)]

    @staticmethod
    def build(cls, args):
        try:
            return cls(*args)
        except ValueError as exc:
            return str(exc)

    def pairs(self):
        """(new, oracle) for every valid argument tuple of ARGS."""
        out = []
        for args in self.ARGS:
            new = self.build(HarmonicIndex, args)
            if not isinstance(new, str):
                out.append((new, OracleIndex(*args)))
        return out

    def test_validation(self):
        for args in self.ARGS + [(0, 0, 0), (2, 5, 1), (-2, 0, 0, 3)]:
            new = self.build(HarmonicIndex, args)
            old = self.build(OracleIndex, args)
            if isinstance(old, str):
                assert new == old, args
            else:
                assert isinstance(new, HarmonicIndex), args
        assert self.build(HarmonicIndex, (1, 0, 1)) == \
            "m, n must be congruent to l mod 1"
        assert self.build(HarmonicIndex, (-1, 1, 1)) == "two_l must be >= 0"
        assert len(self.pairs()) > 100

    def test_keywords_default_and_fields(self):
        idx = HarmonicIndex(two_l=3, two_m=-1, two_n=1)
        old = OracleIndex(two_l=3, two_m=-1, two_n=1)
        assert (idx.two_l, idx.two_m, idx.two_n, idx.k) == (3, -1, 1, 0)
        assert repr(idx) == repr(old) \
            == "HarmonicIndex(two_l=3, two_m=-1, two_n=1, k=0)"
        assert HarmonicIndex(2, 0, 2, k=5).k == 5

    def test_eq_ne_hash_repr(self):
        pairs = self.pairs()
        for a, oa in pairs:
            assert hash(a) == hash(oa)
            assert repr(a) == repr(oa)
            assert a == HarmonicIndex(a.two_l, a.two_m, a.two_n, a.k)
        for a, oa in pairs[::7]:
            for b, ob in pairs[::5]:
                assert (a == b) == (oa == ob)
                assert (a != b) == (oa != ob)

    def test_foreign_operands(self):
        for a, oa in self.pairs()[::11]:
            fields = (a.two_l, a.two_m, a.two_n, a.k)
            for other in (fields, list(fields), None, 0, str(a)):
                assert (a == other) is (oa == other) is False
                assert (a != other) is (oa != other) is True
            # like two unrelated dataclasses: never equal to each other
            assert (a == oa) is (oa == a) is False
            assert (a == a) is (oa == oa) is True

    def test_dict_and_set_keys(self):
        pairs = self.pairs()
        new = {a: i for i, (a, _) in enumerate(pairs)}
        old = {oa: i for i, (_, oa) in enumerate(pairs)}
        assert list(new.values()) == list(old.values())
        for a, oa in pairs:
            twin = HarmonicIndex(a.two_l, a.two_m, a.two_n, a.k)
            assert new[twin] == old[oa]
        assert len({HarmonicIndex(2, 0, 0), HarmonicIndex(2, 0, 0, 0),
                    HarmonicIndex(2, 0, 0, 1)}) == 2

    def test_immutable(self):
        for cls in (HarmonicIndex, OracleIndex):
            idx = cls(2, 0, 2, 1)
            for name in ("two_l", "two_m", "two_n", "k", "extra"):
                with pytest.raises(AttributeError):
                    setattr(idx, name, 0)
            for name in ("two_l", "k"):
                with pytest.raises(AttributeError):
                    delattr(idx, name)
            assert (idx.two_l, idx.two_m, idx.two_n, idx.k) == (2, 0, 2, 1)

    def test_copy_and_pickle(self):
        for a, oa in self.pairs()[::13]:
            for twin in (copy.copy(a), copy.deepcopy(a),
                         pickle.loads(pickle.dumps(a))):
                assert type(twin) is HarmonicIndex
                assert twin == a and hash(twin) == hash(a)
                assert repr(twin) == repr(oa)


class TestHarmonic:
    def test_level_zero(self):
        assert harmonic(HarmonicIndex(0, 0, 0)) == NCPoly.one("I")

    def test_level_half_hits_generators(self):
        gens = {(-1, -1): "x11", (1, -1): "x12", (-1, 1): "x21", (1, 1): "x22"}
        for (m, n), name in gens.items():
            assert harmonic(HarmonicIndex(1, m, n)) == NCPoly.gen("I", name)

    def test_level_one_values(self):
        x11, x12, x21, x22 = xgens()
        assert harmonic(HarmonicIndex(2, 0, 0)) == \
            x11 * x22 + (x12 * x21).scale(Q2)
        one_plus_q2 = QLaurent({0: 1, 2: 1})
        assert harmonic(HarmonicIndex(2, -2, 0)) == (x11 * x21).scale(one_plus_q2)
        assert harmonic(HarmonicIndex(2, 2, 0)) == (x12 * x22).scale(one_plus_q2)
        assert harmonic(HarmonicIndex(2, 0, 2)) == x21 * x22
        assert harmonic(HarmonicIndex(2, 0, -2)) == x11 * x12

    def test_homogeneous_of_degree_2l(self):
        for two_l in range(5):
            for idx in basis_indices_for_degree(two_l):
                if idx.k:
                    continue
                h = harmonic(HarmonicIndex(idx.two_l, idx.two_m, idx.two_n))
                assert is_homogeneous(h) and h.degree() == two_l

    def test_multinomial_form_proportional(self):
        # residue formula vs the four-factor q-multinomial sum: one global
        # scalar per index, all 2l <= 5
        for two_l in range(6):
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    if (two_m + two_n) % 2:
                        continue
                    idx = HarmonicIndex(two_l, two_m, two_n)
                    lam = proportional_scalar(b9_sum(idx), harmonic(idx))
                    assert lam is not None and lam != QRat.zero()


class TestHarmonicY:
    def test_level_zero(self):
        assert harmonic_Y(HarmonicIndex(0, 0, 0)) == NCPoly.one("J")

    def test_level_half_hits_generators(self):
        gens = {(-1, -1): "y11", (1, -1): "y12", (-1, 1): "y21", (1, 1): "y22"}
        for (m, n), name in gens.items():
            assert harmonic_Y(HarmonicIndex(1, m, n)) == NCPoly.gen("J", name)

    def test_homogeneous(self):
        for two_l in range(4):
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    h = harmonic_Y(HarmonicIndex(two_l, two_m, two_n))
                    assert is_homogeneous(h) and h.degree() == two_l


class TestBasis:
    def test_counts_match_slice_dimension(self):
        for d in range(6):
            assert len(basis_indices_for_degree(d)) == dimension_of_degree(d)
            assert len(monomials_of_degree(d)) == dimension_of_degree(d)

    def test_degree_two_composition(self):
        idxs = basis_indices_for_degree(2)
        assert len(idxs) == 10
        assert sum(1 for i in idxs if i.k == 1) == 1
        assert sum(1 for i in idxs if i.k == 0) == 9

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_independence(self, d):
        assert basis_independence(d)

    def test_basis_element_degree(self):
        idx = HarmonicIndex(2, 0, 0, k=2)
        e = basis_element(idx)
        assert is_homogeneous(e) and e.degree() == 6

    def test_basis_element_negative_k_rejected(self):
        with pytest.raises(ValueError):
            basis_element(HarmonicIndex(0, 0, 0, k=-1))


# ---------------------------------------------------------------------------
# chart glueing
# ---------------------------------------------------------------------------

class TestOast:
    def test_level_zero(self):
        assert oast_check(HarmonicIndex(0, 0, 0)) == QLaurent.one()

    def test_level_half_unit_monomials(self):
        for m in (-1, 1):
            for n in (-1, 1):
                lam = oast_check(HarmonicIndex(1, m, n))
                assert isinstance(lam, QLaurent) and len(lam.terms) == 1

    def test_level_one_single_scalar(self):
        for m in (-2, 0, 2):
            for n in (-2, 0, 2):
                lam = oast_check(HarmonicIndex(2, m, n))  # must not raise
                if (m, n) == (0, 0):
                    assert lam == QLaurent.one()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            oast_check(HarmonicIndex(2, 4, 0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestJson:
    def test_round_trip(self):
        rng = random.Random(31)
        for chart in ("I", "J"):
            for _ in range(5):
                p = random_poly(rng, chart)
                assert NCPoly.from_json(p.to_json()) == p

    def test_det_power_terms_rejected(self):
        obj = det_x().to_json()
        obj["terms"][0]["k"] = -1
        with pytest.raises(ValueError) as info:
            NCPoly.from_json(obj)
        assert str(info.value) == "the det power k of a term must be 0, not -1"

    def test_str_is_deterministic(self):
        s = str(det_x() * det_x())
        assert s == str(det_x() ** 2)
        assert "x11" in s
