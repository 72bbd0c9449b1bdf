"""Exact scalar and linear algebra tests, including the hand-derived oracles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import qadhm

from qadhm import echelon, scalars
from qadhm.echelon import QRat, _echelon
from qadhm.exactcore import Matrix, random_gauss
from qadhm.krylov import gcd_projective_roots
from qadhm.monad import Pencil
from qadhm.qspacetime import NCPoly
from qadhm.scalars import GaussRational, QLaurent, _ql_divmod, parse_gauss, qint

from helpers import (matrix_from_rows, qbinom, qbrace, qfact,
                     qrat_as_qlaurent)


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def ql(**kw):
    # ql(qm1=1, q1=1) -> q^-1 + q
    terms = {}
    for k, v in kw.items():
        e = int(k[1:].replace("m", "-"))
        terms[e] = v
    return QLaurent(terms)


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------

def test_qint_boundaries():
    assert qint(0) == QLaurent.zero()
    assert qint(1) == QLaurent.one()


def test_qint_two():
    # (q^2 - q^-2)/(q - q^-1) = q + q^-1, expanded by hand
    assert qint(2) == QLaurent({1: 1, -1: 1})


def test_qint_negation():
    for n in range(7):
        assert qint(-n) == -qint(n)


def test_qbrace_two():
    # (q^4 - 1)/(q^2 - 1) = q^2 + 1
    assert qbrace(2) == QLaurent({2: 1, 0: 1})


def test_qint_from_defining_ratio():
    # [n]*(q - q^-1) == q^n - q^-n
    den = QLaurent({1: 1, -1: -1})
    for n in range(1, 10):
        assert qint(n) * den == QLaurent({n: 1, -n: -1})


def test_qbrace_from_defining_ratio():
    den = QLaurent({2: 1, 0: -1})
    for n in range(1, 10):
        assert qbrace(n) * den == QLaurent({2 * n: 1, 0: -1})


def test_brace_is_shifted_qint():
    # {n} = q^(n-1) [n], n <= 12
    for n in range(13):
        assert qbrace(n) == qint(n).shift(n - 1) or n == 0
    assert qbrace(0) == QLaurent.zero()


def test_qbinom_matches_factorial_ratio():
    for n in range(7):
        for r in range(n + 1):
            lhs = qbinom(n, r) * qfact(r) * qfact(n - r)
            assert lhs == qfact(n)


def test_qbinom_symmetric_and_unimodal_degrees():
    for n in range(7):
        for r in range(n + 1):
            b = qbinom(n, r)
            assert b.val() == 0
            assert b.deg() == 2 * r * (n - r)


def test_qbinom_rejects_out_of_range():
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)
    with pytest.raises(ValueError):
        qfact(-1)


# ---------------------------------------------------------------------------
# GaussRational / QLaurent / QRat arithmetic
# ---------------------------------------------------------------------------

gauss_st = st.builds(
    GaussRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@given(gauss_st, gauss_st, gauss_st)
@settings(max_examples=120, deadline=None)
def test_gauss_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a / b) * b == a


def test_gauss_inverse_and_conjugate():
    z = G(3, 4)
    assert z * z.conjugate() == G(25)
    assert (G(1) / z) * z == G(1)


qlaurent_st = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=4,
).map(QLaurent)


@given(qlaurent_st, qlaurent_st, qlaurent_st)
@settings(max_examples=80, deadline=None)
def test_qrat_field_axioms(a, b, c):
    A, B, C = QRat(a), QRat(b), QRat(c)
    assert (A + B) + C == A + (B + C)
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    if B:
        assert (A / B) * B == A


def as_scalar(kind, v):
    """The rational v as an int, GaussRational, QLaurent or QRat."""
    if kind == "int":
        return int(v)
    if kind == "gauss":
        return GaussRational(v)
    if kind == "laurent":
        return QLaurent({0: v})
    # a QRat written with a common factor that its canonical form cancels
    extra = QLaurent({0: 1, 1: 2})
    return QRat(QLaurent({0: v}) * extra, extra)


scalar_kinds = st.sampled_from(["int", "gauss", "laurent", "qrat"])


@given(st.integers(min_value=-3, max_value=3), scalar_kinds, scalar_kinds)
@settings(max_examples=80, deadline=None)
def test_equal_scalars_hash_alike(v, k1, k2):
    a, b = as_scalar(k1, v), as_scalar(k2, v)
    assert a == b
    assert hash(a) == hash(b)


mixed_scalar_st = st.one_of(
    st.integers(min_value=-2, max_value=2),
    gauss_st,
    qlaurent_st,
    st.tuples(qlaurent_st, qlaurent_st.filter(bool)).map(lambda nd: QRat(*nd)),
)


@given(mixed_scalar_st, mixed_scalar_st)
@settings(max_examples=150, deadline=None)
def test_eq_implies_equal_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_constant_scalars_share_a_set_entry():
    assert len({QLaurent({0: 5}), 5}) == 1
    assert hash(QLaurent()) == hash(0) == hash(QRat(0))
    assert hash(QRat(5)) == hash(QLaurent({0: 5})) == hash(G(5))


def test_qrat_canonical_form():
    # (q^3 - q)/(q^2 - 1) reduces to q with denominator 1
    num = QLaurent({3: 1, 1: -1})
    den = QLaurent({2: 1, 0: -1})
    r = QRat(num, den)
    assert r.num == QLaurent({1: 1})
    assert r.den == QLaurent.one()
    # canonical denominator: valuation 0 and constant term 1
    r2 = QRat(QLaurent.one(), QLaurent({1: 2, 3: 1}))
    assert r2.den.val() == 0
    assert r2.den.coeff(0) == GaussRational(1)


def test_qlaurent_exact_division():
    a = qint(6)
    b = qint(3)
    q = a / b  # [6]/[3] = q^3 + q^-3
    assert q == QLaurent({3: 1, -3: 1})
    with pytest.raises(ValueError):
        _ = qint(4) / qint(3)


def _shifted_divmod(a, b):
    """Oracle: Laurent division that divides the valuation-0 parts as
    polynomials, then shifts back; r = 0 iff b divides a in the Laurent
    ring."""
    if not b.terms:
        raise ZeroDivisionError("QLaurent division by zero")
    if not a.terms:
        return QLaurent(), QLaurent()
    va, vb = a.val(), b.val()
    ad = {e - va: c for e, c in a.terms.items()}
    bd = {e - vb: c for e, c in b.terms.items()}
    db = max(bd)
    lead_b = bd[db]
    quo = {}
    rem = dict(ad)
    while rem and max(rem) >= db:
        dr = max(rem)
        piece = rem[dr] / lead_b
        quo[dr - db] = piece
        for e, c in bd.items():
            k = e + dr - db
            s = rem.get(k, G(0)) - piece * c
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return QLaurent(quo).shift(va - vb), QLaurent(rem).shift(va)


def _outcome(fn, *args):
    """fn(*args), or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def laurent_division_pairs():
    """Seeded Laurent (a, b) with negative exponents: random pairs and
    exact multiples a = b*c, some with a common non-unit factor."""
    rng = random.Random(23)
    pairs = []
    for _ in range(120):
        def poly():
            lo = rng.randint(-3, 1)
            return QLaurent({e: random_gauss(rng, 2) or G(1)
                             for e in range(lo, lo + rng.randint(1, 4))})
        a, b, c = poly(), poly(), poly()
        pairs += [(a, b), (b * c, b), (a * c, b * c)]
    return pairs


def test_top_degree_division():
    for a, b in laurent_division_pairs():
        quo, rem = _ql_divmod(a, b)
        assert a == quo * b + rem
        assert not quo or quo.val() >= 0
        assert not rem or rem.deg() < b.deg()


def test_exact_division_and_reduction_match_the_shifted_division():
    # QLaurent /, the canonical QRat(num, den) and qrat_as_qlaurent give the
    # same values (or raise ValueError on the same inputs) as with the old
    # division, which divided the valuation-0 parts.
    def run(a, b):
        r = QRat(a, b)
        return (_outcome(lambda: a / b), r.num, r.den,
                _outcome(qrat_as_qlaurent, r))
    pairs = laurent_division_pairs()
    got = [run(a, b) for a, b in pairs]
    with patch.object(scalars, "_ql_divmod", _shifted_divmod), \
            patch.object(echelon, "_ql_divmod", _shifted_divmod):
        want = [run(a, b) for a, b in pairs]
    assert got == want
    assert sum(x[0] is ValueError for x in got) >= 100
    assert sum(x[0] is not ValueError for x in got) >= 150


def test_qlaurent_eval_and_q1():
    f = QLaurent({2: 1, -1: G(0, 1)})
    assert f.subs_q1() == G(1, 1)
    assert f.evaluate(G(2)) == G(4) + G(0, Fraction(1, 2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gauss_string_round_trip():
    samples = [G(0), G(1), G(-2, 3), G(Fraction(1, 2), Fraction(-3, 4)),
               G(0, 1), G(Fraction(-5, 7))]
    for z in samples:
        assert parse_gauss(str(z)) == z
    assert str(G(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"
    assert str(G(1, -1)) == "1/1-1/1*i"


def test_qlaurent_json_round_trip():
    f = QLaurent({-1: 1, 1: 1})
    assert f.to_json() == {"-1": "1/1", "1": "1/1"}
    assert QLaurent.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    for c in (1, 2, 3, 4):
        eye = Matrix.identity(c, G(1), G(0))
        assert eye.rank() == c
    assert Matrix.zero(3, 2, G(0)).rank() == 0


def test_kernel_of_ones_matrix():
    m = matrix_from_rows([[G(1), G(1)], [G(1), G(1)]])
    k = m.kernel()
    assert k.cols == 1
    v = k.col(0)
    # spans (1, -1)
    assert v[0] == -v[1] and v[0]
    assert (m * k).is_zero()


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rank_equals_rank_of_transpose(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = Matrix(rows, cols, [[random_gauss(rng) for _ in range(cols)]
                            for _ in range(rows)])
    assert m.rank() == m.transpose().rank()


def test_rank_on_qlaurent_entries():
    q = QLaurent({1: 1})
    one = QLaurent.one()
    m = matrix_from_rows([[one, q], [q, q * q]])   # rank 1: rows proportional
    assert m.rank() == 1
    m2 = matrix_from_rows([[one, q], [q, one]])    # det = 1 - q^2 != 0
    assert m2.rank() == 2


def test_solve_consistent_and_inconsistent():
    m = matrix_from_rows([[G(1), G(2)], [G(2), G(4)]])
    rhs = matrix_from_rows([[G(1)], [G(2)]])
    x = m.solve(rhs)
    assert x is not None and (m * x) == rhs
    bad = matrix_from_rows([[G(1)], [G(3)]])
    assert m.solve(bad) is None


def bareiss_rank(m):
    """Reference rank: fraction-free (Bareiss) elimination with full
    pivoting, exact in the coefficient ring, so it needs no field lift for
    QLaurent entries."""
    if m.rows == 0 or m.cols == 0:
        return 0
    a = [list(r) for r in m.a]
    rows, cols = m.rows, m.cols
    prev = None
    r = 0
    for _ in range(min(rows, cols)):
        piv = next(((i, j) for i in range(r, rows) for j in range(r, cols)
                    if a[i][j]), None)
        if piv is None:
            break
        pi, pj = piv
        a[r], a[pi] = a[pi], a[r]
        for row in a:
            row[r], row[pj] = row[pj], row[r]
        for i in range(r + 1, rows):
            for j in range(r + 1, cols):
                num = a[r][r] * a[i][j] - a[i][r] * a[r][j]
                a[i][j] = num / prev if prev is not None else num
            a[i][r] = a[r][r] - a[r][r]  # zero of the right type
        prev = a[r][r]
        r += 1
    return r


def random_laurent_entry(rng):
    return QLaurent({rng.randint(-1, 1): random_gauss(rng, 2, False)
                     for _ in range(rng.randint(0, 2))})


def random_matrix(rng, entry, zero):
    """rows x cols with rank at most k (a product of random factors), and
    sometimes one column zeroed."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    k = rng.randint(0, min(rows, cols))
    left = [[entry(rng) for _ in range(k)] for _ in range(rows)]
    right = [[entry(rng) for _ in range(cols)] for _ in range(k)]
    grid = [[sum((left[i][t] * right[t][j] for t in range(k)), zero)
             for j in range(cols)] for i in range(rows)]
    if rng.random() < 0.3:
        dead = rng.randrange(cols)
        for row in grid:
            row[dead] = zero
    return Matrix(rows, cols, grid)


def check_against_oracle(m, rng, entry):
    rank = m.rank()
    assert rank == bareiss_rank(m)
    k = m.kernel()
    assert k.rows == m.cols and k.cols == m.cols - rank
    assert (m * k).is_zero()
    if k.cols:
        assert k.rank() == k.cols
    for consistent in (True, False):
        if consistent:
            x0 = Matrix(m.cols, 1, [[entry(rng)] for _ in range(m.cols)])
            rhs = m * x0
        else:
            rhs = Matrix(m.rows, 1, [[entry(rng)] for _ in range(m.rows)])
        sol = m.solve(rhs)
        if bareiss_rank(Matrix.hstack([m, rhs])) == rank:
            assert sol is not None and m * sol == rhs
        else:
            assert sol is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_echelon_matches_bareiss_on_gauss_matrices(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, random_gauss, G(0))
    check_against_oracle(m, rng, random_gauss)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_echelon_matches_bareiss_on_laurent_matrices(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, random_laurent_entry, QLaurent.zero())
    check_against_oracle(m, rng, random_laurent_entry)


def test_echelon_fixed_shapes():
    # the all-zero matrix, a zero column between independent ones, and a
    # rank-one block with a pivot-free first column
    rng = random.Random(3)
    shapes = [
        Matrix.zero(3, 4, G(0)),
        matrix_from_rows([[G(1), G(0), G(2)], [G(0), G(0), G(1)]]),
        matrix_from_rows([[G(0), G(1), G(2)], [G(0), G(2), G(4)],
                          [G(0), G(-1), G(-2)]]),
    ]
    for m in shapes:
        check_against_oracle(m, rng, random_gauss)
    assert [m.rank() for m in shapes] == [0, 2, 1]


def field_echelon_oracle(rows, ncols, reduced=False):
    """The field-only echelon as it was before Laurent rows were eliminated
    in the ring: the shortest live row pivots, scaled by one/lead."""
    work = [dict(r) for r in rows]
    live = [i for i, r in enumerate(work) if r]
    pivots = []
    one = None
    for j in range(ncols):
        cand = [i for i in live if j in work[i]]
        if not cand:
            continue
        p = min(cand, key=lambda i: len(work[i]))
        live.remove(p)
        row = work[p]
        lead = row.pop(j)
        if one is None:
            one = lead / lead
        inv = one / lead
        norm = {k: v * inv for k, v in row.items()}
        targets = [work[i] for i in cand if i != p]
        if reduced:
            targets += [r for _, _, r in pivots if j in r]
        for r in targets:
            f = r.pop(j)
            for k, v in norm.items():
                cur = r.get(k)
                val = -(f * v) if cur is None else cur - f * v
                if val:
                    r[k] = val
                elif cur is not None:
                    del r[k]
        norm[j] = one
        pivots.append((j, p, norm))
    return pivots


def random_laurent_term_count(rng, n):
    """A QLaurent with exactly n terms (exponents in -2..2)."""
    return QLaurent({e: random_gauss(rng, 2) or G(1)
                     for e in rng.sample(range(-2, 3), n)})


def random_sparse_rows(rng, entry, nrows, ncols, density=0.5):
    """Sparse rows with the given share of nonzero entries, plus some combinations of earlier
    rows so that ranks drop."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.25:
            a, b = rng.sample(rows, 2)
            ca, cb = entry(rng, None), entry(rng, None)
            mix = {}
            for r, c in ((a, ca), (b, cb)):
                for k, v in r.items():
                    mix[k] = mix.get(k, 0 * v) + c * v
            rows.append({k: v for k, v in mix.items() if v})
        else:
            rows.append({j: entry(rng, j) for j in range(ncols)
                         if rng.random() < density})
    return rows


def assert_all_laurent(pivots):
    assert all(type(v) is QLaurent for _, _, r in pivots for v in r.values())


def test_laurent_echelon_matches_the_lifted_echelon():
    # Seeded sparse Laurent rows: monomials and 2-3-term entries mixed, and
    # in some columns only multi-term entries, so that some columns offer
    # no unit and pivot through a QRat inverse.  Rank, pivot columns and
    # the reduced forms (as elements of Q(i)(q)) must match the echelon of
    # the same rows lifted to QRat.
    non_unit = all_laurent = 0
    for seed in range(80):
        rng = random.Random(seed)
        ncols = rng.randint(2, 6)
        multi_only = {j for j in range(ncols) if rng.random() < 0.2}

        def entry(rng, j):
            if j in multi_only:
                return random_laurent_term_count(rng, rng.randint(2, 3))
            return random_laurent_term_count(rng, rng.choice((1, 1, 1, 2, 3)))
        rows = random_sparse_rows(rng, entry, rng.randint(2, 6), ncols, 0.35)
        lifted = [{j: QRat(v) for j, v in r.items()} for r in rows]
        for reduced in (False, True):
            ring = _echelon(rows, ncols, reduced)
            field = _echelon(lifted, ncols, reduced)
            assert [j for j, _, _ in ring] == [j for j, _, _ in field]
        assert [r for _, _, r in ring] == [r for _, _, r in field]
        qrat_leads = sum(type(r[j]) is QRat for j, _, r in ring)
        non_unit += qrat_leads > 0
        all_laurent += qrat_leads == 0 and len(ring) > 1
    assert non_unit >= 10 and all_laurent >= 10


def test_echelon_prefers_a_monomial_pivot():
    # Column 0: the shortest row holds 1 + q, a longer one holds the unit
    # q.  The unit row pivots, and every entry stays a Laurent polynomial.
    one, q = ql(q0=1), ql(q1=1)
    rows = [{0: ql(q0=1, q1=1), 1: one}, {0: q, 2: one, 3: one}]
    pivots = _echelon(rows, 4, reduced=True)
    assert [(j, p) for j, p, _ in pivots] == [(0, 1), (1, 0)]
    assert_all_laurent(pivots)
    qinv = ql(qm1=1)
    assert pivots[0][2] == {0: one, 2: qinv, 3: qinv}
    assert pivots[1][2] == {1: one, 2: -(qinv + one), 3: -(qinv + one)}
    # a monomial with a Gaussian coefficient inverts to c^-1 q^-k
    (_, _, norm), = _echelon([{0: QLaurent({2: G(1, 2)}), 1: ql(q3=1)}], 2)
    assert norm == {0: one, 1: QLaurent({1: G(1, -2) / 5})}


def test_echelon_inverts_a_non_unit_pivot_in_qrat():
    # Column 0 offers only 1 + q and 1 - q: the first row pivots through
    # QRat(1, 1 + q), after which the second row holds only QRat entries
    # and pivots as a field element.
    one = ql(q0=1)
    rows = [{0: ql(q0=1, q1=1), 1: one}, {0: ql(q0=1, q1=-1), 1: 2 * one}]
    pivots = _echelon(rows, 2)
    assert [(j, p) for j, p, _ in pivots] == [(0, 0), (1, 1)]
    assert pivots[0][2] == {0: QRat(1), 1: QRat(1, ql(q0=1, q1=1))}
    assert all(type(v) is QRat for _, _, r in pivots for v in r.values())
    assert pivots[1][2] == {1: QRat(1)}


def test_field_rows_echelon_exactly_as_before():
    # On GaussRational and QRat rows every entry is a unit, so the pivots,
    # the row indices and the normalised rows (values and types) are those
    # of the field-only echelon.
    def gauss(rng, j):
        return random_gauss(rng) or G(1)

    def qrat(rng, j):
        return QRat(random_laurent_term_count(rng, rng.randint(1, 2)),
                    random_laurent_term_count(rng, rng.randint(1, 2)))
    for entry, seeds in ((gauss, range(80)), (qrat, range(8))):
        for seed in seeds:
            rng = random.Random(seed)
            ncols = rng.randint(1, 6)
            rows = random_sparse_rows(rng, entry, rng.randint(1, 6), ncols)
            for reduced in (False, True):
                got = _echelon(rows, ncols, reduced)
                want = field_echelon_oracle(rows, ncols, reduced)
                assert got == want
                assert [[type(v) for v in r.values()] for _, _, r in got] \
                    == [[type(v) for v in r.values()] for _, _, r in want]


def naive_product(A, B):
    """Every entry the sum of all its products, started at the first."""
    out = []
    for r in A.a:
        row = []
        for j in range(B.cols):
            acc = r[0] * B.a[0][j]
            for k in range(1, A.cols):
                acc = acc + r[k] * B.a[k][j]
            row.append(acc)
        out.append(row)
    return out


def test_product_skips_zero_factors_only():
    # sparse and all-zero matrices of each entry kind: the product equals
    # the full sum, entry kinds and the chart of NCPoly zeros included
    rng = random.Random(5)
    y = [NCPoly.gen("J", g) for g in ("y11", "y12", "y21", "y22")]
    kinds = (
        (lambda: random_gauss(rng) or G(1), G(0)),
        (lambda: random_laurent_term_count(rng, rng.randint(1, 3)),
         QLaurent()),
        (lambda: rng.choice(y) * rng.choice(y) * QLaurent({1: 2})
         + rng.choice(y), NCPoly.zero("J")),
    )
    for entry, zero in kinds:
        for density in (0.0, 0.3, 0.7):
            def m(rows, cols):
                return Matrix(rows, cols, [[entry() if rng.random() < density
                                            else zero for _ in range(cols)]
                                           for _ in range(rows)])
            A, B = m(3, 4), m(4, 2)
            got, want = (A * B).a, naive_product(A, B)
            assert got == want
            assert [[type(x) for x in r] for r in got] \
                == [[type(x) for x in r] for r in want]
            assert all(x.chart == "J" for r in got for x in r
                       if isinstance(x, NCPoly))


def test_dagger_is_conjugate_transpose():
    m = matrix_from_rows([[G(1, 2), G(0, 1)]])
    d = m.dagger()
    assert d.rows == 2 and d.cols == 1
    assert d[0, 0] == G(1, -2)
    assert d[1, 0] == G(0, -1)


def test_pencil_evaluation_matches_naive_sum():
    rng = random.Random(7)
    A = Matrix(2, 2, [[random_gauss(rng) for _ in range(2)] for _ in range(2)])
    B = Matrix(2, 2, [[random_gauss(rng) for _ in range(2)] for _ in range(2)])
    C = Matrix(2, 2, [[random_gauss(rng) for _ in range(2)] for _ in range(2)])
    p = Pencil(["z", "w"], {"z": A, "w": B}, C)
    z0, w0 = G(2), G(0, 1)
    expect = A.scale(z0) + B.scale(w0) + C
    assert p.evaluate({"z": z0, "w": w0}) == expect
    assert p.evaluate([z0, w0]) == expect


# ---------------------------------------------------------------------------
# projective roots of homogeneous bivariate polynomials (``adhm``)
# ---------------------------------------------------------------------------

def zpw(*coeffs):
    """Homogeneous poly from z-descending coefficient list, as the pair
    (chart-w = 1 polynomial, multiplicity of [1:0])."""
    d = len(coeffs) - 1
    return (QLaurent({d - k: coeffs[k] for k in range(len(coeffs))}),
            min(k for k, x in enumerate(coeffs) if x))


def test_projective_roots_split():
    # z * (z - 2w) * (z^2 + 2 w^2): two rational roots + irreducible quadratic
    p = zpw(G(1), G(-2), G(2), G(-4), G(0))
    roots, leftovers = gcd_projective_roots(*p)
    pts = {(str(z0), str(w0)) for (z0, w0), _ in roots}
    assert ("0/1", "1/1") in pts
    assert ("2/1", "1/1") in pts
    assert len(leftovers) == 1


def test_projective_roots_gaussian_point():
    p = zpw(G(1), G(0), G(1))  # z^2 + w^2
    roots, leftovers = gcd_projective_roots(*p)
    assert not leftovers
    vals = {str(z0) for (z0, w0), _ in roots}
    assert vals == {"0/1+1/1*i", "0/1-1/1*i"}


def test_projective_roots_single_root_powers_match_sympy():
    """z^m * w^n * lc*(z - a*w)^d takes the path without sympy; its roots
    and multiplicities equal those of sympy's factorisation over QQ_I."""
    import sympy

    def to_sympy(x):
        return (sympy.Rational(x.re.numerator, x.re.denominator)
                + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator))

    rng = random.Random(11)
    t = sympy.Symbol("t")
    for _ in range(30):
        d, za, wb = rng.randint(1, 4), rng.randint(0, 2), rng.randint(0, 2)
        a, lc = random_gauss(rng), random_gauss(rng) or G(1)
        coeffs = [lc * comb(d, k) * (-a) ** (d - k) for k in range(d + 1)]
        p = QLaurent({za + k: x for k, x in enumerate(coeffs)}), wb
        roots, leftovers = gcd_projective_roots(*p)
        poly = sympy.Poly(sum(to_sympy(x) * t ** k
                              for k, x in enumerate(coeffs)), t, domain="QQ_I")
        (fac, mult), = poly.factor_list()[1]
        c1, c0 = fac.all_coeffs()
        assert leftovers == []
        assert [m for _, m in roots] == [m for m in (za, wb) if m] + [mult]
        (z0, w0), _ = roots[-1]
        assert w0 == G(1)
        assert sympy.expand(to_sympy(z0) + c0 / c1, complex=True) == 0


def test_single_root_path_imports_no_sympy():
    # z*w*(z + (1+2i)*w)^2
    code = ("import sys\n"
            "from qadhm.krylov import gcd_projective_roots\n"
            "from qadhm.scalars import GaussRational as G, QLaurent\n"
            "p = QLaurent({3: G(1), 2: G(2, 4), 1: G(-3, 4)}), 1\n"
            "roots, _ = gcd_projective_roots(*p)\n"
            "print([m for _, m in roots], roots[-1][0][0], "
            "'sympy' in sys.modules)")
    root = str(Path(qadhm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out == "[1, 1, 2] -1/1-2/1*i False\n"
