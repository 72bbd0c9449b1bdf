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
from qadhm.adhm import (classify, random_nonstable_solution,
                        random_stable_solution)
from qadhm.echelon import QRat, _echelon
from qadhm.exactcore import (Matrix, RealADHMDatum, complex_residuals,
                             is_complex_solution, random_gauss)
from qadhm.krylov import gcd_projective_roots
from qadhm.monad import VARS, build_monad, check_exactness_at, classify_sheaf
from qadhm.qcalculus import derive_table
from qadhm.qforms import NCForm
from qadhm.qspacetime import HarmonicIndex, NCPoly
from qadhm.scalars import (GaussRational, QLaurent, _as_gauss, _ql_divmod,
                           parse_gauss, qint)

from helpers import (complex_residuals_by_commutators, gauss_power,
                     matrix_from_rows, qbinom, qbrace, qfact, ql_evaluate,
                     qrat_as_qlaurent, random_complex_datum, small_gauss)


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


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
    ad = {e - va: _as_gauss(c) for e, c in a.terms.items()}
    bd = {e - vb: _as_gauss(c) for e, c in b.terms.items()}
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
            return QLaurent({e: small_gauss(rng, 2) or G(1)
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
    assert ql_evaluate(f, G(2)) == G(4) + G(0, Fraction(1, 2))


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


def test_value_types_are_immutable():
    # one guard, scalars.Immutable, refuses assignment and deletion alike
    d = random_stable_solution(2, 1, 0)
    values = [QLaurent({1: 1}), QRat(1, QLaurent({0: 1, 1: 1})),
              NCPoly.one(), HarmonicIndex(2, 0, 0),
              NCForm(derive_table("q"), 0), classify(d), build_monad(d),
              classify_sheaf(d), d,
              RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]])]
    for value in values:
        name = type(value).__slots__[-1]
        before = getattr(value, name)
        for attempt in (lambda: setattr(value, name, None),
                        lambda: delattr(value, name)):
            with pytest.raises(AttributeError,
                               match=f"^{type(value).__name__} is immutable$"):
                attempt()
        assert getattr(value, name) is before


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


def sparse_gauss_matrix(rng, rows, cols):
    """A seeded rows x cols matrix over Q(i), about a third of it zero."""
    return Matrix(rows, cols, [[random_gauss(rng) if rng.random() < 0.7
                                else G(0) for _ in range(cols)]
                               for _ in range(rows)])


def row_major(m):
    return Matrix(m.rows * m.cols, 1, [[x] for row in m.a for x in row])


@pytest.mark.parametrize("p,q,s,t", [(1, 1, 1, 1), (1, 2, 3, 2),
                                     (2, 3, 2, 1), (1, 3, 2, 1),
                                     (3, 2, 4, 3), (2, 2, 2, 2)])
def test_kron_flattens_a_two_sided_product(p, q, s, t):
    # X -> L*X*R flattened row-major is L (x) R^T: the columns of the
    # derivative matrix of adhm.derivative_rank are ordered by it
    for seed in range(3):
        rng = random.Random(f"{p}{q}{s}{t}-{seed}")
        L, X, R, D = (sparse_gauss_matrix(rng, m, n)
                      for m, n in ((p, q), (q, s), (s, t), (t, 2)))
        K = L.kron(R.transpose())
        assert (K.rows, K.cols) == (p * t, q * s)
        assert all(K[a * t + i, b * s + j] == L[a, b] * R[j, i]
                   for a in range(p) for b in range(q)
                   for i in range(t) for j in range(s))
        assert all(type(x) is GaussRational for row in K.a for x in row)
        assert K * row_major(X) == row_major(L * X * R)
        # the mixed product: (L (x) R)(X (x) D) = (L X) (x) (R D)
        assert L.kron(R) * X.kron(D) == (L * X).kron(R * D)


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
    return QLaurent({rng.randint(-1, 1): small_gauss(rng, 2, False)
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
    """The reference field echelon, written out once more: the shortest
    live row pivots, scaled by one/lead."""
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
    return QLaurent({e: small_gauss(rng, 2) or G(1)
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


def test_field_rows_echelon_exactly_as_before():
    # On GaussRational and QRat rows the pivots, the row indices and the
    # normalised rows (values and types) are those of the reference field
    # echelon.
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
    # the ranks check_exactness_at finds are those of x*P_x + y*P_y + z*P_z
    # + w*P_w with each entry summed by hand, at seeded points and at points
    # where a rank drops: over a planted stability failure (beta) and on the
    # shifted line of a stable solution (alpha)
    def at(pencil, pt):
        rows, cols = pencil["x"].rows, pencil["x"].cols
        return Matrix(rows, cols, [[sum((pencil[v][i, j] * t
                                         for v, t in zip(VARS, pt)), G(0))
                                    for j in range(cols)]
                                   for i in range(rows)])

    rng = random.Random(7)
    drops = [0, 0]
    for r, c, seed in [(2, 1, 1), (2, 2, 2), (3, 1, 5), (3, 2, 0)]:
        for d, base in [random_nonstable_solution(r, c, seed),
                        (random_stable_solution(r, c, seed), (G(1), G(1)))]:
            m = build_monad(d)
            b1, b2, _, _ = d.evaluate(*base)
            points = [(-b1[0, 0], -b2[0, 0], *base)]
            points += [tuple(random_gauss(rng) for _ in range(4))
                       for _ in range(6)]
            for pt in filter(any, points):
                ra, rb = at(m.alpha, pt).rank(), at(m.beta, pt).rank()
                fiber = 2 * c + r - ra - rb
                assert check_exactness_at(m, pt) == (ra, rb, fiber)
                drops[0] += ra < c
                drops[1] += rb < c
    assert all(drops)


# ---------------------------------------------------------------------------
# the residuals read off the monad pencils
# ---------------------------------------------------------------------------

def test_residuals_match_the_commutator_formulas():
    # the z^2, w^2 and zw coefficients of beta*alpha, entry for entry, on
    # seeded stable, planted non-stable and non-solution data, c <= 3
    solutions = set()
    for seed in range(3):
        for r, c in [(2, 1), (2, 2), (1, 3), (3, 3)]:
            data = [random_nonstable_solution(r, c, seed)[0],
                    random_complex_datum(r, c, seed)]
            if r >= 2:
                data.append(random_stable_solution(r, c, seed))
            for d in data:
                new = complex_residuals(d)
                old = complex_residuals_by_commutators(d)
                assert len(new) == 3
                assert [m.a for m in new] == [m.a for m in old]
                solutions.add(is_complex_solution(d))
    assert solutions == {True, False}


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
        coeffs = [lc * comb(d, k) * gauss_power(-a, d - k)
                  for k in range(d + 1)]
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
