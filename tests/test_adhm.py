"""Tests for the instanton-type matrix data and stability taxonomy."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from qadhm import krylov
from qadhm.adhm import (classify, derivative_rank, is_costable,
                        random_nonstable_solution, random_stable_solution)
from qadhm.cli import run
from qadhm.real import embed_real, real_residuals
from qadhm.exactcore import (
    ADHMError,
    ComplexADHMDatum,
    Matrix,
    RealADHMDatum,
    complex_residuals,
    datum_from_json,
    is_complex_solution,
    random_gauss,
)
from qadhm.krylov import is_stable
from qadhm.scalars import GaussRational, QLaurent, _as_gauss

from helpers import (
    c1_generator,
    closure_rank,
    dagger_involution,
    failing_points,
    gl_action,
    is_dagger_fixed,
    quadratic_pencil_value,
    random_c1r1_solution,
    random_complex_datum,
    random_invertible,
    random_real_solution,
    semiregular_not_regular,
    stabilizer_dim,
    submatrix,
    transpose_dual,
    witness_matrix,
)
from statements import real_stratify

Z = GaussRational(0)
ONE = GaussRational(1)


def gr(re, im=0):
    return GaussRational(re, im)


def zeros(rows, cols):
    return [[0] * cols for _ in range(rows)]


def stable_not_semiregular():
    """c=1, r=2: zero B's, i-rows the coordinate vectors, j = 0."""
    return ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0]], [[0, 1]], [[0], [0]], [[0], [0]])


def one_instanton_real():
    """c=1, r=2: zero B's, i=(1,0), j=(0,1)^T; solves both equations at xi=0."""
    return RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]], [[0], [1]])


def proj_equal(p, q):
    """Projective equality of two (z, w) pairs."""
    return not (p[0] * q[1] - p[1] * q[0]) and (any(p) and any(q))


class TestComplexResiduals:
    def test_zero_datum_solves(self):
        d = ComplexADHMDatum(2, 1, zeros(2, 2), zeros(2, 2), zeros(2, 2),
                             zeros(2, 2), zeros(2, 1), zeros(2, 1),
                             zeros(1, 2), zeros(1, 2))
        assert all(m.is_zero() for m in complex_residuals(d))
        assert is_complex_solution(d)

    def test_stable_not_semiregular_datum_solves(self):
        assert is_complex_solution(stable_not_semiregular())

    def test_j_perturbation_breaks_first_residual(self):
        d = stable_not_semiregular()
        d2 = ComplexADHMDatum(1, 2, d.B11, d.B12, d.B21, d.B22,
                              d.i1, d.i2, [[1], [0]], d.j2)
        r1, r2, r3 = complex_residuals(d2)
        assert r1 == d.i1 * Matrix(2, 1, [[ONE], [Z]])
        assert not r1.is_zero()
        assert r2.is_zero()

    def test_residuals_are_pencil_coefficients(self):
        # [B~1,B~2] + i~j~ at [z:w] = z^2 r1 + zw r3 + w^2 r2, spot-checked
        # at three points.
        d = random_complex_datum(2, 2, seed=11)
        r1, r2, r3 = complex_residuals(d)
        for z0, w0 in [(1, 0), (0, 1), (2, 3)]:
            z0, w0 = gr(z0), gr(w0)
            expect = (r1.scale(z0 * z0) + r3.scale(z0 * w0)
                      + r2.scale(w0 * w0))
            assert quadratic_pencil_value(d, z0, w0) == expect

    def test_shape_validation(self):
        with pytest.raises(ADHMError):
            ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                             [[1, 0]], [[0, 1]], [[0], [0]], [[0]])
        with pytest.raises(ADHMError):
            ComplexADHMDatum(0, 2, [], [], [], [], [], [], [], [])


class TestRealResiduals:
    def test_one_instanton_solves_at_zero(self):
        r1, r2 = real_residuals(one_instanton_real(), 0)
        assert r1.is_zero() and r2.is_zero()

    def test_zero_datum_levels(self):
        d = RealADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]])
        r1, r2 = real_residuals(d, 0)
        assert r1.is_zero() and r2.is_zero()
        r1, r2 = real_residuals(d, 1)
        assert r1.is_zero()
        assert r2 == Matrix(1, 1, [[gr(-1)]])

    def test_conjugate_transpose_matters(self):
        # B1 = [[0, i], [0, 0]] has [B1, B1^+] = diag(1, -1) * |i|^2 scale.
        d = RealADHMDatum(2, 1, [[gr(0), gr(0, 1)], [gr(0), gr(0)]],
                          zeros(2, 2), zeros(2, 1), zeros(1, 2))
        _, r2 = real_residuals(d, 0)
        assert r2 == Matrix(2, 2, [[ONE, Z], [Z, gr(-1)]])


class TestWordClosureStability:
    def test_c1_nonzero_i_is_stable(self):
        ok, wit = is_stable(Matrix(1, 1, [[gr(5)]]), Matrix(1, 1, [[Z]]),
                            Matrix(1, 2, [[ONE, Z]]))
        assert ok and wit is None

    def test_c1_zero_i_witness_is_zero_subspace(self):
        ok, wit = is_stable(Matrix(1, 1, [[gr(5)]]), Matrix(1, 1, [[gr(7)]]),
                            Matrix(1, 1, [[Z]]))
        assert not ok
        assert wit.rows == 1 and wit.cols == 0

    def test_closure_stops_short(self):
        # B's zero, i = e1: the closure is span{e1}.
        ok, wit = is_stable(Matrix(2, 2, [[Z] * 2] * 2),
                            Matrix(2, 2, [[Z] * 2] * 2),
                            Matrix(2, 1, [[ONE], [Z]]))
        assert not ok
        assert wit.cols == 1
        assert wit[0, 0] == ONE and wit[1, 0] == Z

    def test_shift_makes_stable(self):
        shift = Matrix(3, 3, [[Z, Z, Z], [ONE, Z, Z], [Z, ONE, Z]])
        ok, wit = is_stable(shift, Matrix(3, 3, [[Z] * 3] * 3),
                            Matrix(3, 1, [[ONE], [Z], [Z]]))
        assert ok and wit is None

    def test_costable_c1(self):
        b = Matrix(1, 1, [[Z]])
        ok, wit = is_costable(b, b, Matrix(2, 1, [[ONE], [Z]]))
        assert ok and wit is None
        ok, wit = is_costable(b, b, Matrix(2, 1, [[Z], [Z]]))
        assert not ok
        assert wit == Matrix.identity(1, ONE, Z)

    def test_costable_witness_lies_in_kernel(self):
        # j kills e2; B1 swaps nothing; S = span{e2} is invariant in ker j.
        b = Matrix(2, 2, [[Z] * 2] * 2)
        j = Matrix(1, 2, [[ONE, Z]])
        ok, wit = is_costable(b, b, j)
        assert not ok
        assert (j * wit).is_zero()
        assert wit.cols >= 1

    def test_duality_on_random_data(self):
        rng = random.Random(20260815)
        for _ in range(8):
            d = random_complex_datum(2, 2, seed=rng.randrange(10 ** 6))
            s = is_stable(d.B11, d.B12, d.i1)[0]
            co = is_costable(d.B11.transpose(), d.B12.transpose(),
                             d.i1.transpose())[0]
            assert s == co


def rerank_closure(ops, seed):
    """The closure as it was built before the incremental echelon: each
    candidate is kept when it raises the rank of the whole stacked basis."""
    c = seed.rows
    basis = []
    queue = [submatrix(seed, range(c), [t]) for t in range(seed.cols)]
    while queue:
        col = queue.pop(0)
        stacked = Matrix.hstack(basis + [col]) if basis else col
        if stacked.rank() > len(basis):
            basis.append(col)
            if len(basis) == c:
                break
            queue.extend(op * col for op in ops)
    return Matrix.hstack(basis) if basis else Matrix.zero(c, 0, Z)


def seeded_triples(n, seed):
    """(B1, B2, i) with proper and full closures: half the time the B's
    are block upper triangular and Im i lies in the upper block; the B's
    are sparse, and i may repeat a column."""
    rng = random.Random(seed)
    for _ in range(n):
        c, r = rng.randint(1, 6), rng.randint(1, 3)
        # rows >= split are invariant when the triple is triangular
        split = rng.randint(1, c) if rng.random() < 0.5 else c

        def entry(a, b):
            if b < split <= a:
                return Z
            return random_gauss(rng) if rng.random() < 0.7 else Z
        B1, B2 = (Matrix(c, c, [[entry(a, b) for b in range(c)]
                                for a in range(c)]) for _ in range(2))
        cols = [[random_gauss(rng) if a < split else Z for a in range(c)]
                for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            cols[1] = cols[0]
        yield B1, B2, Matrix(c, r, [list(x) for x in zip(*cols)])


class TestIncrementalClosure:
    def test_same_basis_as_the_rerank_loop(self):
        proper = 0
        for B1, B2, i in seeded_triples(120, 20261019):
            basis, words = krylov._closure_basis([B1, B2], i)
            assert basis == rerank_closure([B1, B2], i)
            proper += basis.cols < B1.rows
            # each word rebuilds its column, breadth first
            ops = {"1": B1, "2": B2}
            for k, (t, w) in enumerate(words):
                col = submatrix(i, range(i.rows), [t])
                for letter in reversed(w):
                    col = ops[letter] * col
                assert col.col(0) == basis.col(k)
            assert [len(w) for _, w in words] \
                == sorted(len(w) for _, w in words)
        assert 20 < proper < 100

    def test_witnesses_unchanged(self):
        for B1, B2, i in seeded_triples(60, 7):
            stable, wit = is_stable(B1, B2, i)
            closure = rerank_closure([B1, B2], i)
            assert stable == (closure.cols == B1.rows)
            assert wit == (None if stable else closure)
            costable, cowit = is_costable(B1, B2, i.transpose())
            dual = rerank_closure([B1.transpose(), B2.transpose()], i)
            assert costable == (dual.cols == B1.rows)
            if not costable:
                assert cowit == (Matrix.identity(B1.rows, ONE, Z)
                                 if not dual.cols
                                 else dual.transpose().kernel())


class TestClassify:
    def test_stable_not_semiregular(self):
        rep = classify(stable_not_semiregular())
        assert rep["stable_everywhere"]
        assert rep["semistable"]
        assert not rep["costable_everywhere"]
        assert not rep["semiregular"]
        assert not rep["regular"]
        # j~ = 0: the costable side fails at every point, no single root.
        assert rep["costability_gcd"] == "0"
        assert failing_points(rep) == []
        # the witness is all of V (any subspace sits inside ker 0)
        assert witness_matrix(rep) == Matrix.identity(1, ONE, Z)

    def test_semiregular_not_regular(self):
        rep = classify(semiregular_not_regular())
        assert rep["stable_everywhere"]
        assert rep["semiregular"]
        assert not rep["costable_everywhere"]
        assert not rep["regular"]
        pts = [(side, pt, m) for side, pt, m in failing_points(rep)]
        assert len(pts) == 1
        side, pt, mult = pts[0]
        assert side == "costable" and mult == 1
        # j~ = z*j1 vanishes exactly at z = 0, the point [0:1]
        assert proj_equal(pt, (Z, ONE))

    def test_c1r1_never_stable_with_exact_root(self):
        for seed in range(10):
            d = random_c1r1_solution(seed)
            assert is_complex_solution(d)
            rep = classify(d)
            assert not rep["stable_everywhere"]
            assert rep["semistable"]
            stable_pts = [pt for side, pt, _ in failing_points(rep)
                          if side == "stable"]
            assert len(stable_pts) == 1
            # i~ = z*i1 + w*i2 vanishes at [-i2 : i1]
            assert proj_equal(stable_pts[0], (-d.i2[0, 0], d.i1[0, 0]))

    def test_zero_datum_not_semistable(self):
        d = ComplexADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]],
                             [[0]], [[0]], [[0]], [[0]])
        rep = classify(d)
        assert not rep["semistable"]
        assert rep["stability_gcd"] == "0"
        assert witness_matrix(rep).cols == 0

    def test_regular_example(self):
        rep = classify(embed_real(one_instanton_real()))
        assert rep["regular"]
        assert rep["stable_everywhere"] and rep["costable_everywhere"]
        assert failing_points(rep) == []
        assert witness_matrix(rep) is None

    def test_planted_root_is_found(self):
        for seed in (3, 14, 15):
            d, pt = random_nonstable_solution(2, 2, seed)
            rep = classify(d)
            assert not rep["stable_everywhere"]
            assert rep["semistable"]
            stable_pts = [(p, m) for side, p, m in failing_points(rep)
                          if side == "stable"]
            assert any(proj_equal(p, pt) for p, _ in stable_pts)
            # each minor carries the planted linear factor to the power c
            assert all(m >= 2 for p, m in stable_pts if proj_equal(p, pt))

    def test_report_invariants_enforced(self):
        for seed in range(4):
            rep = classify(random_stable_solution(2, 2, seed))
            assert rep["regular"] == (rep["stable_everywhere"]
                                      and rep["costable_everywhere"])
            assert not rep["semiregular"] or rep["stable_everywhere"]

    def test_root_count_bounded_by_c_squared(self):
        for seed in range(6):
            for (r, c) in [(2, 2), (2, 3)]:
                d, _ = random_nonstable_solution(r, c, seed)
                rep = classify(d)
                assert rep["semistable"]
                total = sum(m for side, _, m in failing_points(rep)
                            if side == "stable")
                assert total <= c * c


class TestDerivativeRank:
    def test_stable_not_semiregular_rank(self):
        d = stable_not_semiregular()
        rank = derivative_rank(d)
        assert rank == 3
        c, r = d.c, d.r
        assert (4 * c * c + 4 * r * c) - rank - c * c == 4 * r * c

    def test_zero_datum_rank_deficient(self):
        d = ComplexADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]],
                             [[0]], [[0]], [[0]], [[0]])
        assert derivative_rank(d) == 0

    def test_embedded_regular_datum_full_rank(self):
        d = embed_real(one_instanton_real())
        assert derivative_rank(d) == 3 * d.c * d.c

    def test_matches_classification_on_solutions(self):
        for seed in range(5):
            for (r, c) in [(2, 1), (2, 2), (3, 1)]:
                d = random_stable_solution(r, c, seed)
                assert derivative_rank(d) == 3 * c * c
                d2, _ = random_nonstable_solution(r, c, seed)
                assert not classify(d2)["stable_everywhere"]
                assert derivative_rank(d2) < 3 * c * c

    @pytest.mark.parametrize("r,c", [(2, 2), (2, 3), (3, 3)])
    def test_full_rank_does_not_imply_stability(self, r, c):
        # the transpose dual keeps the rank and swaps i with j^T, so the
        # dual of a stable datum has i = 0: costable, nowhere stable and
        # still of full rank
        for seed in range(2):
            stable = random_stable_solution(r, c, seed)
            planted, _ = random_nonstable_solution(r, c, seed)
            for d in (stable, planted):
                dual = transpose_dual(d)
                assert is_complex_solution(dual)
                assert derivative_rank(dual) == derivative_rank(d)
            dual = transpose_dual(stable)
            assert derivative_rank(dual) == 3 * c * c
            rep = classify(dual)
            assert not rep["stable_everywhere"]
            assert rep["costable_everywhere"]


class TestStabilizer:
    def test_zero_triples(self):
        z1 = Matrix(1, 1, [[Z]])
        assert stabilizer_dim(z1, z1, z1) == 1
        z2 = Matrix(2, 2, [[Z] * 2] * 2)
        assert stabilizer_dim(z2, z2, Matrix(2, 1, [[Z], [Z]])) == 4

    def test_stable_triples_have_trivial_stabilizer(self):
        for seed in range(5):
            d = random_stable_solution(2, 2, seed)
            B1, B2, ip, _ = d.evaluate(1, 0)
            assert is_stable(B1, B2, ip)[0]
            assert stabilizer_dim(B1, B2, ip) == 0


def first_matrix_of(monkeypatch, method, call):
    """(the Matrix on which call() first invokes Matrix.<method>, result)."""
    seen = []
    original = getattr(Matrix, method)

    def spy(self, *args):
        seen.append(self)
        return original(self, *args)

    with monkeypatch.context() as m:
        m.setattr(Matrix, method, spy)
        result = call()
    return seen[0], result


def _old_flatten(*mats):
    return [x for m in mats for row in m.a for x in row]


def old_derivative_matrix(d):
    """The derivative matrix as per-block loops over unit matrices build
    it: a test-local oracle."""
    c, r = d.c, d.r
    zero_cc = Matrix(c, c, [[Z] * c for _ in range(c)])
    cols = []

    def elem(rows, cols_, a, b):
        m = [[Z] * cols_ for _ in range(rows)]
        m[a][b] = ONE
        return Matrix(rows, cols_, m)

    for a in range(c):
        for b in range(c):
            e = elem(c, c, a, b)
            cols.append(_old_flatten(e.commutator(d.B12), zero_cc,
                                     e.commutator(d.B22)))
    for a in range(c):
        for b in range(c):
            e = elem(c, c, a, b)
            cols.append(_old_flatten(d.B11.commutator(e), zero_cc,
                                     d.B21.commutator(e)))
    for a in range(c):
        for b in range(c):
            e = elem(c, c, a, b)
            cols.append(_old_flatten(zero_cc, e.commutator(d.B22),
                                     e.commutator(d.B12)))
    for a in range(c):
        for b in range(c):
            e = elem(c, c, a, b)
            cols.append(_old_flatten(zero_cc, d.B21.commutator(e),
                                     d.B11.commutator(e)))
    for a in range(c):
        for b in range(r):
            e = elem(c, r, a, b)
            cols.append(_old_flatten(e * d.j1, zero_cc, e * d.j2))
    for a in range(c):
        for b in range(r):
            e = elem(c, r, a, b)
            cols.append(_old_flatten(zero_cc, e * d.j2, e * d.j1))
    for a in range(r):
        for b in range(c):
            e = elem(r, c, a, b)
            cols.append(_old_flatten(d.i1 * e, zero_cc, d.i2 * e))
    for a in range(r):
        for b in range(c):
            e = elem(r, c, a, b)
            cols.append(_old_flatten(zero_cc, d.i2 * e, d.i1 * e))
    n = 3 * c * c
    return Matrix(n, len(cols), [[col[k] for col in cols] for k in range(n)])


def old_stabilizer_matrix(B1, B2, i):
    """The stabilizer system as its loop built it: a test-local oracle."""
    c, r = B1.rows, i.cols
    cols = []
    for a in range(c):
        for b in range(c):
            m = [[Z] * c for _ in range(c)]
            m[a][b] = ONE
            e = Matrix(c, c, m)
            cols.append(_old_flatten(B1.commutator(e), B2.commutator(e),
                                     e * i))
    n = 2 * c * c + c * r
    return Matrix(n, c * c, [[col[k] for col in cols] for k in range(n)])


LINEAR_MAP_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (4, 2)]  # (r, c)


class TestLinearMapMatrix:
    """derivative_rank and stabilizer_dim build their matrices from
    Kronecker blocks; the matrices equal the old loops' entry for entry, on
    dense and on sparse data, with r < c (r = 1 included) and r > c, where a
    slip between the c x r and r x c blocks would show."""

    @staticmethod
    def data(r, c):
        out = [random_complex_datum(r, c, seed) for seed in range(3)]
        out.append(ComplexADHMDatum(c, r, *[zeros(c, c)] * 4,
                                    *[zeros(c, r)] * 2, *[zeros(r, c)] * 2))
        if r >= 2:
            out.append(random_stable_solution(r, c, 1))
            out.append(random_nonstable_solution(r, c, 2)[0])
        return out

    @pytest.mark.parametrize("r,c", LINEAR_MAP_SHAPES)
    def test_derivative_matrix_matches_old_loops(self, r, c, monkeypatch):
        for d in self.data(r, c):
            built, rank = first_matrix_of(monkeypatch, "rank",
                                          lambda: derivative_rank(d))
            old = old_derivative_matrix(d)
            assert (built.rows, built.cols) == (3 * c * c,
                                                4 * c * c + 4 * c * r)
            assert built == old
            assert all(type(x) is GaussRational for row in built.a
                       for x in row)
            assert rank == old.rank()

    @pytest.mark.parametrize("r,c", LINEAR_MAP_SHAPES)
    def test_stabilizer_matrix_matches_old_loop(self, r, c, monkeypatch):
        for d in self.data(r, c):
            for B1, B2, i in ((d.B11, d.B21, d.i1),
                              d.evaluate(1, 0)[:3], d.evaluate(2, -1)[:3]):
                built, dim = first_matrix_of(
                    monkeypatch, "rank", lambda: stabilizer_dim(B1, B2, i))
                old = old_stabilizer_matrix(B1, B2, i)
                assert built == old
                assert dim == c * c - old.rank()


class TestInvolutionAndRealData:
    def test_involution_is_an_involution(self):
        d = random_complex_datum(2, 2, seed=7)
        assert dagger_involution(dagger_involution(d)) == d

    def test_embed_real_formula(self):
        d = embed_real(one_instanton_real())
        assert d.i1 == Matrix(1, 2, [[ONE, Z]])
        assert d.i2 == Matrix(1, 2, [[Z, gr(-1)]])
        assert d.j1 == Matrix(2, 1, [[Z], [ONE]])
        assert d.j2 == Matrix(2, 1, [[ONE], [Z]])
        assert is_complex_solution(d)

    def test_embed_real_output_is_dagger_fixed(self):
        assert is_dagger_fixed(embed_real(one_instanton_real()))
        for seed in range(5):
            rd, xi = random_real_solution(3, seed, kind="regular")
            assert xi == Z
            out = embed_real(rd)
            assert is_dagger_fixed(out)
            assert is_complex_solution(out)

    def test_embed_real_rejects_non_solutions(self):
        bad = RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]], [[1], [0]])
        with pytest.raises(ADHMError):
            embed_real(bad)
        # a positive-level solution is still rejected at xi = 0
        d, xi = random_real_solution(2, 0, kind="stable")
        assert xi != Z
        with pytest.raises(ADHMError):
            embed_real(d)

    def test_stable_real_data_embed_regular(self):
        for seed in range(6):
            rd, _ = random_real_solution(2, seed, kind="regular")
            assert real_stratify(rd, 0) == "regular"
            rep = classify(embed_real(rd))
            assert rep["stable_everywhere"]
            assert rep["regular"]


class TestRealStratify:
    def test_examples(self):
        assert real_stratify(one_instanton_real(), 0) == "regular"
        zero = RealADHMDatum(1, 2, [[0]], [[0]], [[0, 0]], [[0], [0]])
        assert real_stratify(zero, 0) == "irregular"

    def test_rejects_non_solutions(self):
        with pytest.raises(ADHMError):
            real_stratify(one_instanton_real(), 1)

    def test_positive_level_solutions_are_stable(self):
        for seed in range(8):
            d, xi = random_real_solution(3, seed, kind="stable")
            assert xi.im == 0 and xi.re > 0
            assert real_stratify(d, xi) in ("stable", "regular")

    def test_zero_level_solutions_never_half_regular(self):
        for seed in range(8):
            for kind in ("regular", "irregular"):
                d, xi = random_real_solution(4, seed, kind=kind)
                assert real_stratify(d, xi) in ("regular", "irregular")

    def test_r1_stable_solutions_have_zero_j(self):
        for seed in range(8):
            d, xi = random_real_solution(1, seed, kind="stable")
            assert real_stratify(d, xi) == "stable"
            assert d.j.is_zero()


class TestC1Generator:
    def test_outputs_are_stable_solutions(self):
        for seed in range(6):
            for r in (2, 3):
                d = c1_generator(r, seed)
                assert d.c == 1 and d.r == r
                assert is_complex_solution(d)
                assert classify(d)["stable_everywhere"]

    def test_quadric_example_solution(self):
        # x=(1,0), y=(0,1), z=(0,1), w=(-1,0) satisfies all three equations
        d = ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                             [[1, 0]], [[0, 1]], [[0], [1]], [[-1], [0]])
        assert is_complex_solution(d)
        assert classify(d)["regular"]

    def test_quadric_counterexample_rejected(self):
        # x=(1,0), y=(0,1), z=(0,1), w=(1,0) violates the mixed equation
        d = ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                             [[1, 0]], [[0, 1]], [[0], [1]], [[1], [0]])
        r1, r2, r3 = complex_residuals(d)
        assert r1.is_zero() and r2.is_zero()
        assert r3 == Matrix(1, 1, [[gr(2)]])

    def test_r1_rejected(self):
        with pytest.raises(ADHMError):
            c1_generator(1, 0)


class TestStableSide:
    """adhm rank and the stable generator read stable_everywhere off the
    stable side alone; it must agree with the two-sided taxonomy."""

    def test_flag_matches_classify(self):
        dual = transpose_dual
        flags = set()
        for seed in range(3):
            for r, c in [(2, 1), (2, 2), (3, 2), (2, 3)]:
                stable = random_stable_solution(r, c, seed)
                planted, _ = random_nonstable_solution(r, c, seed)
                for d in (stable, planted, dual(stable), dual(planted)):
                    flag = classify(d)["stable_everywhere"]
                    assert krylov.holds_everywhere(
                        krylov.stable_side_of(d)) == flag
                    flags.add(flag)
        assert flags == {True, False}

    def test_adhm_rank_reports_the_flag(self, tmp_path, capsys):
        stable = random_stable_solution(2, 2, 1)
        for d in (stable, transpose_dual(stable)):
            f = tmp_path / "d.json"
            f.write_text(json.dumps(d.to_json()), encoding="utf-8")
            assert run(["adhm", "rank", str(f)]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["stable_everywhere"] == classify(d)["stable_everywhere"]


class TestGenerators:
    def test_stable_solutions(self):
        for seed in (0, 1):
            for (r, c) in [(2, 1), (2, 2), (3, 1), (2, 3)]:
                d = random_stable_solution(r, c, seed)
                assert is_complex_solution(d)
                assert classify(d)["stable_everywhere"]

    def test_nonstable_solutions(self):
        for seed in (0, 1):
            d, pt = random_nonstable_solution(2, 2, seed)
            assert is_complex_solution(d)
            B1, B2, ip, _ = d.evaluate(*pt)
            assert ip.is_zero()
            assert not is_stable(B1, B2, ip)[0]

    def test_determinism(self):
        assert random_stable_solution(2, 2, 42) == random_stable_solution(2, 2, 42)
        assert random_complex_datum(2, 2, 42) == random_complex_datum(2, 2, 42)

    def test_seeded_bytes_are_pinned(self):
        # the benchmark plants its stability data with both generators, so
        # a change of draw order or construction must show here: sha256 of
        # the JSON of every datum of the grid, and of the planted points
        shapes = ((2, 1), (2, 2), (2, 3), (3, 3), (3, 2), (4, 2), (5, 1),
                  (2, 5))
        seeds = range(4)

        def digest(obj):
            return hashlib.sha256(json.dumps(obj).encode()).hexdigest()
        stable = [random_stable_solution(r, c, s).to_json()
                  for r, c in shapes for s in seeds]
        planted = [random_nonstable_solution(r, c, s)
                   for r, c in shapes + ((1, 1), (1, 3)) for s in seeds]
        assert digest(stable) == (
            "3a603a11b60ba442ac7877ba6da94117c454a7624a0537fa67a287d80ed012bb")
        assert digest([d.to_json() for d, _ in planted]) == (
            "f2427456826f75959f8ae04e864ffec88be0b697a1b7acb3ecc86bcdcb73a514")
        assert digest([[str(x) for x in pt] for _, pt in planted]) == (
            "0263b6d5ae633aaf2702efc79977b203e1c01b050591aa8a1fde0dda6ad251e0")

    def test_raw_datum_generally_not_solution(self):
        assert not is_complex_solution(random_complex_datum(2, 2, 0))


class TestGLInvariance:
    def test_residuals_conjugate(self):
        rng = random.Random(5)
        d = random_complex_datum(2, 2, seed=9)
        g = random_invertible(2, rng)
        ginv = g.solve(Matrix.identity(2, ONE, Z))
        moved = gl_action(g, d)
        for before, after in zip(complex_residuals(d),
                                 complex_residuals(moved)):
            assert after == g * before * ginv

    def test_solutions_and_classification_preserved(self):
        rng = random.Random(6)
        for seed in range(4):
            d = random_stable_solution(2, 2, seed)
            g = random_invertible(2, rng)
            moved = gl_action(g, d)
            assert is_complex_solution(moved)
            a, b = classify(d), classify(moved)
            for flag in ("stable_everywhere", "costable_everywhere",
                         "semistable", "semiregular", "regular"):
                assert a[flag] == b[flag]

    def test_classification_of_failing_points_preserved(self):
        rng = random.Random(7)
        d, pt = random_nonstable_solution(2, 2, 13)
        g = random_invertible(2, rng)
        rep = classify(gl_action(g, d))
        stable_pts = [p for side, p, _ in failing_points(rep)
                      if side == "stable"]
        assert any(proj_equal(p, pt) for p in stable_pts)

    def test_rejects_singular_matrix(self):
        d = random_complex_datum(2, 2, seed=3)
        with pytest.raises(ADHMError):
            gl_action(Matrix(2, 2, [[ONE, Z], [ONE, Z]]), d)


def ordered_monomial_rank(B1, B2, i):
    """Rank of the columns B1^m * B2^n * i for 0 <= m, n <= c-1.

    Always <= closure_rank(B1, B2, i); the inequality can be strict (the
    ordered monomials omit words such as B2*B1*B2), so the word closure is
    the ground truth for stability and this map is a comparison oracle.
    """
    c = B1.rows
    ident = Matrix.identity(c, ONE, Z)
    pows1, pows2 = [ident], [ident]
    for _ in range(c - 1):
        pows1.append(pows1[-1] * B1)
        pows2.append(pows2[-1] * B2)
    blocks = [pows1[m] * (pows2[n] * i) for m in range(c) for n in range(c)]
    return Matrix.hstack(blocks).rank()


class TestOrderedMonomialOracle:
    def test_ordered_span_never_exceeds_closure(self):
        for seed in range(10):
            d = random_complex_datum(2, 3, seed)
            assert (ordered_monomial_rank(d.B11, d.B12, d.i1)
                    <= closure_rank(d.B11, d.B12, d.i1))

    def test_agreement_on_random_stable_triples(self):
        # Ordered monomials are only asserted sufficient; we log any lag
        # behind the word closure instead of failing (none is expected on
        # generic data).
        lags = []
        for seed in range(12):
            for c in (2, 3):
                d = random_stable_solution(2, c, seed)
                B1, B2, ip, _ = d.evaluate(1, 1)
                full = closure_rank(B1, B2, ip)
                ordered = ordered_monomial_rank(B1, B2, ip)
                if full == c and ordered < c:
                    lags.append((c, seed, ordered))
        if lags:
            print("ordered-monomial span lagged word closure on:", lags)

    def test_ordered_span_can_lag_word_closure(self):
        # B1 sends e1 -> e2, B2 sends e2 -> e3, i = e1.  The word B2*B1
        # reaches e3 but every ordered monomial B1^m B2^n kills it, so the
        # ordered span is strictly smaller than the full closure.
        B1 = Matrix(3, 3, [[Z, Z, Z], [ONE, Z, Z], [Z, Z, Z]])
        B2 = Matrix(3, 3, [[Z, Z, Z], [Z, Z, Z], [Z, ONE, Z]])
        i = Matrix(3, 1, [[ONE], [Z], [Z]])
        assert closure_rank(B1, B2, i) == 3
        assert is_stable(B1, B2, i)[0]
        assert ordered_monomial_rank(B1, B2, i) == 2


class TestJSON:
    def test_complex_round_trip(self):
        d = random_complex_datum(2, 2, seed=21)
        obj = d.to_json()
        assert obj["kind"] == "complex"
        assert datum_from_json(obj) == d

    def test_real_round_trip(self):
        d = one_instanton_real()
        obj = d.to_json()
        assert obj["kind"] == "real"
        assert datum_from_json(obj) == d

    def test_report_serialization(self):
        obj = classify(semiregular_not_regular())
        assert obj["semiregular"] is True
        assert obj["regular"] is False
        assert obj["failing_points"][0]["side"] == "costable"
        assert obj["failing_points"][0]["z"] == "0/1"
        assert obj["failing_points"][0]["w"] == "1/1"
        assert obj["stability_gcd"] == "(1/1)*1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ADHMError):
            datum_from_json({"kind": "other"})

    def test_missing_count_is_refused_by_name(self):
        obj = random_complex_datum(2, 2, seed=21).to_json()
        del obj["c"]
        with pytest.raises(ADHMError, match="^missing keys: c$"):
            datum_from_json(obj)

    def test_missing_blocks_are_refused_by_name(self):
        obj = random_complex_datum(2, 2, seed=21).to_json()
        del obj["j2"], obj["B12"]
        with pytest.raises(ADHMError, match="^missing keys: B12, j2$"):
            datum_from_json(obj)

    def test_wrong_kind_names_the_blocks_of_its_kind(self):
        obj = {**random_complex_datum(2, 2, seed=21).to_json(),
               "kind": "real"}
        with pytest.raises(ADHMError, match="^missing keys: B1, B2, i, j$"):
            datum_from_json(obj)


# ---------------------------------------------------------------------------
# oracle: every c x c Krylov minor by cofactors, then their gcd
# ---------------------------------------------------------------------------
# The enumeration classify used before the Hermite reduction, kept as the
# reference for _krylov_minor_gcd.  Homogeneous polynomials in (z, w) are
# dicts {(deg_z, deg_w): GaussRational} with no zero values.

def _acc(out, k, c):
    s = out.get(k, Z) + c
    if s:
        out[k] = s
    else:
        out.pop(k, None)


def _padd(p, q, sign=1):
    out = dict(p)
    for k, c in q.items():
        _acc(out, k, c if sign > 0 else -c)
    return out


def _pmul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            _acc(out, (a1 + a2, b1 + b2), c1 * c2)
    return out


def _bipoly_det(cols):
    """Determinant of a square matrix given as a list of polynomial columns."""
    def rec(ci, rows):
        if len(rows) == 1:
            return cols[ci][rows[0]]
        acc, sign = {}, 1
        for k, a in enumerate(rows):
            e = cols[ci][a]
            if e:
                acc = _padd(acc, _pmul(e, rec(ci + 1, rows[:k] + rows[k + 1:])),
                            sign)
            sign = -sign
        return acc
    return rec(0, tuple(range(len(cols))))


def _uni_divmod(a, b):
    """Division of dense univariate coefficient lists over Q(i) (index=degree)."""
    a = list(a)
    db = len(b) - 1
    while db >= 0 and not b[db]:
        db -= 1
    if db < 0:
        raise ZeroDivisionError("univariate division by zero")
    lead = b[db]
    quo = [Z] * max(0, len(a) - db)
    for d in range(len(a) - 1, db - 1, -1):
        if not a[d]:
            continue
        f = a[d] / lead
        quo[d - db] = f
        for k in range(db + 1):
            a[d - db + k] = a[d - db + k] - f * b[k]
    while a and not a[-1]:
        a.pop()
    return quo, a


def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while any(b):
        _, r = _uni_divmod(a, b)
        a, b = b, r
    while a and not a[-1]:
        a.pop()
    return a


def homogeneous_gcd(polys):
    """gcd of homogeneous polynomials, monic in z (also for one input)."""
    polys = [p for p in polys if p]
    if not polys:
        raise ValueError("homogeneous_gcd of an all-zero (or empty) family")
    for p in polys:
        if len({a + b for (a, b) in p}) > 1:
            raise ValueError(f"not homogeneous: {p}")
    za = min(min(a for (a, b) in p) for p in polys)
    wb = min(min(b for (a, b) in p) for p in polys)
    g = None
    for p in polys:
        u = [Z] * (max(a + b for (a, b) in p) - za - wb + 1)
        for (a, b), c in p.items():
            u[a - za] = c
        g = u if g is None else _uni_gcd(g, u)
    lead, dg = g[-1], len(g) - 1
    return {(za + k, wb + dg - k): g[k] / lead for k in range(dg + 1) if g[k]}


def minor_gcd_oracle(Bz1, Bw1, Bz2, Bw2, Sz, Sw):
    """(all_zero, gcd as a dict) from every c x c minor of the Krylov matrix."""
    c = Bz1.rows

    def entry(zc, wc):
        return {k: v for k, v in (((1, 0), zc), ((0, 1), wc)) if v}

    ops = [[[entry(Bz[a, b], Bw[a, b]) for b in range(c)] for a in range(c)]
           for Bz, Bw in ((Bz1, Bw1), (Bz2, Bw2))]

    def apply(op, u):
        out = []
        for a in range(c):
            acc = {}
            for b in range(c):
                for k, v in _pmul(op[a][b], u[b]).items():
                    _acc(acc, k, v)
            out.append(acc)
        return out

    frontier = [[entry(Sz[a, t], Sw[a, t]) for a in range(c)]
                for t in range(Sz.cols)]
    cols = list(frontier)
    for _ in range(c - 1):
        frontier = [apply(op, u) for u in frontier for op in ops]
        cols.extend(frontier)
    cols = [u for u in cols if any(u)]
    g = None
    for combo in combinations(cols, c):
        minor = _bipoly_det(list(combo))
        if minor:
            g = homogeneous_gcd([minor] if g is None else [g, minor])
            if max(a + b for (a, b) in g) == 0:
                break
    return (True, None) if g is None else (False, g)


def _side_args(d, side):
    if side == "stable":
        return d.B11, d.B21, d.B12, d.B22, d.i1, d.i2
    return (d.B11.transpose(), d.B21.transpose(), d.B12.transpose(),
            d.B22.transpose(), d.j1.transpose(), d.j2.transpose())


def _oracle_datum(seed):
    """Seeded datum with c <= 3 and r in {1, 2}: sparse entries, and seeds
    i~ (and j~) vanishing at [1:0], at [0:1], at a planted point, or
    identically, by seed modulo 5.  A non-stable c = 3 datum makes the
    oracle expand every minor (35 at r = 1, 364 at r = 2), so c = 3 is drawn
    less often, and with r = 2 only for a few planted points."""
    rng = random.Random(seed)
    c, r = rng.choice((1, 1, 2, 2, 2, 3)), rng.choice((1, 2))
    if (r, c) == (2, 3) and seed % 5 in (1, 2, 3) and seed % 50 != 3:
        r = 1
    density = rng.choice((0.0, 0.4, 0.7, 1.0))

    def m(rows, cols, fill=density):
        return Matrix(rows, cols, [[random_gauss(rng)
                                    if rng.random() < fill else Z
                                    for _ in range(cols)]
                                   for _ in range(rows)])

    def seeds(rows, cols):
        a, b = m(rows, cols), m(rows, cols, 1.0)
        kind = seed % 5
        if kind == 1:       # z*0 + w*b vanishes at [1:0]
            a = a.scale(Z)
        elif kind == 2:     # z*b + w*0 vanishes at [0:1]
            a, b = b, b.scale(Z)
        elif kind == 3:     # (z + lam*w)*b vanishes at [-lam:1]
            a, b = b, b.scale(random_gauss(rng))
        elif kind == 4:
            a, b = a.scale(Z), b.scale(Z)
        return a, b

    i1, i2 = seeds(c, r)
    j1, j2 = seeds(c, r)
    return ComplexADHMDatum(c, r, m(c, c), m(c, c), m(c, c), m(c, c),
                            i1, i2, j1.transpose(), j2.transpose())


def test_gcd_coprime_coordinates():
    assert homogeneous_gcd([{(1, 0): ONE}, {(0, 1): ONE}]) == {(0, 0): ONE}


def test_gcd_common_monomial_factor():
    z = {(1, 0): ONE}
    assert homogeneous_gcd([{(1, 1): ONE}, {(2, 0): ONE}]) == z


def test_gcd_gaussian_factor():
    # z^2 + w^2 = (z + iw)(z - iw); gcd with z + iw is z + iw
    f = {(1, 0): ONE, (0, 1): gr(0, 1)}
    assert homogeneous_gcd([{(2, 0): ONE, (0, 2): ONE}, f]) == f


def test_gcd_rejects_empty_and_inhomogeneous():
    with pytest.raises(ValueError):
        homogeneous_gcd([{}])
    with pytest.raises(ValueError):
        homogeneous_gcd([{(1, 0): ONE, (0, 0): ONE}])


def _as_pair(g):
    """A homogeneous gcd dict as (chart-w = 1 polynomial, multiplicity of
    [1:0]), the form _krylov_minor_gcd returns."""
    return QLaurent({a: c for (a, _), c in g.items()}), min(b for _, b in g)


def _as_dict(g, v):
    n = g.deg() + v
    return {(a, n - a): _as_gauss(c) for a, c in g.terms.items()}


def _oracle_gcd(*args):
    all_zero, g = minor_gcd_oracle(*args)
    return all_zero, None if all_zero else _as_pair(g)


def bipoly_str(terms):
    """Oracle for the gcd format: {(deg_z, deg_w): coefficient} printed
    by total degree, then by the power of z, highest first."""
    if not terms:
        return "0"
    def mono(a, b):
        parts = []
        if a:
            parts.append("z" if a == 1 else f"z^{a}")
        if b:
            parts.append("w" if b == 1 else f"w^{b}")
        return "*".join(parts) or "1"
    items = sorted(terms.items(),
                   key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
    return " + ".join(f"({c})*{mono(a, b)}" for (a, b), c in items)


def test_gcd_printer_matches_the_bivariate_format():
    # seeded gcds times z^a*w^b: degree 0, v > 0 and g.val() > 0 included
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        deg = rng.randint(0, 4)
        g = QLaurent({k: random_gauss(rng) for k in range(deg)})
        g = (g + QLaurent({deg: random_gauss(rng) or ONE})).shift(
            rng.choice((0, 0, 1, 2)))
        v = rng.choice((0, 0, 1, 3))
        assert krylov._gcd_str(g, v) == bipoly_str(_as_dict(g, v))
        seen.add((g.deg() + v == 0, v > 0, g.val() > 0))
    assert {(True, False, False), (False, True, False),
            (False, False, True), (False, True, True)} <= seen


class TestKrylovMinorGcd:
    def test_matches_minor_enumeration(self):
        for seed in range(300):
            d = _oracle_datum(seed)
            for side in ("stable", "costable"):
                args = _side_args(d, side)
                all_zero, g = krylov._krylov_minor_gcd(*args)
                expect_zero, expect = minor_gcd_oracle(*args)
                assert all_zero == expect_zero, (seed, side)
                assert all_zero or _as_dict(*g) == expect, (seed, side)

    def test_classify_matches_enumeration(self, monkeypatch):
        data = [random_c1r1_solution(s) for s in range(4)]
        data += [c1_generator(r, s) for r in (2, 3) for s in range(2)]
        data += [random_stable_solution(r, c, s)
                 for r, c in ((2, 2), (2, 3), (3, 3)) for s in range(2)]
        data += [random_nonstable_solution(r, c, s)[0]
                 for r, c in ((1, 2), (2, 2), (1, 3)) for s in range(2)]
        data += [embed_real(random_real_solution(2, s, "regular")[0])
                 for s in range(2)]
        data += [stable_not_semiregular(), semiregular_not_regular()]
        reports = [classify(d) for d in data]
        monkeypatch.setattr(krylov, "_krylov_minor_gcd", _oracle_gcd)
        assert reports == [classify(d) for d in data]

    def test_c1r1_gcd_is_monic_in_z(self):
        for seed in range(4):
            d = random_c1r1_solution(seed)
            a = d.i2[0, 0] / d.i1[0, 0]
            rep = classify(d)
            assert rep["stability_gcd"] == f"(1/1)*z + ({a})*w"
            assert failing_points(rep) == [("stable", (-a, ONE), 1)]

    def test_planted_root_beyond_c3(self):
        for r, c in ((2, 4), (2, 5)):
            d, pt = random_nonstable_solution(r, c, 1)
            rep = classify(d)
            assert not rep["stable_everywhere"] and rep["semistable"]
            assert any(side == "stable" and proj_equal(p, pt) and m >= c
                       for side, p, m in failing_points(rep))
