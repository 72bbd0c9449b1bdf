"""Tests for the monad construction, sheaf classification and Chern calculus."""

import json
import random
from fractions import Fraction

import pytest

from qadhm.adhm import random_nonstable_solution, random_stable_solution
from qadhm.real import embed_real
from qadhm.exactcore import ADHMError, ComplexADHMDatum, Matrix, monad_pencils
from qadhm.monad import (Monad, VARS, build_monad, check_exactness_at,
                         classify_sheaf, product_coefficients)
from qadhm.chern import chi_line, chi_twist
from qadhm.scalars import GaussRational

from helpers import (
    grid_points,
    matrix_from_rows,
    random_complex_datum,
    random_invertible,
    read_point,
    seeded_points,
    semiregular_not_regular,
    small_gauss,
)
from statements import (ChernClass, appendix_b_suite, chern_of_monad,
                        find_intertwiner, normalize_monad, suite_to_json)
from test_adhm import first_matrix_of

Z = GaussRational(0)
ONE = GaussRational(1)


def gm(rows):
    return matrix_from_rows([[GaussRational(x) if not isinstance(x, GaussRational)
                              else x for x in row] for row in rows])


def stable_not_semiregular():
    """c=1, r=2: zero B's, i-rows the coordinate vectors, j = 0."""
    return ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0]], [[0, 1]], [[0], [0]], [[0], [0]])


def one_instanton_complex():
    """Regular c=1, r=2 datum: the doubled form of i=(1,0), j=(0,1)^T."""
    from qadhm.exactcore import RealADHMDatum
    return embed_real(RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]],
                                    [[0], [1]]))


def point(*coords):
    return tuple(GaussRational(v) if not isinstance(v, GaussRational) else v
                 for v in coords)


def dual_costable_solution(r, c, seed):
    """Transpose of a commuting-shift stable solution: i = 0, j = i^T, so the
    datum solves the equations and is costable everywhere."""
    d = random_stable_solution(r, c, seed)
    zero_i = Matrix.zero(c, r, Z)
    return ComplexADHMDatum(c, r,
                            d.B11.transpose(), d.B12.transpose(),
                            d.B21.transpose(), d.B22.transpose(),
                            zero_i, zero_i,
                            d.i1.transpose(), d.i2.transpose())


class TestBuildMonad:
    def test_basic_example_pencils(self):
        m = build_monad(stable_not_semiregular())
        assert (m.r, m.c) == (2, 1)
        assert m.alpha["x"] == gm([[1], [0], [0], [0]])
        assert m.alpha["y"] == gm([[0], [1], [0], [0]])
        assert m.alpha["z"] == gm([[0], [0], [0], [0]])
        assert m.alpha["w"] == gm([[0], [0], [0], [0]])
        assert m.beta["x"] == gm([[0, 1, 0, 0]])
        assert m.beta["y"] == gm([[-1, 0, 0, 0]])
        assert m.beta["z"] == gm([[0, 0, 1, 0]])
        assert m.beta["w"] == gm([[0, 0, 0, 1]])

    def test_non_solution_rejected_with_residual_indices(self):
        d = stable_not_semiregular()
        bad = ComplexADHMDatum(1, 2, d.B11, d.B12, d.B21, d.B22,
                               d.i1, d.i2, [[1], [0]], d.j2)
        with pytest.raises(ADHMError, match=r"residual\(s\) \[1\]"):
            build_monad(bad)

    def test_product_vanishes_exactly_for_solutions(self):
        for shape in [(2, 1), (2, 2), (3, 1)]:
            for seed in range(3):
                d = random_stable_solution(shape[0], shape[1], seed)
                m = build_monad(d)
                coeffs = product_coefficients(m.beta, m.alpha)
                assert all(v.is_zero() for v in coeffs.values())

    def test_product_coefficients_are_the_residuals(self):
        # beta*alpha = z^2 r1 + zw r3 + w^2 r2 for any datum, solution or not
        from qadhm.exactcore import complex_residuals
        for seed in range(8):
            d = random_complex_datum(2, 2, seed)
            alpha, beta = monad_pencils(d)
            coeffs = product_coefficients(beta, alpha)
            r1, r2, r3 = complex_residuals(d)
            assert coeffs[("z", "z")] == r1
            assert coeffs[("w", "w")] == r2
            assert coeffs[("z", "w")] == r3
            for (u, v), m in coeffs.items():
                if "x" in (u, v) or "y" in (u, v):
                    assert m.is_zero()

    def test_one_parameter_perturbation_breaks_monad(self):
        d = stable_not_semiregular()
        for t in [1, -2, Fraction(1, 3)]:
            bad = ComplexADHMDatum(1, 2, d.B11, d.B12, d.B21, d.B22,
                                   d.i1, d.i2, [[t], [0]], d.j2)
            alpha, beta = monad_pencils(bad)
            with pytest.raises(ADHMError, match="not a monad"):
                Monad(2, 1, alpha, beta)

    def test_constructor_checks_shapes(self):
        m = build_monad(stable_not_semiregular())
        with pytest.raises(ADHMError, match="alpha must be 6x2"):
            Monad(2, 2, m.alpha, m.beta)
        wide = {v: Matrix.hstack([b, b]) for v, b in m.beta.items()}
        with pytest.raises(ADHMError, match="beta must be 1x4"):
            Monad(2, 1, m.alpha, wide)


class TestExactnessAt:
    def test_basic_example_points(self):
        m = build_monad(stable_not_semiregular())
        assert check_exactness_at(m, point(0, 0, 1, 0)) == (0, 1, 3)
        assert check_exactness_at(m, point(1, 0, 0, 0)) == (1, 1, 2)

    def test_full_rank_on_infinity_line(self):
        # on {z = w = 0} both maps have full rank c for any monad
        for shape, seed in [((2, 1), 0), ((2, 2), 1), ((3, 1), 2)]:
            d = random_stable_solution(shape[0], shape[1], seed)
            m = build_monad(d)
            c = d.c
            for pt in [point(1, 0, 0, 0), point(0, 1, 0, 0),
                       point(1, GaussRational(0, 1), 0, 0)]:
                ra, rb, fiber = check_exactness_at(m, pt)
                assert (ra, rb) == (c, c)
                assert fiber == d.r

    def test_zero_point_rejected(self):
        m = build_monad(stable_not_semiregular())
        with pytest.raises(ADHMError, match="not all zero"):
            check_exactness_at(m, point(0, 0, 0, 0))

    def test_integer_coordinates_accepted(self):
        m = build_monad(stable_not_semiregular())
        assert check_exactness_at(m, (0, 0, 1, 0)) == (0, 1, 3)


class TestGrid:
    def test_grid_is_canonical_and_deduplicated(self):
        pts = grid_points()
        keys = set()
        for pt in pts:
            lead = next(v for v in pt if v)
            assert lead == ONE
            keys.add(tuple(str(v) for v in pt))
        assert len(keys) == len(pts)
        assert len(pts) >= 64

    def test_grid_contains_unit_points(self):
        keys = {tuple(str(v) for v in pt) for pt in grid_points()}
        for k in range(4):
            unit = [Z] * 4
            unit[k] = ONE
            assert tuple(str(v) for v in unit) in keys

    def test_seeded_points_reproducible(self):
        a = seeded_points(10, 7)
        b = seeded_points(10, 7)
        assert a == b
        assert all(any(pt) for pt in a)


def stable_with_irrational_costable_points():
    """c=2, r=5, semiregular: B~1 = w*[[0,2],[1,0]], B~2 = 0, i~ = (z*1 |
    w*1 | 0) and j~ = e5 (z, w).  ker j~ is spanned by (w, -z), which is an
    eigenvector of B~1 iff w*(2z^2 - w^2) = 0: costability fails at [1:0]
    and at the two points 2z^2 = w^2, which are not in Q(i)."""
    zero = [[0, 0], [0, 0]]
    return ComplexADHMDatum(2, 5, zero, zero, [[0, 2], [1, 0]], zero,
                            [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]],
                            [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
                            [[0, 0]] * 4 + [[1, 0]], [[0, 0]] * 4 + [[0, 1]])


BASE_POINTS = [(1, 0), (0, 1), (1, 1), (2, GaussRational(0, 1))]
SEEDED_LOCUS_DATA = [(2, 2, 1), (2, 3, 2), (3, 3, 3)]


def shifted_line_ranks(d):
    """(rank alpha_X, rank alpha_X') at each base point [z:w], for X =
    [-B~1[0,0] : -B~2[0,0] : z : w] and X' = X + [1:0:0:0].

    On ``random_stable_solution`` data j = 0 and the B~k are lower
    triangular polynomials in one shift matrix, so the last basis vector is
    a joint eigenvector at every [z:w], with eigenvalues B~k[0,0]: X lies on
    the singular locus and X' does not."""
    m = build_monad(d)
    out = []
    for z0, w0 in BASE_POINTS:
        b1, b2, _, _ = d.evaluate(z0, w0)
        x, y = -b1[0, 0], -b2[0, 0]
        out.append((check_exactness_at(m, point(x, y, z0, w0))[0],
                    check_exactness_at(m, point(x + 1, y, z0, w0))[0]))
    return out


class TestClassifySheaf:
    def test_stable_not_semiregular_is_torsion_free(self):
        rep = classify_sheaf(stable_not_semiregular())
        locus = rep["singular_locus"]
        assert rep["kind"] == "torsion_free"
        assert locus["dimension"] == 1 and locus["over"] is None
        # alpha = (x, y, 0, 0)^T drops rank exactly on the line {x = y = 0},
        # which lies over every [z:w]
        m = build_monad(stable_not_semiregular())
        for z0, w0 in BASE_POINTS:
            assert check_exactness_at(m, point(0, 0, z0, w0))[0] == 0
            assert check_exactness_at(m, point(1, 0, z0, w0))[0] == 1

    def test_semiregular_example_is_reflexive(self):
        rep = classify_sheaf(semiregular_not_regular())
        locus = rep["singular_locus"]
        assert rep["kind"] == "reflexive"
        assert locus["dimension"] == 0
        assert [read_point(p) for p in locus["over"]] == [point(0, 1)]
        assert locus["over_factors"] == []
        # alpha = (x, y, 0, 0, z)^T drops rank exactly at [0:0:0:1]
        m = build_monad(semiregular_not_regular())
        assert check_exactness_at(m, point(0, 0, 0, 1))[0] == 0
        assert check_exactness_at(m, point(1, 0, 0, 1))[0] == 1
        assert check_exactness_at(m, point(0, 0, 1, 0))[0] == 1

    def test_regular_datum_is_locally_free(self):
        rep = classify_sheaf(one_instanton_complex())
        locus = rep["singular_locus"]
        assert rep["kind"] == "locally_free"
        assert locus["dimension"] == -1
        assert locus["over"] == [] and locus["over_factors"] == []

    def test_irrational_base_points_are_reported_as_factors(self):
        d = stable_with_irrational_costable_points()
        rep = classify_sheaf(d)
        locus = rep["singular_locus"]
        assert rep["kind"] == "reflexive" and locus["dimension"] == 0
        assert [read_point(p) for p in locus["over"]] == [point(1, 0)]
        assert locus["over_factors"] == ["t**2 - 1/2"]  # t = z/w
        # over [1:0], v = (0, 1) spans ker j~ and B~1 v = B~2 v = 0
        m = build_monad(d)
        assert check_exactness_at(m, point(0, 0, 1, 0))[0] < d.c
        assert check_exactness_at(m, point(1, 0, 1, 0))[0] == d.c
        # over [0:1], ker j~ = <(1, 0)> is not B~1-invariant
        for x in (0, 1, -1, 2):
            assert check_exactness_at(m, point(x, 0, 0, 1))[0] == d.c

    def test_seeded_torsion_free_loci(self):
        for r, c, seed in SEEDED_LOCUS_DATA:
            d = random_stable_solution(r, c, seed)
            rep = classify_sheaf(d)
            locus = rep["singular_locus"]
            assert rep["kind"] == "torsion_free"
            assert locus["dimension"] == 1 and locus["over"] is None
            # alpha_X is (a1*N; a2*N; 0) with (a1, a2) != 0: rank c - 1
            assert shifted_line_ranks(d) == [(c - 1, c)] * len(BASE_POINTS)

    def test_rejects_nonstable_data(self):
        d, _ = random_nonstable_solution(2, 2, 0)
        with pytest.raises(ADHMError, match="not stable everywhere"):
            classify_sheaf(d)

    def test_rejects_non_solutions(self):
        d = stable_not_semiregular()
        bad = ComplexADHMDatum(1, 2, d.B11, d.B12, d.B21, d.B22,
                               d.i1, d.i2, [[1], [0]], d.j2)
        with pytest.raises(ADHMError, match="residual"):
            classify_sheaf(bad)

    def test_classification_is_read_off_the_taxonomy(self):
        # the class is read off the taxonomy, so an inconsistent (kind, over)
        # pair cannot be built
        rep = classify_sheaf(random_stable_solution(2, 1, 0))
        locus = rep["singular_locus"]
        assert (rep["kind"], locus["over"], locus["over_factors"]) == \
            ("torsion_free", None, [])


class TestSurjectivityRanks:
    def test_beta_full_rank_everywhere_for_stable_data(self):
        for shape, seed in [((2, 1), 0), ((2, 2), 3)]:
            d = random_stable_solution(shape[0], shape[1], seed)
            m = build_monad(d)
            for pt in grid_points():
                assert check_exactness_at(m, pt)[1] == d.c
            for pt in seeded_points(20, seed):
                assert check_exactness_at(m, pt)[1] == d.c

    def test_beta_drops_rank_for_nonstable_data(self):
        # at a planted stability failure [z0:w0] the point
        # X = [-b1 : -b2 : z0 : w0], with bk the repeated diagonal entry of
        # the evaluated Bk pencil, kills the first row of beta
        for shape, seed in [((2, 1), 1), ((2, 2), 2), ((3, 1), 5)]:
            d, (z0, w0) = random_nonstable_solution(shape[0], shape[1], seed)
            m = build_monad(d)
            b1_tilde, b2_tilde, i_tilde, _ = d.evaluate(z0, w0)
            assert i_tilde.is_zero()
            x = -b1_tilde[0, 0]
            y = -b2_tilde[0, 0]
            rank = check_exactness_at(m, (x, y, z0, w0))[1]
            assert rank < d.c

    def test_alpha_full_rank_everywhere_for_costable_data(self):
        for shape, seed in [((2, 1), 0), ((2, 2), 4)]:
            d = dual_costable_solution(shape[0], shape[1], seed)
            m = build_monad(d)
            for pt in grid_points():
                assert check_exactness_at(m, pt)[0] == d.c
        m = build_monad(one_instanton_complex())
        for pt in grid_points():
            assert check_exactness_at(m, pt)[0] == 1


class TestNormalize:
    def test_round_trip_is_identity_on_standard_form(self):
        for d in [stable_not_semiregular(), semiregular_not_regular(),
                  random_stable_solution(2, 2, 9)]:
            m = build_monad(d)
            d2 = normalize_monad(m.alpha, m.beta)
            for name in ("B11", "B12", "B21", "B22", "i1", "i2", "j1", "j2"):
                assert getattr(d2, name) == getattr(d, name)

    def test_round_trip_after_middle_basis_change(self):
        rng = random.Random(11)
        for shape, seed in [((2, 1), 0), ((2, 2), 1), ((3, 1), 2)]:
            d = random_stable_solution(shape[0], shape[1], seed)
            m = build_monad(d)
            n = 2 * d.c + d.r
            g = random_invertible(n, rng)
            ginv = g.solve(Matrix.identity(n, ONE, Z))
            alpha2 = {v: g * m.alpha[v] for v in VARS}
            beta2 = {v: m.beta[v] * ginv for v in VARS}
            d2 = normalize_monad(alpha2, beta2)
            pair = find_intertwiner(d2, d, seed=seed)
            assert pair is not None
            gv, gw = pair
            for bn, bo in [(d2.B11, d.B11), (d2.B12, d.B12),
                           (d2.B21, d.B21), (d2.B22, d.B22)]:
                assert bn * gv == gv * bo
            assert d2.i1 * gw == gv * d.i1
            assert d2.i2 * gw == gv * d.i2
            assert d2.j1 * gv == gw * d.j1
            assert d2.j2 * gv == gw * d.j2

    def test_degenerate_at_infinity_rejected(self):
        # alpha = (z, w, 0, 0)^T, beta = (-w, z, x, y): a monad, but the x/y
        # coefficient blocks do not pair invertibly
        zero41 = Matrix.zero(4, 1, Z)
        alpha = {"x": zero41, "y": zero41, "z": gm([[1], [0], [0], [0]]),
                 "w": gm([[0], [1], [0], [0]])}
        beta = {"x": gm([[0, 0, 1, 0]]), "y": gm([[0, 0, 0, 1]]),
                "z": gm([[0, 1, 0, 0]]), "w": gm([[-1, 0, 0, 0]])}
        with pytest.raises(ADHMError, match="degenerate at infinity"):
            normalize_monad(alpha, beta)

    def test_non_monad_rejected(self):
        m = build_monad(stable_not_semiregular())
        alpha = {**m.alpha, "x": gm([[1], [1], [0], [0]])}
        with pytest.raises(ADHMError, match="not a monad"):
            normalize_monad(alpha, m.beta)

    def test_recovered_datum_solves_equations(self):
        from qadhm.exactcore import is_complex_solution
        d = random_stable_solution(3, 1, 4)
        m = build_monad(d)
        rng = random.Random(3)
        g = random_invertible(2 * d.c + d.r, rng)
        ginv = g.solve(Matrix.identity(2 * d.c + d.r, ONE, Z))
        alpha2 = {v: g * m.alpha[v] for v in VARS}
        beta2 = {v: m.beta[v] * ginv for v in VARS}
        assert is_complex_solution(normalize_monad(alpha2, beta2))


def old_intertwiner(d_new, d_old, seed=0, attempts=64):
    """find_intertwiner as its row builder wrote it, equation by equation:
    a test-local oracle.  Returns (system matrix, result)."""
    c, r = d_old.c, d_old.r
    nv, nw = c * c, r * r
    rows = []

    def row(gv_coeff, gw_coeff):
        vec = [Z] * (nv + nw)
        for (a, b), s in gv_coeff.items():
            vec[a * c + b] = vec[a * c + b] + s
        for (a, b), s in gw_coeff.items():
            vec[nv + a * r + b] = vec[nv + a * r + b] + s
        rows.append(vec)

    pairs = [(d_new.B11, d_old.B11), (d_new.B12, d_old.B12),
             (d_new.B21, d_old.B21), (d_new.B22, d_old.B22)]
    for bn, bo in pairs:
        for u in range(c):
            for v in range(c):
                coeff = {}
                for k in range(c):
                    coeff[(k, v)] = coeff.get((k, v), Z) + bn[u, k]
                    coeff[(u, k)] = coeff.get((u, k), Z) - bo[k, v]
                row(coeff, {})
    for inew, iold in [(d_new.i1, d_old.i1), (d_new.i2, d_old.i2)]:
        for u in range(c):
            for v in range(r):
                gw = {(k, v): inew[u, k] for k in range(r)}
                gv = {(u, k): -iold[k, v] for k in range(c)}
                row(gv, gw)
    for jnew, jold in [(d_new.j1, d_old.j1), (d_new.j2, d_old.j2)]:
        for u in range(r):
            for v in range(c):
                gv = {(k, v): jnew[u, k] for k in range(c)}
                gw = {(u, k): -jold[k, v] for k in range(r)}
                row(gv, gw)

    system = Matrix(len(rows), nv + nw, rows)
    ker = system.kernel()
    if ker.cols == 0:
        return system, None
    rng = random.Random(seed)
    for _ in range(attempts):
        coefs = [small_gauss(rng, 3, False)
                 for _ in range(ker.cols)]
        vec = [Z] * (nv + nw)
        for t in range(ker.cols):
            for k in range(nv + nw):
                vec[k] = vec[k] + coefs[t] * ker[k, t]
        gv = Matrix(c, c, [[vec[a * c + b] for b in range(c)]
                           for a in range(c)])
        gw = Matrix(r, r, [[vec[nv + a * r + b] for b in range(r)]
                           for a in range(r)])
        if gv.rank() == c and gw.rank() == r:
            return system, (gv, gw)
    return system, None


def moved_datum(d, gv, gw):
    """(gV, gW) . d = (gV B gV^-1, gV i gW^-1, gW j gV^-1)."""
    gvi = gv.solve(Matrix.identity(d.c, ONE, Z))
    gwi = gw.solve(Matrix.identity(d.r, ONE, Z))
    return ComplexADHMDatum(
        d.c, d.r, gv * d.B11 * gvi, gv * d.B12 * gvi, gv * d.B21 * gvi,
        gv * d.B22 * gvi, gv * d.i1 * gwi, gv * d.i2 * gwi,
        gw * d.j1 * gvi, gw * d.j2 * gvi)


class TestIntertwinerSystem:
    """find_intertwiner builds its system from Kronecker blocks; the
    system equals the old row builder's entry for entry, and the sampled
    (gV, gW) is the same for the same seed."""

    @pytest.mark.parametrize("r,c", [(1, 1), (2, 1), (2, 3), (3, 2)])
    def test_matches_old_row_builder(self, r, c, monkeypatch):
        rng = random.Random(100 * r + c)
        for seed in range(3):
            d = random_complex_datum(r, c, seed)
            moved = moved_datum(d, random_invertible(c, rng),
                                random_invertible(r, rng))
            cases = [(moved, d), (d, d),
                     (random_complex_datum(r, c, seed + 7), d)]
            if r >= 2:
                s = random_stable_solution(r, c, seed)
                cases.append((moved_datum(s, random_invertible(c, rng),
                                          random_invertible(r, rng)), s))
            for d_new, d_old in cases:
                built, pair = first_matrix_of(
                    monkeypatch, "kernel",
                    lambda: find_intertwiner(d_new, d_old, seed=seed))
                old_system, old_pair = old_intertwiner(d_new, d_old, seed)
                assert built == old_system
                assert pair == old_pair
            assert find_intertwiner(moved, d, seed=seed) is not None


class TestChern:
    def test_character_of_monad(self):
        ch = chern_of_monad(2, 1)
        assert ch == ChernClass(2, 0, -1, 0)
        assert str(ch) == "2 - H^2"
        assert chern_of_monad(1, 0) == ChernClass(1)
        assert chern_of_monad(0, 3) == ChernClass(0, 0, -3, 0)

    def test_line_characteristics(self):
        assert chi_line(0) == 1
        assert chi_line(-1) == 0
        assert chi_line(-2) == 0
        assert chi_line(-3) == 0
        assert chi_line(-4) == -1
        assert chi_line(1) == 4
        for k in range(-6, 7):
            assert chi_line(k) == Fraction((k + 1) * (k + 2) * (k + 3), 6)

    def test_twist_examples(self):
        assert chi_twist(2, 1, -1) == -1
        for r in range(5):
            for c in range(5):
                assert chi_twist(r, c, -1) == -c
                assert chi_twist(r, c, -2) == 0
                assert chi_twist(r, c, -3) == c
                assert chi_twist(r, 0, 0) == r if c == 0 else True
        assert chi_twist(3, 0, 0) == 3

    def test_twist_closed_form(self):
        # chi(E(k)) = r*chi(O(k)) - c*(k+2)
        for r in range(5):
            for c in range(5):
                for k in range(-4, 5):
                    assert chi_twist(r, c, k) == r * chi_line(k) - c * (k + 2)

    def test_chern_arithmetic(self):
        h = ChernClass(0, 1, 0, 0)
        assert h * h == ChernClass(0, 0, 1, 0)
        assert h * h * h == ChernClass(0, 0, 0, 1)
        assert (h * h * h * h) == ChernClass()  # truncated at H^4
        e = ChernClass.line(1)
        assert e * ChernClass.line(-1) == ChernClass(1)
        assert ChernClass.line(0) == ChernClass(1)
        assert ChernClass(1).chi() == 1  # chi(O) = 1
        assert (ChernClass.line(-4) * ChernClass.line(2)
                == ChernClass.line(-2))

    def test_chi_via_todd_matches_line_formula(self):
        for k in range(-5, 6):
            assert ChernClass.line(k).chi() == chi_line(k)

    def test_twist_equals_the_todd_route(self):
        # chi(E(k)) by additivity over the monad terms against
        # ch(E)*ch(O(k))*td.  Both are polynomials of degree <= 1 in r, <= 1
        # in c and <= 3 in k, so agreeing on 2 x 2 x 4 points makes them
        # equal everywhere.
        for r in (1, 2):
            for c in (1, 2):
                for k in range(-3, 1):
                    todd = (chern_of_monad(r, c) * ChernClass.line(k)).chi()
                    assert chi_twist(r, c, k) == todd
                    assert type(chi_twist(r, c, k)) is int


class TestAppendixSuite:
    def test_two_one_values_and_quotes(self):
        rep = appendix_b_suite(2, 1)
        assert rep["chi_E_minus1"]["value"] == -1
        assert rep["chi_E_cotangent"]["value"] == -4
        assert rep["chi_E_two_forms_1"]["value"] == -1
        assert rep["chi_E_minus1"]["quoted"] == -1
        assert rep["chi_E_cotangent"]["quoted"] == -5
        assert rep["chi_E_two_forms_1"]["quoted"] == -1
        assert rep["chi_E_minus1"]["match"]
        assert not rep["chi_E_cotangent"]["match"]
        assert rep["chi_E_two_forms_1"]["match"]

    def test_cotangent_character(self):
        rep = appendix_b_suite(2, 1)
        assert rep["ch_cotangent"]["value"] == ChernClass(3, -4, 2,
                                                          Fraction(-2, 3))
        assert rep["ch_cotangent"]["quoted"] == ChernClass(3, -4, 2,
                                                           Fraction(2, 3))
        assert not rep["ch_cotangent"]["match"]
        # the quoted character is not even consistent with the quoted chi
        assert rep["chi_E_cotangent"]["quoted_ch_route"] == Fraction(-4, 3)

    def test_classical_cotangent_characteristic(self):
        # for (r, c) = (1, 0) the sheaf is O, so the middle value is the
        # Euler characteristic of the cotangent sheaf itself: -1
        rep = appendix_b_suite(1, 0)
        assert rep["chi_E_cotangent"]["value"] == -1
        assert rep["chi_E_cotangent"]["quoted"] == -2

    def test_middle_value_general_shape(self):
        for r in range(5):
            for c in range(5):
                rep = appendix_b_suite(r, c)
                assert rep["chi_E_cotangent"]["value"] == -(2 * c + r)
                assert rep["chi_E_cotangent"]["quoted"] == -(c + 2 * r)
                assert rep["chi_E_cotangent"]["match"] == (r == c)
                assert rep["chi_E_minus1"]["match"]
                assert rep["chi_E_two_forms_1"]["match"]

    def test_ideal_sheaf_obstruction(self):
        rep = appendix_b_suite(1, 1)
        assert rep["ideal_sheaf"]["ch_ideal_2c_lines"] == ChernClass(1, 0, -2, 2)
        assert rep["ideal_sheaf"]["ch_rank_one_monad"] == ChernClass(1, 0, -1, 0)
        assert rep["ideal_sheaf"]["difference"] == ChernClass(0, 0, -1, 2)
        assert rep["ideal_sheaf"]["obstructed"]
        assert not appendix_b_suite(1, 0)["ideal_sheaf"]["obstructed"]

    def test_suite_serializes(self):
        blob = json.dumps(suite_to_json(appendix_b_suite(2, 1)),
                          sort_keys=True)
        assert "-4" in blob and "-5" in blob


class TestJSON:
    def test_classification_json(self):
        obj = classify_sheaf(semiregular_not_regular())
        assert obj["kind"] == "reflexive"
        locus = obj["singular_locus"]
        assert locus["dimension"] == 0
        assert locus["over"] == [{"z": "0/1", "w": "1/1"}]
        assert locus["over_factors"] == []
        assert "joint eigenvector" in locus["method"]
        json.dumps(obj)
        locus = classify_sheaf(stable_not_semiregular())["singular_locus"]
        assert locus["dimension"] == 1 and locus["over"] is None
