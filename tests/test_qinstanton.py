"""Tests for module operators, truncated slices, curvature and projection."""

import json
import random
from fractions import Fraction

import pytest

from qadhm.adhm import random_stable_solution
from qadhm.real import embed_real
from qadhm.slices import pencil_grid
from qadhm.datum import (
    ComplexADHMDatum,
    RealADHMDatum,
    complex_residuals,
    is_complex_solution,
)
from qadhm.exactcore import Matrix
from qadhm.qcalculus import derive_table
from qadhm.qforms import NCForm
from qadhm.qinstanton import (QInstantonError, build_q_ops, curvature_asd,
                              curvature_report_json, identity_products,
                              ids_report, scalar_operator, truncated_matrix)
from qadhm.qspacetime import NCPoly, det_x, monomials_of_degree
from qadhm.echelon import QRat
from qadhm.scalars import GaussRational, QLaurent

from helpers import (_sparse_containment, alpha_slice_report,
                     matrix_from_rows, random_c1r1_solution,
                     random_complex_datum, slice_rank_grid, slice_rank_report)
from statements import (beta_p_alpha_q, chart_j_pattern, kernel_slice_basis,
                        left_mul, projection_truncated, xi_leading,
                        xi_operator)

Z = GaussRational(0)
ONE = GaussRational(1)
ZMONO = (0, 0, 0, 0)
I = GaussRational(0, 1)


def gp(chart, name):
    return NCPoly.gen(chart, name)


def const(chart, v):
    return NCPoly.scalar(chart, GaussRational(v))


def one_instanton():
    """Regular c=1, r=2 datum: the doubled form of i=(1,0), j=(0,1)^T."""
    return embed_real(RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]],
                                    [[0], [1]]))


def stable_not_semiregular():
    """c=1, r=2: zero B's, i-rows the coordinate vectors, j = 0."""
    return ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0]], [[0, 1]], [[0], [0]], [[0], [0]])


def zero_b_solution(s=2):
    """c=1, r=2 solution with zero B's and nonzero j (all products vanish
    except i1 j2 = s = -i2 j1)."""
    return ComplexADHMDatum(1, 2, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0]], [[0, 1]], [[0], [-s]], [[s], [0]])


def dual_costable_solution(r, c, seed):
    """Transpose of a commuting-shift stable solution: i = 0, j = i^T."""
    d = random_stable_solution(r, c, seed)
    zero_i = Matrix.zero(c, r, Z)
    return ComplexADHMDatum(c, r,
                            d.B11.transpose(), d.B12.transpose(),
                            d.B21.transpose(), d.B22.transpose(),
                            zero_i, zero_i,
                            d.i1.transpose(), d.i2.transpose())


def s_singular_regular():
    """Regular c=1, r=4 solution whose i-rows are orthogonal to the
    j-columns, so the constant part of Xi vanishes."""
    return ComplexADHMDatum(1, 4, [[0]], [[0]], [[0]], [[0]],
                            [[1, 0, 0, 0]], [[0, 1, 0, 0]],
                            [[0], [0], [1], [0]], [[0], [0], [0], [1]])


def wform(table, coeffs):
    """Constant-coefficient 2-form from {generator-index pair: scalar}."""
    return NCForm(table, 2, {(w, ZMONO): QRat(c) for w, c in coeffs.items()})


def max_degree(op):
    """Largest total degree among the entries of an operator."""
    return max(p.degree() for row in op.a for p in row)


def column(*polys):
    return matrix_from_rows([[p] for p in polys])


class TestModuleOperator:
    """Module operators are Matrixes of chart polynomials."""

    def test_algebra(self):
        x11 = gp("I", "x11")
        a = matrix_from_rows([[x11, const("I", 1)]])
        b = matrix_from_rows([[const("I", 2), x11]])
        s = a + b
        assert s[0, 0] == x11 + const("I", 2)
        assert (s - b) == a
        assert a.scale(GaussRational(3))[0, 1] == const("I", 3)
        assert (-a)[0, 0] == x11.scale(GaussRational(-1))

    def test_composition_and_apply(self):
        x11, x12 = gp("I", "x11"), gp("I", "x12")
        row = matrix_from_rows([[x11, x12]])
        col = column(x12, x11)
        prod = row * col
        assert prod.rows == prod.cols == 1
        assert prod[0, 0] == x11 * x12 + x12 * x11
        with pytest.raises(ValueError, match="mismatch"):
            row * column(x11)
        with pytest.raises(ValueError, match="mismatch"):
            col * col

    def test_chart_j_product(self):
        # Entries of a product start at their first term: a chart-I zero
        # as the start would refuse to add a chart-J product.
        y11, y12 = gp("J", "y11"), gp("J", "y12")
        prod = matrix_from_rows([[y11]]) * matrix_from_rows([[y12]])
        assert prod[0, 0] == y11 * y12
        assert str(prod[0, 0]) == "1/1*y11*y12"

    def test_metrics_and_json(self):
        d = stable_not_semiregular()
        a1 = build_q_ops(d)[0]
        assert max_degree(a1) == 1
        assert sum(len(p.terms) for row in a1.a for p in row) == 2
        blob = a1.to_json()
        assert len(blob) == 4 and all(len(row) == 1 for row in blob)
        assert all(isinstance(s, str) for row in blob for s in row)
        json.dumps(blob)

    def test_scalar_operator_embeds_exactly(self):
        m = matrix_from_rows([[ONE, Z], [Z, GaussRational(-2)]])
        op = scalar_operator(m)
        assert max_degree(op) == 0
        assert op[0, 0] == const("I", 1)
        assert op[1, 1] == const("I", -2)
        assert op[0, 1].is_zero()


class TestBuildOps:
    def test_shapes_and_degrees(self):
        for r, c in [(2, 1), (2, 2), (3, 1)]:
            d = random_stable_solution(r, c, 0)
            a1, a2, b1, b2 = build_q_ops(d)
            for a in (a1, a2):
                assert (a.rows, a.cols) == (2 * c + r, c)
                assert max_degree(a) == 1
            for b in (b1, b2):
                assert (b.rows, b.cols) == (c, 2 * c + r)
                assert max_degree(b) == 1

    def test_zero_b_chart_i_entries(self):
        d = stable_not_semiregular()
        a1, a2, b1, b2 = build_q_ops(d, "I")
        neg = GaussRational(-1)
        assert [a1[k, 0] for k in range(4)] == [
            gp("I", "x11").scale(neg), gp("I", "x12").scale(neg),
            NCPoly.zero("I"), NCPoly.zero("I")]
        assert [a2[k, 0] for k in range(4)] == [
            gp("I", "x21").scale(neg), gp("I", "x22").scale(neg),
            NCPoly.zero("I"), NCPoly.zero("I")]
        assert [b1[0, k] for k in range(4)] == [
            gp("I", "x12"), gp("I", "x11").scale(neg),
            const("I", 1), NCPoly.zero("I")]
        assert [b2[0, k] for k in range(4)] == [
            gp("I", "x22"), gp("I", "x21").scale(neg),
            NCPoly.zero("I"), const("I", 1)]

    def test_zero_b_chart_j_entries(self):
        d = stable_not_semiregular()
        a1, a2, b1, b2 = build_q_ops(d, "J")
        neg = GaussRational(-1)
        assert a1[0, 0] == gp("J", "y22").scale(neg)
        assert a1[1, 0] == gp("J", "y12")
        assert a2[0, 0] == gp("J", "y21")
        assert a2[1, 0] == gp("J", "y11").scale(neg)
        assert b1[0, 0] == gp("J", "y12").scale(neg)
        assert b1[0, 1] == gp("J", "y22").scale(neg)
        assert b2[0, 0] == gp("J", "y11")
        assert b2[0, 1] == gp("J", "y21")
        assert b1[0, 2] == const("J", 1)

    def test_unknown_chart_rejected(self):
        with pytest.raises(QInstantonError, match="unknown chart"):
            build_q_ops(stable_not_semiregular(), "K")


def ids_hold(d, chart="I"):
    """True when all three operator identities hold in normal form; each
    product must normalize to the constant embedding of its residual."""
    prods = identity_products(d, chart)
    for key, r in zip(("b1a1", "b2a2", "mixed"), complex_residuals(d)):
        assert prods[key] == scalar_operator(r, chart)
    return ids_report(d, chart)["all_zero"]


class TestVerifyIds:
    def test_solutions_verify_on_both_charts(self):
        for r, c in [(2, 1), (2, 2), (3, 1)]:
            for seed in range(4):
                d = random_stable_solution(r, c, seed)
                assert ids_hold(d, "I")
                assert ids_hold(d, "J")

    def test_special_solutions(self):
        for d in (one_instanton(), zero_b_solution(), s_singular_regular(),
                  dual_costable_solution(2, 2, 1)):
            assert ids_hold(d, "I") and ids_hold(d, "J")

    def test_zero_datum_verifies(self):
        d = ComplexADHMDatum(1, 1, [[0]], [[0]], [[0]], [[0]],
                             [[0]], [[0]], [[0]], [[0]])
        assert ids_hold(d)

    def test_equivalence_with_residuals(self):
        for seed in range(10):
            d = random_complex_datum(2, 2, seed)
            for chart in ("I", "J"):
                assert ids_hold(d, chart) == is_complex_solution(d)

    def test_products_reduce_to_residual_embeddings(self):
        # beta_1 alpha_1, beta_2 alpha_2 and the mixed sum normalize to the
        # constant embeddings of the residuals for every datum.
        for seed in range(6):
            d = random_complex_datum(2, 2, seed)
            r1, r2, r3 = complex_residuals(d)
            for chart in ("I", "J"):
                prods = identity_products(d, chart)
                assert prods["b1a1"] == scalar_operator(r1, chart)
                assert prods["b2a2"] == scalar_operator(r2, chart)
                assert prods["mixed"] == scalar_operator(r3, chart)

    def test_single_equation_failures_isolated(self):
        d = stable_not_semiregular()
        bad = ComplexADHMDatum(1, 2, d.B11, d.B12, d.B21, d.B22,
                               d.i1, d.i2, [[1], [0]], d.j2)
        rep = ids_report(bad)
        assert not rep["solution"]
        assert not rep["identities"]["b1a1"]["is_zero"]
        assert rep["identities"]["b2a2"]["is_zero"]
        assert not rep["all_zero"]

    def test_report_for_solution(self):
        rep = ids_report(one_instanton(), "J")
        assert rep["chart"] == "J"
        assert rep["solution"] and rep["all_zero"]
        assert all(v["terms"] == 0 for v in rep["identities"].values())


class TestPencilProducts:
    def test_parallel_pencils_annihilate(self):
        d = one_instanton()
        assert beta_p_alpha_q(d, (1, 2), (1, 2)).is_zero()
        assert beta_p_alpha_q(d, (2, -3), (-4, 6)).is_zero()

    def test_standard_pair_gives_xi(self):
        d = random_stable_solution(2, 2, 3)
        xi = xi_operator(d)
        assert beta_p_alpha_q(d, (1, 0), (0, 1)) == xi
        assert beta_p_alpha_q(d, (1, 1), (1, -1)) == xi.scale(GaussRational(-2))

    def test_exact_scalar_parameters(self):
        d = one_instanton()
        xi = xi_operator(d)
        p = (Fraction(1, 2), 0)
        q = (0, I)
        factor = GaussRational(Fraction(1, 2)) * I
        assert beta_p_alpha_q(d, p, q) == xi.scale(factor)

    def test_collapse_needs_a_solution(self):
        d = random_complex_datum(2, 1, 0)
        assert not is_complex_solution(d)
        with pytest.raises(QInstantonError, match="solutions"):
            beta_p_alpha_q(d, (1, 0), (0, 1))

    def test_zero_parameters_rejected(self):
        d = one_instanton()
        with pytest.raises(QInstantonError, match="vanish"):
            beta_p_alpha_q(d, (0, 0), (0, 1))
        with pytest.raises(QInstantonError, match="vanish"):
            beta_p_alpha_q(d, (1, 0), (0, 0))
        with pytest.raises(QInstantonError, match="exact rational"):
            beta_p_alpha_q(d, (0.5, 1), (0, 1))


class TestXi:
    def test_leading_term_is_det(self):
        for r, c in [(2, 1), (2, 2), (3, 1)]:
            d = random_stable_solution(r, c, 1)
            assert xi_leading(d)
        assert xi_leading(one_instanton())

    def test_zero_b_xi_is_det_plus_constant(self):
        d = zero_b_solution(2)
        xi = xi_operator(d)
        assert xi.rows == xi.cols == 1
        assert xi[0, 0] == det_x() + NCPoly.scalar("I", (d.i1 * d.j2)[0, 0])

    def test_degree_two(self):
        assert max_degree(xi_operator(random_stable_solution(2, 2, 2))) == 2


class TestTruncatedSlices:
    P_SET = [(1, 0), (0, 1), (1, 1), (1, -1), (1, I)]

    def test_stable_data_surjective_on_grid(self):
        for r, c in [(2, 1), (2, 2), (3, 1)]:
            d = random_stable_solution(r, c, 0)
            for P in self.P_SET:
                for dmax in (0, 2):
                    rep = slice_rank_report(d, P, dmax)
                    assert rep["surjective"]
                    assert rep["covered_dim"] == rep["slice_dim"]

    def test_stable_not_semiregular_surjective(self):
        d = stable_not_semiregular()
        for P in self.P_SET:
            assert slice_rank_report(d, P, 3)["surjective"]

    def test_c1r1_fails_at_the_pencil_root(self):
        # For c=1, r=1 the W block of beta_P is the scalar p1 i1 + p2 i2,
        # which vanishes at one point of the parameter line; at that point
        # no slice element is reachable without a generator tail.
        for seed in (0, 1, 5):
            d = random_c1r1_solution(seed)
            root = (d.i2[0, 0], -d.i1[0, 0])
            rep0 = slice_rank_report(d, root, 0)
            assert not rep0["surjective"]
            assert rep0["covered_dim"] == 0 and rep0["slice_dim"] == 1
            rep1 = slice_rank_report(d, root, 1)
            assert not rep1["surjective"]
            assert rep1["covered_dim"] < rep1["slice_dim"] == 5

    def test_c1r1_surjective_away_from_root(self):
        d = random_c1r1_solution(0)
        for P in self.P_SET:
            p1 = P[0] if isinstance(P[0], GaussRational) else GaussRational(P[0])
            p2 = P[1] if isinstance(P[1], GaussRational) else GaussRational(P[1])
            i_tilde = d.i1.scale(p1) + d.i2.scale(p2)
            if i_tilde[0, 0]:
                assert slice_rank_report(d, P, 2)["surjective"]

    def test_fast_path_agrees_with_echelon(self):
        # The constant-block certificate and the exact containment echelon
        # must answer alike where both apply.
        from qadhm.qinstanton import _slice_rows
        d = random_c1r1_solution(0)
        a1, a2, b1, b2 = build_q_ops(d)
        bp = b1  # P = (1, 0); i~(P) = i1 is nonzero for this family
        assert d.i1[0, 0]
        rank, missed = _sparse_containment(*_slice_rows(bp, 1, 2), bp.cols)
        assert missed == 0
        assert slice_rank_report(d, (1, 0), 1)["surjective"]

    def test_sparse_containment_matches_dense_ranks(self):
        # image_rank = rank(A) and missed = rank([A|E]) - rank(A), where A
        # is the truncated image matrix and E embeds the degree <= dmax
        # slice into the degree <= dmax+1 target.
        from qadhm.qinstanton import _slice_rows
        c1r1 = random_c1r1_solution(0)
        cases = [(c1r1, (c1r1.i2[0, 0], -c1r1.i1[0, 0])),
                 (random_stable_solution(2, 3, 0), (ONE, Z))]
        dmax = 1
        n_s = len([m for k in range(dmax + 1) for m in monomials_of_degree(k)])
        for d, P in cases:
            a1, a2, b1, b2 = build_q_ops(d)
            bp = b1.scale(P[0]) + b2.scale(P[1])
            a = truncated_matrix(bp, dmax, dmax + 1)
            n_t = a.rows // bp.rows
            zero, one = QLaurent.zero(), QLaurent.one()
            e = Matrix.zero(a.rows, bp.rows * n_s, zero)
            for v in range(bp.rows):
                for k in range(n_s):
                    e.a[v * n_t + k][v * n_s + k] = one
            rank_a = a.rank()
            missed = Matrix.hstack([a, e]).rank() - rank_a
            rows = _slice_rows(bp, dmax, dmax + 1)
            assert _sparse_containment(*rows, bp.cols) == (rank_a, missed)
            assert missed > 0

    def test_degree_zero_slice_reads_the_constant_block(self):
        # At dmax = 0 coverage is exactly the rank of i~(P): generator
        # coefficients of the source must vanish, leaving only the W block.
        for seed in range(4):
            d = random_complex_datum(2, 2, seed)
            for P in [(1, 0), (1, 1)]:
                i_tilde = d.i1.scale(GaussRational(P[0])) \
                    + d.i2.scale(GaussRational(P[1]))
                expect = i_tilde.rank() == d.c
                assert slice_rank_report(d, P, 0)["surjective"] == expect

    def test_report_fields(self):
        d = random_stable_solution(2, 1, 0)
        rep = slice_rank_report(d, (1, I), 2)
        assert rep["chart"] == "I"
        assert rep["P"] == [str(GaussRational(1)), str(I)]
        assert rep["dmax"] == 2
        assert rep["source_dim"] == 4 * 15 and rep["slice_dim"] == 15
        assert rep["method"].startswith("constant W-block")
        json.dumps(rep)

    def test_zero_parameters_rejected(self):
        d = one_instanton()
        with pytest.raises(QInstantonError, match="vanish"):
            slice_rank_report(d, (0, 0), 1)
        with pytest.raises(QInstantonError, match="nonnegative"):
            slice_rank_report(d, (1, 0), -1)


def per_point_slice_report(d, P, dmax):
    """The slice report as computed one point at a time: the operators
    rebuilt for the point, beta_P = p1 beta_1 + p2 beta_2 formed as an
    operator, and the containment decided by dense ranks over Q(i)(q)
    (Matrix.rank lifts the Laurent entries to QRat)."""
    p1, p2 = (v if isinstance(v, GaussRational) else GaussRational(v)
              for v in P)
    _, _, b1, b2 = build_q_ops(d)
    bp = b1.scale(p1) + b2.scale(p2)
    n = len([m for k in range(dmax + 1) for m in monomials_of_degree(k)])
    report = {"chart": "I", "P": [str(p1), str(p2)], "dmax": dmax,
              "source_dim": bp.cols * n, "slice_dim": d.c * n}
    if (d.i1.scale(p1) + d.i2.scale(p2)).rank() == d.c:
        report.update(image_rank=None, covered_dim=d.c * n, surjective=True,
                      method="constant W-block i~(P) is onto V")
        return report
    a = truncated_matrix(bp, dmax, dmax + 1)
    n_t = a.rows // d.c
    e = Matrix.zero(a.rows, d.c * n, QLaurent.zero())
    for v in range(d.c):
        for k in range(n):
            e.a[v * n_t + k][v * n + k] = QLaurent.one()
    rank_a = a.rank()
    missed = Matrix.hstack([a, e]).rank() - rank_a
    report.update(image_rank=rank_a, covered_dim=d.c * n - missed,
                  surjective=missed == 0,
                  method="exact sparse echelon over the rational function "
                         "field")
    return report


class TestSliceGrid:
    def test_grid_matches_the_per_point_reports(self):
        # Grids of 1, 2 and 12 points cover P = (1, 0), (0, 1) and (1, t).
        for r, c, seed in [(2, 2, 1), (2, 3, 1), (3, 3, 1)]:
            d = random_stable_solution(r, c, seed)
            for dmax in range(3):
                pts = pencil_grid(12)
                want = [per_point_slice_report(d, P, dmax) for P in pts]
                for size in (1, 2, 12):
                    got = slice_rank_grid(d, pencil_grid(size), dmax)
                    assert json.dumps(got, sort_keys=True) \
                        == json.dumps(want[:size], sort_keys=True)
                if c > r:
                    assert all(rep["image_rank"] is not None for rep in want)

    def test_one_point_report_is_the_grid_of_that_point(self):
        d = random_stable_solution(2, 3, 2)
        pts = pencil_grid(4)
        assert slice_rank_grid(d, pts, 1) \
            == [slice_rank_report(d, P, 1) for P in pts]
        with pytest.raises(QInstantonError, match="vanish"):
            slice_rank_grid(d, [(1, 0), (0, 0)], 1)

    def test_slices_command_builds_no_qrat(self, tmp_path, capsys,
                                           monkeypatch):
        # The command decides every point from the Krylov closure over
        # Q(i): it builds no operator, no QRat and takes no Laurent gcd,
        # and on (2,3) data every point is certified at depth 1.
        import qadhm.qinstanton as qinstanton
        import qadhm.echelon as echelon
        from qadhm.cli import run
        calls = {"QRat": 0, "_ql_gcd": 0, "build_q_ops": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(echelon.QRat, "__init__",
                            counted("QRat", echelon.QRat.__init__))
        monkeypatch.setattr(echelon, "_ql_gcd",
                            counted("_ql_gcd", echelon._ql_gcd))
        monkeypatch.setattr(qinstanton, "build_q_ops",
                            counted("build_q_ops", qinstanton.build_q_ops))
        for seed in range(3):
            f = tmp_path / f"d{seed}.json"
            f.write_text(json.dumps(random_stable_solution(2, 3, seed)
                                    .to_json()), encoding="utf-8")
            assert run(["inst", "slices", str(f), "--dmax", "1"]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert len(rep["reports"]) == 12
            assert all((r["verdict"], r["depth"]) == ("certified", 1)
                       for r in rep["reports"])
        assert calls == {"QRat": 0, "_ql_gcd": 0, "build_q_ops": 0}


class TestAlphaSlices:
    def test_costable_and_stable_data_injective(self):
        for d in (dual_costable_solution(2, 1, 0),
                  dual_costable_solution(2, 2, 1),
                  random_stable_solution(2, 2, 0),
                  one_instanton()):
            for Q in [(1, 0), (0, 1), (1, -1)]:
                assert alpha_slice_report(d, Q, 2)["injective"]

    def test_report_fields(self):
        d = dual_costable_solution(2, 1, 0)
        rep = alpha_slice_report(d, (1, 1), 1)
        assert rep["source_dim"] == 5 and rep["rank"] == 5
        assert rep["injective"]
        assert rep["target_dim"] == 4 * 15
        json.dumps(rep)

    def test_zero_parameters_rejected(self):
        with pytest.raises(QInstantonError, match="vanish"):
            alpha_slice_report(one_instanton(), (0, 0), 1)


class TestKernelSliceBasis:
    def test_one_instanton_dimensions(self):
        d = one_instanton()
        assert [len(kernel_slice_basis(d, k)) for k in range(3)] == [0, 2, 10]

    def test_vectors_annihilated_exactly(self):
        from qadhm.qinstanton import _bars
        d = one_instanton()
        _, bbar = _bars(*build_q_ops(d))
        for vec in kernel_slice_basis(d, 2):
            assert (bbar * column(*vec)).is_zero()
            assert any(not p.is_zero() for p in vec)

    def test_truncated_matrix_shape(self):
        d = one_instanton()
        from qadhm.qinstanton import _bars
        mat = truncated_matrix(_bars(*build_q_ops(d))[1], 1, 2)
        assert (mat.rows, mat.cols) == (2 * 15, 4 * 5)


class TestCurvature:
    def test_exact_block_values(self):
        table = derive_table("q")
        rep = curvature_asd(one_instanton(), "q")
        ent = rep["entries"]
        wn = table.wedge_norm((2, 1))
        one = QLaurent.one()
        two = QLaurent.from_scalar(2)
        q2 = -wn[(1, 2)]
        # (1,1): dx11^dx22 minus the normal form of dx21^dx12
        assert ent[0][0]["computed"] == wform(
            table, {(0, 3): two - q2, (1, 2): q2})
        assert ent[0][1]["computed"] == wform(table, {(0, 2): -two})
        assert ent[1][0]["computed"] == wform(table, {(1, 3): two})
        assert ent[1][1]["computed"] == wform(
            table, {(0, 3): -one, (1, 2): -one})
        for k in range(3):
            assert ent[2][k]["computed"].is_zero()
            assert ent[k][2]["computed"].is_zero()

    def test_p_independent_oracle(self):
        # The (1,1) block is dx11^dx22 - (normal form of dx21^dx12) under
        # either calculus convention.
        for p_choice in ("q", "qinv"):
            table = derive_table(p_choice)
            rep = curvature_asd(one_instanton(), p_choice)
            expected = wform(table, {(0, 3): QLaurent.one()}) \
                - NCForm(table, 2,
                         {(w, ZMONO): QRat(c)
                          for w, c in table.wedge_norm((2, 1)).items()})
            assert rep["entries"][0][0]["computed"] == expected

    def test_verdicts_and_defect_location(self):
        for p_choice in ("q", "qinv"):
            rep = curvature_asd(one_instanton(), p_choice)
            ent = rep["entries"]
            assert ent[0][0]["verdict"] == "mixed"
            assert ent[0][1]["verdict"] == "ASD"
            assert ent[1][0]["verdict"] == "ASD"
            assert ent[1][1]["verdict"] == "ASD"
            assert ent[2][2]["verdict"] == "zero"
            assert not rep["all_asd"]
            assert not rep["matches_quoted"]
            assert not rep["matches_quoted_up_to_sign"]
            assert rep["sign_adjusted_defects"] == [[0, 0]]
            for a in range(3):
                for b in range(3):
                    if (a, b) != (0, 0):
                        assert ent[a][b]["sign_adjusted_match"]
                        assert ent[a][b]["asd_part"] == ent[a][b]["computed"]

    def test_sd_remainder_proportional_to_q2_minus_1(self):
        table = derive_table("q")
        rep = curvature_asd(one_instanton(), "q")
        q2 = -table.wedge_norm((2, 1))[(1, 2)]
        one = QLaurent.one()
        assert rep["entries"][0][0]["sd_part"] == wform(
            table, {(0, 3): one - q2, (1, 2): q2 - one})

    def test_datum_independent(self):
        base = curvature_asd(one_instanton(), "q")["entries"]
        for d in (random_stable_solution(2, 2, 0),
                  random_stable_solution(3, 1, 1),
                  zero_b_solution()):
            ent = curvature_asd(d, "q")["entries"]
            for a in range(3):
                for b in range(3):
                    assert ent[a][b]["computed"] == base[a][b]["computed"]

    def test_requires_solution(self):
        d = random_complex_datum(2, 1, 0)
        with pytest.raises(QInstantonError, match="solution"):
            curvature_asd(d)

    def test_block_sizes_and_json(self):
        d = random_stable_solution(2, 2, 0)
        rep = curvature_asd(d)
        assert rep["block_sizes"] == [2, 2, 2]
        json.dumps(curvature_report_json(rep))

    def test_chart_j_mirror(self):
        for d in (one_instanton(), random_stable_solution(2, 2, 0)):
            pat = chart_j_pattern(d)
            assert pat["alpha_bar"] == [["-dy22", "+dy21"],
                                        ["+dy12", "-dy11"],
                                        ["0", "0"]]
            assert pat["beta_bar"] == [["-dy11", "-dy21", "0"],
                                       ["-dy12", "-dy22", "0"]]
            assert pat["w_blocks_constant"]


class TestProjection:
    def test_fixes_kernel_vectors_exactly(self):
        d = one_instanton()
        table = derive_table("q")
        for vec in kernel_slice_basis(d, 1):
            out = projection_truncated(d, vec, 3)
            for comp, orig in zip(out, vec):
                assert comp == NCForm.from_poly(table, orig)

    def test_kills_image_vectors_exactly(self):
        from qadhm.qinstanton import _bars
        d = one_instanton()
        abar, _ = _bars(*build_q_ops(d))
        v = [NCPoly.scalar("I", GaussRational(3)),
             NCPoly.scalar("I", GaussRational(-2))]
        out = projection_truncated(d, (abar * column(*v)).col(0), 3)
        assert all(f.is_zero() for f in out)

    def test_generic_input_projected_into_kernel_window(self):
        from qadhm.qinstanton import _bars
        d = one_instanton()
        table = derive_table("q")
        _, bbar = _bars(*build_q_ops(d))
        rng = random.Random(7)
        psi = []
        for _ in range(4):
            terms = {}
            for m in [ZMONO] + monomials_of_degree(1):
                coef = rng.randint(-3, 3)
                if coef:
                    terms[m] = QLaurent.from_scalar(coef)
            psi.append(NCPoly("I", terms))
        dmax = 4
        out = projection_truncated(d, psi, dmax)
        for v in range(bbar.rows):
            resid = sum((left_mul(out[a], bbar[v, a])
                         for a in range(bbar.cols)), NCForm(table, 0, {}))
            assert all(sum(m) > dmax for (_, m) in resid.terms)
        again = projection_truncated(d, out, dmax)
        assert all((a - b).is_zero() for a, b in zip(again, out))

    def test_requires_regular_datum(self):
        d = stable_not_semiregular()
        psi = [NCPoly.zero("I")] * 4
        with pytest.raises(QInstantonError, match="regular"):
            projection_truncated(d, psi, 2)

    def test_truncation_insufficient_is_reachable(self):
        # A regular datum whose i-rows are orthogonal to its j-columns makes
        # the constant part of Xi vanish, so constants have no capped
        # preimage under the window solve.
        d = s_singular_regular()
        psi = [NCPoly.scalar("I", ONE)] + [NCPoly.zero("I")] * 5
        with pytest.raises(QInstantonError, match="truncation insufficient"):
            projection_truncated(d, psi, 2)

    def test_wrong_length_rejected(self):
        d = one_instanton()
        with pytest.raises(QInstantonError, match="length"):
            projection_truncated(d, [NCPoly.zero("I")] * 3, 2)


class TestOperatorsBuiltOnce:
    def test_one_build_per_call(self, monkeypatch):
        # alpha-bar, beta-bar and Xi all come from a single build_q_ops
        import qadhm.qinstanton as qinstanton
        import statements
        calls = []
        build = qinstanton.build_q_ops

        def spy(*args):
            calls.append(args)
            return build(*args)
        for module in (qinstanton, statements):
            monkeypatch.setattr(module, "build_q_ops", spy)
        d = one_instanton()
        vec = kernel_slice_basis(d, 1)[0]
        for run in (lambda: curvature_asd(d), lambda: chart_j_pattern(d),
                    lambda: projection_truncated(d, vec, 2),
                    lambda: kernel_slice_basis(d, 1)):
            calls.clear()
            run()
            assert len(calls) == 1


class TestJSONReports:
    def test_reports_serialize(self):
        d = one_instanton()
        json.dumps(ids_report(d))
        json.dumps(slice_rank_report(d, (1, 0), 1))
        json.dumps(alpha_slice_report(d, (0, 1), 1))
        json.dumps(chart_j_pattern(d))
        json.dumps(curvature_report_json(curvature_asd(d)))
        json.dumps(build_q_ops(d)[0].to_json())
