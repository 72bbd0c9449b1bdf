"""The beta_P verdicts of ``slices.slice_verdict`` and ``inst slices``.

Each certificate is checked against the operators themselves: the basis
words rebuild preimages that ``build_q_ops`` maps to e_v (x) 1 in normal
form, and each refutation's phi = xi (x) chi kills beta_P(e (x) 1) for every
source basis vector e.  The containment echelon over Q(i)(q) in
``tests/helpers.py`` is the oracle for the closure depth.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

import qadhm.krylov as krylov
from qadhm.adhm import (classify, random_nonstable_solution,
                        random_stable_solution)
from qadhm.cli import MAX_DEGREE_CAP, MAX_GRID_SIZE, run
from qadhm.datum import ADHMError, ComplexADHMDatum
from qadhm.exactcore import Matrix
from qadhm.qinstanton import build_q_ops
from qadhm.qspacetime import NCPoly, X_NAMES
from qadhm.scalars import GaussRational, QLaurent, parse_gauss
from qadhm.slices import _charpoly, pencil_grid, slice_line, slice_verdict

from helpers import least_covering_cap, random_c1r1_solution
from test_adhm import proj_equal
from test_qinstanton import dual_costable_solution
from test_qspacetime import random_poly

ROOT = Path(__file__).resolve().parents[1]
ZERO, ONE = GaussRational(0), GaussRational(1)


def beta_p(d, P):
    _, _, b1, b2 = build_q_ops(d)
    return b1.scale(P[0]) + b2.scale(P[1])


def word_preimage(d, P, t, word):
    """(u, pi): u = B~[word] i~ e_t at P, and pi, 2c + r chart-I
    polynomials, a preimage of u (x) 1 built letter by letter from the
    inside: i~w <- w in the W slot; B~2u <- -u in slot 1 plus pi*g2;
    B~1u <- u in slot 2 plus pi*g1."""
    c = d.c
    B1, B2, i, _ = d.evaluate(*P)
    g1 = (NCPoly.gen("I", "x11").scale(P[0])
          + NCPoly.gen("I", "x21").scale(P[1]))
    g2 = (NCPoly.gen("I", "x12").scale(P[0])
          + NCPoly.gen("I", "x22").scale(P[1]))
    u = i.col(t)
    pi = [NCPoly.zero("I")] * (2 * c + d.r)
    pi[2 * c + t] = NCPoly.one("I")
    for letter in reversed(word):
        slot = [NCPoly.scalar("I", x) for x in u]
        if letter == "2":
            pi = [p * g2 for p in pi]
            pi[:c] = [p - s for p, s in zip(pi[:c], slot)]
            u = (B2 * Matrix(c, 1, [[x] for x in u])).col(0)
        else:
            pi = [p * g1 for p in pi]
            pi[c:2 * c] = [p + s for p, s in zip(pi[c:2 * c], slot)]
            u = (B1 * Matrix(c, 1, [[x] for x in u])).col(0)
    return u, pi


def check_certificate(d, P, report):
    """Rebuild pi_v for every e_v from the reported words and check
    beta_P(pi_v) = e_v (x) 1 in normal form, with source degree <= depth."""
    c = d.c
    built = [word_preimage(d, P, t, w) for t, w in report["basis"]]
    basis = Matrix(c, c, [[u[row] for u, _ in built] for row in range(c)])
    # column v of inv gives e_v in the basis
    inv = basis.solve(Matrix.identity(c, ONE, ZERO))
    bp = beta_p(d, P)
    for v in range(c):
        pi = [sum((pis[a].scale(inv[k, v])
                   for k, (_, pis) in enumerate(built)), NCPoly.zero("I"))
              for a in range(bp.cols)]
        assert max((sum(m) for p in pi for m in p.terms), default=0) \
            <= report["depth"]
        image = [sum((bp[w, a] * pi[a] for a in range(bp.cols)
                      if not pi[a].is_zero()), NCPoly.zero("I"))
                 for w in range(c)]
        assert image == [NCPoly.one("I") if w == v else NCPoly.zero("I")
                         for w in range(c)]


def chi_of(report):
    return [parse_gauss(report["witness"]["chi"][g]) for g in X_NAMES]


def evaluate_chi(chi, p):
    """chi(p) for a chart-I polynomial p, in Q(i)[q, q^-1]."""
    out = QLaurent.zero()
    for mono, coeff in p.terms.items():
        val = ONE
        for x, e in zip(chi, mono):
            val = val * x ** e
        out = out + coeff * QLaurent.from_scalar(val)
    return out


def check_refutation(d, P, report):
    """phi = xi (x) chi kills beta_P(e (x) 1) for every source basis vector
    e, and phi(e_v (x) 1) = xi_v is not zero for every v."""
    xi = [parse_gauss(x) for x in report["witness"]["xi"]]
    assert any(xi)
    chi = chi_of(report)
    mu = [parse_gauss(m) for m in report["witness"]["mu"]]
    g1 = P[0] * chi[0] + P[1] * chi[2]
    g2 = P[0] * chi[1] + P[1] * chi[3]
    assert [g1, g2] == mu
    bp = beta_p(d, P)
    for a in range(bp.cols):
        total = QLaurent.zero()
        for v in range(d.c):
            total = total + evaluate_chi(chi, bp[v, a]) \
                * QLaurent.from_scalar(xi[v])
        assert total.is_zero()


def seeded_stable(shapes, seeds=(0, 1)):
    return [random_stable_solution(r, c, s) for r, c in shapes for s in seeds]


class TestCertificates:
    @pytest.mark.parametrize("r,c,depth", [(2, 2, 0), (2, 3, 1), (2, 4, 1),
                                           (3, 3, 0), (2, 8, 3)])
    def test_preimages_map_to_the_unit_vectors(self, r, c, depth):
        d = random_stable_solution(r, c, 0)
        for P in pencil_grid(12):
            rep = slice_verdict(d, P, 2)
            assert (rep["verdict"], rep["depth"]) == ("certified", depth)
            assert rep["surjective"]
            assert rep["covered_dim"] == rep["slice_dim"] == 15 * c
            check_certificate(d, P, rep)


def refuted_cases():
    """(datum, point) for the points where stability fails."""
    cases = [(dual_costable_solution(2, 1, 0), P) for P in pencil_grid(12)]
    cases += [(dual_costable_solution(2, 2, 1), P) for P in pencil_grid(4)]
    for seed in (0, 1):
        d = random_c1r1_solution(seed)
        cases.append((d, (d.i2[0, 0], -d.i1[0, 0])))
    for seed in range(3):
        d, point = random_nonstable_solution(2, 3, seed)
        cases.append((d, point))
    return cases


class TestRefutations:
    @pytest.mark.parametrize("k", range(len(refuted_cases())))
    def test_phi_kills_the_image(self, k):
        d, P = refuted_cases()[k]
        rep = slice_verdict(d, P, 1)
        assert rep["verdict"] == "refuted" and not rep["surjective"]
        assert rep["covered_dim"] < rep["slice_dim"]
        assert "depth" not in rep
        check_refutation(d, P, rep)

    def test_planted_points_have_no_closure(self):
        # i~ vanishes at the planted point, and each B~ has one triple
        # eigenvalue there, which is what the witness records
        for seed in range(3):
            d, P = random_nonstable_solution(2, 3, seed)
            rep = slice_verdict(d, P, 0)
            assert rep["covered_dim"] == 0
            B1, B2, _, _ = d.evaluate(*P)
            assert [parse_gauss(m) for m in rep["witness"]["mu"]] \
                == [B1[0, 0], B2[0, 0]]

    @pytest.mark.parametrize("pole", [0, 1])
    def test_each_plane_is_a_character(self, pole):
        # chi on x21 = x22 = 0 (p1 != 0) and on x11 = x12 = 0 (p1 = 0)
        # respects every product of the chart
        d = dual_costable_solution(2, 1, 0)
        rep = slice_verdict(d, pencil_grid(2)[pole], 0)
        chi = chi_of(rep)
        assert not any(chi[2:] if pole == 0 else chi[:2])
        rng = random.Random(pole)
        for _ in range(20):
            f, g = random_poly(rng), random_poly(rng)
            assert evaluate_chi(chi, f * g) \
                == evaluate_chi(chi, f) * evaluate_chi(chi, g)

    def test_no_witness_is_undecided(self):
        # S = 0, and B~1 and B~2 do not commute on V (this is no
        # solution): B~1 has two eigenvalues, so mu1 = tr/2 admits no xi
        z = [[0, 0], [0, 0]]
        d = ComplexADHMDatum(2, 1, [[1, 0], [0, 2]], [[0, 1], [1, 0]],
                             z, z, [[0], [0]], [[0], [0]], [[0, 0]], [[0, 0]])
        rep = slice_verdict(d, (1, 0), 1)
        assert rep["verdict"] == "undecided" and not rep["surjective"]
        assert "witness" not in rep and rep["covered_dim"] == 0
        assert slice_line(d)["onto_everywhere"] is None


def diagonal_solution(b11, b12):
    """c = 2, r = 1: B11 and B12 as given (they must commute), every other
    block zero, so i~ = 0 and the closure S is 0 at every point."""
    z, col, row = [[0, 0], [0, 0]], [[0], [0]], [[0, 0]]
    return ComplexADHMDatum(2, 1, b11, b12, z, z, col, col, row, row)


class TestEigenvalueWitnesses:
    """codim S = 2 and tr/dim is no eigenvalue: the Q(i) roots of the
    characteristic polynomials of B~1 and B~2 are tried next."""

    def test_distinct_eigenvalues_refuted(self, tmp_path, capsys):
        # mu = (3/2, 7/2) admits no xi; mu = (1, 3) admits xi = e1
        d = diagonal_solution([[1, 0], [0, 2]], [[3, 0], [0, 4]])
        f = write_datum(tmp_path, d)
        code, rep = run_slices(capsys, f, "--grid-size", "2", "--dmax", "1")
        assert code == 1
        first = rep["reports"][0]
        assert first["P"] == ["1/1", "0/1"] and first["verdict"] == "refuted"
        assert [parse_gauss(m) for m in first["witness"]["mu"]] \
            == [ONE, GaussRational(3)]
        check_refutation(d, pencil_grid(2)[0], first)
        assert rep["reports"][1]["verdict"] == "refuted"

    def test_irrational_eigenvalues_undecided(self):
        # B~1 = B~2 has eigenvalues +-sqrt(2): no xi over Q(i)
        m = [[0, 2], [1, 0]]
        rep = slice_verdict(diagonal_solution(m, m), (1, 0), 1)
        assert rep["verdict"] == "undecided" and "witness" not in rep

    def test_characteristic_polynomial(self):
        # monic of degree c, with -trace next, and p(B) = 0 (Cayley-Hamilton)
        rng = random.Random(3)
        for c in (1, 2, 3, 5):
            B = Matrix(c, c, [[GaussRational(rng.randint(-3, 3),
                                             rng.randint(-3, 3))
                               for _ in range(c)] for _ in range(c)])
            p = _charpoly(B)
            assert p.deg() == c and p.coeff(c) == ONE
            assert p.coeff(c - 1) == -sum((B[k, k] for k in range(c)), ZERO)
            value = Matrix.zero(c, c, ZERO)
            for e in range(c, -1, -1):    # Horner
                value = value * B + Matrix.identity(c, p.coeff(e), ZERO)
            assert value.is_zero()


class TestEchelonOracle:
    @pytest.mark.parametrize("d", seeded_stable([(2, 3), (2, 4), (3, 3)]),
                             ids=lambda d: f"{d.r}{d.c}")
    def test_least_covering_cap_is_the_depth(self, d):
        for P in pencil_grid(4):
            depth = slice_verdict(d, P, 0)["depth"]
            assert least_covering_cap(d, P, depth + 1) == depth

    @pytest.mark.parametrize("k", range(len(refuted_cases())))
    def test_no_cap_covers_a_refuted_point(self, k):
        d, P = refuted_cases()[k]
        assert least_covering_cap(d, P, d.c + 1) is None


class TestLine:
    @pytest.mark.parametrize("seed", range(3))
    def test_verdicts_follow_the_taxonomy(self, seed):
        d, planted = random_nonstable_solution(2, 3, seed)
        line = slice_line(d)
        assert line["onto_everywhere"] is False
        points = [(parse_gauss(p["z"]), parse_gauss(p["w"]))
                  for p in line["failing_points"]]
        assert any(proj_equal(planted, p) for p in points)
        rep = classify(d)
        assert line["stability_gcd"] == rep.stability_gcd
        assert points == [pt for side, pt, _ in rep.failing_points
                          if side == "stable"]
        for P in pencil_grid(12) + points:
            failing = any(proj_equal(P, p) for p in points)
            verdict = slice_verdict(d, P, 0)["verdict"]
            assert verdict == ("refuted" if failing else "certified")

    def test_stable_data_are_onto_everywhere(self):
        for d in seeded_stable([(2, 1), (2, 3), (3, 3)]):
            assert slice_line(d) == {
                "onto_everywhere": True, "stability_gcd": "(1/1)*1",
                "failing_points": [], "leftover_factors": []}

    def test_unstable_everywhere(self):
        line = slice_line(dual_costable_solution(2, 2, 1))
        assert line["onto_everywhere"] is False
        assert line["stability_gcd"] == "0" and not line["failing_points"]

    def test_bad_points_and_caps_rejected(self):
        d = random_stable_solution(2, 1, 0)
        with pytest.raises(ADHMError, match="vanish"):
            slice_verdict(d, (0, 0), 1)
        with pytest.raises(ADHMError, match="nonnegative"):
            slice_verdict(d, (1, 0), -1)
        with pytest.raises(ADHMError, match="positive"):
            pencil_grid(0)


def write_datum(tmp_path, d, name="d.json"):
    f = tmp_path / name
    f.write_text(json.dumps(d.to_json()), encoding="utf-8")
    return str(f)


def run_slices(capsys, f, *flags):
    code = run(["inst", "slices", f, *flags])
    return code, json.loads(capsys.readouterr().out)


class TestCommand:
    @pytest.mark.parametrize("dmax", range(MAX_DEGREE_CAP + 1))
    def test_seed_5_datum_certified_at_depth_1(self, dmax, tmp_path, capsys):
        f = write_datum(tmp_path, random_stable_solution(2, 3, 5))
        code, rep = run_slices(capsys, f, "--dmax", str(dmax))
        assert code == 0 and rep["all_surjective"]
        assert all((r["verdict"], r["depth"]) == ("certified", 1)
                   for r in rep["reports"])
        assert rep["line"]["onto_everywhere"] is True

    # the number of candidate columns that ``_closure_basis`` reduces: one
    # closure per grid point and one in the stable-side check, each
    # reducing at most r + 2c candidates against fewer than c columns
    WORST = {(2, 12): 1366, (32, 12): 780}

    @pytest.mark.parametrize("r,c", sorted(WORST))
    def test_worst_admitted_input(self, r, c, tmp_path, capsys, monkeypatch):
        f = write_datum(tmp_path, random_stable_solution(r, c, 1))
        calls = []
        reduce = krylov._reduce

        def counted(echelon, col):
            calls.append(len(echelon))
            return reduce(echelon, col)
        monkeypatch.setattr(krylov, "_reduce", counted)
        code, rep = run_slices(capsys, f, "--dmax", str(MAX_DEGREE_CAP),
                               "--grid-size", str(MAX_GRID_SIZE))
        assert code == 0 and len(rep["reports"]) == MAX_GRID_SIZE
        assert len(calls) == self.WORST[r, c]
        assert len(calls) <= (MAX_GRID_SIZE + 1) * (r + 2 * c)
        assert max(calls) < c

    def test_schema_meets_the_benchmark_oracle(self, tmp_path, capsys):
        # perfbench/checks.py is read, never changed: the report must keep
        # what its ``_slices`` oracle reads
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", ROOT / "perfbench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        op = {"check": "slices", "expect": {"dmax": 1}}
        for r, c in ((2, 3), (2, 2)):
            f = write_datum(tmp_path, random_stable_solution(r, c, 0))
            code = run(["inst", "slices", f, "--dmax", "1"])
            out = capsys.readouterr().out.encode("utf-8")
            ok, verdict = checks.check(op, code, out)
            assert ok, verdict
            assert verdict == "surjective at 12/12 points"
        f = write_datum(tmp_path, dual_costable_solution(2, 1, 0))
        code = run(["inst", "slices", f, "--dmax", "1"])
        out = capsys.readouterr().out.encode("utf-8")
        assert code == 1
        assert checks.check(op, code, out) == (True,
                                               "surjective at 0/12 points")
