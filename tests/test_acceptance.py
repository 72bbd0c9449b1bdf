"""End-to-end acceptance run: nine headline checks, one printed line each.

Every check recomputes a family of claims in exact arithmetic and prints a
single ``[criterion N] PASS`` or ``[criterion N] FAIL`` line (run with
``pytest -s`` to see the lines).  A FAIL line marks a quoted closed form
that the recomputation contradicts; the assertions then pin the recomputed
values and the report flags that carry the mismatch, so a FAIL line is a
stable, documented outcome and the test itself stays green.  The quoted
values are reported, never adopted: ``statements.appendix_b_suite``,
``statements.anticommutation_audit`` and ``qinstanton.curvature_asd``
expose the per-item comparison flags.

The final test drives every CLI subcommand once, so the whole command
surface is exercised together with the library checks.
"""

import json
import random
from fractions import Fraction

from qadhm import cli
from qadhm.adhm import (classify, derivative_rank, random_nonstable_solution,
                        random_stable_solution)
from qadhm.slices import pencil_grid, slice_line, slice_verdict
from qadhm.exactcore import (
    ComplexADHMDatum,
    RealADHMDatum,
    complex_residuals,
    is_complex_solution,
    monad_pencils,
)
from qadhm.monad import (build_monad, check_exactness_at, classify_sheaf,
                         product_coefficients)
from qadhm.qcalculus import (derive_table, laplacian, partials,
                             penrose_scalar, tilde_laplacian)
from qadhm.qinstanton import curvature_asd
from qadhm.qspacetime import (HarmonicIndex, NCPoly, basis_element, det_x,
                              harmonic, monomials_of_degree)
from qadhm.scalars import GaussRational, QLaurent, qint

from calculus_oracle import _solve_x_rules
from forms_oracle import d
from helpers import (failing_points, ql_evaluate, random_c1r1_solution,
                     random_complex_datum, read_point,
                     semiregular_not_regular, slice_rank_report)
from statements import (ChernClass, anticommutation_audit, appendix_b_suite,
                        basis_independence, basis_indices_for_degree,
                        beta_p_alpha_q, cech_exponents,
                        conjugation_identity_check, delta_op, det_commutators,
                        det_mult_rank, dimension_of_degree, laplace_via_star,
                        normalize_monad, oast_check, slice_matrix, xi_leading)
from test_adhm import proj_equal
from test_monad import (BASE_POINTS, SEEDED_LOCUS_DATA, shifted_line_ranks,
                        stable_not_semiregular)
from test_qcalculus import (HAND_WEDGE_RULES, HAND_X_RULES_Q,
                            HAND_X_RULES_QINV, gen_poly, qp)
from test_qcalculus import random_poly as random_cpoly
from test_qinstanton import ids_hold, one_instanton, wform
from test_qspacetime import random_poly as random_qpoly

P_CHOICES = ("q", "qinv")
SHAPES = ((2, 1), (2, 2), (3, 1))
Z = GaussRational(0)
ONE = GaussRational(1)


def _line(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def _perturb_j1(dat):
    rows = [[dat.j1[a, b] + (ONE if (a, b) == (0, 0) else Z)
             for b in range(dat.j1.cols)] for a in range(dat.j1.rows)]
    return ComplexADHMDatum(dat.c, dat.r, dat.B11, dat.B12, dat.B21, dat.B22,
                            dat.i1, dat.i2, rows, dat.j2)


def test_criterion_1_stability_taxonomy():
    rep2 = classify(stable_not_semiregular())
    assert rep2["stable_everywhere"] and rep2["semistable"]
    assert not rep2["semiregular"] and not rep2["regular"]

    rep3 = classify(semiregular_not_regular())
    assert rep3["stable_everywhere"] and rep3["semiregular"]
    assert not rep3["regular"]

    for seed in range(100):
        dat = random_c1r1_solution(seed)
        assert is_complex_solution(dat)
        rep = classify(dat)
        assert not rep["stable_everywhere"]
        roots = [pt for side, pt, _ in failing_points(rep)
                 if side == "stable"]
        assert len(roots) == 1
        assert proj_equal(roots[0], (-dat.i2[0, 0], dat.i1[0, 0]))

    _line(1, True,
          "r=2,c=1 datum is stable everywhere yet not semiregular, r=3,c=1 "
          "datum is semiregular yet not regular, and 100 seeded r=c=1 "
          "solutions each fail stability exactly at the root of the i-pencil")


def test_criterion_2_smoothness_dimension():
    for r, c in SHAPES:
        for seed in range(20):
            dat = random_stable_solution(r, c, seed)
            rank = derivative_rank(dat)
            assert rank == 3 * c * c
            ambient = 4 * c * c + 4 * r * c
            assert ambient - rank - c * c == 4 * r * c
            bad, _ = random_nonstable_solution(r, c, seed)
            assert derivative_rank(bad) < 3 * c * c

    _line(2, True,
          "for 20 seeded stable solutions at each of (2,1), (2,2), (3,1) the "
          "equation derivative has rank 3c^2 and the parameter count "
          "4c^2+4rc - rank - c^2 equals 4rc exactly; 20 seeded non-stable "
          "data per shape all drop below rank 3c^2")


def test_criterion_3_monad_equivalence():
    checked = 0
    for r, c in SHAPES:
        for seed in range(12):
            for dat in (random_complex_datum(r, c, seed),
                        random_stable_solution(r, c, seed),
                        _perturb_j1(random_stable_solution(r, c, seed))):
                alpha, beta = monad_pencils(dat)
                coeffs = product_coefficients(beta, alpha)
                r1, r2, r3 = complex_residuals(dat)
                assert coeffs[("z", "z")] == r1
                assert coeffs[("w", "w")] == r2
                assert coeffs[("z", "w")] == r3
                for (u, v), m in coeffs.items():
                    if "x" in (u, v) or "y" in (u, v):
                        assert m.is_zero()
                assert (all(m.is_zero() for m in coeffs.values())
                        == is_complex_solution(dat))
                checked += 1
    assert checked == 108

    # the singular locus: the line {x = y = 0} over every [z:w], and the
    # point [0:0:0:1] over [0:1]; each is re-checked by the rank of alpha_X
    repA = classify_sheaf(stable_not_semiregular())
    locusA = repA["singular_locus"]
    assert repA["kind"] == "torsion_free"
    assert locusA["dimension"] == 1 and locusA["over"] is None
    mA = build_monad(stable_not_semiregular())
    for z0, w0 in BASE_POINTS:
        assert check_exactness_at(mA, (0, 0, z0, w0))[0] == 0
        assert check_exactness_at(mA, (1, 0, z0, w0))[0] == 1
    repB = classify_sheaf(semiregular_not_regular())
    locusB = repB["singular_locus"]
    assert repB["kind"] == "reflexive" and locusB["dimension"] == 0
    assert [read_point(p) for p in locusB["over"]] == [(Z, ONE)]
    assert locusB["over_factors"] == []
    mB = build_monad(semiregular_not_regular())
    assert check_exactness_at(mB, (0, 0, 0, 1))[0] == 0
    assert check_exactness_at(mB, (1, 0, 0, 1))[0] == 1
    assert check_exactness_at(mB, (0, 0, 1, 0))[0] == 1
    for r, c, seed in SEEDED_LOCUS_DATA:
        dat = random_stable_solution(r, c, seed)
        rep = classify_sheaf(dat)
        assert rep["kind"] == "torsion_free"
        assert rep["singular_locus"]["over"] is None
        assert shifted_line_ranks(dat) == [(c - 1, c)] * len(BASE_POINTS)

    for n in range(20):
        r, c = SHAPES[n % 3]
        dat = random_stable_solution(r, c, 100 + n)
        m = build_monad(dat)
        back = normalize_monad(m.alpha, m.beta)
        for name in ("B11", "B12", "B21", "B22", "i1", "i2", "j1", "j2"):
            assert getattr(back, name) == getattr(dat, name)

    _line(3, True,
          "the quadratic coefficients of beta*alpha are exactly the three "
          "equation residuals on 108 seeded data and perturbations, the two "
          "counterexample sheaves are singular along the {x=y=0} line over "
          "every [z:w] and at [0:0:0:1] over [0:1], read off the stability "
          "taxonomy and re-checked by the rank of alpha, as are the lines of "
          "3 seeded torsion-free sheaves, and build/normalize round-trips 20 "
          "seeded solutions field by field")


def test_criterion_4_euler_characteristic_table():
    for r in range(1, 5):
        for c in range(1, 5):
            suite = appendix_b_suite(r, c)  # both chi routes asserted inside
            assert suite["chi_E_minus1"]["value"] == Fraction(-c)
            assert suite["chi_E_minus1"]["match"]
            assert suite["chi_E_two_forms_1"]["value"] == Fraction(-c)
            assert suite["chi_E_two_forms_1"]["match"]
            assert suite["chi_E_cotangent"]["value"] == Fraction(-(2 * c + r))
            assert suite["chi_E_cotangent"]["match"] == (r == c)
            assert suite["ch_cotangent"]["value"] == \
                ChernClass(3, -4, 2, Fraction(-2, 3))
            assert not suite["ch_cotangent"]["match"]

    _line(4, False,
          "chi(E(-1)) = -c and chi(E tensor 2-forms(1)) = -c hold for all "
          "r,c <= 4 through both the character-Todd pairing and monad "
          "additivity, but the quoted chi(E tensor cotangent) = -c-2r "
          "recomputes to -(2c+r) (equal only when r = c) and the quoted H^3 "
          "coefficient +2/3 of ch(cotangent) recomputes to -2/3 from the "
          "Euler sequence; statements.appendix_b_suite reports both mismatches")


def test_criterion_5_quantum_algebra():
    rng = random.Random(20260815)
    for _ in range(200):
        f, g, h = (random_qpoly(rng, max_deg=2) for _ in range(3))
        assert (f * g) * h == f * (g * h)

    for deg in range(6):
        assert len(monomials_of_degree(deg)) == dimension_of_degree(deg)
        assert len(basis_indices_for_degree(deg)) == dimension_of_degree(deg)
        assert basis_independence(deg)

    comm = det_commutators()
    assert all(entry["ok"] for entry in comm.values())
    assert {name: entry["exponent"] for name, entry in comm.items()} == \
        {"x11": 0, "x12": 2, "x21": -2, "x22": 0}

    for deg in range(7):
        assert det_mult_rank(deg)

    _line(5, True,
          "multiplication associates on 200 seeded triples with products of "
          "degree up to 6, the det^k X^l family has the ordered-monomial "
          "count and full slice rank for every degree d <= 5, the det "
          "commutation table holds with twists (0, 2, -2, 0), and left "
          "multiplication by det has full slice rank for d <= 6")


def test_criterion_6_calculus_table():
    rng = random.Random(4)
    det = det_x()
    for pc, hand in (("q", HAND_X_RULES_Q), ("qinv", HAND_X_RULES_QINV)):
        t = derive_table(pc)
        got = {k: dict((tgt, c) for c, tgt in v) for k, v in t.x_rules.items()}
        assert got == hand
        wed = {k: dict((tgt, c) for c, tgt in v)
               for k, v in t.wedge_rules.items() if k[0] != k[1]}
        assert wed == HAND_WEDGE_RULES
        for g in range(4):
            assert t.wedge_rules[(g, g)] == ()
        # the constraint solver (the test oracle) re-derives the identical
        # table: unique solution
        assert _solve_x_rules(t.p_exp) == t.x_rules

        # partials of f*det against the closed twisted-Leibniz form
        pe = t.p_exp
        for _ in range(5):
            f = random_cpoly(rng)
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

        for deg in range(5):
            for mono in monomials_of_degree(deg):
                f = NCPoly("I", {mono: QLaurent.one()})
                assert d(d(f, t), t).is_zero()

        audit = anticommutation_audit(t)
        assert audit["dx21^dx11"]["anticommutes"]
        assert audit["dx22^dx11"]["anticommutes"]
        assert audit["dx22^dx12"]["anticommutes"]
        assert not audit["dx21^dx12"]["anticommutes"]
        assert set(audit["dx21^dx12"]["residual"]) == \
            {"dx11^dx22", "dx12^dx21"}

    _line(6, False,
          "the constraint solver yields a unique rule table per p-choice "
          "reproducing the hand-transcribed commutation and wedge oracles, "
          "the determinant covariances, the f*det partial rule, and d^2 = 0 "
          "on all monomials through degree 4, but the fourth quoted wedge "
          "anticommutation (dx21^dx12) is incompatible with d^2 = 0 and "
          "carries the residual (q^2-1)(dx11^dx22 - dx12^dx21); "
          "statements.anticommutation_audit reports it")


def test_criterion_7_harmonicity_and_spectra():
    for pc in P_CHOICES:
        t = derive_table(pc)
        pe = t.p_exp

        for two_l in range(6):
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                    assert laplacian(f, t).is_zero()

        # the four partial derivatives of X^l against their closed forms
        for two_l in range(5):
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
                        qp((two_m + two_l) // 2) * qint((two_l - two_m) // 2)
                    c_minus = qp(pe * (two_l - 1)) * \
                        qp((two_m - two_l) // 2) * qint((two_l + two_m) // 2)
                    assert ps[0] == H(two_m + 1, two_n + 1).scale(c_plus)
                    assert ps[1] == H(two_m - 1, two_n + 1).scale(c_minus)
                    assert ps[2] == H(two_m + 1, two_n - 1).scale(c_plus)
                    assert ps[3] == H(two_m - 1, two_n - 1).scale(c_minus)

        # det-twisted Laplacian spectrum p^(2k+2l-3) [k] [k+2l+1], on the
        # full (m, n) multiplet of every level
        for k in range(4):
            for two_l in range(5):
                lam = qp(pe * (2 * k + two_l - 3)) * qint(k) * \
                    qint(k + two_l + 1)
                for two_m in range(-two_l, two_l + 1, 2):
                    for two_n in range(-two_l, two_l + 1, 2):
                        f = basis_element(
                            HarmonicIndex(two_l, two_m, two_n, k))
                        assert tilde_laplacian(f, t) == f.scale(lam)

        # the alternative exponent [k+2l+2] fails on a witness: not adopted
        f = basis_element(HarmonicIndex(0, 0, 0, 1))
        alt = qp(-pe) * qint(1) * qint(3)
        assert tilde_laplacian(f, t) != f.scale(alt)

        # delta spectrum p^(2l-1) [2l] on harmonics
        for two_l in range(5):
            lam = qp(pe * (two_l - 1)) * qint(two_l)
            for two_m, two_n in {(two_l, -two_l), (-two_l, two_l)}:
                f = harmonic(HarmonicIndex(two_l, two_m, two_n))
                assert delta_op(f, t) == f.scale(lam)

        rng = random.Random(99)
        sample = [random_cpoly(rng) for _ in range(26)]
        sample += [det_x(), det_x() * det_x(),
                   harmonic(HarmonicIndex(2, 0, 0)), gen_poly(0)]
        assert len(sample) == 30
        for f in sample:
            assert laplace_via_star(f, t) == laplacian(f, t)

    _line(7, True,
          "the Laplacian annihilates every harmonic X^l through 2l = 5, the "
          "four partial-derivative closed forms hold through 2l = 4, the "
          "det-twisted Laplacian has eigenvalue p^(2k+2l-3)[k][k+2l+1] on "
          "every basis element with k <= 3, 2l <= 4 under both p-choices (the "
          "alternative [k+2l+2] exponent fails recomputation on a witness "
          "and is not adopted), delta has eigenvalue p^(2l-1)[2l], and "
          "*d*d matches the Laplacian on a 30-element sample per p-choice")


def test_criterion_8_penrose_and_conjugation():
    t = derive_table("q")
    idxs = [idx for deg in range(5) for idx in basis_indices_for_degree(deg)
            if idx.k == 0]
    assert len(idxs) == 55
    images = []
    for idx in idxs:
        f = penrose_scalar([(cech_exponents(idx), GaussRational(1))])
        assert f == harmonic(idx)
        assert laplacian(f, t).is_zero()
        images.append(f)
    mat = slice_matrix(images, [0, 1, 2, 3, 4])
    spec = mat.map(lambda coeff: ql_evaluate(coeff, GaussRational(3)))
    assert spec.rank() == len(idxs)

    # a single scalar must work for each index (oast_check raises otherwise);
    # for k >= 1 it is a ratio of Laurent polynomials rather than a monomial
    for k in range(3):
        for two_l in range(4):
            for two_m in range(-two_l, two_l + 1, 2):
                for two_n in range(-two_l, two_l + 1, 2):
                    lam = oast_check(HarmonicIndex(two_l, two_m, two_n, k))
                    assert not lam.is_zero()

    for pc in P_CHOICES:
        for k in range(5):
            for two_l in range(5):
                assert conjugation_identity_check(k, two_l, pc)

    _line(8, True,
          "the residue index map sends each of the 55 basis cocycles with "
          "2l <= 4 exactly onto its harmonic X^l (images harmonic and of "
          "full slice rank), a single proportionality scalar exists for all "
          "indices with 2l <= 3, k <= 2, and the conjugation identity holds "
          "for k <= 4, 2l <= 4 under both p-choices")


def test_criterion_9_quantum_instanton():
    for r, c in SHAPES:
        for seed in range(25):
            raw = random_complex_datum(r, c, seed)
            assert ids_hold(raw) == is_complex_solution(raw)
            sol = random_stable_solution(r, c, seed)
            assert is_complex_solution(sol)
            assert ids_hold(sol) and ids_hold(sol, "J")

    # the pencil product collapses to (p1 q2 - p2 q1) beta1*alpha2; the
    # helper asserts that identity symbolically on every call
    base = random_stable_solution(2, 1, 0)
    assert xi_leading(base)
    pens = [(GaussRational(1), GaussRational(0)),
            (GaussRational(0), GaussRational(1)),
            (GaussRational(1), GaussRational(1)),
            (GaussRational(1, 2), GaussRational(0, 1))]
    for P in pens:
        for Q in pens:
            beta_p_alpha_q(base, P, Q)

    for pc in P_CHOICES:
        table = derive_table(pc)
        rep = curvature_asd(one_instanton(), pc)
        ent = rep["entries"]
        q2 = -table.wedge_norm((2, 1))[(1, 2)]
        one, two = QLaurent.one(), QLaurent({0: 2})
        assert ent[0][0]["computed"] == str(wform(
            table, {(0, 3): two - q2, (1, 2): q2}))
        assert ent[0][1]["computed"] == str(wform(table, {(0, 2): -two}))
        assert ent[1][0]["computed"] == str(wform(table, {(1, 3): two}))
        assert ent[1][1]["computed"] == str(wform(
            table, {(0, 3): -one, (1, 2): -one}))
        assert ent[0][0]["verdict"] == "mixed"
        assert ent[0][0]["sd_part"] == str(wform(
            table, {(0, 3): one - q2, (1, 2): q2 - one}))
        assert not rep["all_asd"]
        assert not rep["matches_quoted"]
        assert not rep["matches_quoted_up_to_sign"]
        assert rep["sign_adjusted_defects"] == [[0, 0]]
        for a in range(3):
            for b in range(3):
                if (a, b) != (0, 0):
                    assert ent[a][b]["sign_adjusted_match"]
                    assert ent[a][b]["verdict"] in ("ASD", "zero")

    grid = pencil_grid(12)
    assert len(grid) == 12
    for a in range(12):
        for b in range(a + 1, 12):
            assert not proj_equal(grid[a], grid[b])
    # beta_P is onto at every grid point of stable data: certified by the
    # Krylov preimages, and for c <= r also by the slice echelon's W-block
    for (r, c), seed in (((2, 1), 0), ((2, 2), 3), ((3, 1), 1), ((2, 3), 5)):
        sol = random_stable_solution(r, c, seed)
        assert slice_line(sol)["onto_everywhere"] is True
        for P in grid:
            for dmax in range(5):
                rep = slice_verdict(sol, P, dmax)
                assert rep["verdict"] == "certified"
                assert rep["depth"] == (c > r)
                assert rep["covered_dim"] == rep["slice_dim"]
                if c <= r:
                    assert slice_rank_report(sol, P, dmax)["surjective"]

    for seed in (0, 1, 5):
        dat = random_c1r1_solution(seed)
        root = (dat.i2[0, 0], -dat.i1[0, 0])
        assert slice_verdict(dat, root, 1)["verdict"] == "refuted"
        rep0 = slice_rank_report(dat, root, 0)
        assert not rep0["surjective"]
        assert (rep0["covered_dim"], rep0["slice_dim"]) == (0, 1)
        rep1 = slice_rank_report(dat, root, 1)
        assert not rep1["surjective"]
        assert (rep1["covered_dim"], rep1["slice_dim"]) == (2, 5)

    _line(9, False,
          "identity products vanish exactly iff the equation residuals do on "
          "50 seeded data per shape (solutions checked in both charts), the "
          "pencil product identity holds "
          "symbolically, and beta_P is onto at all 12 grid parameters for "
          "stable data, (2,3) included (certified by Krylov preimages of "
          "depth <= 1 for every degree cap up to 4), and not onto at the "
          "computed root for r=c=1 data (refuted by a covector and a "
          "character; the slice echelon misses directions there), but the "
          "computed curvature "
          "does not reproduce the quoted 2-form matrix: entries agree only "
          "up to a global sign, and entry (0,0) recomputes to "
          "(2-q^2)e03 + q^2 e12 with self-dual part (1-q^2)(e03-e12), so not "
          "every entry is anti-self-dual; curvature_asd carries the "
          "per-entry flags")


def test_every_cli_path(tmp_path, capsys):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    sol = write("sol.json", random_stable_solution(2, 1, 7).to_json())
    real = write("real.json", RealADHMDatum(1, 2, [[0]], [[0]], [[1, 0]],
                                            [[0], [1]]).to_json())
    coc = write("coc.json", {"cocycle": [
        {"exponents": [1, 0, -2, -1], "coeff": "1"}]})

    runs = [
        ["adhm", "check", sol],
        ["adhm", "embed", real],
        ["adhm", "random", "-r", "2", "-c", "1", "--seed", "5"],
        ["adhm", "rank", sol],
        ["monad", "build", sol],
        ["monad", "classify", sol],
        ["monad", "chern", "-r", "2", "-c", "1", "-k", "-1"],
        ["q", "normalize", "x21*x12 + det"],
        ["q", "partial", "det"],
        ["q", "laplace", "x11*x22"],
        ["q", "harmonic", "-l", "1", "-m", "1", "-n", "-1"],
        ["q", "eigen", "-k", "1", "-l", "0"],
        ["q", "table", "--p-choice", "qinv"],
        ["q", "penrose", coc],
        ["inst", "verify", sol],
        ["inst", "curvature", sol],
        ["inst", "slices", sol, "--dmax", "1", "--grid-size", "4"],
    ]
    seen = set()
    for argv in runs:
        assert cli.run(argv) == 0, argv
        assert capsys.readouterr().out.strip()
        seen.add((argv[0], argv[1]))
    assert len(seen) == 17
