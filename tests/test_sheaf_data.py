"""Seeded solutions with j != 0 for the locally free and reflexive sheaf
classes, the GL(c) x GL(r), GL(2) and transpose-dual covariance of the
reports that read a datum, the r = 2 check (ROADMAP items 14 and 18), and
the deformation complex of a datum (item 10).

The locally free data have r = 2 and the reflexive data r = 5 with their
singular locus over [0:1]; both come with a seeded dense change of basis
(``helpers.random_locally_free_solution``, ``random_reflexive_solution``).
"""

import json
import random
from functools import cache

import pytest

from qadhm.adhm import (classify, derivative_rank, random_nonstable_solution,
                        random_stable_solution)
from qadhm.cli import run
from qadhm.exactcore import (ADHMError, ComplexADHMDatum, Matrix,
                             complex_residuals, is_complex_solution,
                             random_gauss)
from qadhm.monad import build_monad, classify_sheaf
from qadhm.qinstanton import curvature_asd, ids_report
from qadhm.scalars import GaussRational, mono_str, parse_gauss
from qadhm.slices import pencil_grid, slice_line, slice_verdict

from helpers import (curvature_by_datum_product, failing_points, gl_action,
                     gl_r_action, random_generic_solution, random_invertible,
                     random_locally_free_solution, random_reflexive_solution,
                     transpose_dual, witness_matrix)

_GENERATORS = {"locally_free": random_locally_free_solution,
               "reflexive": random_reflexive_solution}
SEEDED = ([("locally_free", c, s) for c in (1, 2, 3, 4, 6) for s in range(5)]
          + [("reflexive", c, s) for c in (2, 4, 7) for s in range(5)])
# the exact rank of the dense (6,2) and (7,5) derivative matrices takes
# seconds; above this charge the rank is read on the datum before its
# change of basis, which the covariance tests below show it does not see
_DENSE_RANK_UP_TO = 4


def _id(case):
    kind, c, seed = case
    return f"{kind}-c{c}-s{seed}"


@cache
def seeded(kind, c, seed):
    return _GENERATORS[kind](c, seed)


class TestSeededSheafData:
    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_classify(self, case):
        kind, c, _ = case
        d = seeded(*case)
        assert (d.c, d.r) == (c, 2 if kind == "locally_free" else 5)
        assert not (d.j1.is_zero() and d.j2.is_zero())
        rep = classify(d)
        assert rep["stable_everywhere"] and rep["leftover_factors"] == []
        if kind == "locally_free":
            assert rep["regular"] and failing_points(rep) == []
        else:
            assert rep["semiregular"] and not rep["regular"]
            (side, (z, w), _), = failing_points(rep)
            assert (side, str(z), str(w)) == ("costable", "0/1", "1/1")

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_classify_sheaf(self, case):
        sheaf = classify_sheaf(seeded(*case))
        assert sheaf["kind"] == case[0]
        assert sheaf["singular_locus"]["over"] == (
            [] if case[0] == "locally_free" else [{"z": "0/1", "w": "1/1"}])

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_derivative_rank(self, case):
        kind, c, seed = case
        d = (seeded(*case) if c <= _DENSE_RANK_UP_TO
             else _GENERATORS[kind](c, seed, dense=False))
        assert derivative_rank(d) == 3 * c * c

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_identities_and_monad(self, case):
        d = seeded(*case)
        assert all(ids_report(d, chart)["all_zero"] for chart in "IJ")
        build_monad(d)

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_slices_are_onto_everywhere(self, case):
        d = seeded(*case)
        assert all(slice_verdict(d, P, 2)["verdict"] == "certified"
                   for P in pencil_grid(12))
        assert slice_line(d)["onto_everywhere"] is True

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_curvature_matches_the_datum_product(self, case):
        # the blocks read off the wedge table equal those of the audited
        # (2c+r)^2 product of the seeded datum's own operators, j != 0
        d = seeded(*case)
        for p_choice in ("q", "qinv"):
            rep = curvature_asd(d, p_choice)
            assert rep["block_sizes"] == [d.c, d.c, d.r]
            want = curvature_by_datum_product(d, p_choice)
            assert [[e["computed"] for e in row] for row in rep["entries"]] \
                == [[str(f) for f in row] for row in want]


# ---------------------------------------------------------------------------
# GL(c) x GL(r) covariance
# ---------------------------------------------------------------------------

COVARIANT_DATA = {
    "locally_free_c3r2": lambda: random_locally_free_solution(3, 0),
    "reflexive_c4r5": lambda: random_reflexive_solution(4, 0),
    "stable_c2r3": lambda: random_stable_solution(3, 2, 5),
    "planted_c3r3": lambda: random_nonstable_solution(3, 3, 4)[0],
}
CASES = [(name, group) for name in COVARIANT_DATA for group in ("c", "r")]


@cache
def moved(name, group):
    """(datum, its image, g): the image under a seeded g in GL(c), or under
    an h in GL(r) (then g is None)."""
    d = COVARIANT_DATA[name]()
    rng = random.Random(f"{name}:{group}")
    if group == "c":
        g = random_invertible(d.c, rng)
        return d, gl_action(g, d), g
    return d, gl_r_action(random_invertible(d.r, rng), d), None


def _sheaf(d):
    try:
        return classify_sheaf(d)
    except ADHMError as exc:
        return str(exc)


def _same_span(a, b):
    return a.rank() == b.rank() == Matrix.hstack([a, b]).rank()


class TestGLCovariance:
    """B -> g B g^-1, i -> g i, j -> j g^-1 and i -> i h^-1, j -> h j map
    solutions to solutions and each report to a predicted one."""

    @pytest.mark.parametrize("name,group", CASES)
    def test_classify(self, name, group):
        d, e, g = moved(name, group)
        assert is_complex_solution(d) and is_complex_solution(e)
        before, after = classify(d), classify(e)
        assert ({**before, "witness_subspace": None}
                == {**after, "witness_subspace": None})
        w, w_moved = witness_matrix(before), witness_matrix(after)
        assert (w is None) == (w_moved is None)
        if w is not None:
            assert _same_span(w_moved, w if g is None else g * w)

    @pytest.mark.parametrize("name,group", CASES)
    def test_sheaf_rank_identities_and_line(self, name, group):
        d, e, _ = moved(name, group)
        assert _sheaf(e) == _sheaf(d)
        assert derivative_rank(e) == derivative_rank(d)
        for chart in "IJ":
            assert (ids_report(e, chart)["all_zero"]
                    == ids_report(d, chart)["all_zero"])
        assert slice_line(e) == slice_line(d)

    @pytest.mark.parametrize("name,group", CASES)
    def test_slice_verdicts(self, name, group):
        d, e, g = moved(name, group)
        keys = ["verdict", "surjective", "depth", "covered_dim"]
        if g is not None:
            keys.append("basis")    # the words, not the vectors
        for P in pencil_grid(6):
            before, after = slice_verdict(d, P, 2), slice_verdict(e, P, 2)
            assert ([after.get(k) for k in keys]
                    == [before.get(k) for k in keys]), P


# ---------------------------------------------------------------------------
# dense generic data (r >= 2c)
# ---------------------------------------------------------------------------

GENERIC = [(r, c, s) for r, c in ((2, 1), (4, 2), (6, 3), (8, 4))
           for s in range(3)]


def _generic_id(case):
    return "r{}-c{}-s{}".format(*case)


@cache
def generic(r, c, seed):
    return random_generic_solution(r, c, seed)


class TestGenericData:
    """``helpers.random_generic_solution``: dense B's and i's, j solved
    from the residuals plus a seeded kernel element."""

    @pytest.mark.parametrize("case", GENERIC, ids=_generic_id)
    def test_solution_with_dense_noncommuting_blocks(self, case):
        d = generic(*case)
        assert (d.r, d.c) == case[:2]
        assert is_complex_solution(d)
        assert not (d.j1.is_zero() or d.j2.is_zero())
        if d.c > 1:
            assert not d.B11.commutator(d.B12).is_zero()

    @pytest.mark.parametrize("case", GENERIC, ids=_generic_id)
    def test_regular_and_locally_free(self, case):
        d = generic(*case)
        rep = classify(d)
        assert rep["regular"] and failing_points(rep) == []
        assert classify_sheaf(d)["kind"] == "locally_free"

    @pytest.mark.parametrize("case", GENERIC, ids=_generic_id)
    def test_rank_identities_and_line(self, case):
        d = generic(*case)
        assert derivative_rank(d) == 3 * d.c * d.c
        assert all(ids_report(d, chart)["all_zero"] for chart in "IJ")
        assert slice_line(d)["onto_everywhere"] is True

    def test_too_few_framing_dimensions_are_refused(self):
        with pytest.raises(ADHMError):
            random_generic_solution(3, 2, 0)


# ---------------------------------------------------------------------------
# GL(2) on the line coordinates (z, w)
# ---------------------------------------------------------------------------

LINE_DATA = {
    "planted_c3r3": lambda: random_nonstable_solution(3, 3, 4)[0],
    "stable_c2r3": lambda: random_stable_solution(3, 2, 5),
    "locally_free_c3r2": lambda: random_locally_free_solution(3, 0),
    "reflexive_c4r5": lambda: random_reflexive_solution(4, 0),
    "generic_c2r4": lambda: random_generic_solution(4, 2, 0),
}


def line_action(m, d):
    """The datum in the coordinates z = a z' + b w', w = c z' + d w' for
    m = (a, b, c, d): B11' = a B11 + c B21, B21' = b B11 + d B21, and the
    same for (B12, B22), (i1, i2) and (j1, j2)."""
    a, b, c, e = m
    (b11, b21), (b12, b22), (i1, i2), (j1, j2) = (
        (x.scale(a) + y.scale(c), x.scale(b) + y.scale(e))
        for x, y in ((d.B11, d.B21), (d.B12, d.B22), (d.i1, d.i2),
                     (d.j1, d.j2)))
    return ComplexADHMDatum(d.c, d.r, b11, b12, b21, b22, i1, i2, j1, j2)


def moved_point(m, z0, w0):
    """[z0 : w0] in the new coordinates, (z/w, 1) or (1, 0) as the reports
    write it: the inverse map, up to the factor 1/(ad - bc)."""
    a, b, c, e = m
    z, w = e * z0 - b * w0, a * w0 - c * z0
    return (str(z / w), "1/1") if w else ("1/1", "0/1")


def _parse_gcd(text):
    """A gcd string ``(c)*z^a*w^b + ...`` as {(a, b): GaussRational}."""
    poly = {}
    for term in text.split(" + "):
        coeff, _, mono = term[1:].partition(")*")
        exps = [0, 0]
        for piece in mono.split("*"):
            if piece != "1":
                var, _, e = piece.partition("^")
                exps["zw".index(var)] = int(e or 1)
        poly[tuple(exps)] = parse_gauss(coeff)
    return poly


def _times_linear(poly, lz, lw):
    """poly * (lz z + lw w), a poly as {(a, b): coefficient of z^a w^b}."""
    out = {}
    for (u, v), x in poly.items():
        for key, y in (((u + 1, v), lz), ((u, v + 1), lw)):
            out[key] = out.get(key, 0) + x * y
    return out


def moved_gcd(m, text):
    """The gcd string of the moved datum predicted from the original one:
    G(a z' + b w', c z' + d w'), made monic in z."""
    if text == "0":
        return text
    a, b, c, e = m
    acc = {}
    for (p, s), coeff in _parse_gcd(text).items():
        term = {(0, 0): coeff}
        for lz, lw in [(a, b)] * p + [(c, e)] * s:
            term = _times_linear(term, lz, lw)
        for key, x in term.items():
            acc[key] = acc.get(key, 0) + x
    out = {k: x for k, x in acc.items() if x}
    lead = out[max(out)]
    return " + ".join(
        f"({x / lead})*{mono_str(k, 'zw') or '1'}"
        for k, x in sorted(out.items(), reverse=True))


def random_line_map(rng):
    """Seeded small Gaussian (a, b, c, d) with ad - bc != 0."""
    while True:
        m = [random_gauss(rng) for _ in range(4)]
        if m[0] * m[3] != m[1] * m[2]:
            return tuple(m)


@cache
def line_moved(name):
    d = LINE_DATA[name]()
    m = random_line_map(random.Random(f"line:{name}"))
    return d, line_action(m, d), m


@pytest.fixture
def report(tmp_path, capsys):
    """report(argv, datum): the exit code and JSON of ``qadhm argv FILE``."""
    def run_on(argv, datum):
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum.to_json()))
        code = run([*argv[:2], str(path), *argv[2:]])
        return code, json.loads(capsys.readouterr().out)
    return run_on


def _moved_points(m, points):
    return sorted((p.get("side"), *moved_point(m, parse_gauss(p["z"]),
                                               parse_gauss(p["w"])),
                   p.get("multiplicity")) for p in points)


def _points(points):
    return sorted((p.get("side"), p["z"], p["w"], p.get("multiplicity"))
                  for p in points)


_FLAGS = ("stable_everywhere", "costable_everywhere", "semistable",
          "semiregular", "regular")


class TestLineCovariance:
    """Each report on the datum in new coordinates (z, w) of the line is
    the report on the datum, with its points and gcds moved."""

    @pytest.mark.parametrize("name", LINE_DATA)
    def test_adhm_check(self, name, report):
        d, e, m = line_moved(name)
        (code, before), (code_moved, after) = (
            report(["adhm", "check"], x) for x in (d, e))
        assert code == code_moved == 0 and after["solution"]
        before, after = before["classification"], after["classification"]
        assert [after[k] for k in _FLAGS] == [before[k] for k in _FLAGS]
        assert (_points(after["failing_points"])
                == _moved_points(m, before["failing_points"]))
        assert after["leftover_factors"] == before["leftover_factors"] == []
        for key in ("stability_gcd", "costability_gcd"):
            assert after[key] == moved_gcd(m, before[key])

    @pytest.mark.parametrize("name", LINE_DATA)
    def test_monad_classify(self, name, report):
        d, e, m = line_moved(name)
        (code, before), (code_moved, after) = (
            report(["monad", "classify"], x) for x in (d, e))
        assert code == code_moved
        if code:
            assert after == before
            return
        assert after["kind"] == before["kind"]
        over, moved_over = (r["singular_locus"]["over"]
                            for r in (before, after))
        if over is None:        # costable nowhere: the locus is not finite
            assert moved_over is None
        else:
            assert _points(moved_over) == _moved_points(m, over)

    @pytest.mark.parametrize("name", LINE_DATA)
    def test_adhm_rank(self, name, report):
        d, e, _ = line_moved(name)
        (code, before), (code_moved, after) = (
            report(["adhm", "rank"], x) for x in (d, e))
        assert code == code_moved == 0
        assert after["rank"] == before["rank"]

    @pytest.mark.parametrize("name", LINE_DATA)
    def test_inst_slices_line(self, name, report):
        d, e, m = line_moved(name)
        (_, before), (_, after) = (
            report(["inst", "slices", "--dmax", "2", "--grid-size", "4"], x)
            for x in (d, e))
        before, after = before["line"], after["line"]
        assert after["onto_everywhere"] == before["onto_everywhere"]
        assert (_points(after["failing_points"])
                == _moved_points(m, before["failing_points"]))
        assert after["stability_gcd"] == moved_gcd(m, before["stability_gcd"])

    def test_the_planted_point_moves_to_i(self, report):
        # z = z' + w', w = i z' + 2 w' sends 1 + i to [i : 1]
        i = GaussRational(0, 1)
        d, (z0, w0) = random_nonstable_solution(3, 3, 4)
        m = (GaussRational(1), GaussRational(1), i, GaussRational(2))
        assert (str(z0), str(w0)) == ("1/1+1/1*i", "1/1")
        _, rep = report(["adhm", "check"], line_action(m, d))
        assert rep["classification"]["failing_points"] == [
            {"side": "stable", "z": "0/1+1/1*i", "w": "1/1",
             "multiplicity": 3}]


# ---------------------------------------------------------------------------
# transpose duality
# ---------------------------------------------------------------------------

DUAL_DATA = {
    "stable_c2r3": lambda: random_stable_solution(3, 2, 5),
    "planted_c3r3": lambda: random_nonstable_solution(3, 3, 4)[0],
    "locally_free_c3r2": lambda: random_locally_free_solution(3, 1),
    "reflexive_c4r5": lambda: random_reflexive_solution(4, 2),
    "generic_c2r4": lambda: random_generic_solution(4, 2, 0),
}
_SWAPPED = {"stable": "costable", "costable": "stable"}


@cache
def dual_pair(name):
    d = DUAL_DATA[name]()
    return d, transpose_dual(d)


class TestTransposeDuality:
    """d* = (B12^T, B11^T, B22^T, B21^T, j1^T, j2^T, i1^T, i2^T) solves the
    equations with d and swaps the stable and costable sides."""

    @pytest.mark.parametrize("name", DUAL_DATA)
    def test_adhm_check_swaps_the_sides(self, name, report):
        (code, before), (code_dual, after) = (
            report(["adhm", "check"], x) for x in dual_pair(name))
        assert code == code_dual == 0 and after["solution"]
        before, after = before["classification"], after["classification"]
        for key, dual_key in (("stable_everywhere", "costable_everywhere"),
                              ("stability_gcd", "costability_gcd")):
            assert after[key] == before[dual_key]
            assert after[dual_key] == before[key]
        assert _points(after["failing_points"]) == _points(
            {**p, "side": _SWAPPED[p["side"]]}
            for p in before["failing_points"])

    @pytest.mark.parametrize("name", DUAL_DATA)
    def test_rank_and_monad(self, name, report):
        (_, before), (_, after) = (
            report(["adhm", "rank"], x) for x in dual_pair(name))
        assert after["rank"] == before["rank"]
        assert all(report(["monad", "build"], x)[0] == 0
                   for x in dual_pair(name))

    @pytest.mark.parametrize("name", DUAL_DATA)
    def test_monad_classify(self, name, report):
        (code, before), (code_dual, after) = (
            report(["monad", "classify"], x) for x in dual_pair(name))
        if code == 0 and before["kind"] == "locally_free":
            assert code_dual == 0 and after["kind"] == "locally_free"
        else:       # torsion-free, reflexive or refused: the dual is refused
            assert code_dual == 2
            assert after["error"]["message"] == (
                "datum is not stable everywhere: no sheaf to classify")

    @pytest.mark.parametrize("name", DUAL_DATA)
    def test_inst_verify(self, name, report):
        for code, rep in (report(["inst", "verify"], x)
                          for x in dual_pair(name)):
            assert code == 0
            assert rep["I"]["all_zero"] and rep["J"]["all_zero"]

    @pytest.mark.parametrize("name", DUAL_DATA)
    def test_inst_slices_line_reads_the_costable_side(self, name, report):
        d, dual = dual_pair(name)
        _, check = report(["adhm", "check"], d)
        _, rep = report(["inst", "slices", "--dmax", "2", "--grid-size", "4"],
                        dual)
        check = check["classification"]
        assert rep["line"]["stability_gcd"] == check["costability_gcd"]
        assert rep["line"]["onto_everywhere"] == check["costable_everywhere"]


def _r2_draws():
    for s in range(50):
        for c in range(1, 5):
            yield "stable", random_stable_solution(2, c, s)
            yield "locally_free", random_locally_free_solution(c, s)
    for s in range(200):
        yield "generic", random_generic_solution(2, 1, s)


def test_no_rank_two_solution_is_reflexive():
    # the monads have total Chern class (1 - h^2)^-c, so c3 = 0, and a
    # rank-2 reflexive sheaf with c3 = 0 is locally free (Hartshorne,
    # "Stable reflexive sheaves", 1980, section 2)
    kinds = {}
    for family, d in _r2_draws():
        assert d.r == 2
        kind = classify_sheaf(d)["kind"]
        kinds.setdefault(family, set()).add(kind)
    assert set().union(*kinds.values()) <= {"torsion_free", "locally_free"}
    assert kinds["locally_free"] == {"locally_free"}
    assert kinds["stable"] == {"torsion_free"}


# ---------------------------------------------------------------------------
# the deformation complex gl(c) --a--> T --dmu--> End(V)^3
# ---------------------------------------------------------------------------

def action_matrix(d):
    """a: X -> ([X,B11], [X,B12], [X,B21], [X,B22], X i1, X i2, -j1 X,
    -j2 X) on row-major vectors, (4c^2 + 4cr) x c^2: X B is I (x) B^T and
    B X is B (x) I."""
    eye = Matrix.identity(d.c, GaussRational(1), GaussRational(0))
    return Matrix.vstack(
        [eye.kron(b.transpose()) - b.kron(eye)
         for b in (d.B11, d.B12, d.B21, d.B22)]
        + [eye.kron(i.transpose()) for i in (d.i1, d.i2)]
        + [-j.kron(eye) for j in (d.j1, d.j2)])


def residual_derivative(d):
    """dmu by central differences: the residuals are quadratic, so their
    derivative along a unit change E of one entry is (mu(d + E) -
    mu(d - E)) / 2.  Columns by block (B11, ..., j2), rows by residual, each
    block row-major, as in ``adhm.derivative_rank``."""
    blocks = [d.B11, d.B12, d.B21, d.B22, d.i1, d.i2, d.j1, d.j2]
    half = GaussRational(1) / 2
    cols = []
    for k, m in enumerate(blocks):
        for i in range(m.rows):
            for j in range(m.cols):
                def mu(step):
                    rows = [list(row) for row in m.a]
                    rows[i][j] = rows[i][j] + step
                    return complex_residuals(ComplexADHMDatum(
                        d.c, d.r, *blocks[:k], rows, *blocks[k + 1:]))
                cols.append([x for p, n in zip(mu(1), mu(-1))
                             for row in (p - n).scale(half).a for x in row])
    return Matrix(len(cols[0]), len(cols), [list(r) for r in zip(*cols)])


DEFORMATION_DATA = {
    **{f"locally_free_c{c}_s{s}": (lambda c=c, s=s: seeded("locally_free",
                                                           c, s))
       for c in (1, 2, 3, 4) for s in (0, 1)},
    **{f"reflexive_c{c}": (lambda c=c: seeded("reflexive", c, 0))
       for c in (2, 4)},
    **{f"generic_r{r}_c{c}": (lambda r=r, c=c: generic(r, c, 0))
       for r, c in ((2, 1), (4, 2), (6, 3))},
    "stable_c2r3": lambda: random_stable_solution(3, 2, 5),
}


@cache
def deformation(name, dual):
    """(d, a, dmu, rank dmu) for the named datum or its transpose dual."""
    d = DEFORMATION_DATA[name]()
    d = transpose_dual(d) if dual else d
    dmu = residual_derivative(d)
    return d, action_matrix(d), dmu, dmu.rank()


@pytest.mark.parametrize("dual", [False, True], ids=["d", "dual"])
@pytest.mark.parametrize("name", DEFORMATION_DATA)
class TestDeformationComplex:
    """Nakajima, Lectures on Hilbert Schemes of Points on Surfaces (1999),
    ch. 3: h0 = c^2 - rank a is the stabiliser, h2 = 3c^2 - rank dmu the
    obstruction space."""

    def test_dmu_is_the_derivative_adhm_rank_ranks(self, name, dual):
        d, _, _, rank_dmu = deformation(name, dual)
        assert rank_dmu == derivative_rank(d)

    def test_the_action_is_tangent_to_the_solutions(self, name, dual):
        _, a, dmu, _ = deformation(name, dual)
        assert (dmu * a).is_zero()

    def test_stable_and_dual_data_are_smooth_points(self, name, dual):
        d, a, _, rank_dmu = deformation(name, dual)
        rep = classify(d)
        assert rep["costable_everywhere"] if dual else rep["stable_everywhere"]
        assert d.c * d.c - a.rank() == 0
        assert 3 * d.c * d.c - rank_dmu == 0


def test_planted_data_are_tangent_but_obstructed():
    d = random_nonstable_solution(3, 3, 4)[0]
    dmu = residual_derivative(d)
    assert (dmu * action_matrix(d)).is_zero()
    assert 3 * d.c * d.c - dmu.rank() == 3


def test_a_stabiliser_gives_h0():
    # zero B's, i1 = e1, i2 = 0, j = 0: X fixes the datum iff X e1 = 0
    e1 = [[1], [0]]
    zero = [[0, 0], [0, 0]]
    d = ComplexADHMDatum(2, 1, zero, zero, zero, zero, e1, [[0], [0]],
                         [[0, 0]], [[0, 0]])
    a, dmu = action_matrix(d), residual_derivative(d)
    assert (dmu * a).is_zero()
    assert d.c * d.c - a.rank() == 2
