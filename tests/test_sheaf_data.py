"""Seeded solutions with j != 0 for the locally free and reflexive sheaf
classes, and the GL(c) x GL(r) covariance of every report that reads a
datum (ROADMAP items 14 and 18).

The locally free data have r = 2 and the reflexive data r = 5 with their
singular locus over [0:1]; both come with a seeded dense change of basis
(``helpers.random_locally_free_solution``, ``random_reflexive_solution``).
"""

import random
from functools import cache

import pytest

from qadhm.adhm import (classify, derivative_rank, random_nonstable_solution,
                        random_stable_solution)
from qadhm.exactcore import ADHMError, Matrix, is_complex_solution
from qadhm.monad import build_monad, classify_sheaf
from qadhm.qinstanton import curvature_asd, ids_report
from qadhm.slices import pencil_grid, slice_line, slice_verdict

from helpers import (gl_action, gl_r_action, random_invertible,
                     random_locally_free_solution, random_reflexive_solution)

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
        assert rep.stable_everywhere and rep.leftover_factors == []
        if kind == "locally_free":
            assert rep.regular and rep.failing_points == []
        else:
            assert rep.semiregular and not rep.regular
            (side, (z, w), _), = rep.failing_points
            assert (side, str(z), str(w)) == ("costable", "0/1", "1/1")

    @pytest.mark.parametrize("case", SEEDED, ids=_id)
    def test_classify_sheaf(self, case):
        sheaf = classify_sheaf(seeded(*case)).to_json()
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
    def test_curvature_depends_on_c_and_r_alone(self, case):
        d = seeded(*case)
        other = random_stable_solution(d.r, d.c, case[2])
        for p_choice in ("q", "qinv"):
            assert curvature_asd(d, p_choice) == curvature_asd(other, p_choice)


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
        return classify_sheaf(d).to_json()
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
        assert ({**before.to_json(), "witness_subspace": None}
                == {**after.to_json(), "witness_subspace": None})
        w, w_moved = before.witness_subspace, after.witness_subspace
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
