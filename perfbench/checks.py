"""Output oracles for benchmark ops.

``check(op, exit_code, stdout)`` returns ``(ok, verdict)``.  ``verdict`` is a
short string kept in the results file: for a passing op it records what the
op decided (so two commits can be compared), for a failing op why it failed.
Every oracle is taken from how the op's input was built (see
``workloads.py``), never from a previous run.
"""

import json
from fractions import Fraction


class CheckFailed(Exception):
    pass


def _need(cond, why):
    if not cond:
        raise CheckFailed(why)


def _gauss(text):
    """(re, im) Fractions of a GaussRational string "a/b" or "a/b+c/d*i"."""
    text = text.strip()
    if not text.endswith("*i"):
        return Fraction(text), Fraction(0)
    body = text[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    return Fraction(body[:cut]), Fraction(body[cut:])


def _same_point(p, q):
    """Projective equality of [z0:w0] and [z1:w1] over Q(i)."""
    (a, b), (c, d) = (_gauss(p[0]), _gauss(p[1])), (_gauss(q[0]), _gauss(q[1]))
    # z0*w1 == z1*w0 with (x+yi)(u+vi) = (xu-yv) + (xv+yu)i
    lhs = (a[0] * d[0] - a[1] * d[1], a[0] * d[1] + a[1] * d[0])
    rhs = (c[0] * b[0] - c[1] * b[1], c[0] * b[1] + c[1] * b[0])
    return lhs == rhs


def _exit(code, want):
    _need(code == want, f"exit {code}, expected {want}")


def _check_stable(rep, exp, code):
    _exit(code, 0)
    cls = rep["classification"]
    _need(rep["solution"] is True, "not a solution")
    _need(cls["stable_everywhere"] is True, "stable data not stable everywhere")
    return "stable_everywhere"


def _check_nonstable(rep, exp, code):
    _exit(code, 0)
    _need(rep["solution"] is True, "not a solution")
    cls = rep["classification"]
    _need(cls["stable_everywhere"] is False, "planted failure not detected")
    mult = [fp["multiplicity"] for fp in cls["failing_points"]
            if fp["side"] == "stable"
            and _same_point((fp["z"], fp["w"]), exp["point"])]
    _need(mult and mult[0] >= exp["c"],
          f"planted point {exp['point']} missing or multiplicity < c")
    return f"fails at planted point, multiplicity {mult[0]}"


def _rank_stable(rep, exp, code):
    _exit(code, 0)
    _need(rep["full_rank"] is True, "derivative rank not full")
    _need(rep["moduli_dimension"] == rep["expected_moduli_dimension"],
          "moduli dimension differs from 4rc")
    _need(rep["stable_everywhere"] is True, "stable data not stable")
    return f"rank {rep['rank']}"


def _monad_build(rep, exp, code):
    _exit(code, 0)
    _need((rep.get("r"), rep.get("c")) == (exp["r"], exp["c"]),
          "monad has the wrong (r, c)")
    return "built"


def _classify_stable(rep, exp, code):
    _exit(code, 0)
    _need(rep["kind"] in ("torsion_free", "reflexive", "locally_free"),
          f"unknown sheaf kind {rep.get('kind')!r}")
    return rep["kind"]


def _classify_nonstable(rep, exp, code):
    _exit(code, 2)
    _need("not stable everywhere" in rep["error"]["message"],
          "non-stable datum refused for the wrong reason")
    return "refused: not stable everywhere"


def _adhm_random(rep, exp, code):
    _exit(code, 0)
    _need((rep["r"], rep["c"]) == (exp["r"], exp["c"]), "wrong (r, c)")
    return "datum"


def _inst_verify(rep, exp, code):
    _exit(code, 0)
    _need(rep["I"]["all_zero"] and rep["J"]["all_zero"],
          "operator identities do not vanish")
    return "all_zero"


def _curvature(rep, exp, code):
    _exit(code, 0)
    _need(rep["p_choice"] == exp["p_choice"], "wrong p_choice")
    return f"all_asd={rep['all_asd']}"


def _slices(rep, exp, code):
    # The exit code is the verdict: 0 all grid points covered, 1 some
    # direction missed (today the (2,3) data report a truncation artifact
    # here).  Only self-consistency is checked.
    _need(code in (0, 1), f"exit {code}, expected 0 or 1")
    reports = rep["reports"]
    surj = [r["surjective"] for r in reports]
    _need(rep["dmax"] == exp["dmax"], "wrong dmax")
    _need(len(reports) == rep["grid_size"], "one report per grid point")
    _need(rep["all_surjective"] == all(surj), "all_surjective != all(...)")
    _need((code == 0) == rep["all_surjective"], "exit code != verdict")
    _need(all(r["covered_dim"] <= r["slice_dim"] for r in reports),
          "covered_dim exceeds slice_dim")
    return f"surjective at {sum(surj)}/{len(surj)} points"


def _q_table(rep, exp, code):
    _exit(code, 0)
    _need(rep["p_choice"] == exp["p_choice"], "wrong p_choice")
    _need(rep["x_rules"] and rep["wedge_rules"], "empty rule table")
    return "table"


def _q_normalize(rep, exp, code):
    _exit(code, 0)
    _need(rep["input"] == exp["expr"], "input not echoed")
    return f"degree {rep['degree']}"


def _q_partial(rep, exp, code):
    _exit(code, 0)
    _need(rep["input"] == exp["expr"], "input not echoed")
    _need(len(rep["partials"]) == 4, "expected four partials")
    return "partials"


def _q_laplace(rep, exp, code):
    _exit(code, 0)
    _need(rep["input"] == exp["expr"], "input not echoed")
    return f"harmonic={rep['harmonic']}"


def _q_harmonic(rep, exp, code):
    _exit(code, 0)
    _need(rep["harmonic_part_is_harmonic"] is True,
          "harmonic part not harmonic")
    return "harmonic"


def _q_eigen(rep, exp, code):
    _exit(code, 0)
    _need(rep["verified_on_witness"] is True, "eigenvalue fails on witness")
    return "verified"


def _q_penrose(rep, exp, code):
    _exit(code, 0)
    _need(rep["harmonic"] is True, "Penrose image not harmonic")
    return "harmonic"


_ORACLES = {
    "check_stable": _check_stable,
    "check_nonstable": _check_nonstable,
    "rank_stable": _rank_stable,
    "monad_build": _monad_build,
    "classify_stable": _classify_stable,
    "classify_nonstable": _classify_nonstable,
    "adhm_random": _adhm_random,
    "inst_verify": _inst_verify,
    "curvature": _curvature,
    "slices": _slices,
    "q_table": _q_table,
    "q_normalize": _q_normalize,
    "q_partial": _q_partial,
    "q_laplace": _q_laplace,
    "q_harmonic": _q_harmonic,
    "q_eigen": _q_eigen,
    "q_penrose": _q_penrose,
}


def check(op, code, stdout):
    """(ok, verdict) for one op's exit code and stdout bytes."""
    if op["check"] == "number":
        try:
            Fraction(stdout.decode("utf-8").strip())
        except (UnicodeDecodeError, ValueError):
            return False, "output is not a number"
        if code != 0:
            return False, f"exit {code}, expected 0"
        return True, stdout.decode("utf-8").strip()
    try:
        rep = json.loads(stdout)
    except (UnicodeDecodeError, ValueError):
        return False, f"exit {code}, output is not JSON"
    try:
        return True, _ORACLES[op["check"]](rep, op["expect"], code)
    except CheckFailed as exc:
        return False, str(exc)
    except (KeyError, TypeError, IndexError) as exc:
        return False, f"exit {code}, report lacks {exc!r}"
