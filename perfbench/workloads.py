"""Seeded inputs and op lists of the three benchmark workloads.

Run as a script, this module writes one workload's input files and its
``manifest.json`` into a directory::

    python3 perfbench/workloads.py SRC_DIR WORKLOAD SEED OUT_DIR

``SRC_DIR`` is the directory that holds the ``qadhm`` package.  Inputs come
only from the library's own generators (``random_stable_solution``,
``random_nonstable_solution``) and from a seeded expression and index
generator, so the same seed always gives the same files.  Each manifest op is
``{"argv": [...], "check": name, "expect": {...}}``: the argv of one
``python -m qadhm.cli`` call, run from ``OUT_DIR``, and the oracle in
``checks.py`` that its output must pass, with what the oracle knows from how
the input was built.
"""

import json
import os
import random
import sys

STABLE_SHAPES = ((2, 2), (2, 3), (3, 3))
P_CHOICES = ("q", "qinv")


def _op(argv, check, **expect):
    return {"argv": [str(a) for a in argv], "check": check, "expect": expect}


class _Inputs:
    """Writes input files into ``out`` with seeds drawn from one RNG."""

    def __init__(self, workload, seed, out):
        self.rng = random.Random(f"{workload}:{seed}")
        self.out = out

    def seed(self):
        return self.rng.randrange(1 << 31)

    def write(self, name, obj):
        with open(os.path.join(self.out, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
        return name

    def stable(self, r, c, tag=""):
        from qadhm.adhm import random_stable_solution
        return self.write(f"stable_{r}{c}{tag}.json",
                          random_stable_solution(r, c, self.seed()).to_json())

    def nonstable(self, r, c, tag=""):
        """(file name, planted failing point [z, w] as strings)."""
        from qadhm.adhm import random_nonstable_solution
        d, (z, w) = random_nonstable_solution(r, c, self.seed())
        name = self.write(f"nonstable_{r}{c}{tag}.json", d.to_json())
        return name, [str(z), str(w)]


def stability(b):
    """Stability taxonomy and rank audits: dense GaussRational Bareiss rank
    and Krylov minor gcds.  Stable data exit the minor loop early; the
    planted non-stable data enumerate every minor, so the tail ops carry the
    gcd work and the median ops (interpreter start, import, small checks)
    do not."""
    ops = [_op(["adhm", "random", "-r", r, "-c", 3, "--seed", b.seed()],
               "adhm_random", r=r, c=3) for r in (2, 3)]
    for _ in range(2):
        ops.append(_op(["monad", "chern", "-r", b.rng.randint(1, 3),
                        "-c", b.rng.randint(1, 4), "-k", b.rng.randint(-2, 3)],
                       "number"))
    for r, c in STABLE_SHAPES:
        f = b.stable(r, c)
        ops += [_op(["adhm", "check", f], "check_stable"),
                _op(["adhm", "rank", f], "rank_stable"),
                _op(["monad", "build", f], "monad_build", r=r, c=c),
                _op(["monad", "classify", f], "classify_stable")]
    # Planted non-stable data: four (2,2) data, whose ops mostly pay the
    # sympy import and factorization of gcd_projective_roots, and one (3,3)
    # datum whose check enumerates all 1,330 Krylov minors.  The (2,2) ops
    # hold the tail percentile; spreading them over four data keeps one
    # datum's factorization cost from setting op_tail_s.
    for tag in ("", "b", "c", "d"):
        f, point = b.nonstable(2, 2, tag)
        ops += [_op(["monad", "build", f], "monad_build", r=2, c=2),
                _op(["adhm", "check", f], "check_nonstable", c=2, point=point)]
        if not tag:
            ops.append(_op(["monad", "classify", f], "classify_nonstable"))
    f, point = b.nonstable(3, 3)
    ops += [_op(["monad", "build", f], "monad_build", r=3, c=3),
            _op(["adhm", "check", f], "check_nonstable", c=3, point=point)]
    return ops


def slices(b):
    """Module operators on stable data.  The (2,3) data have c > r, so every
    grid point of ``inst slices`` goes to the sparse QRat echelon; the (2,2)
    and (3,3) data take the constant W-block certificate (the bypass).

    The echelon runs at dmax 1 on ten (2,3) data, so no one datum's draw and
    no one multi-second op sets the pass time.  The op counts are chosen so
    that each reported percentile of two passes falls inside a cluster of
    similar ops, not on an edge between clusters: 10 short bypass and
    verify ops, 6 curvature ops (the median) and 10 echelon ops (p80)."""
    ops = []
    for r, c in ((2, 2), (3, 3)):
        f = b.stable(r, c)
        ops += _curvature(f)
        for g in (f, b.stable(r, c, "b")):
            ops += [_op(["inst", "slices", g, "--dmax", 2], "slices", dmax=2),
                    _op(["inst", "verify", g], "inst_verify")]
    for k, tag in enumerate("abcdefghij"):
        f = b.stable(2, 3, tag)
        ops.append(_op(["inst", "slices", f, "--dmax", 1], "slices", dmax=1))
        if k < 2:
            ops.append(_op(["inst", "verify", f], "inst_verify"))
        if k == 0:
            ops += _curvature(f)
    return ops


def _curvature(f):
    return [_op(["inst", "curvature", f, "--p-choice", p], "curvature",
                p_choice=p) for p in P_CHOICES]


_COEFFS = ("", "2*", "3*", "q*", "q^-1*", "q^2*", "(1+q)*", "(q-2)*")


def _expr(rng):
    """Sum of 2..4 noncommutative words of degree 4..6."""
    from qadhm.qspacetime import X_NAMES
    out = ""
    for n in range(rng.randint(2, 4)):
        word = "*".join(rng.choice(X_NAMES) for _ in range(rng.randint(4, 6)))
        if n:
            out += rng.choice((" + ", " - "))
        out += rng.choice(_COEFFS) + word
    return out


def _harmonic_index(rng):
    two_l = rng.randint(2, 4)
    steps = range(-two_l, two_l + 1, 2)
    return two_l, rng.choice(steps), rng.choice(steps), rng.randint(0, 1)


def _cocycle(rng):
    items = []
    for _ in range(rng.randint(1, 3)):
        l_sum = rng.randint(0, 3)
        ex = rng.randint(0, l_sum)
        ez = -rng.randint(1, l_sum + 1)
        coeff = f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}"
        if rng.random() < 0.5:
            coeff += f"+{rng.randint(1, 5)}/{rng.randint(1, 4)}*i"
        items.append({"exponents": [ex, l_sum - ex, ez, -2 - l_sum - ez],
                      "coeff": coeff})
    return {"cocycle": items}


def qcalculus(b):
    """Many short q-algebra and calculus requests: each op is dominated by
    interpreter start, ``import qadhm.cli`` and the per-process
    ``derive_table``; no Matrix.rank, adhm or qinstanton work."""
    rng = b.rng
    ops = []
    for p in P_CHOICES:
        pc = ["--p-choice", p]
        ops.append(_op(["q", "table", *pc], "q_table", p_choice=p))
        for _ in range(3):
            e = _expr(rng)
            ops.append(_op(["q", "normalize", e, *pc], "q_normalize", expr=e))
        for _ in range(2):
            e = _expr(rng)
            ops.append(_op(["q", "partial", e, *pc], "q_partial", expr=e))
        for _ in range(2):
            e = _expr(rng)
            ops.append(_op(["q", "laplace", e, *pc], "q_laplace", expr=e))
        for _ in range(2):
            l, m, n, k = _harmonic_index(rng)
            ops.append(_op(["q", "harmonic", "-l", l, "-m", m, "-n", n,
                            "-k", k, *pc], "q_harmonic"))
        for _ in range(2):
            ops.append(_op(["q", "eigen", "-k", rng.randint(1, 2),
                            "-l", rng.randint(1, 3), *pc], "q_eigen"))
        f = b.write(f"cocycle_{p}.json", _cocycle(rng))
        ops.append(_op(["q", "penrose", f, *pc], "q_penrose"))
    return ops


WORKLOADS = {"stability": stability, "slices": slices, "qcalculus": qcalculus}


def build(workload, seed, out):
    """Write the inputs and manifest of ``workload`` for ``seed`` into out."""
    ops = WORKLOADS[workload](_Inputs(workload, seed, out))
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    src, workload, seed, out = sys.argv[1:]
    if workload not in WORKLOADS:
        sys.exit(f"unknown workload {workload!r}")
    sys.path.insert(0, src)
    build(workload, int(seed), out)
