"""Layer probes: fixed in-process calls, timed after a warm-up call.

    python3 perfbench/probes.py SRC_DIR          # all probes, JSON on stdout
    python3 perfbench/probes.py SRC_DIR cold     # one cold derive_table

Each probe reports seconds per call, the median of several timed batches.
The inputs are fixed (seed 0), not drawn from the workload seed, so the
numbers compare across runs and commits like the single-run table in
ROADMAP item 1.  ``cold`` times the first ``derive_table`` of a fresh
process, which every ``q`` command pays once.  The output is
``{"metrics": {name: seconds}, "absent": [...]}``; probes whose library
calls no longer exist are listed as absent instead of failing the run.
"""

import json
import random
import statistics
import sys
import time
from fractions import Fraction


def per_call(fn, number, reps=5):
    """Median over ``reps`` batches of seconds per call, after one warm-up."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def _inputs():
    """The fixed probe inputs, built from seed 0."""
    from qadhm.adhm import random_stable_solution
    from qadhm.exactcore import (GaussRational, Matrix, QLaurent, QRat,
                                 random_gauss)
    from qadhm.qinstanton import build_q_ops, truncated_matrix

    rng = random.Random(0)

    def laurent(terms):
        return QLaurent({e: random_gauss(rng) for e in range(-3, terms - 3)})

    ga = GaussRational(Fraction(355, 113), Fraction(-22, 7))
    gb = GaussRational(Fraction(-17, 12), Fraction(9, 4))
    la, lb = laurent(7), laurent(7)
    ra, rb = QRat(laurent(7), laurent(7)), QRat(laurent(7), laurent(7))
    dense = Matrix(12, 14, [[random_gauss(rng) for _ in range(14)]
                            for _ in range(12)])
    d = random_stable_solution(2, 3, 0)
    _, _, b1, b2 = build_q_ops(d)
    pencil = b1.scale(GaussRational(1)) + b2.scale(GaussRational(2, 1))
    truncated = truncated_matrix(pencil, 1, 2)
    return {
        "probe.gauss_mul_s": (lambda: ga * gb, 2000, 5),
        "probe.qlaurent_mul_s": (lambda: la * lb, 100, 5),
        "probe.qrat_add_s": (lambda: ra + rb, 1, 3),
        "probe.rank_dense_s": (dense.rank, 1, 3),
        "probe.rank_truncated_s": (truncated.rank, 1, 3),
        "probe.build_q_ops_s": (lambda: build_q_ops(d), 20, 5),
    }


def probes():
    try:
        calls = _inputs()
    except (ImportError, AttributeError, TypeError) as exc:
        # The library no longer offers what a probe calls: report every
        # probe as absent rather than failing the run.
        return {"metrics": {}, "absent": [f"probes: {exc!r}"]}
    return {"metrics": {name: per_call(fn, number, reps)
                        for name, (fn, number, reps) in calls.items()},
            "absent": []}


def cold_derive_table():
    try:
        from qadhm.qcalculus import derive_table
    except ImportError as exc:
        return {"metrics": {}, "absent": [f"cold derive_table: {exc!r}"]}
    t0 = time.perf_counter()
    derive_table("q")
    return {"metrics": {"probe.derive_table_cold_s": time.perf_counter() - t0},
            "absent": []}


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    cold = sys.argv[2:] == ["cold"]
    print(json.dumps(cold_derive_table() if cold else probes()))
