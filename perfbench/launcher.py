"""Traced op runner: ``python3 perfbench/launcher.py TRACE_FILE ARGV...``.

Runs in the op's own fresh process, in place of ``python -m qadhm.cli``: it
imports ``qadhm.cli`` (timed), wraps the public functions of each module
(table ``TARGETS``), calls ``qadhm.cli.run(ARGV)`` and exits with its status.
Stdout is left to the command, so it must be byte-identical to the untraced
run.  At exit the per-name aggregates, the spans of coarse calls and the
``SortEngine`` memo size are written to ``TRACE_FILE`` as JSON.

A wrapper is installed on every binding of the wrapped object in every loaded
``qadhm`` module (``cli``, ``monad`` and ``qinstanton`` import functions with
``from ... import``, so patching only the defining module misses calls) and
on every class attribute that aliases a wrapped method (``__rmul__ =
__mul__``).  Self time is a call's duration minus the durations of the
wrapped calls it made; time in unwrapped callees counts towards the nearest
wrapped caller.  A target that no longer exists is listed under ``absent``.
"""

import functools
import json
import os
import sys
import time

# (metric name, module, attribute path, extra counter).  Several targets may
# share one name; the extra counter adds, per call, rows x cols of the matrix
# ("cells"), the number of polynomials handed in ("polys"), or 1 when the
# slice report was decided by the W-block certificate ("wblock").
TARGETS = [
    ("exactcore.gauss.add", "exactcore", "GaussRational.__add__", None),
    ("exactcore.gauss.mul", "exactcore", "GaussRational.__mul__", None),
    ("exactcore.gauss.div", "exactcore", "GaussRational.__truediv__", None),
    ("exactcore.qlaurent.add", "exactcore", "QLaurent.__add__", None),
    ("exactcore.qlaurent.mul", "exactcore", "QLaurent.__mul__", None),
    ("exactcore.qrat.add", "exactcore", "QRat.__add__", None),
    ("exactcore.qrat.mul", "exactcore", "QRat.__mul__", None),
    ("exactcore.qrat.div", "exactcore", "QRat.__truediv__", None),
    ("exactcore.matrix.rank", "exactcore", "Matrix.rank", "cells"),
    ("exactcore.matrix.rref", "exactcore", "Matrix.rref", "cells"),
    ("exactcore.matrix.det", "exactcore", "Matrix.det", "cells"),
    ("exactcore.matrix.kernel", "exactcore", "Matrix.kernel", "cells"),
    ("exactcore.matrix.solve", "exactcore", "Matrix.solve", "cells"),
    ("exactcore.homogeneous_gcd", "exactcore", "homogeneous_gcd", "polys"),
    ("exactcore.gcd_projective_roots", "exactcore", "gcd_projective_roots",
     None),
    ("adhm.classify", "adhm", "classify", None),
    ("adhm.derivative_rank", "adhm", "derivative_rank", None),
    ("adhm.complex_residuals", "adhm", "complex_residuals", None),
    ("monad.classify_sheaf", "monad", "classify_sheaf", None),
    ("monad.check_exactness_at", "monad", "check_exactness_at", None),
    ("monad.build_monad", "monad", "build_monad", None),
    ("qspacetime.ncpoly_mul", "qspacetime", "NCPoly.__mul__", None),
    ("qspacetime.normalize", "qspacetime", "normalize", None),
    ("qcalculus.derive_table", "qcalculus", "derive_table", None),
    ("qcalculus.solve_system", "qcalculus", "_solve_system", None),
    ("qcalculus.laplacian", "qcalculus", "laplacian", None),
    ("qcalculus.partials", "qcalculus", "partials", None),
    ("qcalculus.tilde_laplacian", "qcalculus", "tilde_laplacian", None),
    ("qinstanton.build_q_ops", "qinstanton", "build_q_ops", None),
    ("qinstanton.truncated_matrix", "qinstanton", "truncated_matrix", None),
    ("qinstanton.sparse_echelon", "qinstanton", "_sparse_containment", None),
    ("qinstanton.slice_rank_report", "qinstanton", "slice_rank_report",
     "wblock"),
    ("qinstanton.curvature_asd", "qinstanton", "curvature_asd", None),
    ("cli.emit", "cli", "_emit_json", None),
    ("cli.emit", "cli", "_emit", None),
]
# Every command handler of the CLI is traced under this one name.
HANDLER = "cli.handler"

# Called so often that a span per call would cost more than the call; these
# get aggregate counters only.
_NO_SPANS = {"exactcore.gauss.add", "exactcore.gauss.mul",
             "exactcore.gauss.div", "exactcore.qlaurent.add",
             "exactcore.qlaurent.mul", "exactcore.qrat.add",
             "exactcore.qrat.mul", "exactcore.qrat.div",
             "qspacetime.ncpoly_mul", "qspacetime.normalize"}
MAX_SPANS = 20000


def _cells(args, result):
    m = args[0]
    return m.rows * m.cols


def _polys(args, result):
    try:
        return len(args[0])
    except TypeError:
        return 0


def _wblock(args, result):
    return int(isinstance(result, dict)
               and "W-block" in str(result.get("method")))


_EXTRAS = {"cells": _cells, "polys": _polys, "wblock": _wblock}


class Tracer:
    """Aggregates [calls, self_s, incl_s, extra] per name and keeps spans
    (name, start, duration, parent span index) of coarse calls."""

    def __init__(self):
        self.agg = {}
        self.spans = []
        self.dropped_spans = 0
        self._stack = []        # [child seconds, span index] per live call
        self.absent = []

    def wrap(self, name, fn, extra=None):
        rec = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans = self._stack, self.spans
        keep_spans = name not in _NO_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if keep_spans:
                if len(spans) < MAX_SPANS:
                    frame[1] = len(spans)
                    spans.append([name, 0.0, 0.0,
                                  stack[-1][1] if stack else -1])
                else:
                    self.dropped_spans += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[2] += dt
                if frame[1] >= 0:
                    spans[frame[1]][1:3] = [t0, dt]
            if extra is not None:
                rec[3] += extra(args, result)
            return result
        return wrapper

    def install(self, modules):
        """Wrap every target found in ``modules`` (short name -> module)."""
        for name, mod_name, path, extra in TARGETS:
            owner = modules.get(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            self._rebind(orig, self.wrap(name, orig, _EXTRAS.get(extra)),
                         [owner] if cls_path else modules.values())
        cli = modules["cli"]
        for attr in sorted(vars(cli)):
            if attr.startswith("_cmd_"):
                orig = getattr(cli, attr)
                self._rebind(orig, self.wrap(HANDLER, orig), [cli])

    @staticmethod
    def _rebind(orig, wrapper, namespaces):
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapper)

    def dump(self, path, extra):
        out = {"agg": self.agg, "absent": self.absent,
               "spans": self.spans, "dropped_spans": self.dropped_spans}
        out.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


def _memo_entries(qspacetime):
    engines = getattr(qspacetime, "_ENGINES", None)
    if not isinstance(engines, dict):
        return None
    return sum(len(getattr(e, "_memo", ())) for e in engines.values())


def main(trace_file, argv):
    # Same module search path as ``python -m``: the working directory first,
    # not this script's directory.
    sys.path[0] = os.getcwd()
    t0 = time.perf_counter()
    import qadhm.cli
    import_s = time.perf_counter() - t0
    modules = {name.rpartition(".")[2]: mod
               for name, mod in list(sys.modules.items())
               if name.startswith("qadhm.") and mod is not None}
    tracer = Tracer()
    tracer.install(modules)
    try:
        code = qadhm.cli.run(argv)
    except SystemExit as exc:       # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    tracer.dump(trace_file, {
        "import_s": import_s,
        "sort_memo_entries": _memo_entries(modules.get("qspacetime")),
    })
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
