"""The benchmark keeps working when library code moves between modules.

``perfbench/`` is read here, never imported or changed: every
``from qadhm.X import Y`` in its workload and probe builders must still
resolve, and so must every ``launcher.py`` ``TARGETS`` entry that resolved
when this test was written.  The entries that were already stale then are
listed with their reason.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# TARGETS entries (module, attribute path) that name nothing: the benchmark
# tracks code that has left those modules, and only a change to the
# benchmark itself may update them
_KNOWN_ABSENT = {
    ("exactcore", "Matrix.rref"): "ROADMAP item 9",
    ("exactcore", "Matrix.det"): "ROADMAP item 9",
    ("exactcore", "homogeneous_gcd"): "ROADMAP item 9",
    ("exactcore", "gcd_projective_roots"): "ROADMAP item 9",
    ("adhm", "complex_residuals"): "ROADMAP item 9",
    ("qinstanton", "_sparse_containment"): "ROADMAP item 9",
    ("qinstanton", "slice_rank_report"): "ROADMAP item 9",
    ("qcalculus", "_solve_system"):
        "ROADMAP item 9: the calculus tables are stored constants, and their "
        "solver is the test oracle tests/calculus_oracle.py",
}


def qadhm_imports(name):
    """(module, name) for each ``from qadhm.X import Y`` in a perfbench
    file, at any depth."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    return sorted({(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").startswith("qadhm.")
                   for alias in node.names})


def launcher_targets():
    """(module, attribute path) of each ``TARGETS`` entry."""
    tree = ast.parse((PERFBENCH / "launcher.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return sorted({(mod, path) for _, mod, path, _ in
                           ast.literal_eval(node.value)})
    raise AssertionError("launcher.py defines no TARGETS")


def resolves(module, path):
    obj = importlib.import_module(f"qadhm.{module}")
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


@pytest.mark.parametrize("name", ["workloads.py", "probes.py"])
def test_builder_imports_resolve(name):
    imports = qadhm_imports(name)
    assert imports
    missing = [f"{m} {n}" for m, n in imports
               if not resolves(m.partition(".")[2], n)]
    assert not missing, f"perfbench/{name} imports names that are gone: " \
        f"{missing}"


def test_launcher_targets_resolve():
    targets = launcher_targets()
    absent = {t for t in targets if not resolves(*t)}
    assert absent == set(_KNOWN_ABSENT), \
        f"newly absent: {sorted(absent - set(_KNOWN_ABSENT))}; " \
        f"resolving again: {sorted(set(_KNOWN_ABSENT) - absent)}"
    for pinned in [("adhm", "classify"), ("adhm", "derivative_rank"),
                   ("monad", "classify_sheaf"),
                   ("monad", "check_exactness_at"),
                   ("monad", "build_monad"), ("qspacetime", "normalize")]:
        assert pinned in targets


def test_exactcore_binds_the_scalar_classes():
    # The benchmark imports and traces the scalar types through exactcore,
    # and they are defined in scalars: exactcore must bind the very class
    # objects, so a wrapper installed through one module sees the calls
    # made through the other.
    from qadhm import exactcore, scalars
    names = {n for m, n in qadhm_imports("probes.py")
             + qadhm_imports("workloads.py") if m == "qadhm.exactcore"}
    names |= {path.partition(".")[0] for mod, path in launcher_targets()
              if mod == "exactcore"}
    moved = {n for n in names if hasattr(scalars, n)}
    assert moved == {"GaussRational", "QLaurent", "QRat"}
    for name in moved:
        assert getattr(exactcore, name) is getattr(scalars, name)
        assert name in exactcore.__all__
