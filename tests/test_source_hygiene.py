"""Static checks on the package source: no dead imports, no dead helpers,
no floating-point numbers.

Both read the modules with the standard-library ``ast`` parser only.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qadhm"


def parse_modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def referenced_names(node):
    """Every name a node's subtree mentions: loads, attributes, imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def exported_names(tree):
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def test_no_unused_module_level_imports():
    unused = []
    for name, tree in parse_modules().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= exported_names(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{name}:{node.lineno} {b}" for b in bound
                       if b not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_function_is_referenced():
    trees = parse_modules()
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree))
    dead = []
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                # a function that only calls itself is still dead
                inside = Counter(referenced_names(node))
                if everywhere[node.name] - inside[node.name] <= 0:
                    dead.append(f"{name}:{node.lineno} {node.name}")
    assert not dead, f"private functions nothing references: {dead}"


def test_no_floating_point():
    # every answer is exact: no float (or complex) literal, and no call that
    # makes or rounds a float
    inexact = []
    for name, tree in parse_modules().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and type(node.value) in (float, complex)):
                inexact.append(f"{name}:{node.lineno} {node.value!r}")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("float", "round")):
                inexact.append(f"{name}:{node.lineno} {node.func.id}()")
    assert not inexact, f"floating point in src/qadhm: {inexact}"
