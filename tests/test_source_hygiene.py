"""Static checks on the package source: no dead imports (at module level or
inside functions), no dead helpers, no public name or method that only the
tests use, no stale ``__all__`` entries, no floating-point numbers, no
module-level ``fractions`` import outside an allowlist, no command option
that its handler never reads.

They read the modules with the standard-library ``ast`` parser; only the
``__all__`` entries that a module binds on first read, through a module
``__getattr__``, are checked on the imported module.
"""

import ast
import importlib
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def bound_names(node):
    """The names an import statement binds (none for ``__future__``)."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def local_imports(fn):
    """Import statements in a function's own body, nested functions aside."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(name, scope, imports, extra_used=()):
    """``module:line name`` for each name ``imports`` bind that ``scope``
    never loads (nor lists in ``extra_used``)."""
    used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    used |= set(extra_used)
    return [f"{name}:{node.lineno} {b}" for node in imports
            for b in bound_names(node) if b not in used]


def test_no_unused_module_level_imports():
    unused = []
    for name, tree in parse_modules().items():
        unused += unused_imports(name, tree, tree.body, exported_names(tree))
    assert not unused, f"unused imports: {unused}"


def test_no_unused_function_level_imports():
    # a name imported inside a function must be used in that function
    unused = []
    for name, tree in parse_modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                unused += unused_imports(name, fn, local_imports(fn))
    assert not unused, f"unused imports inside functions: {unused}"


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


# Public names that nothing in src/ uses, each with the reason it stays.
# Generators and helpers that only the tests use live in tests/helpers.py,
# and the paper statements that only the tests check in tests/statements.py.
_UNREFERENCED_PUBLIC = {
    # imported or traced by the benchmark (perfbench/)
    "adhm.py random_nonstable_solution":
        "perfbench/workloads.py plants the non-stable stability data with it",
    "monad.py check_exactness_at":
        "perfbench/launcher.py traces it",
    "qinstanton.py truncated_matrix":
        "perfbench/probes.py builds its slice probe with it",
    "qspacetime.py normalize":
        "perfbench/launcher.py traces it",
}


def public_bindings(node):
    """Public names a module-level definition or assignment binds."""
    if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if not n.startswith("_")]


def unreferenced_public_names():
    """``module name`` for each public top-level name that nothing in src/
    references outside its own definition."""
    trees = parse_modules()
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree))
    unused = set()
    for name, tree in trees.items():
        for node in tree.body:
            inside = Counter(referenced_names(node))
            unused.update(f"{name} {b}" for b in public_bindings(node)
                          if everywhere[b] - inside[b] <= 0)
    return unused


def test_every_public_name_is_used_in_src():
    # a public name only the tests call belongs in tests/helpers.py, unless
    # the allowlist says why it stays
    extra = sorted(unreferenced_public_names() - set(_UNREFERENCED_PUBLIC))
    assert not extra, f"public names nothing in src/ uses: {extra}"


def test_public_name_allowlist_is_current():
    # an entry whose name is gone, or is now used in src/, is dropped
    stale = sorted(set(_UNREFERENCED_PUBLIC) - unreferenced_public_names())
    assert not stale, f"allowlisted names that need no entry: {stale}"


# Public methods that nothing in src/ calls, each with the reason it stays.
_UNREFERENCED_METHODS = {}


def unreferenced_public_methods():
    """``module Class.method`` for each public method of a top-level class
    that nothing in src/ references outside its own definition."""
    trees = parse_modules()
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(referenced_names(tree))
    unused = set()
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, FUNCTIONS)
                        and not node.name.startswith("_")):
                    inside = Counter(referenced_names(node))
                    if everywhere[node.name] - inside[node.name] <= 0:
                        unused.add(f"{name} {cls.name}.{node.name}")
    return unused


def test_every_public_method_is_called_in_src():
    # a method only the tests call belongs in tests/ as a function, unless
    # the allowlist says why it stays
    extra = sorted(unreferenced_public_methods() - set(_UNREFERENCED_METHODS))
    assert not extra, f"public methods nothing in src/ calls: {extra}"


def test_public_method_allowlist_is_current():
    stale = sorted(set(_UNREFERENCED_METHODS) - unreferenced_public_methods())
    assert not stale, f"allowlisted methods that need no entry: {stale}"


def private_bindings(node):
    """Private names a module-level class or assignment binds."""
    if isinstance(node, ast.ClassDef):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def loaded_names(node):
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def test_every_private_class_and_assignment_is_used():
    # each must be loaded in its own module (outside its own definition) or
    # imported by another module
    trees = parse_modules()
    dead = []
    for name, tree in trees.items():
        imported = {alias.name for other, t in trees.items() if other != name
                    for node in ast.walk(t) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        loads = loaded_names(tree)
        for node in tree.body:
            inside = loaded_names(node)
            for b in private_bindings(node):
                if loads[b] - inside[b] <= 0 and b not in imported:
                    dead.append(f"{name}:{node.lineno} {b}")
    assert not dead, f"private classes and assignments nothing uses: {dead}"


def module_bindings(tree):
    """Every name a module binds at its top level: definitions, assignment
    targets and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
        else:
            names.update(bound_names(node))
    return names


def test_every_exported_name_exists():
    # a stale ``__all__`` entry breaks ``from qadhm.<module> import *``.  An
    # entry that a module ``__getattr__`` (PEP 562) binds on first read must
    # resolve on the imported module.
    stale = []
    for name, tree in parse_modules().items():
        bound = module_bindings(tree)
        unbound = sorted(exported_names(tree) - bound)
        if unbound and "__getattr__" in bound:
            module = importlib.import_module(f"qadhm.{name[:-3]}")
            unbound = [e for e in unbound if not hasattr(module, e)]
        stale += [f"{name} {e}" for e in unbound]
    assert not stale, f"__all__ entries naming nothing: {stale}"


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


# Modules that import ``fractions`` at module level, each with the reason.
# Importing it also loads ``decimal``, which costs every command that loads
# the module, so elsewhere it is imported only inside the function that
# makes a Fraction.
_FRACTIONS_AT_MODULE_LEVEL = {}


def module_level_imports(tree):
    """Import statements that run when the module loads: every one outside
    a function body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def test_fractions_imported_only_where_a_fraction_is_made():
    found = set()
    for name, tree in parse_modules().items():
        for node in module_level_imports(tree):
            modules = ([a.name for a in node.names]
                       if isinstance(node, ast.Import) else [node.module])
            if "fractions" in modules:
                found.add(name)
    assert found == set(_FRACTIONS_AT_MODULE_LEVEL), \
        "module-level fractions imports differ from the allowlist"


# (group, subcommand) -> {option dest: why the handler takes it unread}
_UNREAD_OPTIONS = {
    ("q", "normalize"): {
        "p_choice": "the benchmark's q normalize ops pass --p-choice; the "
                    "normal form is the same under both conventions"},
}


def argument_dest(call):
    """The ``dest`` argparse gives an ``arg(...)`` or ``add_argument(...)``
    call: its first long option, else its first short option or its
    positional name."""
    names = [a.value for a in call.args]
    longs = [n for n in names if n.startswith("--")]
    return (longs or names)[0].lstrip("-").replace("-", "_")


def module_assignments(tree):
    """{name: value node} of a module's top-level single-name assignments."""
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)}


def args_reads(fn, functions):
    """The ``args.<name>`` attributes a handler reads, also through the
    module's functions it passes ``args`` to."""
    reads, todo, seen = set(), [fn], set()
    while todo:
        f = todo.pop()
        if f.name in seen:
            continue
        seen.add(f.name)
        for node in ast.walk(f):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in functions
                    and any(isinstance(a, ast.Name) and a.id == "args"
                            for a in node.args)):
                todo.append(functions[node.func.id])
    return reads


def options_and_reads():
    """{(group, subcommand): (option dests, args attributes its handler
    reads)} from the ``COMMANDS`` table of each ``cli_<group>`` module and
    the options ``cli._build_parser`` gives every subcommand."""
    trees = parse_modules()
    cli_names = module_assignments(trees["cli.py"])
    build = next(node for node in trees["cli.py"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_build_parser")
    # the options of the parent parser ``common``
    shared = {argument_dest(node) for node in ast.walk(build)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "common"}
    out = {}
    for name, tree in trees.items():
        if not name.startswith("cli_"):
            continue
        names = {**cli_names, **module_assignments(tree)}
        functions = {node.name: node for node in tree.body
                     if isinstance(node, ast.FunctionDef)}
        for key, value in zip(names["COMMANDS"].keys,
                              names["COMMANDS"].values):
            _, handler, arguments = value.elts
            calls = [names[a.id] if isinstance(a, ast.Name) else a
                     for a in arguments.elts]
            dests = shared | {argument_dest(c) for c in calls}
            out[(name[4:-3], key.value)] = (
                dests, args_reads(functions[handler.id], functions))
    return out


def test_every_option_is_read_by_its_handler():
    # an option goes only on the commands whose handler reads it
    found = options_and_reads()
    assert len(found) == 17
    for command, (dests, reads) in found.items():
        unread = set(_UNREAD_OPTIONS.get(command, ()))
        assert unread <= dests - reads, command   # the allowlist is current
        assert dests - unread == reads, command
