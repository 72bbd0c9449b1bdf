"""Command-line front end: JSON reports for every operator family.

Every command emits one UTF-8 JSON document with sorted keys, the same bytes
for the same input and seed, to stdout or to ``--output``; ``monad chern``
prints its single number bare.  Exit status: 0 when every identity the
command asserts holds, 1 when a checked identity fails (the report is still
written), 2 for schema or precondition errors and unwritable reports, as
``{"error": {"type": "CLIError", "message": ...}}``, 3 for a failed internal
check, as that object of type "CalculusError" (on stderr if stdout fails).

The expression grammar of the ``q`` commands is in ``usage``.
"""

import atexit
import json
import os
import sys
from types import SimpleNamespace

__all__ = ["CLIError", "main", "run"]

MAX_DEGREE_CAP = 8
MAX_GRID_SIZE = 64
MAX_TWO_L = 32        # q harmonic / q eigen -l (twice l)
MAX_COCYCLE_ITEMS = 12  # items of a q penrose cocycle
MAX_DET_POWER = 16    # q harmonic / q eigen -k
MAX_RANK = 32         # r of adhm random and of every datum file
MAX_CHARGE = 12       # c of adhm random and of every datum file
MAX_EXPR_LENGTH = 200  # characters of a q normalize|partial|laplace expression
MAX_EXPR_DEGREE = 12   # degree of each product in such an expression


class CLIError(ValueError):
    """Schema violation, parse failure or precondition failure."""


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, or too deep
        raise CLIError(f"cannot load {path} as JSON: {exc}") from exc


def _check_size(r, c, where=""):
    if r > MAX_RANK or c > MAX_CHARGE:
        raise CLIError(f"{where}r must be at most {MAX_RANK} and c at most "
                       f"{MAX_CHARGE}")


def _load_datum(path, real=False):
    from .exactcore import ComplexADHMDatum, RealADHMDatum, datum_from_json
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CLIError(f"{path}: a datum is a JSON object")
    r, c = obj.get("r"), obj.get("c")
    if type(r) is int and type(c) is int:      # a JSON number, not a bool
        _check_size(r, c, f"{path}: ")
    try:
        d = datum_from_json(obj)
    except (TypeError, ValueError) as exc:
        raise CLIError(f"{path}: {exc}") from exc
    if not isinstance(d, RealADHMDatum if real else ComplexADHMDatum):
        raise CLIError(f"{path}: expected a real datum" if real else
                       f"{path}: expected a complex datum "
                       "(embed a real one with `adhm embed` first)")
    return d


def _emit(text, output):
    """Write and flush ``text`` to the path ``output``, or to stdout."""
    try:
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:  # its descriptor was closed at start
            raise OSError("it is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise CLIError(f"cannot write {output or 'stdout'}: {exc}") from exc


def _emit_json(obj, output):
    _emit(json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)
          + "\n", output)


# The command line.  Each group's handlers and ``COMMANDS`` table live in the
# module ``cli_<group>``, imported only when the command line names the group
# (there may be no bytecode cache).  A handler imports the library modules it
# uses and returns (report, ok): its report, which ``run`` writes, and whether
# every identity it asserts holds.  Group -> help:
_GROUPS = {
    "adhm": "matrix data commands",
    "monad": "monad and sheaf commands",
    "q": "quantum algebra and calculus commands",
    "inst": "module operator commands",
}


def arg(*names, **options):
    """One ``add_argument`` call, as a group's ``COMMANDS`` lists it."""
    return names, options


# the option of every command
OUTPUT = arg("--output", default=None,
             help="write the report to this path instead of stdout")
FILE = arg("file")  # the input of the commands that read a file
# the calculus convention of the q commands and ``inst curvature``
P_CHOICE = arg("--p-choice", default="q", choices=("q", "qinv"),
               help="calculus convention (default q)")


def commands(group):
    """The ``COMMANDS`` table of the module ``cli_<group>``: subcommand ->
    (help, handler, arguments), in the order the help lists them."""
    return __import__(f"cli_{group}", globals(), level=1,
                      fromlist=["COMMANDS"]).COMMANDS


def _read(argv):
    """The namespace argparse returns for ``argv``, or None when unsure:
    help, an abbreviation, ``--opt=value``, ``-r5``, ``--``, a repeat, a
    value that starts with ``-`` and is not a negative integer, a missing or
    extra argument, a bad int or choice.  Each argument has one name."""
    table = commands(argv[0]) if argv and argv[0] in _GROUPS else {}
    if len(argv) < 2 or argv[1] not in table:
        return None
    _, handler, arguments = table[argv[1]]
    ns = {"group": argv[0], "command": argv[1], "handler": handler}
    options, positionals = {}, []
    for (name,), opts in (OUTPUT, *arguments):
        if name[0] == "-":                # the dest argparse derives
            options[name] = name.lstrip("-").replace("-", "_"), opts
        else:
            positionals.append((name, opts))
    tokens = iter(argv[2:])
    for token in tokens:
        if token in options:
            (dest, opts), token = options[token], next(tokens, "-")
        elif positionals:
            dest, opts = positionals.pop(0)
        else:
            return None
        bad = dest in ns or token[:1] == "-" and not token[1:].isdecimal()
        try:
            ns[dest] = opts.get("type", str)(token)
        except ValueError:
            return None
        if bad or ns[dest] not in opts.get("choices", (ns[dest],)):
            return None
    for dest, opts in options.values():
        if dest not in ns and opts.get("required"):
            return None
        ns.setdefault(dest, opts.get("default"))
    return None if positionals else SimpleNamespace(**ns)


def run(argv=None):
    """Parse arguments, dispatch, and return the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        from .usage import build_parser
        args = build_parser().parse_args(argv)
    try:
        report, ok = args.handler(args)
        _emit_json(report, args.output)
    except Exception as exc:
        # a refused input raises a ValueError (CLIError, ADHMError), a failed
        # internal check a CalculusError, which only a loaded qcalculus raises
        calculus = sys.modules.get(f"{__package__}.qcalculus")
        failed = isinstance(exc, getattr(calculus, "CalculusError", ()))
        if not (failed or isinstance(exc, ValueError)):
            raise
        kind = "CalculusError" if failed else "CLIError"
        error = json.dumps({"error": {"type": kind, "message": str(exc)}},
                           sort_keys=True, ensure_ascii=False) + "\n"
        try:
            _emit(error, None)
        except CLIError:
            # stdout failed: report on stderr; its buffered rest goes to null
            sys.stderr.write(error)
            if sys.stdout:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3 if failed else 2
    return 0 if ok else 1


def main():
    code = run()
    # the report is out: end with no teardown unless traced or a flush fails
    if not (sys.gettrace() or sys.getprofile()):
        atexit._run_exitfuncs()  # which clears them: each runs once
        try:
            for stream in filter(None, (sys.stdout, sys.stderr)):
                stream.flush()
        except Exception:  # left to the interpreter's exit, as before
            sys.exit(code)
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    # ``python -m qadhm.cli``: this module is ``qadhm.cli`` too, shared with
    # the group modules; run unregistered (cProfile), it imports the real one
    if vars(sys.modules[__name__]) is globals():
        sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    from .cli import main
    main()
