"""Command-line front end: JSON reports for every operator family.

Subcommand groups:

* ``adhm``  -- ``check`` (residuals + stability classification), ``embed``
  (real datum to its doubled complex form), ``random`` (seeded stable
  solution), ``rank`` (derivative rank and moduli dimension audit);
* ``monad`` -- ``build``, ``classify``, ``chern``;
* ``q``     -- ``normalize``, ``partial``, ``laplace``, ``harmonic``,
  ``eigen``, ``table``, ``penrose``;
* ``inst``  -- ``verify``, ``curvature``, ``slices``.

Every command emits one UTF-8 JSON document with sorted keys (identical
input, seed and configuration give byte-identical output), either to stdout
or to ``--output``.  ``monad chern`` prints its single number bare.  Exit
status: 0 when every identity the command asserts holds, 1 when a checked
identity fails (the report is still written), 2 for schema or precondition
errors, which are reported as ``{"error": {"type", "message"}}``.

Expression grammar for the ``q`` commands::

    expr   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := INT | 'q' ['^' SINT] | WORD | '(' expr ')'
    WORD   := x11 | x12 | x21 | x22 | det

INT is a nonnegative integer, SINT may carry a sign; juxtaposed factors must
be joined with '*'.  Words multiply as noncommutative generators and results
are printed in normal form.
"""

import argparse
import json
import sys

__all__ = ["CLIError", "main", "run"]

MAX_DEGREE_CAP = 8
MAX_GRID_SIZE = 64
MAX_TWO_L = 32        # q harmonic / q eigen -l (twice l)
MAX_DET_POWER = 16    # q harmonic / q eigen -k
MAX_RANK = 32         # r of adhm random and of every datum file
MAX_CHARGE = 12       # c of adhm random and of every datum file
MAX_EXPR_LENGTH = 200  # characters of a q normalize|partial|laplace expression
MAX_EXPR_DEGREE = 12   # degree of each product in such an expression


class CLIError(ValueError):
    """Schema violation, parse failure or precondition failure."""


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path} is not valid JSON: {exc}") from exc


def _check_size(r, c, where=""):
    if r > MAX_RANK or c > MAX_CHARGE:
        raise CLIError(f"{where}r must be at most {MAX_RANK} and c at most "
                       f"{MAX_CHARGE}")


def _load_datum(path, real=False):
    from .datum import ComplexADHMDatum, RealADHMDatum, datum_from_json
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CLIError(f"{path}: a datum is a JSON object")
    r, c = obj.get("r"), obj.get("c")
    if type(r) is int and type(c) is int:      # a JSON number, not a bool
        _check_size(r, c, f"{path}: ")
    try:
        d = datum_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"{path}: {exc}") from exc
    if not real and not isinstance(d, ComplexADHMDatum):
        raise CLIError(f"{path}: expected a complex datum "
                       "(embed a real one with `adhm embed` first)")
    if real and not isinstance(d, RealADHMDatum):
        raise CLIError(f"{path}: expected a real datum")
    return d


def _emit(text, output):
    """Write ``text`` to the path ``output``, or to stdout when it is None."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, output):
    _emit(json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)
          + "\n", output)


# ---------------------------------------------------------------------------
# parser assembly.  Each group's handlers and its ``COMMANDS`` table live in
# the module ``cli_<group>``, imported only when the parser needs that group,
# so a process compiles only the modules of the command it runs (there may be
# no bytecode cache).  Each handler returns True when every asserted identity
# holds, and imports the library modules it uses.
# ---------------------------------------------------------------------------

# group -> help
_GROUPS = {
    "adhm": "matrix data commands",
    "monad": "monad and sheaf commands",
    "q": "quantum algebra and calculus commands",
    "inst": "module operator commands",
}


def arg(*names, **options):
    """One ``add_argument`` call, as a group's ``COMMANDS`` lists it."""
    return names, options


# the calculus convention, an option of the commands that derive the
# calculus tables: the q commands and ``inst curvature``
P_CHOICE = arg("--p-choice", default="q", choices=("q", "qinv"),
               help="calculus convention (default q)")


def _build_parser(argv=()):
    """The parser for ``argv``.  Every group gets its parser, but only the
    group that ``argv[0]`` names gets subcommands, and of those only the one
    that ``argv[1]`` names; when either names none (``--help``, a missing
    or unknown name) every subcommand of that level is built, so help and
    error texts are those of the full parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qadhm",
        description="Exact reports for matrix data, monads, the quantum "
                    "algebra and module operators.",
        epilog="Expression grammar" + __doc__.split("Expression grammar", 1)[1],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = parser.add_subparsers(dest="group", required=True)
    named = argv[0] if argv and argv[0] in _GROUPS else None
    for name, help_text in _GROUPS.items():
        group = groups.add_parser(name, help=help_text)
        if named not in (None, name):
            continue
        # the statement ``from . import cli_<name>``
        commands = __import__(f"cli_{name}", globals(), level=1,
                              fromlist=["COMMANDS"]).COMMANDS
        if named and len(argv) > 1 and argv[1] in commands:
            commands = {argv[1]: commands[argv[1]]}
        sub = group.add_subparsers(dest="command", required=True)
        for command, (command_help, handler, arguments) in commands.items():
            p = sub.add_parser(command, parents=[common], help=command_help)
            for names, options in arguments:
                p.add_argument(*names, **options)
            p.set_defaults(handler=handler)
    return parser


def run(argv=None):
    """Parse arguments, dispatch, and return the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        ok = args.handler(args)
    except ValueError as exc:
        # CLIError and every library precondition error derive from
        # ValueError; report them as one machine-readable object.
        sys.stdout.write(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
            sort_keys=True, ensure_ascii=False) + "\n")
        return 2
    return 0 if ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    # ``python -m qadhm.cli`` runs this file as ``__main__``.  Register it
    # under its own name too, so that the group modules, which import from
    # ``qadhm.cli``, share it instead of compiling and running a second copy.
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    main()
