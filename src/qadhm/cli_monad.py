"""``qadhm monad`` commands: the monad of a datum, the class of its sheaf and
the Euler characteristics of twists."""

from .cli import CLIError, _emit, _emit_json, _load_datum, arg


def _cmd_monad_build(args):
    from .monad import MonadError, build_monad
    d = _load_datum(args.file)
    try:
        m = build_monad(d)
    except MonadError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(m.to_json(), args.output)
    return True


def _cmd_monad_classify(args):
    from .monad import MonadError, classify_sheaf
    d = _load_datum(args.file)
    try:
        rep = classify_sheaf(d)
    except MonadError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(rep.to_json(), args.output)
    return True


def _cmd_monad_chern(args):
    from .chern import chi_twist
    if args.r < 1 or args.c < 1:
        raise CLIError("r and c must be positive")
    _emit(str(chi_twist(args.r, args.c, args.k)) + "\n", args.output)
    return True


_FILE = arg("file")
# subcommand -> (help, handler, arguments), in the order the help lists them
COMMANDS = {
    "build": ("three-term complex of a solution", _cmd_monad_build, [_FILE]),
    "classify": ("regularity class of the middle cohomology",
                 _cmd_monad_classify, [_FILE]),
    "chern": ("Euler characteristic of the twist E(k)", _cmd_monad_chern,
              [arg("-r", type=int, required=True),
               arg("-c", type=int, required=True),
               arg("-k", type=int, required=True)]),
}
