"""``qadhm monad`` commands: the monad of a datum, the class of its sheaf and
the Euler characteristics of twists."""

from .cli import FILE, CLIError, _load_datum, arg


def _cmd_monad_build(args):
    from .monad import build_monad
    return build_monad(_load_datum(args.file)).to_json(), True


def _cmd_monad_classify(args):
    from .monad import classify_sheaf
    return classify_sheaf(_load_datum(args.file)), True


def _cmd_monad_chern(args):
    from .chern import chi_twist
    if args.r < 1 or args.c < 1:
        raise CLIError("r and c must be positive")
    return chi_twist(args.r, args.c, args.k), True


COMMANDS = {
    "build": ("three-term complex of a solution", _cmd_monad_build, [FILE]),
    "classify": ("regularity class of the middle cohomology",
                 _cmd_monad_classify, [FILE]),
    "chern": ("Euler characteristic of the twist E(k)", _cmd_monad_chern,
              [arg("-r", type=int, required=True),
               arg("-c", type=int, required=True),
               arg("-k", type=int, required=True)]),
}
