"""``qadhm adhm`` commands: residuals and stability, the real embedding,
seeded solutions and the derivative rank."""

from .cli import CLIError, _check_size, _emit_json, _load_datum, arg


def _cmd_adhm_check(args):
    from .adhm import classify
    from .datum import complex_residuals, is_complex_solution
    d = _load_datum(args.file)
    res = complex_residuals(d)
    report = {
        "r": d.r,
        "c": d.c,
        "solution": is_complex_solution(d),
        "residuals": [m.to_json() for m in res],
        "classification": classify(d).to_json(),
    }
    _emit_json(report, args.output)
    return report["solution"]


def _cmd_adhm_embed(args):
    from .datum import ADHMError
    from .real import embed_real
    d = _load_datum(args.file, real=True)
    try:
        out = embed_real(d)
    except ADHMError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(out.to_json(), args.output)
    return True


def _cmd_adhm_random(args):
    from .adhm import random_stable_solution
    from .datum import ADHMError
    if not -(1 << 63) <= args.seed < 1 << 63:
        raise CLIError("seed must be a 64-bit integer")
    _check_size(args.r, args.c)
    try:
        d = random_stable_solution(args.r, args.c, args.seed)
    except ADHMError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(d.to_json(), args.output)
    return True


def _cmd_adhm_rank(args):
    from .adhm import classify, derivative_rank
    d = _load_datum(args.file)
    rank = derivative_rank(d)
    ambient = 4 * d.c * d.c + 4 * d.c * d.r
    report = {
        "rank": rank,
        "full_rank": rank == 3 * d.c * d.c,
        "ambient_parameters": ambient,
        "gauge_dimension": d.c * d.c,
        "moduli_dimension": ambient - rank - d.c * d.c,
        "expected_moduli_dimension": 4 * d.r * d.c,
        "stable_everywhere": classify(d).stable_everywhere,
    }
    _emit_json(report, args.output)
    return True


_FILE = arg("file")
# subcommand -> (help, handler, arguments), in the order the help lists them
COMMANDS = {
    "check": ("residuals and stability classification", _cmd_adhm_check,
              [_FILE]),
    "embed": ("double a real solution into a complex one", _cmd_adhm_embed,
              [_FILE]),
    "random": ("seeded stable solution", _cmd_adhm_random,
               [arg("--seed", type=int, default=0,
                    help="64-bit seed (default %(default)s)"),
                arg("-r", type=int, required=True),
                arg("-c", type=int, required=True)]),
    "rank": ("derivative rank and dimension audit", _cmd_adhm_rank, [_FILE]),
}
