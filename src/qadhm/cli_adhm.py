"""``qadhm adhm`` commands: residuals and stability, the real embedding,
seeded solutions and the derivative rank."""

from .cli import FILE, CLIError, _check_size, _load_datum, arg


def _cmd_adhm_check(args):
    from .adhm import classify
    from .exactcore import complex_residuals
    d = _load_datum(args.file)
    res = complex_residuals(d)
    report = {"r": d.r, "c": d.c, "solution": all(m.is_zero() for m in res),
              "residuals": [m.to_json() for m in res],
              "classification": classify(d).to_json()}
    return report, report["solution"]


def _cmd_adhm_embed(args):
    from .real import embed_real
    d = _load_datum(args.file, real=True)
    return embed_real(d).to_json(), True


def _cmd_adhm_random(args):
    if not -(1 << 63) <= args.seed < 1 << 63:
        raise CLIError("seed must be a 64-bit integer")
    _check_size(args.r, args.c)
    # the construction draws the top rows of i1 and i2 independent in C^r
    if args.r < 2:
        raise CLIError("-r must be at least 2")
    if args.c < 1:
        raise CLIError("-c must be at least 1 (c >= 1)")
    from .adhm import random_stable_solution
    return random_stable_solution(args.r, args.c, args.seed).to_json(), True


def _cmd_adhm_rank(args):
    from .adhm import derivative_rank
    from .krylov import holds_everywhere, stable_side_of
    d = _load_datum(args.file)
    d.require_solution()  # off the moduli space: no dimension
    rank = derivative_rank(d)
    ambient = 4 * d.c * d.c + 4 * d.c * d.r
    return {
        "rank": rank,
        "full_rank": rank == 3 * d.c * d.c,
        "ambient_parameters": ambient,
        "gauge_dimension": d.c * d.c,
        "moduli_dimension": ambient - rank - d.c * d.c,
        "expected_moduli_dimension": 4 * d.r * d.c,
        "stable_everywhere": holds_everywhere(stable_side_of(d)),
    }, True


COMMANDS = {
    "check": ("residuals and stability classification", _cmd_adhm_check,
              [FILE]),
    "embed": ("double a real solution into a complex one", _cmd_adhm_embed,
              [FILE]),
    "random": ("seeded stable solution", _cmd_adhm_random,
               [arg("--seed", type=int, default=0,
                    help="64-bit seed (default %(default)s)"),
                arg("-r", type=int, required=True),
                arg("-c", type=int, required=True)]),
    "rank": ("derivative rank and dimension audit", _cmd_adhm_rank, [FILE]),
}
