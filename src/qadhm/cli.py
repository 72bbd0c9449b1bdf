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

__all__ = ["CLIError", "ExprParser", "RunConfig", "main", "parse_expr", "run"]

P_CHOICES = ("q", "qinv")
MAX_DEGREE_CAP = 8
MAX_GRID_SIZE = 64
MAX_TWO_L = 32        # q harmonic / q eigen -l (twice l)
MAX_DET_POWER = 16    # q harmonic / q eigen -k
MAX_RANK = 32         # r of adhm random and of every datum file
MAX_CHARGE = 12       # c of adhm random and of every datum file
_SEED_BOUND = 1 << 63


class CLIError(ValueError):
    """Schema violation, parse failure or precondition failure."""


class RunConfig:
    """Validated run options shared by all commands."""

    __slots__ = ("p_choice", "seed", "degree_cap", "grid_size", "output")

    def __init__(self, p_choice="q", seed=0, degree_cap=4, grid_size=12,
                 output=None):
        if p_choice not in P_CHOICES:
            raise CLIError(f"p_choice must be one of {P_CHOICES}")
        if not isinstance(seed, int) or not -_SEED_BOUND <= seed < _SEED_BOUND:
            raise CLIError("seed must be a 64-bit integer")
        if not isinstance(degree_cap, int) \
                or not 0 <= degree_cap <= MAX_DEGREE_CAP:
            raise CLIError(f"degree_cap must lie in 0..{MAX_DEGREE_CAP}")
        if not isinstance(grid_size, int) \
                or not 1 <= grid_size <= MAX_GRID_SIZE:
            raise CLIError(f"grid_size must lie in 1..{MAX_GRID_SIZE}")
        self.p_choice = p_choice
        self.seed = seed
        self.degree_cap = degree_cap
        self.grid_size = grid_size
        self.output = output


# ---------------------------------------------------------------------------
# expression mini-language
# ---------------------------------------------------------------------------

class ExprParser:
    """Recursive-descent parser for the q-command expression language."""

    def __init__(self, text):
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text):
        tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*^()":
                tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(int(text[i:j]))
                i = j
            elif ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise CLIError(f"unexpected character {ch!r} in expression")
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        out = self._expr()
        if self._peek() is not None:
            raise CLIError(f"trailing token {self._peek()!r} in expression")
        return out

    def _expr(self):
        acc = self._term()
        while self._peek() in ("+", "-"):
            if self._next() == "+":
                acc = acc + self._term()
            else:
                acc = acc - self._term()
        return acc

    def _term(self):
        negate = False
        while self._peek() == "-":
            self._next()
            negate = not negate
        acc = self._factor()
        while self._peek() == "*":
            self._next()
            acc = acc * self._factor()
        if negate:
            acc = -acc
        return acc

    def _factor(self):
        from .exactcore import QLaurent
        from .qspacetime import NCPoly, X_NAMES, det_x
        tok = self._next()
        if tok is None:
            raise CLIError("expression ended where a factor was expected")
        if isinstance(tok, int):
            return NCPoly("I", {(0, 0, 0, 0): QLaurent.from_scalar(tok)})
        if tok == "(":
            inner = self._expr()
            if self._next() != ")":
                raise CLIError("unbalanced parenthesis in expression")
            return inner
        if tok == "q":
            exp = 1
            if self._peek() == "^":
                self._next()
                exp = self._signed_int()
            return NCPoly("I", {(0, 0, 0, 0): QLaurent.q_power(exp)})
        if tok == "det":
            return det_x()
        if tok in X_NAMES:
            return NCPoly.gen("I", tok)
        raise CLIError(f"unknown token {tok!r} in expression "
                       f"(words: {', '.join(X_NAMES)}, det)")

    def _signed_int(self):
        sign = 1
        while self._peek() in ("+", "-"):
            if self._next() == "-":
                sign = -sign
        tok = self._next()
        if not isinstance(tok, int):
            raise CLIError("q^ must be followed by an integer exponent")
        return sign * tok


def parse_expr(text):
    """Chart-I polynomial named by an expression string, in normal form."""
    if not text or not text.strip():
        raise CLIError("empty expression")
    return ExprParser(text).parse()


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
    from .adhm import ComplexADHMDatum, RealADHMDatum, datum_from_json
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise CLIError(f"{path}: a datum is a JSON object")
    r, c = obj.get("r"), obj.get("c")
    if isinstance(r, int) and isinstance(c, int):
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


def _emit(text, cfg):
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CLIError(f"cannot write {cfg.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj, cfg):
    _emit(json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2)
          + "\n", cfg)


# ---------------------------------------------------------------------------
# command handlers: each returns True when every asserted identity holds.
# Each imports the library modules it uses, so a process compiles only the
# modules of the command it runs (there may be no bytecode cache).
# ---------------------------------------------------------------------------

def _cmd_adhm_check(args, cfg):
    from .adhm import classify, complex_residuals, is_complex_solution
    d = _load_datum(args.file)
    res = complex_residuals(d)
    report = {
        "r": d.r,
        "c": d.c,
        "solution": is_complex_solution(d),
        "residuals": [m.to_json() for m in res],
        "classification": classify(d).to_json(),
    }
    _emit_json(report, cfg)
    return report["solution"]


def _cmd_adhm_embed(args, cfg):
    from .adhm import ADHMError, embed_real
    d = _load_datum(args.file, real=True)
    try:
        out = embed_real(d)
    except ADHMError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(out.to_json(), cfg)
    return True


def _cmd_adhm_random(args, cfg):
    from .adhm import ADHMError, random_stable_solution
    _check_size(args.r, args.c)
    try:
        d = random_stable_solution(args.r, args.c, cfg.seed)
    except ADHMError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(d.to_json(), cfg)
    return True


def _cmd_adhm_rank(args, cfg):
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
    _emit_json(report, cfg)
    return True


def _cmd_monad_build(args, cfg):
    from .monad import MonadError, build_monad
    d = _load_datum(args.file)
    try:
        m = build_monad(d)
    except MonadError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(m.to_json(), cfg)
    return True


def _cmd_monad_classify(args, cfg):
    from .monad import MonadError, classify_sheaf
    d = _load_datum(args.file)
    try:
        rep = classify_sheaf(d, extra_seed=cfg.seed)
    except MonadError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(rep.to_json(), cfg)
    return True


def _cmd_monad_chern(args, cfg):
    from .monad import chi_twist
    if args.r < 1 or args.c < 1:
        raise CLIError("r and c must be positive")
    _emit(str(chi_twist(args.r, args.c, args.k)) + "\n", cfg)
    return True


def _cmd_q_normalize(args, cfg):
    p = parse_expr(args.expr)
    report = {
        "input": args.expr,
        "normal_form": str(p),
        "terms": p.to_json(),
        "degree": p.degree(),
    }
    _emit_json(report, cfg)
    return True


def _cmd_q_partial(args, cfg):
    from .qcalculus import derive_table, partials
    from .qspacetime import X_NAMES
    p = parse_expr(args.expr)
    table = derive_table(cfg.p_choice)
    parts = partials(p, table)
    report = {
        "input": args.expr,
        "p_choice": cfg.p_choice,
        "partials": {name: str(f) for name, f in zip(X_NAMES, parts)},
    }
    _emit_json(report, cfg)
    return True


def _cmd_q_laplace(args, cfg):
    from .qcalculus import derive_table, laplacian
    p = parse_expr(args.expr)
    table = derive_table(cfg.p_choice)
    box = laplacian(p, table)
    report = {
        "input": args.expr,
        "p_choice": cfg.p_choice,
        "laplacian": str(box),
        "harmonic": box.is_zero(),
    }
    _emit_json(report, cfg)
    return True


def _check_harmonic_caps(args):
    if args.l > MAX_TWO_L or args.k > MAX_DET_POWER:
        raise CLIError(f"l must be at most {MAX_TWO_L} and k at most "
                       f"{MAX_DET_POWER}")


def _cmd_q_harmonic(args, cfg):
    from .qcalculus import derive_table, laplacian
    from .qspacetime import HarmonicIndex, basis_element
    _check_harmonic_caps(args)
    try:
        idx = HarmonicIndex(args.l, args.m, args.n, args.k)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    if not idx.in_range():
        raise CLIError("m and n must lie in [-l, l]")
    table = derive_table(cfg.p_choice)
    elt = basis_element(idx)
    core = basis_element(HarmonicIndex(args.l, args.m, args.n, 0))
    harmonic_ok = laplacian(core, table).is_zero()
    report = {
        "index": str(idx),
        "p_choice": cfg.p_choice,
        "element": str(elt),
        "terms": elt.to_json(),
        "harmonic_part_is_harmonic": harmonic_ok,
    }
    _emit_json(report, cfg)
    return harmonic_ok


def _cmd_q_eigen(args, cfg):
    from .qcalculus import derive_table, eigenvalue_tilde, tilde_laplacian
    from .qspacetime import HarmonicIndex, basis_element
    if args.k < 0 or args.l < 0:
        raise CLIError("k and l must be nonnegative")
    _check_harmonic_caps(args)
    lam = eigenvalue_tilde(args.k, args.l, cfg.p_choice)
    table = derive_table(cfg.p_choice)
    witness = basis_element(HarmonicIndex(args.l, args.l, args.l, args.k))
    verified = tilde_laplacian(witness, table) == witness.scale(lam)
    report = {
        "k": args.k,
        "two_l": args.l,
        "p_choice": cfg.p_choice,
        "eigenvalue": lam.to_json(),
        "eigenvalue_str": str(lam),
        "verified_on_witness": verified,
    }
    _emit_json(report, cfg)
    return verified


def _cmd_q_table(args, cfg):
    from .qcalculus import derive_table
    p_choice = args.p or cfg.p_choice
    if p_choice not in P_CHOICES:
        raise CLIError(f"p must be one of {P_CHOICES}")
    _emit_json(derive_table(p_choice).to_json(), cfg)
    return True


def _cmd_q_penrose(args, cfg):
    from .exactcore import parse_gauss
    from .qcalculus import cech_index, derive_table, laplacian, penrose_scalar
    obj = _load_json(args.file)
    items = obj.get("cocycle") if isinstance(obj, dict) else obj
    if not isinstance(items, list) or not items:
        raise CLIError("penrose input must be a nonempty list under "
                       "\"cocycle\": [{\"exponents\": [ex,ey,ez,ew], "
                       "\"coeff\": \"a/b\"}]")
    pairs = []
    for item in items:
        try:
            exps = tuple(int(e) for e in item["exponents"])
            coeff = parse_gauss(str(item.get("coeff", "1")))
        except (KeyError, TypeError, ValueError) as exc:
            raise CLIError(f"bad cocycle item {item!r}: {exc}") from exc
        if len(exps) != 4:
            raise CLIError("cocycle exponents must have four entries")
        try:
            idx = cech_index(exps)
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        if idx.two_l > MAX_TWO_L:
            raise CLIError(f"cocycle {list(exps)} has 2l = {idx.two_l}; "
                           f"l must be at most {MAX_TWO_L}")
        pairs.append((exps, coeff))
    image = penrose_scalar(pairs)
    table = derive_table(cfg.p_choice)
    harmonic_ok = laplacian(image, table).is_zero()
    report = {
        "p_choice": cfg.p_choice,
        "image": str(image),
        "terms": image.to_json(),
        "harmonic": harmonic_ok,
    }
    _emit_json(report, cfg)
    return harmonic_ok


def _cmd_inst_verify(args, cfg):
    from .qinstanton import ids_report
    d = _load_datum(args.file)
    report = {chart: ids_report(d, chart) for chart in ("I", "J")}
    _emit_json(report, cfg)
    return report["I"]["all_zero"] and report["J"]["all_zero"]


def _cmd_inst_curvature(args, cfg):
    from .qinstanton import (QInstantonError, curvature_asd,
                             curvature_report_json)
    d = _load_datum(args.file)
    try:
        report = curvature_asd(d, cfg.p_choice)
    except QInstantonError as exc:
        raise CLIError(str(exc)) from exc
    _emit_json(curvature_report_json(report), cfg)
    return True


def _cmd_inst_slices(args, cfg):
    from .qinstanton import QInstantonError, pencil_grid, slice_rank_grid
    d = _load_datum(args.file)
    dmax = cfg.degree_cap if args.dmax is None else args.dmax
    if not 0 <= dmax <= MAX_DEGREE_CAP:
        raise CLIError(f"dmax must lie in 0..{MAX_DEGREE_CAP}")
    grid = pencil_grid(cfg.grid_size)
    try:
        reports = slice_rank_grid(d, grid, dmax)
    except QInstantonError as exc:
        raise CLIError(str(exc)) from exc
    ok = all(rep["surjective"] for rep in reports)
    _emit_json({"dmax": dmax, "grid_size": cfg.grid_size,
                "reports": reports, "all_surjective": ok}, cfg)
    return ok


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_adhm(sub, common):
    p = sub.add_parser("check", parents=[common],
                       help="residuals and stability classification")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_adhm_check)
    p = sub.add_parser("embed", parents=[common],
                       help="double a real solution into a complex one")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_adhm_embed)
    p = sub.add_parser("random", parents=[common],
                       help="seeded stable solution")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.set_defaults(handler=_cmd_adhm_random)
    p = sub.add_parser("rank", parents=[common],
                       help="derivative rank and dimension audit")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_adhm_rank)


def _add_monad(sub, common):
    p = sub.add_parser("build", parents=[common],
                       help="three-term complex of a solution")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_monad_build)
    p = sub.add_parser("classify", parents=[common],
                       help="regularity class of the middle cohomology")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_monad_classify)
    p = sub.add_parser("chern", parents=[common],
                       help="Euler characteristic of the twist E(k)")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-c", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_monad_chern)


def _add_q(sub, common):
    p = sub.add_parser("normalize", parents=[common],
                       help="normal form of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_q_normalize)
    p = sub.add_parser("partial", parents=[common],
                       help="the four partial derivatives of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_q_partial)
    p = sub.add_parser("laplace", parents=[common],
                       help="Laplacian of an expression")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_q_laplace)
    p = sub.add_parser("harmonic", parents=[common],
                       help="basis element det^k X[l, m, n] (doubled indices)")
    p.add_argument("-l", type=int, required=True, help="twice l")
    p.add_argument("-m", type=int, required=True, help="twice m")
    p.add_argument("-n", type=int, required=True, help="twice n")
    p.add_argument("-k", type=int, default=0, help="det power")
    p.set_defaults(handler=_cmd_q_harmonic)
    p = sub.add_parser("eigen", parents=[common],
                       help="eigenvalue of det*box on det^k X^l")
    p.add_argument("-k", type=int, required=True, help="det power")
    p.add_argument("-l", type=int, required=True, help="twice l")
    p.set_defaults(handler=_cmd_q_eigen)
    p = sub.add_parser("table", parents=[common],
                       help="derived relation tables for one p-choice")
    p.add_argument("--p", default=None, choices=P_CHOICES)
    p.set_defaults(handler=_cmd_q_table)
    p = sub.add_parser("penrose", parents=[common],
                       help="harmonic image of a degree -2 cocycle file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_q_penrose)


def _add_inst(sub, common):
    p = sub.add_parser("verify", parents=[common],
                       help="operator identities on both charts")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_inst_verify)
    p = sub.add_parser("curvature", parents=[common],
                       help="curvature block audit with the ASD split")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_inst_curvature)
    p = sub.add_parser("slices", parents=[common],
                       help="slice surjectivity over the parameter grid")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, default=None)
    p.set_defaults(handler=_cmd_inst_slices)


# group -> (help, adder of its subcommands)
_GROUPS = {
    "adhm": ("matrix data commands", _add_adhm),
    "monad": ("monad and sheaf commands", _add_monad),
    "q": ("quantum algebra and calculus commands", _add_q),
    "inst": ("module operator commands", _add_inst),
}


def _build_parser(argv=()):
    """The parser for ``argv``.  Every group gets its parser, but only the
    group that ``argv[0]`` names gets its subcommands; when it names none
    (``--help``, no arguments, an unknown group) every group gets them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p-choice", default="q", choices=P_CHOICES,
                        help="calculus convention (default q)")
    common.add_argument("--seed", type=int, default=0,
                        help="64-bit seed for randomized commands")
    common.add_argument("--degree-cap", type=int, default=4,
                        help=f"default degree cap, at most {MAX_DEGREE_CAP}")
    common.add_argument("--grid-size", type=int, default=12,
                        help="number of pencil parameter points, at most "
                             f"{MAX_GRID_SIZE}")
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
    for name, (help_text, add_commands) in _GROUPS.items():
        group = groups.add_parser(name, help=help_text)
        if named in (None, name):
            add_commands(group.add_subparsers(dest="command", required=True),
                         common)
    return parser


def run(argv=None):
    """Parse arguments, dispatch, and return the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        cfg = RunConfig(p_choice=args.p_choice, seed=args.seed,
                        degree_cap=args.degree_cap, grid_size=args.grid_size,
                        output=args.output)
        ok = args.handler(args, cfg)
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
    main()
