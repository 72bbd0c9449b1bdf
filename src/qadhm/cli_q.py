"""``qadhm q`` commands and the parser of their expressions (the grammar is
in the docstring of ``qadhm.cli``, which the help shows)."""

from .cli import (MAX_DET_POWER, MAX_EXPR_DEGREE, MAX_EXPR_LENGTH, MAX_TWO_L,
                  CLIError, _emit_json, _load_json)


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
            factor = self._factor()
            if acc.degree() + factor.degree() > MAX_EXPR_DEGREE:
                raise CLIError("a product in the expression has degree above "
                               f"{MAX_EXPR_DEGREE}")
            acc = acc * factor
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
    if len(text) > MAX_EXPR_LENGTH:
        raise CLIError(f"the expression has {len(text)} characters; at most "
                       f"{MAX_EXPR_LENGTH} are allowed")
    return ExprParser(text).parse()


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
    _emit_json(derive_table(cfg.p_choice).to_json(), cfg)
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


def add_commands(sub, common):
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
    p.set_defaults(handler=_cmd_q_table)
    p = sub.add_parser("penrose", parents=[common],
                       help="harmonic image of a degree -2 cocycle file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_q_penrose)
