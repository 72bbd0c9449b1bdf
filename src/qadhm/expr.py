"""The expression language of ``q normalize``, ``q partial`` and ``q laplace``
(the grammar is in ``qadhm.usage``, which the help prints).
Only those three commands import this module."""

from .cli import MAX_EXPR_DEGREE, MAX_EXPR_LENGTH, CLIError

_DIGITS = "0123456789"  # INT of the grammar; str.isdigit takes any script


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
            elif ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
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
        from .scalars import QLaurent
        from .qspacetime import NCPoly, X_NAMES, det_x
        tok = self._next()
        if tok is None:
            raise CLIError("expression ended where a factor was expected")
        if isinstance(tok, int):
            return NCPoly.scalar("I", tok)
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
            return NCPoly.scalar("I", QLaurent.q_power(exp))
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
