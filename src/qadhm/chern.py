"""Chern characters in Q[H]/(H^4) and the Euler characteristics of the twists
of a monad sheaf on projective three-space.

The monad O(-1)^c -> O^(2c+r) -> O(1)^c of a datum with c x c and c x r
blocks has cohomology E with ch(E) = r - c*H^2.  Euler characteristics of
its twists come both from ch(E(k))*td and from additivity over the three
monad terms; ``chi_twist`` computes the first and checks it against the
second.  No matrix is involved, so ``monad chern`` loads this module alone.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ChernClass", "chern_of_monad", "chi_line", "chi_twist"]


class ChernClass:
    """Element a0 + a1*H + a2*H^2 + a3*H^3 of Q[H]/(H^4)."""

    __slots__ = ("a",)

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        object.__setattr__(self, "a", (Fraction(a0), Fraction(a1),
                                       Fraction(a2), Fraction(a3)))

    def __setattr__(self, *a):
        raise AttributeError("ChernClass is immutable")

    @classmethod
    def line(cls, k):
        """exp(k*H) truncated: the character of the twisting sheaf O(k)."""
        k = Fraction(k)
        return cls(1, k, k * k / 2, k ** 3 / 6)

    @classmethod
    def todd(cls):
        return cls(1, 2, Fraction(11, 6), 1)

    def __eq__(self, other):
        return isinstance(other, ChernClass) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __add__(self, other):
        return ChernClass(*(s + o for s, o in zip(self.a, other.a)))

    def __sub__(self, other):
        return ChernClass(*(s - o for s, o in zip(self.a, other.a)))

    def __neg__(self):
        return ChernClass(*(-s for s in self.a))

    def scale(self, k):
        k = Fraction(k)
        return ChernClass(*(s * k for s in self.a))

    def __mul__(self, other):
        out = [Fraction(0)] * 4
        for s, u in enumerate(self.a):
            if not u:
                continue
            for t in range(4 - s):
                out[s + t] += u * other.a[t]
        return ChernClass(*out)

    def chi(self):
        """H^3 coefficient of self * td: the Euler characteristic of a sheaf
        with this character."""
        return (self * ChernClass.todd()).a[3]

    def __str__(self):
        names = ["", "H", "H^2", "H^3"]
        parts = []
        for coef, name in zip(self.a, names):
            if not coef:
                continue
            if not name:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coef}*{name}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"ChernClass({self})"

    def to_json(self):
        return [str(v) for v in self.a]


def chern_of_monad(r, c):
    """Character of the monad cohomology: (2c+r)*ch(O) - c*ch(O(-1)) -
    c*ch(O(1)), which collapses to r - c*H^2."""
    if r < 0 or c < 0:
        raise ValueError("r and c must be nonnegative")
    out = (ChernClass(2 * c + r)
           - ChernClass.line(-1).scale(c) - ChernClass.line(1).scale(c))
    assert out == ChernClass(r, 0, -c, 0)
    return out


def chi_line(k):
    """chi(O(k)) = (k+1)(k+2)(k+3)/6."""
    return Fraction((k + 1) * (k + 2) * (k + 3), 6)


def chi_twist(r, c, k):
    """chi(E(k)) for the monad sheaf, via ch(E(k))*td; cross-checked against
    the additivity formula (2c+r)*chi(O(k)) - c*chi(O(k-1)) - c*chi(O(k+1))
    on every call."""
    value = (chern_of_monad(r, c) * ChernClass.line(k)).chi()
    additive = ((2 * c + r) * chi_line(k) - c * chi_line(k - 1)
                - c * chi_line(k + 1))
    if value != additive:
        raise ValueError(f"twist characteristic routes disagree at k={k}")
    return value
