"""The integer-triple GaussRational against the Fraction-pair one it replaced,
and QRat's unit-denominator path against the general gcd path."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from qadhm import echelon, scalars
from qadhm.echelon import QRat
from qadhm.exactcore import random_gauss
from qadhm.scalars import GaussRational, QLaurent, parse_gauss

from helpers import small_gauss


class PairGauss:
    """The former GaussRational: a + b*i kept as two ``Fraction``s."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, PairGauss):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_pair(other)
        return PairGauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return PairGauss(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_pair(other)
        return PairGauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_pair(other)
        return PairGauss(self.re * other.re - self.im * other.im,
                         self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_pair(other)
        if not other:
            raise ZeroDivisionError("division by zero GaussRational")
        n = other.re * other.re + other.im * other.im
        return PairGauss((self.re * other.re + self.im * other.im) / n,
                         (self.im * other.re - self.re * other.im) / n)

    def __rtruediv__(self, other):
        return _as_pair(other) / self

    def conjugate(self):
        return PairGauss(self.re, -self.im)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        def fr(x):
            return f"{x.numerator}/{x.denominator}"
        if not self.im:
            return fr(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{fr(self.re)}{sign}{fr(abs(self.im))}*i"


def _frac(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def _as_pair(x):
    return x if isinstance(x, PairGauss) else PairGauss(x)


def agree(new, old):
    """``new`` is canonical and behaves exactly as the oracle value ``old``."""
    assert type(new) is GaussRational
    a, b, d = new._a, new._b, new._d
    assert d > 0 and gcd(a, b, d) == 1
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert (new.re, new.im) == (old.re, old.im)
    assert str(new) == str(old)
    assert repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert bool(new) == bool(old)
    assert parse_gauss(str(new)) == new


part_st = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(max_denominator=10**6),
)
operand_st = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
EDGE = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (Fraction(1, 2), 0),
        (0, Fraction(-3, 4)), (Fraction(-5, 6), Fraction(5, 6)),
        (Fraction(2, 4), Fraction(-6, 8)), (-7, 3)]


def both(re, im):
    return GaussRational(re, im), PairGauss(re, im)


@given(part_st, part_st)
@example(0, 0)
@example(Fraction(-1, 2), 0)
@example(0, Fraction(-1, 3))
@settings(max_examples=200, deadline=None)
def test_construction_and_unary(re, im):
    x, ox = both(re, im)
    agree(x, ox)
    agree(-x, -ox)
    agree(x.conjugate(), ox.conjugate())
    assert (x == ox.re) == (not ox.im)


@given(part_st, part_st, part_st, part_st)
@settings(max_examples=300, deadline=None)
def test_binary_operations(a, b, c, e):
    x, ox = both(a, b)
    y, oy = both(c, e)
    agree(x + y, ox + oy)
    agree(x - y, ox - oy)
    agree(x * y, ox * oy)
    if oy:
        agree(x / y, ox / oy)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (ox == oy)
    assert (x != y) == (ox != oy)


@pytest.mark.parametrize("xa", EDGE)
@pytest.mark.parametrize("ya", EDGE)
def test_binary_operations_on_edge_values(xa, ya):
    x, ox = both(*xa)
    y, oy = both(*ya)
    agree(x + y, ox + oy)
    agree(x - y, ox - oy)
    agree(x * y, ox * oy)
    if oy:
        agree(x / y, ox / oy)
    assert (x == y) == (ox == oy)


@given(part_st, part_st, operand_st)
@example(0, 0, 0)
@example(Fraction(1, 2), 0, Fraction(1, 2))
@settings(max_examples=300, deadline=None)
def test_int_and_fraction_operands_on_either_side(a, b, k):
    x, ox = both(a, b)
    agree(x + k, ox + k)
    agree(k + x, k + ox)
    agree(x - k, ox - k)
    agree(k - x, k - ox)
    agree(x * k, ox * k)
    agree(k * x, k * ox)
    if k:
        agree(x / k, ox / k)
    if ox:
        agree(k / x, k / ox)
    assert (x == k) == (ox == k)
    assert (k == x) == (k == ox)
    assert (x != k) == (ox != k)


def test_constructor_types():
    for bad in (0.5, 1j, "1", None):
        with pytest.raises(TypeError):
            GaussRational(bad)
        with pytest.raises(TypeError):
            GaussRational(1, bad)
    agree(GaussRational(True, False), PairGauss(True, False))
    # a float operand on either side is refused, not recursed on
    for op in (lambda x: x / 0.5, lambda x: 0.5 / x, lambda x: 0.5 - x):
        with pytest.raises(TypeError):
            op(GaussRational(1, 2))
    x = GaussRational(1, 2)
    for attr in ("re", "im", "real"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
    # parts in lowest terms need not share a denominator
    agree(GaussRational(Fraction(1, 6), Fraction(3, 10)),
          PairGauss(Fraction(1, 6), Fraction(3, 10)))


# the hash modulus: a denominator it divides has no inverse modulo it
M = sys.hash_info.modulus


@pytest.mark.parametrize("re,im", [
    (Fraction(1, M), 0), (Fraction(-1, 3 * M), Fraction(M, 7)),
    (Fraction(M + 1, M), Fraction(-1, 2 * M)),
    (Fraction(-(M + 2), 2), 0),     # Fraction's hash -1 becomes -2
    (Fraction(M + 2, 2), Fraction(-(M + 2), 2)),
    (Fraction(2 ** 200 + 1, 3 ** 90), Fraction(-(5 ** 80), 7 ** 70)),
])
def test_hashes_at_the_modulus_match_the_fractions(re, im):
    agree(GaussRational(re, im), PairGauss(re, im))


class HalfFraction(Fraction):
    """A Fraction subclass, accepted as a Fraction."""


def test_fraction_subclasses_are_fractions():
    x = HalfFraction(1, 2)
    agree(GaussRational(x, x), PairGauss(x, x))
    assert GaussRational(1, 0) / 2 == x
    agree(GaussRational(3) * x, PairGauss(3) * x)


@pytest.mark.parametrize("height,complex_parts", [(3, True), (1, True),
                                                  (7, False)])
def test_random_gauss_matches_the_fraction_draws(height, complex_parts):
    # the same draws from the same generator as GaussRational(Fraction(num,
    # den), Fraction(num, den) or 0); random_gauss draws at height 3 with
    # both parts, the test helper small_gauss at the others
    if (height, complex_parts) == (3, True):
        draw = random_gauss
    else:
        def draw(rng):
            return small_gauss(rng, height, complex_parts)
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            got = draw(rng)
            re = Fraction(ref.randint(-height, height), ref.randint(1, height))
            im = (Fraction(ref.randint(-height, height),
                           ref.randint(1, height)) if complex_parts else 0)
            agree(got, PairGauss(re, im))


@pytest.mark.parametrize("text", [
    "0", "-0", "+7", "6/4", "-6/4", "3/9+12/8*i", "0/5-0/3*i", "-1/1-1/1*i",
    " 2/3-5/7*i ", "10000000000000000000001/3+1/99999999999999999999*i",
])
def test_parse_gauss_matches_fraction_parsing(text):
    body = text.strip()
    re_text, sign, im_text = body, "+", "0"
    if body.endswith("*i"):
        cut = max(body.rfind("+"), body.rfind("-"))
        re_text, sign, im_text = body[:cut], body[cut], body[cut + 1:-2]
    im = Fraction(im_text) * (-1 if sign == "-" else 1)
    agree(parse_gauss(text), PairGauss(Fraction(re_text), im))


# int() and a regular expression's \d read digits of any script
@pytest.mark.parametrize("text", ["\u0663/4", "1/\u0662", "\u0663",
                                  "1+\uff12*i"])
def test_parse_gauss_refuses_non_ascii_digits(text):
    with pytest.raises(ValueError, match="malformed GaussRational string"):
        parse_gauss(text)


@pytest.mark.parametrize("text", ["1/0", "1/2+1/0*i", "0/0", "1/00-3/1*i"])
def test_parse_gauss_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_gauss(text)


def test_integer_paths_load_no_fractions():
    # no Fraction is made unless re, im or repr is asked for, so neither
    # fractions nor the decimal it imports is loaded
    code = """
import random, sys
from qadhm.echelon import QRat
from qadhm.exactcore import random_gauss
from qadhm.scalars import GaussRational, QLaurent, parse_gauss
z = parse_gauss("1/2-3/4*i")
w = random_gauss(random.Random(1))
vals = [z * w / (z + 1), str(z - w), hash(z), hash(GaussRational(2) / 3),
        z == 1, GaussRational(5) == 5, QRat(QLaurent({1: z}), 2) + 1]
print(sorted({"fractions", "decimal"} & set(sys.modules)))
z.re
print("fractions" in sys.modules)
"""
    root = str(Path(scalars.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": root})
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


def test_constants_are_canonical():
    agree(GaussRational.zero(), PairGauss(0))
    agree(GaussRational.one(), PairGauss(1))


# ---------------------------------------------------------------------------
# QRat: a unit denominator skips the gcd
# ---------------------------------------------------------------------------

coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)
laurent_st = st.dictionaries(
    st.integers(min_value=-3, max_value=3), coeff_st, max_size=4,
).map(QLaurent)


@given(laurent_st, laurent_st.filter(bool))
@example(QLaurent(), QLaurent({2: Fraction(-1, 3)}))
@settings(max_examples=120, deadline=None)
def test_qrat_of_a_laurent_matches_the_reduced_fraction(n, g):
    lifted, reduced = QRat(n), QRat(n * g, g)
    assert lifted == reduced
    assert hash(lifted) == hash(reduced)
    assert lifted.den == QLaurent.one() and reduced.den == QLaurent.one()
    assert lifted.num == n


def refuse_gcd(*args):
    raise AssertionError("_ql_gcd called for a unit denominator")


@given(laurent_st, st.integers(min_value=-3, max_value=3),
       coeff_st.filter(bool))
@settings(max_examples=80, deadline=None)
def test_unit_denominators_never_run_the_gcd(n, e, c):
    with patch.object(echelon, "_ql_gcd", refuse_gcd):
        lifted = QRat(n)
        shifted = QRat(n, QLaurent({e: c}))
    assert lifted.den == QLaurent.one() and lifted.num == n
    assert shifted.den == QLaurent.one()
    assert shifted == QRat(n * QLaurent({-e: 1 / c}))


def test_float_operands_are_refused():
    for x in (QLaurent({1: 2}), QRat(QLaurent({0: 1}), QLaurent({0: 1, 1: 1}))):
        for op in (lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: 0.5 / x,
                   lambda x: 0.5 - x):
            with pytest.raises(TypeError):
                op(x)


# ---------------------------------------------------------------------------
# integral Laurent coefficients kept as int
# ---------------------------------------------------------------------------

def _raw_laurent(terms):
    """A QLaurent holding exactly these coefficients, with no coercion."""
    out = QLaurent.__new__(QLaurent)
    object.__setattr__(out, "terms", dict(terms))
    return out


def _laurent_forms(rng):
    """One seeded Laurent polynomial whose integral coefficients are given
    as int, as boxed GaussRational and mixed, with Gaussian ones kept."""
    terms = {}
    for e in rng.sample(range(-3, 4), rng.randint(1, 4)):
        terms[e] = rng.choice((rng.randint(-4, 4) or 1,
                               GaussRational(rng.randint(-3, 3),
                                             rng.randint(-2, 2))))
    ints = {e: c if type(c) is int or c._b or c._d != 1 else c._a
            for e, c in terms.items() if c}
    boxed = {e: GaussRational(c) if type(c) is int else c
             for e, c in ints.items()}
    mixed = {e: (ints if k % 2 else boxed)[e]
             for k, e in enumerate(sorted(ints))}
    return [_raw_laurent(t) for t in (ints, boxed, mixed)]


def test_int_and_boxed_coefficients_agree():
    from qadhm import krylov
    from qadhm.scalars import _ql_divmod
    rng = random.Random(13)
    for _ in range(150):
        fs, gs = _laurent_forms(rng), _laurent_forms(rng)
        for f in fs[1:]:
            assert f == fs[0] and hash(f) == hash(fs[0])
            assert str(f) == str(fs[0]) and f.to_json() == fs[0].to_json()
        if fs[0].val() >= 0:
            outs = {krylov._gcd_str(f, 1) for f in fs}
            assert len(outs) == 1
        results = []
        for f, g in zip(fs, gs):
            out = [f + g, f - g, f * g, f.shift(2), f * 3, g * 0,
                   f * g / g, *_ql_divmod(f, g)]
            assert out[6] == f
            try:
                out.append(f / g)
            except ValueError:      # g does not divide f
                pass
            for x in out:
                assert all(type(c) is not float for c in x.terms.values())
            results.append([str(x) for x in out])
        assert results[0] == results[1] == results[2]


def test_the_q_algebra_keeps_integer_coefficients_as_int():
    from qadhm.qcalculus import derive_table
    from qadhm.qspacetime import HarmonicIndex, basis_element, harmonic
    coeffs = [c for p in ("q", "qinv")
              for terms in derive_table(p).x_rules.values()
              for ql, _ in terms for c in ql.terms.values()]
    for two_l in range(9):
        for two_m in range(-two_l, two_l + 1, 2):
            for two_n in range(-two_l, two_l + 1, 2):
                polys = [harmonic(HarmonicIndex(two_l, two_m, two_n))]
                polys += [basis_element(HarmonicIndex(two_l, two_m, two_n, k))
                          for k in (1, 2)]
                coeffs += [c for p in polys for ql in p.terms.values()
                           for c in ql.terms.values()]
    assert coeffs and all(type(c) is int for c in coeffs)
