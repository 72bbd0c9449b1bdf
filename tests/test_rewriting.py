"""Slow oracle for the normal-ordering engine.

The engine multiplies letters into memoized normal forms one at a time.  The
oracle below is the textbook rewriting system instead: it repeatedly rewrites
the leftmost adjacent pair that has a rule, with no memo, and sums the sorted
words it ends in.  Both must agree on every short word, in both chart
algebras and for the wedge relations of both calculi.
"""

import itertools

import pytest

from qadhm.qcalculus import derive_table
from qadhm.qspacetime import CHART_I_RULES, CHART_J_RULES, engine
from qadhm.scalars import QLaurent


def naive_rewrite(word, rules):
    """{sorted word: QLaurent} by rewriting the leftmost ruled pair."""
    for i in range(len(word) - 1):
        rule = rules.get(word[i:i + 2])
        if rule is None:
            continue
        out = {}
        for coeff, pair in rule:
            for w, c in naive_rewrite(word[:i] + pair + word[i + 2:],
                                      rules).items():
                out[w] = out.get(w, QLaurent.zero()) + coeff * c
        return {w: c for w, c in out.items() if c}
    return {word: QLaurent.one()}


def words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product(range(4), repeat=n)


@pytest.mark.parametrize("chart,rules", [("I", CHART_I_RULES),
                                         ("J", CHART_J_RULES)])
def test_normalize_word_matches_naive_rewriting(chart, rules):
    eng = engine(chart)
    for word in words(4):
        want = {}
        for w, c in naive_rewrite(word, rules).items():
            want[tuple(w.count(g) for g in range(4))] = c
        assert eng.normalize_word(word) == want, word


@pytest.mark.parametrize("p_choice", ["q", "qinv"])
def test_wedge_norm_matches_naive_rewriting(p_choice):
    table = derive_table(p_choice)
    rules = table.wedge_rules
    # squares vanish: every (g, g) rule rewrites to the empty sum
    assert all(rules[(g, g)] == () for g in range(4))
    for word in words(5):
        assert table.wedge_norm(word) == naive_rewrite(word, rules), word
