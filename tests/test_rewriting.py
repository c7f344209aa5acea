import random

import pytest

from oracles import random_reduce, rightmost_reduce
from rewbench.catalog import get_entry
from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    Rule,
    RewritingSystem,
    UnorientableRelationError,
    equal_in_monoid,
    normalize,
    orient,
    product,
)


def _m2():
    return get_entry("M2").system


def test_orient_directs_larger_to_smaller():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "ba"), ("ba", "")))
    system = orient(p)
    assert system.rules == (Rule("ba", "ab"), Rule("ba", ""))


def test_orient_precedence_override():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "ba"),))
    assert orient(p, "ba").rules == (Rule("ab", "ba"),)


def test_orient_zero_side_becomes_zero_rule():
    p = Presentation(Alphabet("ab", "ab"), ((ZERO, "ab"),))
    assert orient(p).rules == (Rule("ab", ZERO),)


def test_orient_rejects_collapse_to_zero():
    p = Presentation(Alphabet("ab", "ab"), (("", ZERO),))
    with pytest.raises(UnorientableRelationError):
        orient(p)


def test_orient_skips_trivial_relation_with_warning():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "ab"), ("ab", "ba")))
    with pytest.warns(UserWarning):
        system = orient(p)
    assert len(system.rules) == 1


def test_oriented_rules_never_grow():
    for name in ("M1", "M2", "M5", "dehn-example"):
        for rule in get_entry(name).system.rules:
            assert rule.rhs is ZERO or len(rule.rhs) <= len(rule.lhs)


def test_rewrite_step_leftmost_longest():
    system = RewritingSystem(Alphabet("ab", "ab"),
                             [Rule("ab", ""), Rule("abb", "a")])
    # both match at 0; longer lhs wins ("b" if the shorter did)
    assert normalize(system, "abb") == "a"
    assert normalize(system, "bab") == "b"
    assert normalize(system, "ba") == "ba"


def test_rewrite_step_zero_short_circuit():
    system = RewritingSystem(Alphabet("ab", "ab"), [Rule("aa", ZERO)])
    assert normalize(system, "baab") is ZERO


def test_normalize_frozen_m2_values():
    m2 = _m2()
    assert normalize(m2, "adacab") == "a"
    assert normalize(m2, "aadb") == "aa"
    assert normalize(m2, "dab") == ""
    assert normalize(m2, "aab") is ZERO
    assert normalize(m2, "") == ""
    assert normalize(m2, ZERO) is ZERO


def test_normalize_is_idempotent():
    m2 = _m2()
    rng = random.Random(11)
    for _ in range(200):
        w = "".join(rng.choice("abcd") for _ in range(rng.randrange(0, 10)))
        nf = normalize(m2, w)
        assert normalize(m2, nf) == nf


def test_normalize_agrees_with_other_strategies():
    rng = random.Random(13)
    for name in ("M1", "M2", "M3", "dehn-example"):
        system = get_entry(name).system
        for _ in range(150):
            w = "".join(rng.choice("abcd")
                        for _ in range(rng.randrange(0, 10)))
            nf = normalize(system, w)
            assert rightmost_reduce(system, w) == nf
            assert random_reduce(system, w, rng) == nf


def test_normalize_budget_on_nonterminating_system():
    # a -> aa would never terminate; it is rejected at construction, so
    # normalize needs no step budget
    alphabet = Alphabet("ab", "ab")
    with pytest.raises(ValueError, match="does not decrease shortlex"):
        RewritingSystem(alphabet, [Rule("a", "aa")])
    system = RewritingSystem(alphabet, [Rule("aa", "a"), Rule("ba", "ab")])
    assert normalize(system, "bababa") == "abbb"
    assert normalize(system, "b") == "b"


def test_terminating_attribute():
    # every system that can be built terminates: a rule must decrease
    # in shortlex order
    assert normalize(_m2(), "") == ""
    alphabet = Alphabet("ab", "ab")
    for rule in (Rule("a", "aa"), Rule("ab", "ba"), Rule("ab", "ab")):
        with pytest.raises(ValueError, match="does not decrease shortlex"):
            RewritingSystem(alphabet, [Rule("b", ""), rule])
    # a zero rhs and an equal-length smaller rhs are accepted
    system = RewritingSystem(alphabet, [Rule("aa", ZERO), Rule("ba", "ab")])
    assert normalize(system, "bba") == "abb"
    assert normalize(system, "aba") is ZERO


def test_product_and_zero_absorption():
    m2 = _m2()
    assert product(m2, "d", "b") == ""
    assert product(m2, "a", "ab") is ZERO
    assert product(m2, ZERO, "a") is ZERO
    assert product(m2, "a", ZERO) is ZERO
    assert product(m2, "", "") == ""


def test_equal_in_monoid_frozen_pairs():
    m2 = _m2()
    assert equal_in_monoid(m2, "adacab", "a")
    assert equal_in_monoid(m2, "dab", "")
    assert equal_in_monoid(m2, "aab", ZERO)
    assert not equal_in_monoid(m2, "a", "b")
