import random

import pytest

from oracles import brute_normal_forms, count_avoiding
from rewbench.catalog import get_entry, list_catalog
from rewbench.core import ZERO, Alphabet, Rule, RewritingSystem, normalize
from rewbench.enumeration import (
    enumerate_normal_forms,
    growth_series,
    iter_normal_forms,
)


def test_frozen_growth_counts():
    assert growth_series(get_entry("M1").system, 3).counts == (1, 4, 12, 32)
    assert growth_series(get_entry("M2").system, 3).counts == (1, 4, 13, 38)
    assert growth_series(get_entry("dehn-example").system, 3).counts == \
        (1, 4, 14, 44)


def test_total():
    series = growth_series(get_entry("M2").system, 3)
    assert series.total() == 56


def _random_systems():
    """Seeded random rule sets, including an empty one and ones with
    duplicate left-hand sides."""
    rng = random.Random(13)
    yield RewritingSystem(Alphabet("abc", "cab"), [])
    for _ in range(40):
        letters = "abcd"[:rng.randrange(1, 5)]
        lhss = ["".join(rng.choice(letters)
                        for _ in range(rng.randrange(1, 5)))
                for _ in range(rng.randrange(1, 6))]
        lhss.append(rng.choice(lhss))
        precedence = "".join(rng.sample(letters, len(letters)))
        yield RewritingSystem(Alphabet(letters, precedence),
                              [Rule(lhs, ZERO) for lhs in lhss])


def _catalog_and_random_systems():
    yield from (entry.system for entry in list_catalog())
    yield from _random_systems()


def test_matches_factor_avoidance_oracle():
    for system in _catalog_and_random_systems():
        patterns = [r.lhs for r in system.rules]
        expected = count_avoiding(system.alphabet.letters, patterns, 30)
        assert list(growth_series(system, 30).counts) == expected


def test_listing_matches_brute_force_filter():
    for system in _catalog_and_random_systems():
        patterns = [r.lhs for r in system.rules]
        assert enumerate_normal_forms(system, 5) == brute_normal_forms(
            system.alphabet.precedence, patterns, 5)


def test_normal_forms_are_exactly_the_irreducible_words():
    system = get_entry("M2").system
    forms = set(enumerate_normal_forms(system, 4))
    for w in forms:
        assert normalize(system, w) == w
    # every length-4 product of a normal form and a letter that avoids
    # rule patterns is already in the set
    for w in forms:
        for g in "abcd":
            ext = w + g
            if len(ext) <= 4 and normalize(system, ext) == ext:
                assert ext in forms


def test_enumeration_order_is_by_level_then_precedence():
    system = get_entry("dehn-example").system  # precedence b < a < c < d
    forms = enumerate_normal_forms(system, 1)
    assert forms == ["", "b", "a", "c", "d"]


def test_zero_rules_forbid_their_patterns():
    system = RewritingSystem(Alphabet("ab", "ab"), [Rule("ab", "a")])
    assert growth_series(system, 2).counts == (1, 2, 3)


def test_negative_max_len_rejected():
    with pytest.raises(ValueError):
        growth_series(get_entry("M1").system, -1)
    with pytest.raises(ValueError):
        list(iter_normal_forms(get_entry("M1").system, -2))
