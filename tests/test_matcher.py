import random

import pytest

from oracles import naive_occurrences
from rewbench.matcher import FactorMatcher


def _naive_first_match(patterns, occ, start):
    """Leftmost occurrence at or after start, longest then lowest index."""
    cands = [(pos, -len(patterns[idx]), idx)
             for pos, idx in occ if pos >= start]
    best = min(cands, default=None)
    return None if best is None else (best[0], best[2])


def test_contains_and_first_match():
    m = FactorMatcher("abcd", ["cad", "cbd"])
    assert m.contains("acadb")
    assert not m.contains("abab")
    assert m.first_match("ccbda") == (1, 1)
    assert m.first_match("aaaa") is None


def test_first_match_prefers_longest_then_lowest_index():
    m = FactorMatcher("ab", ["ab", "abb", "a"])
    # all three start at 0; longest wins
    assert m.first_match("abba") == (0, 1)
    m2 = FactorMatcher("ab", ["ab", "ab"])
    assert m2.first_match("ab") == (0, 0)


def test_empty_pattern_set():
    m = FactorMatcher("ab", [])
    assert not m.contains("a")
    assert m.max_len == 0


def test_pattern_validation():
    with pytest.raises(ValueError, match="empty pattern"):
        FactorMatcher("ab", [""])
    with pytest.raises(ValueError, match="pattern letter 'x' not in alphabet"):
        FactorMatcher("ab", ["ax"])


def test_max_len():
    assert FactorMatcher("ab", ["a", "abb"]).max_len == 3


def test_matches_naive_on_random_words():
    rng = random.Random(7)
    letters = "abcd"
    patterns = ["ab", "ba", "aa", "cbad", "dc", "d"]
    m = FactorMatcher(letters, patterns)
    for _ in range(300):
        word = "".join(rng.choice(letters)
                       for _ in range(rng.randrange(0, 15)))
        occ = naive_occurrences(patterns, word)
        assert m.contains(word) == bool(occ)
        for start in range(len(word) + 1):
            assert m.first_match(word, start) == _naive_first_match(
                patterns, occ, start)


def test_first_match_and_contains_agree_with_naive_scan():
    # Pattern sets drawn from a small pool, so duplicates and patterns
    # that are factors of other patterns both occur; starts run past
    # the end of the word.
    rng = random.Random(11)
    letters = "abc"
    pool = ["a", "b", "ab", "ba", "aba", "abab", "bb", "cab", "abc", "c"]
    for _ in range(400):
        patterns = [rng.choice(pool) for _ in range(rng.randrange(0, 6))]
        m = FactorMatcher(letters, patterns)
        word = "".join(rng.choice(letters)
                       for _ in range(rng.randrange(0, 14)))
        occ = naive_occurrences(patterns, word)
        assert m.contains(word) == bool(occ)
        for k in range(len(patterns)):
            assert m.contains(word, skip=k) == any(idx != k for _, idx in occ)
        for start in range(len(word) + 3):
            assert m.first_match(word, start) == _naive_first_match(
                patterns, occ, start)

