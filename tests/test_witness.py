import pytest

from oracles import brute_context_length, brute_normal_forms, rightmost_reduce
from rewbench.catalog import get_entry
from rewbench.core import ZERO, is_zero, normalize
from rewbench.enumeration import iter_normal_forms
from rewbench.witnesses import WitnessPair, unit_witness_mn, unit_witness_search


def test_frozen_constructive_witnesses():
    assert unit_witness_mn(2, "b") == WitnessPair("d", "")
    assert unit_witness_mn(2, "ada") == WitnessPair("", "cbc")
    assert unit_witness_mn(1, "a") == WitnessPair("", "c")
    assert unit_witness_mn(2, "") == WitnessPair("", "")


def test_constructive_witness_trailing_da_block():
    # the da^k tail is cancelled by c^k b, one block per round
    system = get_entry("M2").system
    pair = unit_witness_mn(2, "da")
    assert normalize(system, pair.x + "da" + pair.y) == ""


def test_constructive_rejects_zero_and_reducible_words():
    with pytest.raises(ValueError):
        unit_witness_mn(2, "aab")
    with pytest.raises(ValueError):
        unit_witness_mn(2, "ac")
    with pytest.raises(ValueError):
        unit_witness_mn(0, "a")


def test_constructive_exhaustive_small():
    for n in (1, 2, 3):
        system = get_entry(f"M{n}").system
        for w in iter_normal_forms(system, 5):
            pair = unit_witness_mn(n, w)
            assert normalize(system, pair.x + w + pair.y) == ""


def test_witness_length_stays_linear():
    # |x| + |y| <= 4 * |w| holds across the checked range; the factor
    # comes from the c^k b block answering each letter of a da^k tail
    for n in (1, 2, 3):
        system = get_entry(f"M{n}").system
        worst = 0.0
        for w in iter_normal_forms(system, 6):
            if not w:
                continue
            pair = unit_witness_mn(n, w)
            worst = max(worst, (len(pair.x) + len(pair.y)) / len(w))
        assert worst <= 4


def test_search_on_catalog_family_matches_validity():
    system = get_entry("M2").system
    for w in ("b", "ada", "d", "aa"):
        pair = unit_witness_search(system, w)
        assert pair is not None
        assert normalize(system, pair.x + w + pair.y) == ""


def test_search_on_dehn_example():
    system = get_entry("dehn-example").system
    pair = unit_witness_search(system, "a")
    assert pair == WitnessPair("a", "d")
    pair = unit_witness_search(system, "c")
    assert pair == WitnessPair("", "d")
    for w in iter_normal_forms(system, 3):
        if is_zero(normalize(system, w)):
            continue
        found = unit_witness_search(system, w)
        assert found is not None
        assert normalize(system, found.x + w + found.y) == ""


def test_search_rejects_zero():
    system = get_entry("M2").system
    with pytest.raises(ValueError):
        unit_witness_search(system, "aab")


def test_search_rejects_a_letter_outside_the_alphabet():
    system = get_entry("M2").system
    with pytest.raises(ValueError, match="^letter 'x' not in alphabet 'abcd'$"):
        unit_witness_search(system, "x")


def test_search_returns_none_when_budget_too_small():
    system = get_entry("dehn-example").system
    assert unit_witness_search(system, "ca", max_len=12, max_nodes=3) is None


def test_search_witness_is_shortest():
    system = get_entry("M2").system
    pair = unit_witness_search(system, "b")
    assert pair is not None
    assert len(pair.x) + len(pair.y) == 1


@pytest.mark.parametrize("name", ["M1", "M2", "M3", "dehn-example"])
def test_search_witness_length_matches_brute_force_oracle(name):
    # contexts here have at most 5 letters, so states stay far below
    # SEARCH_MAX_LEN and pruning cannot explain a difference
    system = get_entry(name).system
    words = brute_normal_forms(system.alphabet.precedence,
                               [r.lhs for r in system.rules], 4)
    assert len(words) > 100
    for w in words:
        pair = unit_witness_search(system, w)
        assert pair is not None, w
        assert rightmost_reduce(system, pair.x + w + pair.y) == "", w
        assert len(pair.x) + len(pair.y) == brute_context_length(
            system, w, 6), w
