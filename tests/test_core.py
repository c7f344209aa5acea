import itertools
import pickle
import random

import pytest

from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    PresentationSyntaxError,
    Rule,
    ShortlexOrder,
    dump_presentation,
    format_element,
    is_zero,
    parse_presentation,
)


def test_zero_singleton_survives_pickle():
    assert pickle.loads(pickle.dumps(ZERO)) is ZERO


def test_is_zero_and_format():
    assert is_zero(ZERO)
    assert not is_zero("")
    assert not is_zero("a")
    assert format_element(ZERO) == "0"
    assert format_element("") == "1"
    assert format_element("ab") == "ab"


def test_alphabet_validation():
    a = Alphabet("abcd", "abcd")
    assert a.check_word("dcba") == "dcba"
    with pytest.raises(ValueError):
        a.check_word("abe")
    with pytest.raises(ValueError):
        Alphabet("", "")
    with pytest.raises(ValueError):
        Alphabet("aa", "aa")
    with pytest.raises(ValueError):
        Alphabet("ab", "ba" + "c")
    with pytest.raises(ValueError):
        Alphabet("a1", "a1")
    with pytest.raises(ValueError, match="bad generator letter ' '"):
        Alphabet("a b")


def _shortlex_key(precedence):
    """Zero first, then words by length, then letterwise by rank in
    ``precedence``."""
    def key(word):
        if word is ZERO:
            return -1, ()
        return len(word), tuple(precedence.index(ch) for ch in word)
    return key


def test_shortlex_frozen_examples():
    order = ShortlexOrder(Alphabet("abcd", "abcd"))
    assert order.less("", "a")
    assert order.less("d", "aa")
    assert order.less("ab", "ba")
    assert not order.less("ba", "ab")
    assert not order.less("ab", "ab")
    assert order.less(ZERO, "")
    assert not order.less("", ZERO)
    assert sorted(["ba", "", "ab", "a", ZERO], key=_shortlex_key("abcd")) == [
        ZERO, "", "a", "ab", "ba"]


def test_shortlex_respects_precedence():
    order = ShortlexOrder(Alphabet("abcd", "bacd"))
    assert order.less("b", "a")
    assert order.less("ba", "ab")


def test_shortlex_is_total_and_multiplication_monotone():
    order = ShortlexOrder(Alphabet("ab", "ab"))
    rng = random.Random(3)
    words = ["".join(rng.choice("ab") for _ in range(rng.randrange(0, 6)))
             for _ in range(40)]
    for u in words:
        for v in words:
            assert (order.less(u, v) + order.less(v, u) + (u == v)) == 1
            if order.less(u, v):
                assert order.less("a" + u, "a" + v)
                assert order.less(u + "b", v + "b")


@pytest.mark.parametrize("letters,precedence",
                         [("ab", "ab"), ("ab", "ba"), ("abcd", "bacd")])
def test_shortlex_less_agrees_with_key(letters, precedence):
    order = ShortlexOrder(Alphabet(letters, precedence))
    key = _shortlex_key(precedence)
    elements = [ZERO] + ["".join(t) for n in range(5)
                         for t in itertools.product(letters, repeat=n)]
    for u in elements:
        for v in elements:
            assert order.less(u, v) == (key(u) < key(v))


def test_check_word_names_the_first_bad_letter():
    a = Alphabet("ab")
    assert a.check_word("") == "" and a.check_word("abba") == "abba"
    for word, bad in (("abxab", "x"), ("xab", "x"), ("ayxb", "y")):
        with pytest.raises(ValueError) as exc:
            a.check_word(word)
        assert str(exc.value) == f"letter {bad!r} not in alphabet 'ab'"


def test_rule_rejects_empty_lhs():
    with pytest.raises(ValueError):
        Rule("", "a")


def test_presentation_rejects_zero_equals_zero():
    with pytest.raises(ValueError):
        Presentation(Alphabet("ab", "ab"), ((ZERO, ZERO),))


PRESENTATION_TEXT = """\
# two commuting letters, one zero pattern
generators: a b
relations:
ab = ba
aa = 1
bb = 0
"""


def test_parse_presentation():
    p = parse_presentation(PRESENTATION_TEXT)
    assert p.alphabet.letters == "ab"
    assert p.relations == (("ab", "ba"), ("aa", ""), ("bb", ZERO))


def test_dump_round_trip():
    p = parse_presentation(PRESENTATION_TEXT)
    again = parse_presentation(dump_presentation(p))
    assert again.alphabet.letters == p.alphabet.letters
    assert again.relations == p.relations


@pytest.mark.parametrize("text,line", [
    ("relations:\nab = ba\n", 1),
    ("generators: a b\nab = ba\n", 2),
    ("generators: a b\nrelations:\nab ba\n", 3),
    ("generators: a b\nrelations:\nab = b a\n", 3),
    ("generators: a b\nrelations:\n= ba\n", 3),
    ("generators: a b\nrelations:\nxy = a\n", 3),
    ("generators: a b\nrelations:\n0 = 0\n", 3),
])
def test_parse_errors_carry_line(text, line):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,message", [
    ("# only a comment\n\n", "line 1, column 1: missing 'generators:' header"),
    ("generators:\nrelations:\n", "line 1, column 1: empty generator list"),
    ("generators: ab c\nrelations:\n",
     "line 1, column 1: generators must be single letters, got 'ab'"),
    ("generators: a 0\nrelations:\n",
     "line 1, column 1: letters 0 and 1 are reserved for zero and the empty "
     "word"),
    ("generators: a b\nrelations:\nab =\n",
     "line 3, column 5: empty right side of relation"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert str(err.value) == message


def test_parse_error_column_points_at_bad_letter():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("generators: a b\nrelations:\nax = a\n")
    assert (err.value.line, err.value.column) == (3, 2)


def test_missing_relations_header():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("generators: a b\n")
