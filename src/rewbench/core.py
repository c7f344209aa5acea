"""Core objects for string rewriting in monoids with a possible zero.

Words are plain Python strings over a small alphabet of single-letter
generators.  Monoid elements are either words (normal forms, with ""
the identity) or the absorbing element ``ZERO``.  ``ZERO`` is a
semantic sentinel, not a letter: it never appears inside a word, and
any product with it is ``ZERO`` again.

A ``RewritingSystem`` holds oriented rules ``lhs -> rhs`` where the
right-hand side may be a word or ``ZERO``.  Rewriting a word that
contains some ``lhs`` whose rule has rhs ``ZERO`` collapses the whole
word to ``ZERO`` in one step; there is nothing left to rewrite after
that.  Every rule must decrease the shortlex order, which the
constructor checks; shortlex is a well-order compatible with
concatenation, so every system terminates.

The deterministic strategy contract: one rewrite step applies a rule at
the leftmost matching position, breaking ties at equal position by
longest left-hand side, then by lowest rule index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .matcher import FactorMatcher


class _ZeroType:
    """Singleton absorbing element."""

    _instance: Optional["_ZeroType"] = None
    __slots__ = ()

    def __new__(cls) -> "_ZeroType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"

    def __reduce__(self):
        return (_ZeroType, ())


ZERO = _ZeroType()

# A monoid element: a word in normal-form position, or the zero.
Element = Union[str, _ZeroType]


def is_zero(x: Element) -> bool:
    return x is ZERO


def codepoint_key(x: Element) -> tuple[int, str]:
    """Sort key: zero first, then words by length, then by code point.

    Unlike ``ShortlexOrder.key`` it ignores the letter precedence, so
    an order built on it is the same under every orientation.
    """
    return (-1, "") if x is ZERO else (len(x), x)


def format_element(x: Element) -> str:
    """Display form: "1" for the empty word, "0" for zero."""
    if x is ZERO:
        return "0"
    return x if x else "1"


class PresentationSyntaxError(ValueError):
    """Raised by parse_presentation; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnorientableRelationError(ValueError):
    """Relation cannot be turned into a rule with a nonempty lhs."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator letters plus a precedence used by shortlex.

    ``letters`` is the declaration order; ``precedence`` lists the same
    letters from smallest to largest.  They often coincide but need not:
    orienting a commutation relation may require a precedence that
    disagrees with the declaration order.
    """

    letters: str
    precedence: str = ""

    def __post_init__(self):
        if not self.letters:
            raise ValueError("alphabet needs at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        for ch in self.letters:
            if len(ch) != 1 or ch.isspace():
                raise ValueError(f"bad generator letter {ch!r}")
            if ch in "01":
                raise ValueError("letters 0 and 1 are reserved for zero and the empty word")
        if not self.precedence:
            object.__setattr__(self, "precedence", self.letters)
        if sorted(self.precedence) != sorted(self.letters):
            raise ValueError("precedence must be a permutation of the letters")

    def check_word(self, word: str) -> str:
        for ch in word:
            if ch not in self.letters:
                raise ValueError(f"letter {ch!r} not in alphabet {self.letters!r}")
        return word


class ShortlexOrder:
    """Total order on elements: zero first, then words by length, then
    letterwise by precedence."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        # a letter's rank as a code point: translated words of equal
        # length compare as their rank sequences do
        self._rank_table = {ord(ch): chr(i)
                            for i, ch in enumerate(alphabet.precedence)}

    def key(self, word: Element) -> tuple[int, str]:
        if word is ZERO:
            return -1, ""
        return len(word), word.translate(self._rank_table)

    def less(self, u: Element, v: Element) -> bool:
        return self.key(u) < self.key(v)


@dataclass(frozen=True)
class Rule:
    """Oriented rewrite rule.  lhs is a nonempty word; rhs is a word or ZERO."""

    lhs: str
    rhs: Element

    def __post_init__(self):
        if not self.lhs:
            raise ValueError("rule lhs must be nonempty")

    def __str__(self) -> str:
        return f"{self.lhs} -> {format_element(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    """Generators plus unoriented relations.

    A relation side is a word, "" for the identity, or ZERO.  At most
    one side of a relation may be ZERO.
    """

    alphabet: Alphabet
    relations: tuple[tuple[Element, Element], ...]

    def __post_init__(self):
        for left, right in self.relations:
            if left is ZERO and right is ZERO:
                raise ValueError("relation 0 = 0 is not allowed")
            for side in (left, right):
                if side is not ZERO:
                    self.alphabet.check_word(side)


def _parse_relation_side(token: str, alphabet: Alphabet, line: int, col: int) -> Element:
    if token == "0":
        return ZERO
    if token == "1":
        return ""
    for i, ch in enumerate(token):
        if ch not in alphabet.letters:
            raise PresentationSyntaxError(f"unknown generator {ch!r}", line, col + i)
    return token


def parse_presentation(text: str) -> Presentation:
    """Parses the presentation file format.

    Line 1: ``generators:`` followed by whitespace-separated letters.
    Line 2: ``relations:``.  Every further nonblank line is
    ``<word> = <word>`` where ``1`` denotes the empty word and ``0``
    denotes the zero element.  ``#`` starts a comment; blank lines are
    ignored.
    """
    gens: Optional[Alphabet] = None
    seen_relations_header = False
    relations: list[tuple[Element, Element]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        if not line.strip():
            continue
        stripped = line.strip()
        col = line.index(stripped[0]) + 1
        if gens is None:
            if not stripped.startswith("generators:"):
                raise PresentationSyntaxError("expected 'generators:' header", lineno, col)
            letters = stripped[len("generators:"):].split()
            if not letters:
                raise PresentationSyntaxError("empty generator list", lineno, col)
            for tok in letters:
                if len(tok) != 1:
                    raise PresentationSyntaxError(
                        f"generators must be single letters, got {tok!r}", lineno, col)
            try:
                gens = Alphabet("".join(letters))
            except ValueError as exc:
                raise PresentationSyntaxError(str(exc), lineno, col) from None
            continue
        if not seen_relations_header:
            if stripped != "relations:":
                raise PresentationSyntaxError("expected 'relations:' header", lineno, col)
            seen_relations_header = True
            continue
        if "=" not in stripped:
            raise PresentationSyntaxError("relation needs '='", lineno, col)
        left_txt, _, right_txt = stripped.partition("=")
        left_tok = left_txt.strip()
        right_tok = right_txt.strip()
        if not left_tok:
            raise PresentationSyntaxError("empty left side of relation", lineno, col)
        if not right_tok:
            raise PresentationSyntaxError(
                "empty right side of relation", lineno, col + len(left_txt) + 1)
        if " " in left_tok or " " in right_tok:
            raise PresentationSyntaxError("words must not contain spaces", lineno, col)
        left = _parse_relation_side(left_tok, gens, lineno, col)
        right = _parse_relation_side(
            right_tok, gens, lineno, col + len(left_txt) + 1 + right_txt.index(right_tok))
        if left is ZERO and right is ZERO:
            raise PresentationSyntaxError("relation 0 = 0 is not allowed", lineno, col)
        relations.append((left, right))
    if gens is None:
        raise PresentationSyntaxError("missing 'generators:' header", 1, 1)
    if not seen_relations_header:
        raise PresentationSyntaxError("missing 'relations:' header", 1, 1)
    return Presentation(gens, tuple(relations))


def dump_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation, up to whitespace."""
    lines = ["generators: " + " ".join(p.alphabet.letters), "relations:"]
    for left, right in p.relations:
        lines.append(f"{format_element(left)} = {format_element(right)}")
    return "\n".join(lines) + "\n"


class RewritingSystem:
    """Immutable ordered rule list with a precompiled factor matcher.

    Every rule must strictly decrease the shortlex order of the
    alphabet's precedence (a zero rhs always does); any other rule
    raises ValueError.  So every system terminates (Book and Otto
    1993), and a rule's rhs never contains its own lhs.
    """

    def __init__(self, alphabet: Alphabet, rules: Iterable[Rule]):
        self.alphabet = alphabet
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.order = ShortlexOrder(alphabet)
        for rule in self.rules:
            alphabet.check_word(rule.lhs)
            if rule.rhs is not ZERO:
                alphabet.check_word(rule.rhs)
            if not self.order.less(rule.rhs, rule.lhs):
                raise ValueError(f"rule {rule} does not decrease shortlex "
                                 f"with precedence {alphabet.precedence!r}")
        self.matcher = FactorMatcher(alphabet.letters, [r.lhs for r in self.rules])
        self.max_lhs_len = self.matcher.max_len

    def __repr__(self) -> str:
        body = ", ".join(str(r) for r in self.rules)
        return f"RewritingSystem({self.alphabet.letters!r}, [{body}])"


def orient(p: Presentation, precedence: str = "") -> RewritingSystem:
    """Turns relations into rules directed from the larger side to the
    smaller one under shortlex with the given precedence.

    ZERO sits below every word, so ``u = 0`` always becomes ``u -> 0``.
    Every rule decreases shortlex, as ``RewritingSystem`` requires.
    Trivial relations ``u = u`` are skipped with a warning.  A relation
    that would need an empty lhs (``1 = 0``) is rejected: it forces the
    whole monoid onto the zero element and has no rule form here.
    """
    alphabet = p.alphabet if not precedence else Alphabet(p.alphabet.letters, precedence)
    order = ShortlexOrder(alphabet)
    rules = []
    for left, right in p.relations:
        if left == right:
            warnings.warn(f"skipping trivial relation {format_element(left)} = "
                          f"{format_element(right)}")
            continue
        rules.append(orient_equation(
            left, right, order,
            "relation 1 = 0 collapses the monoid; cannot orient"))
    return RewritingSystem(alphabet, rules)


def orient_equation(x: Element, y: Element, order: ShortlexOrder,
                    collapse_message: str) -> Rule:
    """Directs ``x = y`` (x != y) into a shortlex-decreasing rule.

    A zero side becomes the rhs.  ``1 = 0`` has no rule form and raises
    UnorientableRelationError with ``collapse_message``.
    """
    if x is ZERO or y is ZERO:
        word = y if x is ZERO else x
        if word == "":
            raise UnorientableRelationError(collapse_message)
        return Rule(word, ZERO)
    big, small = (x, y) if order.less(y, x) else (y, x)
    return Rule(big, small)


def normalize(system: RewritingSystem, word: Element) -> Element:
    """Rewrites to a fixed point under the deterministic strategy.

    Every rule decreases shortlex, so this always halts.  After a
    rewrite at position p no match can start before p - max_lhs_len + 1,
    so the scan resumes there instead of at 0.
    """
    if word is ZERO:
        return ZERO
    matcher = system.matcher
    rules = system.rules
    back = system.max_lhs_len - 1
    pos = 0
    while True:
        hit = matcher.first_match(word, pos)
        if hit is None:
            return word
        start, idx = hit
        rule = rules[idx]
        if rule.rhs is ZERO:
            return ZERO
        word = word[:start] + rule.rhs + word[start + len(rule.lhs):]
        pos = start - back
        if pos < 0:
            pos = 0


def product(system: RewritingSystem, x: Element, y: Element) -> Element:
    """Monoid product of two elements, returned in normal form."""
    if x is ZERO or y is ZERO:
        return ZERO
    return normalize(system, x + y)


def equal_in_monoid(system: RewritingSystem, u: Element, v: Element) -> bool:
    """Equality through normal forms.

    Sound and complete only when the system is locally confluent (it
    always terminates); for other systems this is just a one-sided
    check that the deterministic reducts coincide.
    """
    return normalize(system, u) == normalize(system, v)
