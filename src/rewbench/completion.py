"""Critical pairs, local confluence, and Knuth-Bendix completion.

Overlap analysis is Element-aware: a reduct of an overlap word may be
the absorbing ZERO, and a pair whose one side is ZERO only joins when
the other side also normalizes to ZERO.  Every ``RewritingSystem``
terminates, so every reduct has a normal form and an unjoined pair is
a genuine failure of local confluence.

Completion keeps a deterministic first-in-first-out pair queue and
inter-reduces after every round, so repeated runs on the same input
produce identical rule lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ZERO,
    Element,
    Presentation,
    RewritingSystem,
    Rule,
    normalize,
    orient,
    orient_equation,
)

_COLLAPSED = "completion derived 1 = 0; the monoid collapses to zero"

SUFFIX_PREFIX = "suffix-prefix"
CONTAINMENT = "containment"


@dataclass(frozen=True)
class Overlap:
    """Two rule left-hand sides meeting inside one word.

    ``offset`` is the position of rule2's lhs inside ``word``.  For a
    suffix-prefix overlap, word = lhs1 + lhs2[k:] where the last k
    letters of lhs1 equal the first k of lhs2; for containment, word is
    lhs1 with lhs2 occurring inside it.
    """

    rule1: int
    rule2: int
    kind: str
    offset: int
    word: str


@dataclass(frozen=True)
class CriticalPair:
    """The two one-step reducts of an overlap word and their normal forms."""

    overlap: Overlap
    left: Element
    right: Element
    left_nf: Element
    right_nf: Element

    @property
    def joinable(self) -> bool:
        return self.left_nf == self.right_nf


@dataclass(frozen=True)
class ConfluenceReport:
    """``terminating`` is always True, as every system terminates; it
    stays because the ``confluence`` output and its readers use it."""

    locally_confluent: bool
    terminating: bool
    critical_pair_count: int
    unresolved: tuple[CriticalPair, ...]


@dataclass(frozen=True)
class CompletionLimits:
    max_rules: int = 500
    max_word_len: int = 64
    max_steps: int = 100_000


@dataclass(frozen=True)
class CompletionOutcome:
    """Result of knuth_bendix.

    ``completed`` is True when every critical pair of ``system`` joins.
    On a resource limit, ``system`` is the partial system reached so
    far and ``reason`` names the limit that fired.
    """

    completed: bool
    system: RewritingSystem
    steps: int
    unresolved_count: int = 0
    reason: str = ""


def overlaps(system: RewritingSystem) -> list[Overlap]:
    """All overlaps between rule left-hand sides, duplicate-free.

    Both ordered pairs of distinct rules are scanned, and every rule is
    also paired with itself (a self overlap exists only at a nonzero
    offset).  Containment of one lhs in an equal lhs is reported for
    distinct rules so that duplicate left-hand sides still surface as a
    critical pair.
    """
    found: list[Overlap] = []
    rules = system.rules
    for i, r1 in enumerate(rules):
        l1 = r1.lhs
        for j, r2 in enumerate(rules):
            l2 = r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1.endswith(l2[:k]):
                    found.append(Overlap(i, j, SUFFIX_PREFIX, len(l1) - k, l1 + l2[k:]))
            if i != j and len(l2) <= len(l1):
                pos = l1.find(l2)
                while pos != -1:
                    found.append(Overlap(i, j, CONTAINMENT, pos, l1))
                    pos = l1.find(l2, pos + 1)
    return found


def _apply_at(word: str, pos: int, rule: Rule) -> Element:
    if rule.rhs is ZERO:
        return ZERO
    return word[:pos] + rule.rhs + word[pos + len(rule.lhs):]


def critical_pairs(system: RewritingSystem) -> list[CriticalPair]:
    """Reducts of every overlap word, each with its normal form.

    Joinability compares deterministic normal forms; a ZERO reduct only
    joins with a reduct that also normalizes to ZERO.  The system
    terminates, so both normal forms always exist.
    """
    pairs: list[CriticalPair] = []
    for ov in overlaps(system):
        r1 = system.rules[ov.rule1]
        r2 = system.rules[ov.rule2]
        # rule1 always rewrites at position 0: a suffix-prefix word
        # starts with lhs1 and a containment word *is* lhs1.
        left = _apply_at(ov.word, 0, r1)
        right = _apply_at(ov.word, ov.offset, r2)
        pairs.append(CriticalPair(ov, left, right, normalize(system, left),
                                  normalize(system, right)))
    return pairs


def check_local_confluence(system: RewritingSystem) -> ConfluenceReport:
    """Joins every critical pair and reports the stragglers.

    Every system terminates, so an all-joinable answer certifies that
    the system is complete (Newman's lemma).
    """
    pairs = critical_pairs(system)
    unresolved = tuple(p for p in pairs if not p.joinable)
    return ConfluenceReport(
        locally_confluent=not unresolved,
        terminating=True,
        critical_pair_count=len(pairs),
        unresolved=unresolved,
    )


def knuth_bendix(p: Presentation, precedence: str = "",
                 limits: CompletionLimits = CompletionLimits()) -> CompletionOutcome:
    """Completes a presentation into a confluent terminating system.

    Rounds are deterministic: compute all critical pairs of the current
    rule list in enumeration order, orient every non-joining pair into
    a new rule (first found, first added), then inter-reduce.  ``steps``
    counts the rules added from critical pairs.  Hitting any limit
    returns the partial system with ``completed`` False.
    """
    system = orient(p, precedence)
    alphabet, order = system.alphabet, system.order
    steps = 0
    while True:
        system = _interreduce(system)
        rules = list(system.rules)
        # an unjoined pair's normal forms differ, and the new lhs is a
        # normal form of ``system``, so no rule in ``rules`` has it
        new_rules = list(dict.fromkeys(
            orient_equation(pair.left_nf, pair.right_nf, order, _COLLAPSED)
            for pair in critical_pairs(system) if not pair.joinable))
        if not new_rules:
            return CompletionOutcome(True, system, steps)
        for rule in new_rules:
            rhs_len = 0 if rule.rhs is ZERO else len(rule.rhs)
            if max(len(rule.lhs), rhs_len) > limits.max_word_len:
                return CompletionOutcome(False, system, steps,
                                         unresolved_count=len(new_rules),
                                         reason="max_word_len")
            rules.append(rule)
            steps += 1
            if len(rules) > limits.max_rules:
                return CompletionOutcome(False, RewritingSystem(alphabet, rules),
                                         steps, unresolved_count=len(new_rules),
                                         reason="max_rules")
            if steps > limits.max_steps:
                return CompletionOutcome(False, RewritingSystem(alphabet, rules),
                                         steps, unresolved_count=len(new_rules),
                                         reason="max_steps")
        system = RewritingSystem(alphabet, rules)


def _interreduce(system: RewritingSystem) -> RewritingSystem:
    """Rewrites every rule by the others until stable; returns the
    system of the stable rule list.

    The first pass scans ``system`` itself; a new system is built first
    only if its rule list holds a duplicate, which is dropped.  A pass
    scans the rules in order for the first one the others reduce.  A
    rule decreases shortlex, so its rhs cannot contain its own lhs: the
    others leave rule i as it is exactly when no other lhs occurs in
    its lhs and no lhs at all occurs in its rhs, which one matcher over
    the whole list answers.  The rule found is removed, the system of
    the others is built, and it normalizes both sides of the rule.  If
    they differ and their oriented equation is not already present, it
    is appended and the extended list is built; otherwise the system of
    the others is the one the next pass scans.
    """
    alphabet, order = system.alphabet, system.order
    current = list(dict.fromkeys(system.rules))
    if len(current) < len(system.rules):
        system = RewritingSystem(alphabet, current)
    while True:
        contains = system.matcher.contains
        i = next((i for i, rule in enumerate(current)
                  if contains(rule.lhs, skip=i)
                  or (rule.rhs is not ZERO and contains(rule.rhs))), None)
        if i is None:
            return system
        rule = current.pop(i)
        system = RewritingSystem(alphabet, current)
        lhs_nf = normalize(system, rule.lhs)
        rhs_nf = normalize(system, rule.rhs)
        if lhs_nf != rhs_nf:
            replacement = orient_equation(lhs_nf, rhs_nf, order, _COLLAPSED)
            if replacement not in current:
                current.append(replacement)
                system = RewritingSystem(alphabet, current)
