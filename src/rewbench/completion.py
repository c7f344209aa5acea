"""Critical pairs, local confluence, and Knuth-Bendix completion.

Overlap analysis is Element-aware: a reduct of an overlap word may be
the absorbing ZERO, and a pair whose one side is ZERO only joins when
the other side also normalizes to ZERO.

Completion keeps a deterministic first-in-first-out pair queue and
inter-reduces after every round, so repeated runs on the same input
produce identical rule lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ZERO,
    Element,
    Presentation,
    RewritingSystem,
    Rule,
    ShortlexOrder,
    StepBudgetExceededError,
    format_element,
    normalize,
    orient,
    orient_equation,
)

_COLLAPSED = "completion derived 1 = 0; the monoid collapses to zero"

SUFFIX_PREFIX = "suffix-prefix"
CONTAINMENT = "containment"

# Per-reduct budget used when checking pairs of a system whose
# termination certificate failed; joins that exhaust it stay Unresolved.
FALLBACK_NORMALIZE_STEPS = 1000


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
    """The two one-step reducts of an overlap word and their verdict."""

    overlap: Overlap
    left: Element
    right: Element
    joinable: bool
    witness: Optional[Element] = None


@dataclass(frozen=True)
class ConfluenceReport:
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
    """Reducts of every overlap word, each checked for joinability.

    Joinability compares deterministic normal forms; a ZERO reduct only
    joins with a reduct that also normalizes to ZERO.  When the system
    is not certified terminating (only a hand-built rule list can fail
    the certificate), each normalization runs under
    ``FALLBACK_NORMALIZE_STEPS`` and a blown budget leaves the pair
    Unresolved.
    """
    max_steps = None if system.terminating else FALLBACK_NORMALIZE_STEPS
    pairs: list[CriticalPair] = []
    for ov in overlaps(system):
        r1 = system.rules[ov.rule1]
        r2 = system.rules[ov.rule2]
        # rule1 always rewrites at position 0: a suffix-prefix word
        # starts with lhs1 and a containment word *is* lhs1.
        left = _apply_at(ov.word, 0, r1)
        right = _apply_at(ov.word, ov.offset, r2)
        try:
            left_nf = normalize(system, left, max_steps)
            right_nf = normalize(system, right, max_steps)
        except StepBudgetExceededError:
            pairs.append(CriticalPair(ov, left, right, False))
            continue
        if left_nf == right_nf:
            pairs.append(CriticalPair(ov, left, right, True, left_nf))
        else:
            pairs.append(CriticalPair(ov, left, right, False))
    return pairs


def check_local_confluence(system: RewritingSystem) -> ConfluenceReport:
    """Joins every critical pair and reports the stragglers.

    With termination, an all-joinable answer certifies the system is
    complete; without it the report is only evidence.
    """
    pairs = critical_pairs(system)
    unresolved = tuple(p for p in pairs if not p.joinable)
    return ConfluenceReport(
        locally_confluent=not unresolved,
        terminating=system.terminating,
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
    alphabet_sys = orient(p, precedence)
    alphabet = alphabet_sys.alphabet
    order = alphabet_sys.order
    rules = list(dict.fromkeys(alphabet_sys.rules))
    steps = 0
    while True:
        rules = _interreduce(alphabet, rules, order)
        system = RewritingSystem(alphabet, rules)
        new_rules: list[Rule] = []
        for pair in critical_pairs(system):
            if pair.joinable:
                continue
            # an unjoined pair's normal forms differ, and the new lhs is
            # a normal form of ``system``, so no rule in ``rules`` has it
            rule = orient_equation(normalize(system, pair.left),
                                   normalize(system, pair.right), order,
                                   _COLLAPSED)
            if rule not in new_rules:
                new_rules.append(rule)
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


def _interreduce(alphabet, rules: list[Rule], order: ShortlexOrder) -> list[Rule]:
    """Rewrites every rule by the others until stable.

    A rule whose lhs reduces is replaced by the oriented equation of
    the reduced sides (or dropped when they agree); a rule whose rhs
    reduces keeps its lhs with the reduced rhs.
    """
    current = list(dict.fromkeys(rules))
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            rule = current[i]
            others = current[:i] + current[i + 1:]
            if not others:
                continue
            sub = RewritingSystem(alphabet, others)
            lhs_nf = normalize(sub, rule.lhs)
            rhs_nf = normalize(sub, rule.rhs)
            if lhs_nf == rule.lhs and rhs_nf == rule.rhs:
                continue
            del current[i]
            if lhs_nf != rhs_nf:
                replacement = orient_equation(lhs_nf, rhs_nf, order,
                                              _COLLAPSED)
                if replacement not in current:
                    current.append(replacement)
            changed = True
            break
    return current


def confluence_report_json(report: ConfluenceReport, system: RewritingSystem) -> dict:
    """Schema used by the command-line confluence subcommand."""
    return {
        "locallyConfluent": report.locally_confluent,
        "terminating": report.terminating,
        "criticalPairCount": report.critical_pair_count,
        "unresolved": [
            {
                "rule1": p.overlap.rule1,
                "rule2": p.overlap.rule2,
                "overlapWord": p.overlap.word,
                "left": format_element(p.left),
                "right": format_element(p.right),
            }
            for p in report.unresolved
        ],
    }
