import itertools
import random
from dataclasses import astuple

import pytest

from oracles import brute_overlaps, closure_equal
from rewbench.catalog import get_entry
from rewbench.completion import (
    CONTAINMENT,
    SUFFIX_PREFIX,
    CompletionLimits,
    check_local_confluence,
    critical_pairs,
    knuth_bendix,
)
from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    Rule,
    RewritingSystem,
    UnorientableRelationError,
    equal_in_monoid,
    orient,
)


def test_catalog_systems_have_no_overlaps():
    for name in ("M1", "M2", "M3", "M4", "M5", "dehn-example"):
        system = get_entry(name).system
        assert critical_pairs(system) == []
        report = check_local_confluence(system)
        assert report.locally_confluent
        assert report.terminating
        assert report.critical_pair_count == 0
        assert report.unresolved == ()


def test_self_overlap_at_nonzero_offset():
    system = RewritingSystem(Alphabet("a", "a"), [Rule("aa", "a")])
    found = [cp.overlap for cp in critical_pairs(system)]
    assert len(found) == 1
    ov = found[0]
    assert (ov.rule1, ov.rule2, ov.kind, ov.offset, ov.word) == \
        (0, 0, SUFFIX_PREFIX, 1, "aaa")
    pairs = critical_pairs(system)
    assert len(pairs) == 1
    assert pairs[0].left == "aa" and pairs[0].right == "aa"
    assert pairs[0].joinable and pairs[0].left_nf == "a"


def test_containment_overlap_with_zero_is_unresolved():
    system = RewritingSystem(Alphabet("ab", "ab"),
                             [Rule("abb", ""), Rule("ab", ZERO)])
    found = [cp.overlap for cp in critical_pairs(system)]
    assert len(found) == 1
    ov = found[0]
    assert (ov.rule1, ov.rule2, ov.kind, ov.offset, ov.word) == \
        (0, 1, CONTAINMENT, 0, "abb")
    report = check_local_confluence(system)
    assert not report.locally_confluent
    assert report.critical_pair_count == 1
    pair = report.unresolved[0]
    assert pair.left == "" and pair.right is ZERO
    assert (pair.left_nf, pair.right_nf) == ("", ZERO)
    assert not pair.joinable


def test_overlaps_match_brute_force_oracle_in_order():
    rng = random.Random(17)
    for _ in range(600):
        letters = "abc"[:rng.randint(1, 3)]
        lhss = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 8))]
        if rng.random() < 0.3:
            lhss.insert(rng.randrange(len(lhss) + 1), rng.choice(lhss))
        system = RewritingSystem(Alphabet(letters),
                                 [Rule(lhs, ZERO) for lhs in lhss])
        found = [astuple(cp.overlap) for cp in critical_pairs(system)]
        assert found == brute_overlaps(lhss)


def test_suffix_prefix_reducts():
    system = RewritingSystem(Alphabet("ab", "ab"),
                             [Rule("ab", "a"), Rule("ba", "b")])
    words = {(cp.overlap.kind, cp.overlap.word)
             for cp in critical_pairs(system)}
    assert (SUFFIX_PREFIX, "aba") in words
    assert (SUFFIX_PREFIX, "bab") in words


def test_knuth_bendix_on_already_complete_system():
    entry = get_entry("M2")
    outcome = knuth_bendix(entry.presentation, entry.precedence)
    assert outcome.completed
    assert outcome.steps == 0
    assert set(outcome.system.rules) == set(entry.system.rules)
    assert check_local_confluence(outcome.system).locally_confluent


def test_knuth_bendix_orients_commutation():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "ba"),))
    outcome = knuth_bendix(p, "ba")
    assert outcome.completed
    assert outcome.system.rules == (Rule("ab", "ba"),)


def test_knuth_bendix_adds_rules():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
    outcome = knuth_bendix(p)
    assert outcome.completed
    assert set(outcome.system.rules) == {
        Rule("ab", "a"), Rule("ba", "b"), Rule("aa", "a"), Rule("bb", "b")}
    report = check_local_confluence(outcome.system)
    assert report.locally_confluent and report.terminating


def test_knuth_bendix_completed_system_matches_closure_oracle():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
    system = knuth_bendix(p).system
    words = [""] + [w + g for w in ("", "a", "b", "aa", "ab", "ba", "bb")
                    for g in "ab"]
    for u in words:
        for v in words:
            assert equal_in_monoid(system, u, v) == \
                closure_equal(p, u, v, max_len=8)


def test_knuth_bendix_is_deterministic():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
    first = knuth_bendix(p)
    second = knuth_bendix(p)
    assert first.system.rules == second.system.rules
    assert first.steps == second.steps


def test_knuth_bendix_hits_limits_on_braidlike_relation():
    p = Presentation(Alphabet("ab", "ab"), (("aba", "bab"),))
    outcome = knuth_bendix(p, limits=CompletionLimits(
        max_rules=8, max_word_len=16, max_steps=500))
    assert not outcome.completed
    assert outcome.reason


def test_knuth_bendix_orients_the_critical_pairs_normal_forms(monkeypatch):
    # once _reducts has normalized a pair's reducts, completion must not
    # normalize them again against the same system
    from rewbench import completion
    checked, repeats, inside = [], [], [False]
    pairs_of, normalize_in = completion._reducts, completion.normalize

    def spy_pairs(system):
        checked.append(system)
        inside[0] = True
        try:
            return pairs_of(system)
        finally:
            inside[0] = False

    def spy_normalize(system, word, *rest):
        if not inside[0] and any(system is s for s in checked):
            repeats.append(word)
        return normalize_in(system, word, *rest)

    monkeypatch.setattr(completion, "_reducts", spy_pairs)
    monkeypatch.setattr(completion, "normalize", spy_normalize)
    p = Presentation(Alphabet("ab", "ab"), (("aba", "bab"),))
    outcome = knuth_bendix(p, limits=CompletionLimits(
        max_rules=8, max_word_len=16, max_steps=500))
    assert outcome.steps == 13 and len(checked) > 1
    assert repeats == []


def test_knuth_bendix_detects_collapse_to_zero():
    p = Presentation(Alphabet("a", "a"), (("a", ""), ("a", ZERO)))
    with pytest.raises(UnorientableRelationError):
        knuth_bendix(p)


def test_critical_pairs_reach_normal_forms_without_a_step_budget():
    # the non-terminating a -> aa cannot be built, so critical pairs need
    # no fallback budget: both sides always reach normal forms
    with pytest.raises(ValueError, match="does not decrease shortlex"):
        RewritingSystem(Alphabet("ab"), [Rule("a", "aa"), Rule("a", "b")])
    system = RewritingSystem(Alphabet("ab"), [Rule("b", "a"), Rule("b", "")])
    report = check_local_confluence(system)
    assert report.terminating and not report.locally_confluent
    assert report.critical_pair_count == 2 and len(report.unresolved) == 2
    for pair in report.unresolved:
        assert {pair.left, pair.right} == {"a", ""}
        assert (pair.left_nf, pair.right_nf) == (pair.left, pair.right)


BRAID = Presentation(Alphabet("abc"),
                     (("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")))


def _record_builds(monkeypatch) -> list[tuple[Rule, ...]]:
    """The rule tuple of every RewritingSystem built from now on."""
    builds = []
    init = RewritingSystem.__init__

    def recorded(self, *args):
        init(self, *args)
        builds.append(self.rules)

    monkeypatch.setattr(RewritingSystem, "__init__", recorded)
    return builds


def test_interreduction_builds_one_system_per_pass(monkeypatch):
    # A pass that rewrites a rule builds the system of the other rules,
    # and a second system only when it appends a replacement; the next
    # pass scans whichever was built last.  Not one system per rule.
    builds = _record_builds(monkeypatch)
    outcome = knuth_bendix(BRAID, limits=CompletionLimits(max_rules=190))
    assert (outcome.completed, outcome.reason) == (False, "max_rules")
    assert len(builds) <= 100, len(builds)


def test_braid_completion_at_default_limits_builds_few_systems(monkeypatch):
    builds = _record_builds(monkeypatch)
    outcome = knuth_bendix(BRAID)
    assert (outcome.completed, outcome.reason) == (False, "max_rules")
    assert len(builds) <= 200, len(builds)


@pytest.mark.filterwarnings("ignore:skipping trivial relation")
def test_completion_never_builds_a_rule_list_twice_in_a_row(monkeypatch):
    # each distinct rule list is built once: the oriented system is the
    # first one scanned, and the system of the other rules is scanned
    # next when a pass appends nothing; about a third of the random
    # presentations repeat a relation, so the deduplicated list is new
    builds = _record_builds(monkeypatch)
    runs = [(BRAID, CompletionLimits(max_rules=190))]
    runs += [(p, CompletionLimits(10, 8, 20))
             for p in _random_presentations(random.Random(11), 200)]
    for p, limits in runs:
        builds.clear()
        try:
            knuth_bendix(p, limits=limits)
        except UnorientableRelationError:
            pass
        assert all(a != b for a, b in zip(builds, builds[1:])), p


def _random_presentations(rng, count):
    """2-3 letters, 1-3 relations with sides of 0-4 letters or zero, plus
    a repeat of one of them in about a third; ``1 = 0`` is left out
    because it has no rule form."""
    def side(letters):
        if rng.random() < 0.15:
            return ZERO
        return "".join(rng.choice(letters) for _ in range(rng.randrange(5)))

    made = 0
    while made < count:
        letters = "abc"[:rng.randrange(2, 4)]
        relations = [(side(letters), side(letters))
                     for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            relations.append(rng.choice(relations))
        if any({x, y} in ({"", ZERO}, {ZERO}) for x, y in relations):
            continue
        made += 1
        yield Presentation(Alphabet(letters), tuple(relations))


def _decreases_shortlex(system):
    """Every rhs is zero, shorter than its lhs, or of equal length and
    earlier in the precedence at the first differing letter."""
    rank = system.alphabet.precedence.index
    return all(rule.rhs is ZERO
               or (len(rule.rhs), [rank(ch) for ch in rule.rhs])
               < (len(rule.lhs), [rank(ch) for ch in rule.lhs])
               for rule in system.rules)


@pytest.mark.filterwarnings("ignore:skipping trivial relation")
def test_oriented_and_completed_systems_are_terminating():
    # RewritingSystem rejects any other rule; this checks the systems
    # orient and knuth_bendix build without relying on that check
    rng = random.Random(5)
    outcomes = {"completed": 0, "limited": 0, "collapsed": 0}
    for p in _random_presentations(rng, 400):
        for precedence in itertools.permutations(p.alphabet.letters):
            assert _decreases_shortlex(orient(p, "".join(precedence)))
        precedence = "".join(rng.sample(p.alphabet.letters,
                                        len(p.alphabet.letters)))
        try:
            outcome = knuth_bendix(p, precedence, CompletionLimits(10, 8, 20))
        except UnorientableRelationError:
            outcomes["collapsed"] += 1
            continue
        assert _decreases_shortlex(outcome.system)
        outcomes["completed" if outcome.completed else "limited"] += 1
    assert min(outcomes.values()) > 0, outcomes
