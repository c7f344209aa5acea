import math
import random
from collections import Counter
from itertools import combinations, product

import pytest

import make_golden
from oracles import (
    bfs_distance,
    brute_pair_areas,
    brute_profile,
    one_step,
    relation_edges,
    rightmost_reduce,
)
from rewbench import dehn
from rewbench.catalog import CatalogEntry, get_entry, list_catalog
from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    UnorientableRelationError,
    equal_in_monoid,
    normalize,
    orient,
)
from rewbench.dehn import (
    AREA,
    DEFAULT_SLACK,
    NOT_EQUAL,
    RESOURCE_LIMIT,
    ProfileLimits,
    dehn_area,
    dehn_profile,
    fit_power_law,
)


def _dehn():
    return get_entry("dehn-example")


def test_area_of_identical_words_is_zero():
    e = _dehn()
    r = dehn_area(e.presentation, "ab", "ab", precedence=e.precedence)
    assert (r.status, r.steps, r.derivation) == (AREA, 0, ("ab",))


def test_area_one_swap():
    e = _dehn()
    r = dehn_area(e.presentation, "ab", "ba", precedence=e.precedence)
    assert r.status == AREA and r.steps == 1
    assert r.derivation == ("ab", "ba")


def test_area_frozen_examples():
    e = _dehn()
    r = dehn_area(e.presentation, "aabb", "bbaa", precedence=e.precedence)
    assert r.steps == 4
    r = dehn_area(e.presentation, "caabbd", "", precedence=e.precedence)
    assert r.steps == 6
    assert r.derivation == ("caabbd", "cababd", "cbaabd", "cbabad",
                            "cbbaad", "cbb", "")
    m2 = get_entry("M2")
    r = dehn_area(m2.presentation, "dab", "", precedence=m2.precedence)
    assert r.steps == 1


def test_area_derivation_is_a_relation_chain():
    e = _dehn()
    r = dehn_area(e.presentation, "ccaabbdd", "", precedence=e.precedence)
    system = get_entry("dehn-example").system
    for left, right in zip(r.derivation, r.derivation[1:]):
        assert equal_in_monoid(system, left, right)
    assert len(r.derivation) == r.steps + 1


def test_not_equal_under_complete_orientation():
    m1 = get_entry("M1")
    r = dehn_area(m1.presentation, "a", "b", precedence=m1.precedence)
    assert r.status == NOT_EQUAL


def test_quadratic_family_exact():
    e = _dehn()
    for k in range(1, 5):
        r = dehn_area(e.presentation, "a" * k + "b" * k, "b" * k + "a" * k,
                      precedence=e.precedence)
        assert r.status == AREA and r.steps == k * k


def test_quadratic_family_is_slack_invariant():
    e = _dehn()
    tight = dehn_area(e.presentation, "aaabbb", "bbbaaa",
                      precedence=e.precedence, max_len=6)
    assert tight.status == AREA and tight.steps == 9


def test_area_matches_unidirectional_oracle():
    e = _dehn()
    pairs = [("ab", "ba"), ("aabb", "bbaa"), ("cd", ""), ("cabd", ""),
             ("cbad", ""), ("a", "aada")]
    for u, v in pairs:
        r = dehn_area(e.presentation, u, v, precedence=e.precedence)
        max_len = max(len(u), len(v)) + 4
        assert r.steps == bfs_distance(e.presentation, u, v, max_len)


def test_resource_limit_on_tiny_node_budget():
    e = _dehn()
    r = dehn_area(e.presentation, "aaaabbbb", "bbbbaaaa",
                  precedence=e.precedence, max_nodes=10)
    assert r.status == RESOURCE_LIMIT and r.reason == "max_nodes"


def test_exhaustion_without_completeness_is_undetermined():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
    equal = dehn_area(p, "aa", "a")
    assert equal.status == AREA and equal.steps == 3
    unequal = dehn_area(p, "a", "b")
    assert unequal.status == RESOURCE_LIMIT
    assert "exhausted" in unequal.reason


def test_area_rejects_bad_input():
    e = _dehn()
    with pytest.raises(ValueError):
        dehn_area(e.presentation, "ax", "a", precedence=e.precedence)
    with pytest.raises(ValueError):
        dehn_area(e.presentation, "aaaa", "a", precedence=e.precedence,
                  max_len=2)


def test_profile_frozen_dehn_example():
    e = _dehn()
    res = dehn_profile(e.presentation, 6, precedence=e.precedence)
    assert [r.d for r in res.rows] == [0, 0, 1, 1, 2, 3, 6]
    assert res.resolved_pairs == 193
    assert res.limited_pairs == 0
    assert res.incomplete_classes == ()
    assert (res.rows[6].witness_u, res.rows[6].witness_v) == ("", "caabbd")
    assert res.max_len == 10


def test_profile_frozen_m1():
    m1 = get_entry("M1")
    res = dehn_profile(m1.presentation, 6, precedence=m1.precedence)
    assert [r.d for r in res.rows] == [0, 0, 1, 1, 2, 2, 3]
    assert res.resolved_pairs == 671
    assert res.limited_pairs == 0


def test_profile_row_invariants():
    e = _dehn()
    res = dehn_profile(e.presentation, 6, precedence=e.precedence)
    system = get_entry("dehn-example").system
    assert res.rows[0].n == 0 and res.rows[0].d == 0
    for prev, row in zip(res.rows, res.rows[1:]):
        assert row.n == prev.n + 1
        assert row.d >= prev.d
        if row.d > 0:
            assert len(row.witness_u) + len(row.witness_v) <= row.n
            assert equal_in_monoid(system, row.witness_u, row.witness_v)


def test_profile_witnesses_attain_their_row():
    e = _dehn()
    res = dehn_profile(e.presentation, 6, precedence=e.precedence)
    for row in res.rows:
        if row.d == 0:
            continue
        r = dehn_area(e.presentation, row.witness_u, row.witness_v,
                      precedence=e.precedence,
                      max_len=res.max_len)
        assert r.status == AREA and r.steps == row.d


def test_profile_reports_blown_budgets_instead_of_dropping():
    e = _dehn()
    res = dehn_profile(e.presentation, 6, precedence=e.precedence,
                       limits=ProfileLimits(max_class_vertices=10,
                                            max_pair_nodes=10,
                                            max_zero_ball=10))
    assert res.limited_pairs == 10
    assert len(res.incomplete_classes) == 19
    assert res.rows[-1].limited_pairs == res.limited_pairs


@pytest.mark.parametrize("name,slack", [(e.name, 1) for e in list_catalog()]
                         + [("dehn-example", DEFAULT_SLACK)])
def test_profile_matches_brute_force_oracle(name, slack):
    entry = get_entry(name)
    res = dehn_profile(entry.presentation, 6, slack=slack,
                       precedence=entry.precedence)
    rows, resolved = brute_profile(entry, 6, slack)
    assert [(r.n, r.d, r.witness_u, r.witness_v) for r in res.rows] == rows
    assert res.resolved_pairs == resolved
    assert res.limited_pairs == 0


COMM_AA0 = CatalogEntry("comm-aa0", Presentation(
    Alphabet("ab"), (("ab", "ba"), ("aa", ZERO))), "ba", "test")


def test_profile_pair_areas_match_brute_force_oracle(monkeypatch):
    # rows pin only maxima; here every recorded pair and area must be
    # the oracle's, on the zero class and the nonzero classes alike
    seen = {}
    record = dehn._ClassOutcome.record

    def spy(self, m, d, u, v):
        seen[min((u, v), (v, u), key=lambda t: [(len(w), w) for w in t])] = d
        record(self, m, d, u, v)

    monkeypatch.setattr(dehn._ClassOutcome, "record", spy)
    runs = [(COMM_AA0, 6, 2)] + [(get_entry(name), n_max, 1)
                                 for name in ("M1", "M2", "dehn-example")
                                 for n_max in (5, 6)]
    for entry, n_max, slack in runs:
        seen.clear()
        res = dehn_profile(entry.presentation, n_max, slack=slack,
                           precedence=entry.precedence)
        expected = brute_pair_areas(entry, n_max, slack)
        assert seen == expected, (entry.name, n_max)
        assert res.resolved_pairs == len(expected), (entry.name, n_max)
        if entry is COMM_AA0:
            # aa = 0 with ab = ba: (aab, aba) and (aba, baa) are one swap
            # apart but three steps through zero, so only the direct-route
            # search of the zero class finds d = 1; row maxima never show it
            assert len(expected) == 25
            assert seen[("aab", "aba")] == seen[("aba", "baa")] == 1


@pytest.mark.parametrize("name", ["M1", "M2", "M3", "dehn-example",
                                  "comm-aa0"])
def test_shortest_zero_word_is_a_zero_lhs(name):
    # dehn_profile has a zero task iff a zero lhs has at most n_max // 2
    # letters: rules never lengthen a word, so no zero word is shorter
    entry = COMM_AA0 if name == "comm-aa0" else get_entry(name)
    letters = entry.presentation.alphabet.letters
    shortest = next(n for n in range(7)
                    for t in product(letters, repeat=n)
                    if rightmost_reduce(entry.system, "".join(t)) is ZERO)
    assert shortest == min(len(r.lhs) for r in entry.system.rules
                           if r.rhs is ZERO)


def _recorded_pairs(monkeypatch, *args, **kwargs):
    """dehn_profile's result and the pairs it recorded, by class label."""
    seen: dict[str, dict[tuple[str, str], int]] = {}
    record = dehn._ClassOutcome.record

    def spy(self, m, d, u, v):
        assert (u, v) not in seen.setdefault(self.label, {})
        seen[self.label][u, v] = d
        record(self, m, d, u, v)

    with monkeypatch.context() as patch:
        patch.setattr(dehn._ClassOutcome, "record", spy)
        return dehn_profile(*args, **kwargs), seen


@pytest.mark.parametrize(
    "sweep", [s for s in make_golden.PROFILE_SWEEPS
              if "max_class_vertices" in s[-1]], ids=lambda s: s[0])
def test_class_budget_only_withholds_answers(monkeypatch, sweep):
    # a class that outgrows its budget is reported and contributes
    # nothing, though it may have measured some of its unbudgeted pairs
    # before it blew; every other class records exactly its unbudgeted
    # pairs
    _, p, n_max, prec, slack, budgets = sweep
    budgets = budgets["max_class_vertices"]
    full, expected = _recorded_pairs(monkeypatch, p, n_max, slack=slack,
                                     precedence=prec)
    assert full.incomplete_classes == ()
    blown = set()
    for budget in budgets:
        res, seen = _recorded_pairs(
            monkeypatch, p, n_max, slack=slack, precedence=prec,
            limits=ProfileLimits(max_class_vertices=budget))
        incomplete = set(res.incomplete_classes)
        complete = {c: pairs for c, pairs in expected.items()
                    if c not in incomplete}
        assert {c: pairs for c, pairs in seen.items()
                if c not in incomplete} == complete, budget
        for c in incomplete:
            assert seen.get(c, {}).items() <= expected.get(c, {}).items(), \
                (budget, c)
        assert res.resolved_pairs == sum(map(len, complete.values()))
        assert res.limited_pairs == 0
        blown.add(len(incomplete))
    assert 0 in blown and len(blown) > 1


@pytest.mark.parametrize("name", ["dehn-example", "M1"])
def test_class_graph_expands_each_word_once(monkeypatch, name):
    # one shared graph per class: a search from a second source reuses
    # the rows the first one built
    calls: Counter = Counter()
    word_neighbors = dehn._word_neighbors
    resolve = dehn._resolve_nonzero_class
    graphs = []

    def counting(word, moves, max_len):
        calls[word, id(moves)] += 1
        return word_neighbors(word, moves, max_len)

    def per_class(nf, n_max, *args):
        calls.clear()
        out = resolve(nf, n_max, *args)
        if len(nf) <= n_max - n_max // 2 - 1:
            graphs.append(nf)
            assert max(calls.values()) == 1, nf
        return out

    monkeypatch.setattr(dehn, "_word_neighbors", counting)
    monkeypatch.setattr(dehn, "_resolve_nonzero_class", per_class)
    entry = get_entry(name)
    dehn_profile(entry.presentation, 6, slack=2, precedence=entry.precedence)
    assert len(graphs) > 10


def test_profile_of_random_presentations_matches_oracle():
    rng = random.Random(20261019)
    complete = []
    for _ in range(30):
        p, prec = make_golden._random_presentation(rng)
        try:
            if dehn._complete_orientation(p, prec) is not None:
                complete.append(CatalogEntry("random", p, prec, "test"))
        except UnorientableRelationError:
            pass
    assert len(complete) >= 10
    for entry in complete:
        for n_max, slack in product((4, 5, 6), (0, 1, 2)):
            res = dehn_profile(entry.presentation, n_max, slack=slack,
                               precedence=entry.precedence)
            rows, resolved = brute_profile(entry, n_max, slack)
            assert [(r.n, r.d, r.witness_u, r.witness_v)
                    for r in res.rows] == rows, (entry.presentation, slack)
            assert (res.resolved_pairs, res.limited_pairs) == (resolved, 0)


def test_profile_independent_of_jobs():
    e = _dehn()
    serial = dehn_profile(e.presentation, 6, precedence=e.precedence)
    parallel = dehn_profile(e.presentation, 6, precedence=e.precedence,
                            jobs=2)
    assert parallel == serial


def test_profile_starts_the_zero_class_first(monkeypatch):
    # the zero class is usually the largest task; with workers it must
    # not be left to run alone after all the others
    seen = []
    parallel_map = dehn.parallel_map
    monkeypatch.setattr(dehn, "parallel_map", lambda fn, shared, tasks, jobs:
                        seen.extend(tasks) or
                        parallel_map(fn, shared, tasks, jobs))
    e = _dehn()
    dehn_profile(e.presentation, 6, precedence=e.precedence)
    assert seen[0] is ZERO


def test_profile_requires_complete_system():
    p = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
    with pytest.raises(ValueError):
        dehn_profile(p, 4)


def test_profile_rejects_negative_n():
    e = _dehn()
    with pytest.raises(ValueError):
        dehn_profile(e.presentation, -1, precedence=e.precedence)


def test_profile_rejects_negative_slack():
    # a ball below n_max would miss partners longer than n_max + slack
    # and silently drop their pairs (D(6) would read 2, not 6)
    e = _dehn()
    with pytest.raises(ValueError, match="slack must be >= 0"):
        dehn_profile(e.presentation, 6, slack=-3, precedence=e.precedence)
    assert dehn_profile(e.presentation, 6, slack=0,
                        precedence=e.precedence).rows[6].d == 6


def test_complete_orientation_is_memoized(monkeypatch):
    calls = []
    check = dehn.check_local_confluence

    def counting(system):
        calls.append(system)
        return check(system)

    monkeypatch.setattr(dehn, "check_local_confluence", counting)
    dehn._complete_orientation.cache_clear()
    e = _dehn()
    for k in range(50):
        u = "a" * (k % 4) + "b" * (k % 3)
        r = dehn_area(e.presentation, u, u[::-1], precedence=e.precedence)
        assert r.status == AREA
    dehn_profile(e.presentation, 4, precedence=e.precedence)
    assert len(calls) == 1
    dehn_area(e.presentation, "ab", "ba", precedence="abcd")
    assert len(calls) == 2


def test_collapsing_presentation_is_searched_on_every_call(monkeypatch):
    # 1 = 0 has no rule form: the orientation error is never cached,
    # so each area query searches words and each profile raises
    p = Presentation(Alphabet("ab"), (("ab", "ba"), ("", ZERO)))
    orients = []
    orient = dehn.orient
    monkeypatch.setattr(dehn, "orient",
                        lambda *args: orients.append(args) or orient(*args))
    dehn._complete_orientation.cache_clear()
    for _ in range(3):
        r = dehn_area(p, "aab", "baa")
        assert (r.status, r.steps) == (AREA, 2)
        with pytest.raises(UnorientableRelationError,
                           match="relation 1 = 0 collapses the monoid"):
            dehn_profile(p, 4)
    assert len(orients) == 6


COMM_ZERO = Presentation(Alphabet("ab"), (("ab", "ba"), ("aa", ZERO)))


def test_zero_reached_from_one_side_only_still_meets():
    # aa's only neighbour is 0, so its side of the search runs out after
    # one level; the other side must go on until it reaches 0 as well.
    for u, v in (("aa", "aab"), ("aab", "aa")):
        r = dehn_area(COMM_ZERO, u, v, precedence="ba")
        assert (r.status, r.steps, r.derivation) == (AREA, 2, (u, ZERO, v))


def test_area_through_zero_matches_oracle():
    # A path through 0 shows only once both sides reach 0, so a meet
    # found elsewhere first is not final while it could be shorter:
    # aaab -> 0 -> baaa takes 2 steps, the swaps 3.
    system = orient(COMM_ZERO, "ba")
    words = ["".join(w) for n in range(5) for w in product("ab", repeat=n)]
    zero_words = [w for w in words if normalize(system, w) is ZERO]
    for u, v in combinations(zero_words, 2):
        max_len = max(len(u), len(v)) + DEFAULT_SLACK
        to_zero = [bfs_distance(COMM_ZERO, w, ZERO, max_len) for w in (u, v)]
        direct = bfs_distance(COMM_ZERO, u, v, max_len)
        expected = min(d for d in (direct, sum(to_zero)) if d is not None)
        assert dehn_area(COMM_ZERO, u, v, precedence="ba").steps == expected


def test_settled_search_answers_within_a_budget_its_last_level_exceeds():
    # the meet at distance 3 is final once found; expanding the rest of
    # that level would reach 232 words
    e = _dehn()
    r = dehn_area(e.presentation, "bca", "bccabb", precedence=e.precedence,
                  max_len=9, max_nodes=160)
    assert (r.status, r.steps, r.derivation) == (
        AREA, 3, ("bca", "bccbba", "bccbab", "bccabb"))


def test_commutator_searches_stop_once_settled(monkeypatch):
    # neighbour lists built for a^k b^k -> b^k a^k, k <= 4, at max_len
    # 2k and the default; a search that finishes its last level builds
    # 5,428
    calls = []
    word_neighbors = dehn._word_neighbors
    monkeypatch.setattr(dehn, "_word_neighbors",
                        lambda *args, **kwargs: calls.append(args) or
                        word_neighbors(*args, **kwargs))
    e = _dehn()
    for k in range(1, 5):
        for max_len in (2 * k, None):
            r = dehn_area(e.presentation, "a" * k + "b" * k,
                          "b" * k + "a" * k, precedence=e.precedence,
                          max_len=max_len)
            assert r.steps == k * k
    assert len(calls) == 4501


AREA_SYSTEMS = [
    (get_entry(name).presentation, get_entry(name).precedence)
    for name in ("dehn-example", "M1", "M2")
] + [(COMM_ZERO, "ba"),
     (Presentation(Alphabet("ab"), (("ab", "ba"), ("", ZERO))), "")]


@pytest.mark.parametrize("p,prec", AREA_SYSTEMS,
                         ids=["dehn-example", "M1", "M2", "ab=ba,aa=0",
                              "ab=ba,1=0"])
def test_budget_only_withholds_area_answers(p, prec):
    # seeded equal pairs: random words, half of them with a zero pattern
    # planted so that many shortest routes run through 0, each paired
    # with another such word or with a relation walk from it.  A budgeted
    # search gives up or gives exactly the unbudgeted answer, from some
    # budget on, and that answer is the oracle's distance.
    rng = random.Random(20261019)
    letters = p.alphabet.letters
    zero_patterns = [x for x, y in p.relations if y is ZERO]
    edges = [e for e in relation_edges(p) if e[1] is not ZERO]

    def word():
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        if zero_patterns and rng.random() < 0.5:
            i = rng.randint(0, len(w))
            w = w[:i] + rng.choice(zero_patterns) + w[i:]
        return w

    def walk(w):
        for _ in range(rng.randint(1, 6)):
            w = rng.choice(one_step(w, edges, 7) or [w])
        return w

    pairs = through_zero = 0
    while pairs < 60:
        u = word()
        v = word() if rng.random() < 0.5 else walk(u)
        max_len = max(len(u), len(v)) + 2
        full = dehn_area(p, u, v, precedence=prec, max_len=max_len)
        if u == v or full.status == NOT_EQUAL:
            continue
        to_zero = [bfs_distance(p, w, ZERO, max_len) for w in (u, v)]
        routes = [bfs_distance(p, u, v, max_len),
                  None if None in to_zero else sum(to_zero)]
        d = min(r for r in routes if r is not None)
        assert (full.status, full.steps) == (AREA, d), (u, v)
        pairs += 1
        through_zero += routes[0] != d
        answered = []
        for budget in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
            r = dehn_area(p, u, v, precedence=prec, max_len=max_len,
                          max_nodes=budget)
            answered.append(r == full)
            assert r == full or (r.status, r.reason) == (
                RESOURCE_LIMIT, "max_nodes"), (u, v, budget)
        assert answered == sorted(answered), (u, v)
    assert through_zero >= 5


def test_fit_power_law_recovers_exact_quadratic():
    alpha, c = fit_power_law([1, 2, 3, 4, 5], [1, 4, 9, 16, 25])
    assert math.isclose(alpha, 2.0, abs_tol=1e-9)
    assert math.isclose(c, 1.0, rel_tol=1e-9)


def test_fit_power_law_skips_zero_points():
    alpha, _ = fit_power_law([1, 2, 3, 4], [0, 4, 9, 16])
    assert math.isclose(alpha, 2.0, abs_tol=1e-6)


def test_fit_power_law_needs_two_points():
    with pytest.raises(ValueError):
        fit_power_law([3], [9])
    with pytest.raises(ValueError):
        fit_power_law([2, 2], [4, 4])
