import dataclasses
import gc
import hashlib
import weakref

import pytest

import make_golden
from oracles import brute_normal_forms, brute_probe
from rewbench import congruence
from rewbench.catalog import get_entry, list_catalog
from rewbench.congruence import (
    CollapseTrace,
    probe_all_pairs,
    probe_congruence,
    replay_trace,
)
from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    is_zero,
    orient,
    product,
)
from rewbench.enumeration import growth_series


def test_frozen_probe_m2():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("a", "aa"), 9)
    assert r.collapsed
    assert r.merges == 24
    assert r.truncated == 0
    assert r.radius == 9
    assert len(r.trace.path) == 1
    step = r.trace.path[0]
    assert step.left == "" and step.right is ZERO
    assert step.moves == (("R", "b"), ("L", "d"))
    assert replay_trace(m2, r.trace)


def test_probe_seed_pair_is_recorded():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("a", "aa"), 9)
    assert r.trace.seed == ("a", "aa")


def test_zero_seed_collapses_at_seed():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("", ZERO), 9)
    assert r.collapsed
    assert r.merges == 1
    assert len(r.trace.path) == 1
    assert replay_trace(m2, r.trace)


def test_equal_seeds_are_undetermined_without_work():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("ac", ""), 9)
    assert not r.collapsed
    assert r.merges == 0
    assert r.truncated == 0
    assert r.trace is None


def test_seed_outside_radius_rejected():
    m2 = get_entry("M2").system
    with pytest.raises(ValueError):
        probe_congruence(m2, ("aa", ""), 1)


def test_truncation_is_counted_but_not_fatal():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("a", "aa"), 2)
    assert r.collapsed
    assert r.truncated == 12


def test_undetermined_then_collapse_at_larger_radius():
    system = get_entry("dehn-example").system
    small = probe_congruence(system, ("a", "b"), 2)
    assert not small.collapsed
    assert small.truncated == 44
    large = probe_congruence(system, ("a", "b"), 3)
    assert large.collapsed
    assert replay_trace(system, large.trace)


def test_collapse_is_monotone_in_radius():
    system = get_entry("M1").system
    elements = ["", "a", "b", "c", "d", ZERO]
    for i, u in enumerate(elements):
        for v in elements[i + 1:]:
            collapsed_small = probe_congruence(system, (u, v), 3).collapsed
            if collapsed_small:
                assert probe_congruence(system, (u, v), 5).collapsed


def test_replay_rejects_tampered_trace():
    m2 = get_entry("M2").system
    r = probe_congruence(m2, ("a", "aa"), 9)
    step = r.trace.path[0]
    wrong_moves = dataclasses.replace(step, moves=(("L", "b"), ("L", "d")))
    assert not replay_trace(m2, CollapseTrace(r.trace.seed, (wrong_moves,)))
    wrong_end = dataclasses.replace(step, right="a")
    assert not replay_trace(m2, CollapseTrace(r.trace.seed, (wrong_end,)))
    assert not replay_trace(m2, CollapseTrace(("a", "ab"), r.trace.path))


def test_replay_rejects_chain_break():
    m1 = get_entry("M1").system
    trace = probe_congruence(m1, ("", "c"), 9).trace
    assert len(trace.path) == 2 and replay_trace(m1, trace)
    # every step still rederives from the seed, but the first step of
    # each broken path does not contain the empty word; the second path
    # would pass a replay that skipped unchained steps
    last = trace.path[-1]
    assert "" not in (last.left, last.right)
    for broken in (tuple(reversed(trace.path)), (last,) + trace.path):
        assert not replay_trace(m1, CollapseTrace(trace.seed, broken))


def test_probe_all_pairs_m1_frozen():
    system = get_entry("M1").system
    summary = probe_all_pairs(system, 2, 9)
    assert len(summary.rows) == 153
    assert summary.collapsed_count == 153
    assert summary.undetermined_count == 0
    assert summary.worst_trace_len == 4
    assert any(is_zero(row.u) or is_zero(row.v) for row in summary.rows)


def test_probe_all_rows_ordered_by_total_seed_length():
    system = get_entry("M1").system
    summary = probe_all_pairs(system, 2, 9)

    def total(row):
        return (0 if is_zero(row.u) else len(row.u)) + \
            (0 if is_zero(row.v) else len(row.v))

    totals = [total(r) for r in summary.rows]
    assert totals == sorted(totals)


def test_probe_all_jobs_deterministic():
    system = get_entry("M1").system
    serial = probe_all_pairs(system, 2, 7)
    parallel = probe_all_pairs(system, 2, 7, jobs=2)
    assert serial.rows == parallel.rows
    assert serial.collapsed_count == parallel.collapsed_count


# (entry, u, v, radius) -> (collapsed, merges, truncated, class_count,
# trace length), plus a digest of every result's repr, frozen from the
# probe that enqueued every derived pair inside the ball.  Skipping
# pairs already joined must not change merge order, traces or counts.
FROZEN_PROBES = {
    ("M1", "a", "b", 7): (True, 48, 0, 1746, 1),
    ("M1", "c", "d", 7): (True, 41, 0, 1753, 2),
    ("M1", "a", "", 7): (True, 20, 0, 1774, 1),
    ("M1", "d", ZERO, 7): (True, 5, 0, 1789, 1),
    ("M2", "ab", "ba", 6): (True, 15, 0, 1156, 2),
    ("M2", "cd", "a", 6): (True, 13, 0, 1158, 1),
    ("M2", "ab", "ba", 3): (True, 11, 42, 46, 2),
    ("M1", "aa", "b", 3): (True, 24, 88, 26, 2),
    ("M1", "c", "d", 2): (True, 16, 72, 2, 2),
    ("M2", "b", "d", 2): (False, 16, 88, 3, 0),
    ("dehn-example", "a", "b", 2): (False, 7, 44, 13, 0),
    ("dehn-example", "ac", "bc", 9): (True, 9595, 17451, 23621, 2),
}
FROZEN_PROBES_DIGEST = \
    "61e4aa28bef046e1fd4b84148a78170eb70309dee7b827f2765b6a529cf8dee9"


def test_frozen_probe_results():
    digest = hashlib.sha256()
    for (name, u, v, radius), expected in FROZEN_PROBES.items():
        r = probe_congruence(get_entry(name).system, (u, v), radius)
        trace_len = len(r.trace.path) if r.trace else 0
        assert (r.collapsed, r.merges, r.truncated, r.class_count,
                trace_len) == expected, (name, u, v, radius)
        digest.update(repr(r).encode())
    assert digest.hexdigest() == FROZEN_PROBES_DIGEST


def _fresh(name):
    """A system of its own, with no probe ball yet."""
    if name == "ab=ac":
        return orient(Presentation(Alphabet("abc"), (("ab", "ac"),)), "abc")
    if name == "ab=ba,aa=0":
        return orient(Presentation(Alphabet("ab"),
                                   (("ab", "ba"), ("aa", ZERO))), "ab")
    entry = get_entry(name)
    return orient(entry.presentation, entry.precedence)


AB_AC = _fresh("ab=ac")


@pytest.mark.parametrize("name", [e.name for e in list_catalog()] + ["ab=ac"])
def test_ball_table_entries_are_products(name, monkeypatch):
    system = _fresh(name)
    calls = []

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(congruence, "product", counted)
    probe_all_pairs(system, 2, 6)
    ball = congruence._ball(system, 6)
    assert ball.size == growth_series(system, 6).total() + 1
    assert ball.elements[:2] == ["", ZERO]
    assert all(ball.ids[e] == i for i, e in enumerate(ball.elements))
    assert len(ball.rows) == len(ball.elements)
    # outside ids are ~0, ~1, ... one per product, so with the check
    # below two outside entries are equal exactly when their products are
    assert sorted(ball.outside.values()) == list(range(-len(ball.outside), 0))
    filled = 0
    for e, row in zip(ball.elements, ball.rows):
        if row is None:
            continue
        filled += 1
        assert len(row) == len(ball.moves)
        for (side, g), entry in zip(ball.moves, row):
            p = product(system, g, e) if side == "L" else product(system, e, g)
            if entry < 0:
                assert not is_zero(p) and len(p) > 6
                assert ball.outside[p] == entry
            else:
                assert ball.elements[entry] == p
    assert filled > 0
    # a row is made whole, one product per move, and only once
    assert len(calls) == len(ball.moves) * filled


# system -> (seed length, radii): seeds are every pair of distinct
# normal forms of at most that length, plus ZERO.  Keep {ab = ac}: it is
# the only system here on which counting a truncation before the
# equal-product check changes a result.
ORACLE_PLAN = {
    "M1": (1, range(1, 7)),
    "M2": (1, range(1, 7)),
    "M3": (1, range(1, 7)),
    "dehn-example": (1, range(1, 7)),
    "ab=ba,aa=0": (2, range(2, 8)),
    "ab=ac": (2, range(2, 8)),
}


@pytest.mark.parametrize("name", list(ORACLE_PLAN))
def test_probe_matches_brute_force_oracle(name):
    system = _fresh(name)
    seed_len, radii = ORACLE_PLAN[name]
    seeds = brute_normal_forms(system.alphabet.precedence,
                               [r.lhs for r in system.rules], seed_len)
    seeds.append(ZERO)
    for radius in radii:
        for i, u in enumerate(seeds):
            for v in seeds[i + 1:]:
                got = dataclasses.asdict(probe_congruence(system, (u, v), radius))
                assert got == brute_probe(system, (u, v), radius), (u, v, radius)


def test_probe_matches_brute_force_oracle_after_collapse_is_certain():
    # dehn-example's heaviest seed pair: about a third of the pairs its
    # probe derives come after one that will join 1 and ZERO
    system = _fresh("dehn-example")
    got = dataclasses.asdict(probe_congruence(system, ("ac", "bc"), 7))
    assert got["collapsed"]
    assert got == brute_probe(system, ("ac", "bc"), 7)


def test_probe_matches_brute_force_oracle_on_random_presentations():
    # the complete systems among 200 random presentations: unlike the
    # catalog's M_n they have overlaps, and some have no zero rule
    systems = make_golden.complete_random_systems(20261020, 200)
    assert len(systems) == 89
    longer_paths = 0
    for system in systems:
        for radius, seed_len in ((2, 2), (3, 2), (4, 1)):
            seeds = brute_normal_forms(system.alphabet.precedence,
                                       [r.lhs for r in system.rules], seed_len)
            seeds.append(ZERO)
            for i, u in enumerate(seeds):
                for v in seeds[i + 1:]:
                    got = dataclasses.asdict(
                        probe_congruence(system, (u, v), radius))
                    assert got == brute_probe(system, (u, v), radius), \
                        (system, u, v, radius)
                    longer_paths += got["collapsed"] and \
                        len(got["trace"]["path"]) > 1
    assert longer_paths > 50


def test_probe_rejects_a_letter_outside_the_alphabet():
    m2 = get_entry("M2").system
    for seed in (("x", "a"), ("a", "ax"), (ZERO, "x")):
        with pytest.raises(ValueError,
                           match="^letter 'x' not in alphabet 'abcd'$"):
            probe_congruence(m2, seed, 3)


def test_products_outside_the_ball_are_compared_not_identified():
    # ab = ac, and both leave the radius-1 ball: the pair (ab, ac) is no
    # pair at all, while every other product from {b, c} leaving the
    # ball is a truncation.
    r = probe_congruence(AB_AC, ("b", "c"), 1)
    assert (r.collapsed, r.merges, r.truncated, r.universe_size) \
        == (False, 1, 5, 4)


def test_ball_is_counted_once_and_its_products_reused(monkeypatch):
    system = _fresh("M2")
    counts = {"growth": 0, "product": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(congruence, "growth_series",
                        counted("growth", congruence.growth_series))
    monkeypatch.setattr(congruence, "product",
                        counted("product", congruence.product))
    first = probe_congruence(system, ("a", "aa"), 9)
    # never more than the 2 * 2|A| products per merge made without rows
    assert 0 < counts["product"] <= 4 * 4 * first.merges
    made = counts["product"]
    assert probe_congruence(system, ("a", "aa"), 9) == first
    assert counts["product"] == made
    probe_all_pairs(system, 1, 9)
    assert counts["growth"] == 1


def test_products_outside_the_ball_are_made_once(monkeypatch):
    system = _fresh("dehn-example")
    seeds = [("a", "b"), ("bc", "ac")]
    first = [probe_congruence(system, seed, 9) for seed in seeds]
    assert len(congruence._ball(system, 9).outside) > 0
    calls = []

    def counted(*args):
        calls.append(args)
        return product(*args)

    monkeypatch.setattr(congruence, "product", counted)
    assert [probe_congruence(system, seed, 9) for seed in seeds] == first
    assert calls == []


def test_ball_is_freed_with_its_system():
    system = _fresh("M1")
    probe_all_pairs(system, 1, 5)
    system_ref = weakref.ref(system)
    ball_ref = weakref.ref(congruence._ball(system, 5))
    del system
    gc.collect()
    assert system_ref() is None and ball_ref() is None


def test_probe_all_jobs_deterministic_on_a_cold_system():
    serial = probe_all_pairs(_fresh("M1"), 2, 6)
    parallel = probe_all_pairs(_fresh("M1"), 2, 6, jobs=2)
    assert serial == parallel


def test_probe_all_rejects_a_seed_longer_than_the_radius_before_probing(
        monkeypatch):
    system = _fresh("M2")

    def probe(*args):
        raise AssertionError("probed")

    monkeypatch.setattr(congruence, "probe_congruence", probe)
    with pytest.raises(ValueError, match="^seed normal form 'aaa' is longer "
                                         "than radius 2$"):
        probe_all_pairs(system, 3, 2)
    assert "_congruence_balls" not in vars(system)
