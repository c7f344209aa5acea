"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its wall-clock time and
asserts the runtime budget it ran under.  Parameters are fixed; the
heavy searches ask for four worker processes and get at most one per
CPU.
"""

import time
from collections import deque

from oracles import count_avoiding, one_step, relation_edges
from rewbench.catalog import build_mn, get_entry, list_catalog
from rewbench.completion import check_local_confluence
from rewbench.congruence import probe_all_pairs, probe_congruence
from rewbench.core import ZERO, equal_in_monoid, normalize
from rewbench.dehn import dehn_area, dehn_profile, fit_power_law
from rewbench.enumeration import enumerate_normal_forms, growth_series
from rewbench.witnesses import unit_witness_mn, unit_witness_search

JOBS = 4


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_c01_family_systems_are_complete(capsys):
    t0 = time.monotonic()
    for n in range(1, 6):
        report = check_local_confluence(build_mn(n).system)
        assert report.terminating
        assert report.locally_confluent
        assert report.critical_pair_count == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capsys, f"criterion 1 PASS: M_1..M_5 terminating with 0 critical"
                    f" pairs ({elapsed:.2f}s)")


def test_c02_seven_rule_system_is_complete(capsys):
    t0 = time.monotonic()
    entry = get_entry("dehn-example")
    assert entry.precedence == "bacd"
    assert len(entry.system.rules) == 7
    report = check_local_confluence(entry.system)
    assert report.terminating
    assert report.locally_confluent
    assert report.critical_pair_count == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(capsys, f"criterion 2 PASS: 7-rule system terminating with 0"
                    f" critical pairs ({elapsed:.2f}s)")


def test_c03_constructive_unit_witnesses_exhaustive(capsys):
    t0 = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        system = build_mn(n).system
        for w in enumerate_normal_forms(system, 7):
            pair = unit_witness_mn(n, w)
            assert normalize(system, pair.x + w + pair.y) == ""
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 0
    assert elapsed < 30.0
    _report(capsys, f"criterion 3 PASS: {checked} unit witnesses across"
                    f" M_1..M_3, normal forms up to length 7"
                    f" ({elapsed:.1f}s)")


def test_c04_searched_unit_witnesses_exhaustive(capsys):
    t0 = time.monotonic()
    entry = get_entry("dehn-example")
    system = entry.system
    forms = enumerate_normal_forms(system, 5)
    undetermined = 0
    for w in forms:
        pair = unit_witness_search(system, w, max_len=12)
        if pair is None:
            undetermined += 1
            continue
        assert normalize(system, pair.x + w + pair.y) == ""
    elapsed = time.monotonic() - t0
    assert undetermined == 0
    assert elapsed < 60.0
    _report(capsys, f"criterion 4 PASS: witnesses found for all {len(forms)}"
                    f" nonzero normal forms up to length 5 ({elapsed:.1f}s)")


def test_c05_all_seed_pairs_collapse(capsys):
    t0 = time.monotonic()
    runs = (("M1", 3), ("M2", 3), ("dehn-example", 2))
    totals = []
    for name, seed_len in runs:
        entry = get_entry(name)
        summary = probe_all_pairs(entry.system, seed_len, 9, jobs=JOBS)
        zero_rows = sum(1 for r in summary.rows if ZERO in (r.u, r.v))
        assert zero_rows > 0
        stragglers = [r for r in summary.rows if not r.collapsed]
        for row in stragglers:
            retry = probe_congruence(entry.system, (row.u, row.v), 11)
            assert retry.collapsed, (name, row.u, row.v)
        assert summary.undetermined_count == len(stragglers)
        assert summary.undetermined_count == 0
        assert summary.collapsed_count == len(summary.rows)
        totals.append(f"{name} {len(summary.rows)} pairs")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(capsys, f"criterion 5 PASS: every probe collapsed"
                    f" ({', '.join(totals)}) ({elapsed:.1f}s)")


def test_c06_family_profile_is_linear(capsys):
    t0 = time.monotonic()
    for name in ("M1", "M2"):
        entry = get_entry(name)
        profile = dehn_profile(entry.presentation, 8,
                               precedence=entry.precedence, jobs=JOBS)
        assert profile.limited_pairs == 0
        assert profile.incomplete_classes == ()
        for row in profile.rows:
            assert row.d <= row.n, (name, row)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(capsys, f"criterion 6 PASS: M_1 and M_2 satisfy D(n) <= n"
                    f" for n <= 8, all pairs exact ({elapsed:.1f}s)")


def test_c07_seven_rule_profile_is_quadratic(capsys):
    t0 = time.monotonic()
    entry = get_entry("dehn-example")
    for k in range(1, 6):
        result = dehn_area(entry.presentation, "a" * k + "b" * k,
                           "b" * k + "a" * k, precedence=entry.precedence)
        assert result.status == "area"
        assert result.steps == k * k
    profile = dehn_profile(entry.presentation, 12, slack=1,
                           precedence=entry.precedence, jobs=JOBS)
    assert profile.limited_pairs == 0
    points = [(row.n, row.d) for row in profile.rows if 2 <= row.n <= 12]
    alpha, coeff = fit_power_law([n for n, _ in points],
                                 [d for _, d in points])
    assert 1.7 <= alpha <= 2.3, (alpha, coeff)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(capsys, f"criterion 7 PASS: commutator areas k^2 for k <= 5,"
                    f" profile exponent {alpha:.2f} ({elapsed:.1f}s)")


def _closure_classes(p, seed_len: int, ball: int):
    """Component id for every word up to seed_len, merging via zero.

    Valleys for the catalog systems stay inside the ball because no
    rule grows its word, so a ball four letters above the seeds is
    already generous.
    """
    edges = relation_edges(p)
    words = [""]
    level = [""]
    for _ in range(seed_len):
        level = [w + g for w in level for g in p.alphabet.letters]
        words.extend(level)
    comp: dict = {}
    has_zero: dict = {}
    count = 0
    for w in words:
        if w in comp:
            continue
        count += 1
        seen = {w}
        queue = deque([w])
        while queue:
            cur = queue.popleft()
            for nxt in one_step(cur, edges, ball):
                if nxt not in seen:
                    seen.add(nxt)
                    if nxt is not ZERO:
                        queue.append(nxt)
        has_zero[count] = ZERO in seen
        for member in seen:
            if member is not ZERO and len(member) <= seed_len:
                comp.setdefault(member, count)
    return words, comp, has_zero


def test_c08_equality_matches_relation_closure(capsys):
    t0 = time.monotonic()
    pair_count = 0
    for entry in list_catalog():
        words, comp, has_zero = _closure_classes(entry.presentation, 4, 8)
        system = entry.system
        for i, u in enumerate(words):
            for v in words[i + 1:]:
                cu, cv = comp[u], comp[v]
                expected = cu == cv or (has_zero[cu] and has_zero[cv])
                assert equal_in_monoid(system, u, v) == expected, (
                    entry.name, u, v)
                pair_count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(capsys, f"criterion 8 PASS: {pair_count} word pairs agree with"
                    f" relation closure over {len(list_catalog())} systems"
                    f" ({elapsed:.1f}s)")


def test_c09_growth_matches_avoidance_oracle(capsys):
    t0 = time.monotonic()
    for name in ("M1", "M2", "M3", "dehn-example"):
        entry = get_entry(name)
        system = entry.system
        forbidden = [rule.lhs for rule in system.rules]
        expected = count_avoiding(entry.presentation.alphabet.letters,
                                  forbidden, 10)
        assert growth_series(system, 10).counts == tuple(expected), name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(capsys, f"criterion 9 PASS: growth series match the avoidance"
                    f" oracle up to length 10 ({elapsed:.1f}s)")


def test_c10_letters_after_last_d(capsys):
    t0 = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        system = build_mn(n).system
        for w in enumerate_normal_forms(system, 10):
            i = w.rfind("d")
            if i < 0:
                continue
            assert all(c in "ad" for c in w[i + 1:]), (n, w)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 0
    assert elapsed < 10.0
    _report(capsys, f"criterion 10 PASS: {checked} normal forms keep only"
                    f" a after their last d ({elapsed:.1f}s)")
