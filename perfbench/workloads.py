"""The four workloads: seeded inputs, one round of work, answer checks.

A workload's round is a fixed list of operations built once from the
seed: the sweeps and the interactive queries.  Every round repeats the
same list, so round times are comparable and a mean over rounds is
meaningful.  Operations call the package through module attributes
(``rb.core.normalize``), looked up at call time, so that the traced run
sees the wrappers ``tracing.Tracer`` installs.

Inputs are generated from the rule data alone, with this file's own
code, and every answer is checked against a reference that shares no
code with the package's fast path (``tests/oracles.py``, the README
text, frozen acceptance values) or against what the generator already
knows.  Checks run outside every timed region.  An expensive oracle
check runs once per operation; later rounds must then reproduce the
verified answer exactly.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional


class WrongAnswer(Exception):
    """An answer disagrees with its reference; the run fails."""


@dataclass
class Op:
    """One operation of a round.

    ``run`` does the work and returns the public result.  ``check``
    validates it and returns deterministic counts from it, at least
    ``attempted`` (verdicts in the result) and ``undetermined`` (those
    a budget cut short).  Interactive operations are latency samples.
    """

    kind: str
    interactive: bool
    run: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Prepared:
    """Round k runs ``rounds[k % len(rounds)]``.  Most workloads have one
    list; ``collapse`` cycles through several query sets behind the same
    sweeps, so a run covers more distinct probes."""

    rounds: list[list[Op]]
    inputs: dict


def _verdict(undetermined: bool, **counts) -> dict:
    return {"attempted": 1, "undetermined": int(undetermined), **counts}


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _once(check: Callable[[object], dict]) -> Callable:
    """Runs ``check`` on the first answer only; later rounds must repeat
    that verified answer exactly (same repr), which keeps costly oracles
    out of the repeats."""
    memo: dict = {}

    def checked(result):
        if not memo:
            memo["counts"] = check(result)
            memo["repr"] = repr(result)
        else:
            _expect(repr(result) == memo["repr"],
                    "answer differs from the verified one of an earlier round")
        return memo["counts"]

    return checked


# -- generators (rule data only, no package algorithms) ---------------------

def _nonzero_rules(system, zero):
    return [(r.lhs, r.rhs) for r in system.rules if r.rhs is not zero]


def _zero_patterns(system, zero):
    return [r.lhs for r in system.rules if r.rhs is zero]


def random_normal_form(rng: random.Random, letters: str, lhss: list[str],
                       length: int) -> str:
    """A word of at most ``length`` letters with no rule lhs as a factor."""
    word = ""
    for _ in range(length):
        options = [g for g in letters
                   if not any((word + g).endswith(l) for l in lhss)]
        if not options:
            break
        word += rng.choice(options)
    return word


def inflate(rng: random.Random, rules: list[tuple[str, str]], word: str,
            target_len: int, zero_patterns: list[str], zero: bool) -> str:
    """Applies rules backwards (rhs -> lhs) until the word reaches
    ``target_len``; with ``zero`` one zero pattern is inserted too.

    The result equals ``word`` in the monoid (or zero), so a complete
    system must normalize it to ``word`` (or ZERO).
    """
    zero_at = rng.randint(len(word), target_len) if zero else -1
    while len(word) < target_len or zero_at >= 0:
        if 0 <= zero_at <= len(word):
            pos = rng.randint(0, len(word))
            word = word[:pos] + rng.choice(zero_patterns) + word[pos:]
            zero_at = -1
            continue
        lhs, rhs = rng.choice(rules)
        if rhs:
            hits = [i for i in range(len(word) - len(rhs) + 1)
                    if word.startswith(rhs, i)]
            if not hits:
                continue
            pos = rng.choice(hits)
        else:
            pos = rng.randint(0, len(word))
        word = word[:pos] + lhs + word[pos + len(rhs):]
    return word


def log_stratified(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n values log-uniform on [lo, hi], one from each of n equal strata
    and shuffled, so that every seed sees the same length profile."""
    span = math.log(hi) - math.log(lo)
    values = [int(round(lo * math.exp(span * (i + rng.random()) / n)))
              for i in range(n)]
    rng.shuffle(values)
    return values


def quantiles(values: list[float]) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {}
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {"min": ordered[0], "p25": pick(0.25), "p50": pick(0.5),
            "p75": pick(0.75), "p95": pick(0.95), "max": ordered[-1]}


def _oracle_replay(oracles, system, trace, zero) -> bool:
    """replay_trace recomputed with the oracle reducer instead of product."""
    reduce = lambda w: zero if w is zero else oracles.rightmost_reduce(system, w)
    mul = lambda x, y: zero if zero in (x, y) else reduce(x + y)
    cur = ""
    for step in trace.path:
        u, v = trace.seed
        for side, g in step.moves:
            u, v = (mul(g, u), mul(g, v)) if side == "L" else (mul(u, g), mul(v, g))
        if {u, v} != {step.left, step.right}:
            return False
        if cur == step.left:
            cur = step.right
        elif cur == step.right:
            cur = step.left
        else:
            return False
    return cur is zero


def _ball_size(oracles, system, radius: int, zero) -> int:
    letters = system.alphabet.letters
    forbidden = [r.lhs for r in system.rules]
    has_zero = any(r.rhs is zero for r in system.rules)
    return sum(oracles.count_avoiding(letters, forbidden, radius)) + has_zero


# -- collapse ---------------------------------------------------------------

COLLAPSE_SYSTEMS = ("M1", "M2", "dehn-example")
# A prefix of criterion c05's pairs (seed lengths 3, 3, 2 there): every
# pair of seeds this short must collapse at radius 9.
COLLAPSE_SWEEPS = (("M1", 2), ("M2", 1), ("dehn-example", 1))
RADIUS = 9
# Queries per round.  Seed lengths, zero seeds and witness word lengths
# cycle through fixed strata, so only the words vary by seed.  Probe
# cost is dominated by the system's ball (growth_series(9) is
# recomputed per probe); M1 holds the middle of the latency
# distribution, so query_ms.p50 is an M1 probe and does not flip
# between systems from seed to seed.
PROBES = {"M1": 30, "M2": 8, "dehn-example": 14}
WITNESSES_PER_SYSTEM = 4
# A few pairs need thousands of merges, so a round's time depends on
# which pairs a seed draws; rounds cycle through several query sets so
# that the mean round and the per-query latencies cover more of them.
QUERY_SETS = 6
# One such pair: its probe takes about 9,600 merges and 12 MB more memory
# than a typical one.  Every query set carries it, so that peak_rss_mb
# does not depend on whether a seed happens to draw a heavy pair.
HEAVY_PROBE = ("dehn-example", ("ac", "bc"))
PROBE_SEED_LEN = 3
WITNESS_WORD_LEN = (2, 6)
WITNESS_LIMITS = {"max_len": 12, "max_nodes": 5000}


def prepare_collapse(rb, oracles, entries, rng: random.Random) -> Prepared:
    zero = rb.core.ZERO
    ops: list[Op] = []
    balls = {name: _ball_size(oracles, entries[name].system, RADIUS, zero)
             for name in COLLAPSE_SYSTEMS}

    for name, seed_len in COLLAPSE_SWEEPS:
        system = entries[name].system
        letters = system.alphabet.letters
        forbidden = [r.lhs for r in system.rules]
        seeds = sum(oracles.count_avoiding(letters, forbidden, seed_len)) + 1

        def check_sweep(summary, name=name, seeds=seeds):
            rows = summary.rows
            _expect(len(rows) == comb(seeds, 2), f"{name}: wrong pair count")
            _expect(summary.universe_size == balls[name],
                    f"{name}: ball size differs from count_avoiding")
            _expect(all(r.collapsed and r.trace_len >= 1 for r in rows)
                    and summary.collapsed_count == len(rows)
                    and summary.undetermined_count == 0,
                    f"{name}: a c05 seed pair did not collapse")
            _expect(any(zero in (r.u, r.v) for r in rows), f"{name}: no zero rows")
            return {"attempted": len(rows), "undetermined": 0,
                    "probe_rows": len(rows),
                    "probe_trace_len": sum(r.trace_len for r in rows),
                    "probe_truncated": sum(r.truncated for r in rows)}

        ops.append(Op(f"sweep:{name}", False,
                      lambda system=system, k=seed_len:
                      rb.congruence.probe_all_pairs(system, k, RADIUS),
                      check_sweep))

    query_sets = [_collapse_queries(rb, oracles, entries, rng, balls)
                  for _ in range(QUERY_SETS)]
    inputs = {"systems": list(COLLAPSE_SYSTEMS),
              "sweeps": [list(s) for s in COLLAPSE_SWEEPS], "radius": RADIUS,
              "queries_by_kind": {
                  "probe": sum(PROBES.values()) + 1,
                  "witness": WITNESSES_PER_SYSTEM * len(COLLAPSE_SYSTEMS)},
              "query_sets": QUERY_SETS, "heavy_probe": HEAVY_PROBE,
              "ball_sizes": balls,
              "witness_limits": WITNESS_LIMITS}
    return Prepared([ops + queries for queries in query_sets], inputs)


def _collapse_queries(rb, oracles, entries, rng, balls) -> list[Op]:
    zero = rb.core.ZERO
    ops: list[Op] = []

    def probe(name: str, pair: tuple) -> Op:
        system = entries[name].system

        def check_probe(res):
            _expect(res.universe_size == balls[name]
                    and res.class_count == res.universe_size - res.merges,
                    f"{name}: probe class bookkeeping wrong")
            if res.collapsed:
                _expect(rb.congruence.replay_trace(system, res.trace),
                        f"{name}: collapse certificate does not replay")
                _expect(_oracle_replay(oracles, system, res.trace, zero),
                        f"{name}: certificate fails the oracle replay")
            return _verdict(not res.collapsed, probe_merges=res.merges,
                             probe_truncated=res.truncated)

        return Op("probe", True,
                  lambda: rb.congruence.probe_congruence(system, pair, RADIUS),
                  _once(check_probe))

    plan = [(name, "probe", i) for name, count in PROBES.items()
            for i in range(count)]
    plan += [(name, "witness", i) for name in COLLAPSE_SYSTEMS
             for i in range(WITNESSES_PER_SYSTEM)]
    rng.shuffle(plan)
    for name, kind, i in plan:
        system = entries[name].system
        letters = system.alphabet.letters
        lhss = [r.lhs for r in system.rules]
        if kind == "probe":
            span = PROBE_SEED_LEN + 1
            u = zero if i == 0 else random_normal_form(rng, letters, lhss,
                                                       i % span)
            v = u
            while v == u:  # v is never empty, and each length has several forms
                v = random_normal_form(rng, letters, lhss,
                                       1 + (i // span + i) % PROBE_SEED_LEN)

            ops.append(probe(name, (u, v)))
        else:
            lo, hi = WITNESS_WORD_LEN
            w = ""
            while not w:
                w = random_normal_form(rng, letters, lhss,
                                       lo + i % (hi - lo + 1))

            def check_witness(pair, system=system, w=w):
                if pair is not None:
                    _expect(oracles.rightmost_reduce(
                        system, pair.x + w + pair.y) == "",
                        f"witness for {w!r} does not reduce to 1")
                found = pair is not None
                return _verdict(not found, witness_found=int(found),
                                 witness_context_len=len(pair.x) + len(pair.y)
                                 if found else 0)

            ops.append(Op("witness", True,
                          lambda system=system, w=w:
                          rb.witnesses.unit_witness_search(system, w,
                                                           **WITNESS_LIMITS),
                          _once(check_witness)))
    ops.append(probe(*HEAVY_PROBE))
    return ops


# -- profile ----------------------------------------------------------------

# (catalog name, n_max, slack); slack None is the package default.
PROFILES = (("dehn-example", 8, 1), ("M1", 6, None), ("M2", 5, None))
# Frozen rows: dehn-example at slack=1 (n <= 10), M1 at the default
# slack (n <= 6, from the test suite, with its resolved pair count).
FROZEN_D = {"dehn-example": (0, 0, 1, 1, 2, 3, 6, 6, 8, 11, 12),
            "M1": (0, 0, 1, 1, 2, 2, 3)}
FROZEN_RESOLVED = {("M1", 6): 671}
COMMUTATOR_K = (1, 2, 3, 4)
# Walk pairs per system; start lengths and walk lengths cycle through
# their ranges.
WALKS = {"dehn-example": 720, "M1": 240, "M2": 240}
WALK_START_LEN = (4, 8)
WALK_STEPS = (2, 6)
AREA_SLACK = 4
BFS_SAMPLE = 8
UNCHECKED = object()  # no reference area for this pair


def _walk(rng, edges, zero, start: str, steps: int, cap: int) -> str:
    word = start
    for _ in range(steps):
        options = []
        for pat, rep in edges:
            if rep is zero or len(word) - len(pat) + len(rep) > cap:
                continue
            if pat:
                options.extend((i, pat, rep) for i in range(len(word))
                               if word.startswith(pat, i))
            else:
                options.extend((i, pat, rep) for i in range(len(word) + 1))
        if not options:
            break
        i, pat, rep = rng.choice(options)
        word = word[:i] + rep + word[i + len(pat):]
    return word


def _chain_ok(oracles, edges, chain, max_len, zero) -> bool:
    for x, y in zip(chain, chain[1:]):
        if x is zero:
            x, y = y, x
        if y not in oracles.one_step(x, edges, max_len):
            return False
    return True


def _oracle_area(oracles, p, system, u, v, max_len, zero):
    """Plain-BFS area.  The zero vertex is never left, so a pair of zero
    words may also meet there: d(u, 0) + d(0, v)."""
    found = [oracles.bfs_distance(p, u, v, max_len)]
    if all(oracles.rightmost_reduce(system, w) is zero for w in (u, v)):
        to_zero = [oracles.bfs_distance(p, w, zero, max_len) for w in (u, v)]
        if None not in to_zero:
            found.append(sum(to_zero))
    return min((d for d in found if d is not None), default=None)


def prepare_profile(rb, oracles, entries, rng: random.Random) -> Prepared:
    zero = rb.core.ZERO
    ops: list[Op] = []
    for name, n_max, slack in PROFILES:
        entry = entries[name]
        kwargs = {"precedence": entry.precedence}
        if slack is not None:
            kwargs["slack"] = slack

        def check_profile(res, name=name, n_max=n_max):
            ds = [r.d for r in res.rows]
            _expect(len(ds) == n_max + 1, f"{name}: row count")
            frozen = FROZEN_D.get(name)
            if frozen is not None:
                _expect(tuple(ds) == frozen[:n_max + 1],
                        f"{name}: profile rows {ds} differ from frozen values")
            if name.startswith("M"):
                _expect(all(r.d <= r.n for r in res.rows),
                        f"{name}: D(n) <= n fails (criterion c06)")
            expected = FROZEN_RESOLVED.get((name, n_max))
            _expect(expected is None or res.resolved_pairs == expected,
                    f"{name}: resolved pair count differs from frozen value")
            _expect(res.limited_pairs == 0 and res.incomplete_classes == (),
                    f"{name}: profile hit a budget")
            return {"attempted": res.resolved_pairs + res.limited_pairs,
                    "undetermined": res.limited_pairs,
                    "profile_resolved_pairs": res.resolved_pairs,
                    "profile_limited_pairs": res.limited_pairs}

        ops.append(Op(f"profile:{name}", False,
                      lambda p=entry.presentation, n=n_max, kw=kwargs:
                      rb.dehn.dehn_profile(p, n, **kw),
                      check_profile))

    edges_of = {name: oracles.relation_edges(entries[name].presentation)
                for name in ("dehn-example", *WALKS)}
    queries = [("dehn-example", "a" * k + "b" * k, "b" * k + "a" * k, k * k, None)
               for k in COMMUTATOR_K]
    for name, count in WALKS.items():
        edges = edges_of[name]
        letters = entries[name].presentation.alphabet.letters
        (s_lo, s_hi), (w_lo, w_hi) = WALK_START_LEN, WALK_STEPS
        for i in range(count):
            steps = w_lo + (i // (s_hi - s_lo + 1) + i) % (w_hi - w_lo + 1)
            end = start = ""
            while end == start:
                start = "".join(rng.choice(letters)
                                for _ in range(s_lo + i % (s_hi - s_lo + 1)))
                end = _walk(rng, edges, zero, start, steps,
                            len(start) + AREA_SLACK)
            queries.append((name, start, end, UNCHECKED, steps))
    rng.shuffle(queries)
    bfs_left = BFS_SAMPLE
    for name, u, v, exact, walk_len in queries:
        entry = entries[name]
        p = entry.presentation
        max_len = max(len(u), len(v)) + AREA_SLACK
        expected = exact
        if expected is UNCHECKED and bfs_left > 0:
            bfs_left -= 1
            expected = _oracle_area(oracles, p, entry.system, u, v, max_len,
                                    zero)
        edges = edges_of[name]

        def check_area(res, u=u, v=v, exact=expected, walk_len=walk_len,
                       edges=edges, max_len=max_len):
            if res.status == "resource-limit":
                return _verdict(True, area_steps=0)
            _expect(res.status == "area", f"{u!r} = {v!r} reported not equal")
            chain = res.derivation
            _expect(len(chain) == res.steps + 1 and chain[0] == u
                    and chain[-1] == v
                    and _chain_ok(oracles, edges, chain, max_len, zero),
                    f"{u!r} -> {v!r}: derivation is not a relation path")
            _expect(exact is UNCHECKED or res.steps == exact,
                    f"{u!r} -> {v!r}: area {res.steps}, reference {exact}")
            _expect(walk_len is None or res.steps <= walk_len,
                    f"{u!r} -> {v!r}: area above the generating walk")
            return _verdict(False, area_steps=res.steps)

        ops.append(Op("area", True,
                      lambda p=p, u=u, v=v, m=max_len, prec=entry.precedence:
                      rb.dehn.dehn_area(p, u, v, max_len=m, precedence=prec),
                      _once(check_area)))
    inputs = {"profiles": [list(x) for x in PROFILES],
              "queries_by_kind": {"commutator": len(COMMUTATOR_K),
                                  "walk": sum(WALKS.values())},
              "bfs_checked": BFS_SAMPLE - bfs_left,
              "pair_total_len": quantiles([len(q[1]) + len(q[2])
                                           for q in queries])}
    return Prepared([ops], inputs)


# -- wordproblem ------------------------------------------------------------

WORD_SYSTEMS = ("M2", "M5", "dehn-example")
NORMALIZE_QUERIES = 400
EQUAL_QUERIES = 200
WORD_LEN = (20, 3000)
BASE_LEN = (0, 12)
ZERO_EVERY = 5
SPOT_CHECKS = 12
SPOT_MAX_LEN = 400

# The README's presentation file for its `--file` example; written while
# the inputs are made.
COMM_RWS = Path(__file__).resolve().parent / "out" / "comm.rws"
COMM_RWS_TEXT = "generators: a b\nrelations:\n  ab = ba\n"
# The README's CLI examples with their documented output, then one case
# per remaining exit code of the README's contract (0 holds, 1 refuted,
# 2 undetermined, 3 input error).
CLI_CASES = (
    (["--catalog", "M2", "normalize", "adacab"], 0, "a\n"),
    (["--catalog", "dehn-example", "confluence"], 0,
     "locally confluent: true, terminating: true, critical pairs: 0\n"),
    (["--catalog", "dehn-example", "dehn", "aabb", "bbaa"], 0,
     "area: 4\nderivation: aabb -> abab -> abba -> baba -> bbaa\n"),
    (["--catalog", "M1", "witness", "b"], 0, "x: d, y: 1\n"),
    (["--catalog", "M2", "probe", "a", "aa", "--radius", "9"], 0,
     "collapsed: true, merges: 24, trace length: 1\n"),
    (["--format", "csv", "--catalog", "M2", "growth", "--max-len", "4"], 0,
     "length,count\n0,1\n1,4\n2,13\n3,38\n4,105\n"),
    (["--file", str(COMM_RWS), "--precedence", "ba", "complete"], 0,
     "completed: true, rules: 1, steps: 0\nab -> ba\n"),
    (["--catalog", "M2", "normalize", "aab"], 0, "0\n"),
    (["--catalog", "M2", "equal", "aadb", "aa"], 0, "equal: true\n"),
    (["--catalog", "M2", "equal", "aadb", "a"], 1, "equal: false\n"),
    (["--catalog", "M1", "witness", "ab"], 1,
     "not a unit: the word equals zero\n"),
    (["--catalog", "dehn-example", "witness", "aaaa", "--max-nodes", "1"], 2,
     "undetermined: no witness within limits\n"),
    (["--catalog", "M2", "normalize", "x"], 3, ""),
)


def run_cli(rb, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rb.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def prepare_wordproblem(rb, oracles, entries, rng: random.Random) -> Prepared:
    zero = rb.core.ZERO
    ops: list[Op] = []
    words: list[tuple[str, str, object]] = []  # (system, word, expected nf)
    lengths = log_stratified(rng, NORMALIZE_QUERIES + 2 * EQUAL_QUERIES,
                             *WORD_LEN)

    def make(name: str, base: str, is_zero: bool) -> str:
        system = entries[name].system
        w = inflate(rng, _nonzero_rules(system, zero), base, lengths.pop(),
                    _zero_patterns(system, zero), is_zero)
        words.append((name, w, zero if is_zero else base))
        return w

    def base_form(name: str) -> str:
        system = entries[name].system
        return random_normal_form(rng, system.alphabet.letters,
                                  [r.lhs for r in system.rules],
                                  rng.randint(*BASE_LEN))

    # Systems rotate, every ZERO_EVERY-th word of a kind is zero-valued,
    # and equal pairs alternate between true and false.
    queries = []
    for i in range(NORMALIZE_QUERIES):
        name = WORD_SYSTEMS[i % len(WORD_SYSTEMS)]
        is_zero = i % ZERO_EVERY == 0
        base = base_form(name)
        queries.append(("normalize", name, make(name, base, is_zero), None,
                        zero if is_zero else base))
    for i in range(EQUAL_QUERIES):
        name = WORD_SYSTEMS[i % len(WORD_SYSTEMS)]
        base = base_form(name)
        is_zero = (i // 2) % ZERO_EVERY == 0
        if i % 2 == 0:
            queries.append(("equal", name, make(name, base, is_zero),
                            make(name, base, is_zero), True))
        else:
            other = base_form(name)
            while other == base:
                other = base_form(name)
            queries.append(("equal", name, make(name, base, False),
                            make(name, other, is_zero), False))
    rng.shuffle(queries)

    # The generator's own claim, checked by the independent reducer.
    short = [w for w in words if len(w[1]) <= SPOT_MAX_LEN]
    for name, w, expected in rng.sample(short, min(SPOT_CHECKS, len(short))):
        got = oracles.rightmost_reduce(entries[name].system, w)
        _expect(got == expected, f"generator claim fails for {name} {w!r}")

    for kind, name, w1, w2, expected in queries:
        system = entries[name].system
        if kind == "normalize":
            def check_nf(nf, expected=expected, name=name):
                _expect(nf == expected, f"{name}: wrong normal form")
                return _verdict(False)
            ops.append(Op("normalize", True,
                          lambda s=system, w=w1: rb.core.normalize(s, w),
                          check_nf))
        else:
            def check_eq(eq, expected=expected, name=name):
                _expect(eq is expected, f"{name}: wrong equality verdict")
                return _verdict(False)
            ops.append(Op("equal", True,
                          lambda s=system, a=w1, b=w2:
                          rb.core.equal_in_monoid(s, a, b),
                          check_eq))
    COMM_RWS.parent.mkdir(exist_ok=True)
    COMM_RWS.write_text(COMM_RWS_TEXT)
    for argv, code, text in CLI_CASES:
        def check_cli(res, argv=argv, code=code, text=text):
            got_code, out, err = res
            _expect(got_code == code and out == text,
                    f"rewbench {' '.join(argv)}: exit {got_code}, output {out!r}")
            _expect(code != 3 or err.startswith("error: "),
                    f"rewbench {' '.join(argv)}: no error message")
            return _verdict(code == 2, cli_output_bytes=len(out.encode()))
        ops.append(Op("cli", True, lambda argv=argv: run_cli(rb, argv),
                      check_cli))

    lengths = [len(w) for _, w, _ in words]
    inputs = {"systems": list(WORD_SYSTEMS),
              "queries_by_kind": {"normalize": NORMALIZE_QUERIES,
                                  "equal": EQUAL_QUERIES,
                                  "cli": len(CLI_CASES)},
              "word_len": quantiles(lengths),
              "letters_total": sum(lengths),
              "zero_share": sum(1 for _, _, e in words if e is zero) / len(words),
              "spot_checks": min(SPOT_CHECKS, len(short))}
    return Prepared([ops], inputs)


# -- completion -------------------------------------------------------------

KB_QUERIES = 1500
KB_GENERATORS = ("ab", "abc")
KB_RELATIONS = (1, 3)
KB_SIDE_LEN = (0, 4)
KB_LIMIT_ARGS = {"max_rules": 10, "max_word_len": 8, "max_steps": 20}
# The 3-generator braid-like presentation; max_rules sits below the
# point where one more round of interreduction costs seconds.
BRAID = ("abc", (("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")))
BRAID_LIMIT_ARGS = {"max_rules": 190}
# Known-complete catalog presentations run through knuth_bendix: they
# must come back unchanged.  Their cost grows with n and sits above the
# random presentations, so they form the latency tail that query_ms.p95
# reads, the same for every seed.
KB_CATALOG_N = range(10, 42)
BRAID_CHECK_LEN = 9
CLOSURE_SLACK = 2
CLOSURE_MAX_LEN = 6
# Transformation monoids searched for models of a presentation: degree
# 3 for two generators, degree 2 for three (27**3 assignments is slow).
MODEL_DEGREE = {2: 3, 3: 2}


@functools.lru_cache(maxsize=None)
def _map_tables(degree: int) -> tuple[list[list[int]], int]:
    maps = list(itertools.product(range(degree), repeat=degree))
    index = {m: i for i, m in enumerate(maps)}
    compose = [[index[tuple(g[f[s]] for s in range(degree))] for g in maps]
               for f in maps]
    return compose, index[tuple(range(degree))]


class FiniteModels:
    """Every assignment of letters to maps of {0..degree-1} under which
    all relations hold.  A consequence of the relations holds in each.
    Maps are numbered; ``_compose[i][j]`` is map i followed by map j."""

    def __init__(self, letters: str, relations, degree: int):
        self._compose, self._identity = _map_tables(degree)
        self.models = []
        for images in itertools.product(range(len(self._compose)),
                                        repeat=len(letters)):
            model = dict(zip(letters, images))
            if all(self.act(model, x) == self.act(model, y)
                   for x, y in relations):
                self.models.append(model)

    def act(self, model: dict, word: str) -> int:
        state = self._identity
        compose = self._compose
        for ch in word:
            state = compose[state][model[ch]]
        return state

    def holds(self, lhs: str, rhs: str) -> bool:
        return all(self.act(m, lhs) == self.act(m, rhs) for m in self.models)


def prepare_completion(rb, oracles, entries, rng: random.Random) -> Prepared:
    core = rb.core
    ops: list[Op] = []
    limits = rb.completion.CompletionLimits(**KB_LIMIT_ARGS)
    sizes = []
    side = range(KB_SIDE_LEN[0], KB_SIDE_LEN[1] + 1)
    shapes = [(a, b) for a in side for b in side if a or b]
    for i in range(KB_QUERIES):
        # Generator count, relation count and side lengths cycle through
        # fixed strata; only the letters are random.
        letters = KB_GENERATORS[i % len(KB_GENERATORS)]
        lo, hi = KB_RELATIONS
        relations = []
        for j in range(lo + (i // len(KB_GENERATORS)) % (hi - lo + 1)):
            lx, ly = shapes[(3 * i + j) % len(shapes)]
            while True:
                x, y = ("".join(rng.choice(letters) for _ in range(n))
                        for n in (lx, ly))
                if x != y:
                    break
            relations.append((x, y))
        p = core.Presentation(core.Alphabet(letters), tuple(relations))
        sizes.append(sum(len(x) + len(y) for x, y in relations))

        def check_kb(out, p=p):
            if not out.completed:
                return _verdict(True, kb_rules_added=out.steps)
            report = rb.completion.check_local_confluence(out.system)
            _expect(report.locally_confluent and report.terminating,
                    f"{p.relations}: completed system is not complete")
            # Every relation must join, and every rule must be a
            # consequence: it holds in every finite model of the
            # relations, and a short derivation is counted when the
            # plain closure search finds one.
            for x, y in p.relations:
                _expect(oracles.rightmost_reduce(out.system, x)
                        == oracles.rightmost_reduce(out.system, y),
                        f"{p.relations}: {x} = {y} does not join")
            letters = p.alphabet.letters
            models = FiniteModels(letters, p.relations,
                                  MODEL_DEGREE[len(letters)])
            proved = 0
            for rule in out.system.rules:
                _expect(models.holds(rule.lhs, rule.rhs),
                        f"{p.relations}: rule {rule} fails in a finite model")
                ball = max(len(rule.lhs), len(rule.rhs)) + CLOSURE_SLACK
                if ball <= CLOSURE_MAX_LEN:
                    proved += oracles.closure_equal(p, rule.lhs, rule.rhs, ball)
            return _verdict(False, kb_rules_added=out.steps,
                            kb_rules_closure_proved=proved,
                            kb_models=len(models.models))

        ops.append(Op("kb", True,
                      lambda p=p: rb.completion.knuth_bendix(p, limits=limits),
                      _once(check_kb)))

    braid = core.Presentation(core.Alphabet(BRAID[0]), BRAID[1])
    braid_limits = rb.completion.CompletionLimits(**BRAID_LIMIT_ARGS)

    def check_braid(out):
        _expect(not out.completed and out.reason == "max_rules"
                and len(out.system.rules) == BRAID_LIMIT_ARGS["max_rules"] + 1,
                "braid-like completion should stop at max_rules")
        # Every relation keeps length, so the ball of the lhs's own
        # length decides each rule exactly.
        for rule in out.system.rules:
            if len(rule.lhs) <= BRAID_CHECK_LEN:
                _expect(oracles.closure_equal(braid, rule.lhs, rule.rhs,
                                              len(rule.lhs)),
                        f"braid rule {rule} not implied by relations")
        return _verdict(True, kb_rules_added=out.steps)

    ops.append(Op("kb-braid", True,
                  lambda: rb.completion.knuth_bendix(braid, limits=braid_limits),
                  _once(check_braid)))

    for n in KB_CATALOG_N:
        entry = rb.catalog.get_entry(f"M{n}")
        expected = [str(r) for r in entry.system.rules]

        def check_catalog_kb(out, n=n, expected=expected):
            _expect(out.completed and out.steps == 0
                    and [str(r) for r in out.system.rules] == expected,
                    f"M{n}: completion changed a complete catalog system")
            return _verdict(False, kb_rules_added=out.steps)

        ops.append(Op("kb-catalog", True,
                      lambda p=entry.presentation, prec=entry.precedence:
                      rb.completion.knuth_bendix(p, prec),
                      check_catalog_kb))

    for name, entry in entries.items():
        def check_conf(report, name=name):
            _expect(report.locally_confluent and report.terminating
                    and report.critical_pair_count == 0,
                    f"{name}: catalog system should have no critical pairs")
            return _verdict(False)
        ops.append(Op("confluence", True,
                      lambda s=entry.system:
                      rb.completion.check_local_confluence(s),
                      check_conf))
    rng.shuffle(ops)
    inputs = {"queries_by_kind": {"kb": KB_QUERIES, "kb-braid": 1,
                                  "kb-catalog": len(KB_CATALOG_N),
                                  "confluence": len(entries)},
              "presentation_letters": quantiles(sizes),
              "kb_limits": KB_LIMIT_ARGS, "braid_limits": BRAID_LIMIT_ARGS}
    return Prepared([ops], inputs)


@dataclass(frozen=True)
class Workload:
    name: str
    entries: Optional[tuple[str, ...]]  # None: every listed catalog entry
    prepare: Callable


WORKLOADS = {
    "collapse": Workload("collapse", COLLAPSE_SYSTEMS, prepare_collapse),
    "profile": Workload("profile", ("dehn-example", "M1", "M2"),
                        prepare_profile),
    "wordproblem": Workload("wordproblem", WORD_SYSTEMS, prepare_wordproblem),
    "completion": Workload("completion", None, prepare_completion),
}
