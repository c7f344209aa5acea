"""Golden digests of CLI, derivation-area, completion and congruence outcomes.

Each value in ``tests/golden.json`` is the SHA-256 of the outcomes of one
group of calls, so a refactor that must keep behaviour identical is
checked against the commit it started from (``tests/test_golden.py``).
To write the file, from the root of a checkout:

    PYTHONPATH=src python3 tests/make_golden.py

Generate it at the commit before a change, never to make a changed
outcome pass; a change that alters a digest names the key and the
reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from oracles import one_step, relation_edges
from rewbench import cli
from rewbench.catalog import get_entry
from rewbench.completion import (
    CompletionLimits,
    check_local_confluence,
    knuth_bendix,
)
from rewbench.congruence import probe_all_pairs, probe_congruence
from rewbench.core import (
    ZERO,
    Alphabet,
    Presentation,
    UnorientableRelationError,
    format_element,
    orient,
)
from rewbench.dehn import ProfileLimits, dehn_area, dehn_profile

GOLDEN = Path(__file__).with_name("golden.json")

WALK_SYSTEMS = ("dehn-example", "M1", "M2")
WALKS_PER_SYSTEM = 40
SMALL_LIMITS = (0, 1, 5, 10, 30)
COMM_ZERO = Presentation(Alphabet("ab"), (("ab", "ba"), ("aa", ZERO)))
NON_COMPLETE = Presentation(Alphabet("ab", "ab"), (("ab", "a"), ("ba", "b")))
COLLAPSING = Presentation(Alphabet("ab"), (("ab", "ba"), ("", ZERO)))
BRAID = Presentation(Alphabet("abc"),
                     (("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")))


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _area(p: Presentation, u: str, v: str, **kwargs) -> tuple:
    r = dehn_area(p, u, v, **kwargs)
    return (u, v, r.status, r.steps,
            tuple(format_element(w) for w in r.derivation), r.reason)


def _walk_pairs(p: Presentation, rng: random.Random) -> list[tuple[str, str]]:
    """Seeded (start, end) pairs joined by 1-6 random relation steps."""
    edges = [(pat, rep) for pat, rep in relation_edges(p) if rep is not ZERO]
    letters = p.alphabet.letters
    pairs = []
    while len(pairs) < WALKS_PER_SYSTEM:
        word = start = "".join(rng.choice(letters)
                               for _ in range(rng.randint(2, 7)))
        for _ in range(rng.randint(1, 6)):
            options = one_step(word, edges, len(start) + 3)
            if not options:
                break
            word = rng.choice(options)
        if word != start:
            pairs.append((start, word))
    return pairs


def area_digests() -> dict[str, str]:
    rng = random.Random(20261018)
    out: dict[str, str] = {}
    for name in WALK_SYSTEMS:
        entry = get_entry(name)
        p, prec = entry.presentation, entry.precedence
        out[f"walk:{name}"] = _digest(
            _area(p, u, v, precedence=prec) for u, v in _walk_pairs(p, rng))
        letters = p.alphabet.letters
        unequal = [("".join(rng.choice(letters) for _ in range(rng.randint(0, 5))),
                    "".join(rng.choice(letters) for _ in range(rng.randint(0, 5))))
                   for _ in range(30)]
        out[f"random:{name}"] = _digest(
            _area(p, u, v, precedence=prec) for u, v in unequal)
    dehn = get_entry("dehn-example")
    p, prec = dehn.presentation, dehn.precedence
    out["commutator"] = _digest(
        _area(p, "a" * k + "b" * k, "b" * k + "a" * k, precedence=prec,
              max_len=max_len)
        for k in range(1, 5) for max_len in (2 * k, None))
    out["max_nodes"] = _digest(
        _area(p, u, v, precedence=prec, max_nodes=budget)
        for u, v in (("aabb", "bbaa"), ("caabbd", ""), ("cabd", "cbad"))
        for budget in range(1, 61))
    words = ["", "a", "b", "aa", "ab", "ba", "bb", "aab", "bba", "abab"]
    out["non-complete"] = _digest(
        _area(NON_COMPLETE, u, v, max_len=max_len)
        for u in words for v in words for max_len in (4, 6))
    out["collapsing"] = _digest(
        _area(COLLAPSING, u, v) for u in words[:6] for v in words[:6])
    return out


def _edges(sizes: tuple[int, ...]) -> list[int]:
    """Budgets one and two below each size, and the size itself."""
    return sorted({s + k for s in sizes for k in (-2, -1, 0)})


# (label, presentation, n_max, precedence, slack, {limit: values}).
# Beside the small values, max_class_vertices sweeps the edges of the
# deep class sizes at that slack, and max_zero_ball the range where
# zero-class answers change, so an off-by-one in either budget shows.
PROFILE_SWEEPS = (
    ("dehn-example", get_entry("dehn-example").presentation, 6, "bacd", 2,
     {"max_class_vertices": _edges((218, 271, 320, 404, 418, 427, 666))}),
    ("M1", get_entry("M1").presentation, 6, "abcd", 2,
     {"max_class_vertices": _edges((430, 847, 1291))}),
    ("M1", get_entry("M1").presentation, 6, "abcd", 1,
     {"max_zero_ball": list(range(40))}),
    ("ab=ba,aa=0", COMM_ZERO, 7, "ba", 4,
     {"max_class_vertices": list(range(6)),
      "max_pair_nodes": list(range(60)),
      "max_zero_ball": list(range(120))}),
)


def profile_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for label, p, n_max, prec, slack, sweeps in PROFILE_SWEEPS:
        if f"{label}:default" not in out:
            out[f"{label}:default"] = _digest(
                [dehn_profile(p, n_max, precedence=prec)])
        for limit in ProfileLimits.__dataclass_fields__:
            values = sorted(set(SMALL_LIMITS) | set(sweeps.get(limit, ())))
            out[f"{label}:slack={slack}:{limit}"] = _digest(
                (value, dehn_profile(p, n_max, slack=slack, precedence=prec,
                                     limits=ProfileLimits(**{limit: value})))
                for value in values)
    return out


def _outcome(p: Presentation, precedence: str = "",
             limits: CompletionLimits = CompletionLimits(),
             with_pairs: bool = False) -> tuple:
    """knuth_bendix's outcome; ``with_pairs`` appends the unresolved
    critical pairs of the system it returns, normal forms included."""
    try:
        out = knuth_bendix(p, precedence, limits)
    except UnorientableRelationError as exc:
        return ("collapsed", str(exc))
    summary = (out.completed, out.steps, out.reason, out.unresolved_count,
               tuple(str(r) for r in out.system.rules))
    if with_pairs:
        return summary + (check_local_confluence(out.system).unresolved,)
    return summary


def _random_presentation(rng: random.Random) -> tuple[Presentation, str]:
    """Two or three letters, one to three relations with sides of 0-4
    letters or zero (never 1 = 0), and the default or reversed
    precedence."""
    letters = rng.choice(("ab", "abc"))
    relations = []
    for _ in range(rng.randint(1, 3)):
        x, y = ("".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                for _ in range(2))
        if rng.random() < 0.2:
            x, y = (x or letters[0]), ZERO
        if x != y:
            relations.append((x, y))
    precedence = rng.choice(("", letters[::-1]))
    return Presentation(Alphabet(letters), tuple(relations)), precedence


def completion_digests() -> dict[str, str]:
    catalog = [get_entry(f"M{n}") for n in range(10, 42)]
    rng = random.Random(1018)
    randoms = [_random_presentation(rng) for _ in range(300)]
    limits = CompletionLimits(max_rules=10, max_word_len=8, max_steps=20)
    rng = random.Random(1500)
    more = [_random_presentation(rng) for _ in range(1500)]
    alternating = (limits, CompletionLimits(40, 12, 200))
    return {
        "random": _digest(_outcome(p, prec, limits) for p, prec in randoms),
        "random:1500": _digest(
            _outcome(p, prec, alternating[i % 2], with_pairs=True)
            for i, (p, prec) in enumerate(more)),
        "M10-M41": _digest(_outcome(e.presentation, e.precedence)
                           for e in catalog),
        "braid:max_rules=190": _digest(
            [_outcome(BRAID, limits=CompletionLimits(max_rules=190))]),
    }


# (label, system): three M_n, the quadratic example, a commutative
# system with a zero rule, and {ab = ac}, which has none, so that ZERO
# seeds and products leaving the ball both show up.
PROBE_SYSTEMS = (
    ("M1", get_entry("M1").system),
    ("M2", get_entry("M2").system),
    ("M3", get_entry("M3").system),
    ("dehn-example", get_entry("dehn-example").system),
    ("ab=ba,aa=0", orient(COMM_ZERO)),
    ("ab=ac", orient(Presentation(Alphabet("abc"), (("ab", "ac"),)), "abc")),
)
PROBE_RADII = range(1, 8)
PROBES_PER_RADIUS = 20


def congruence_digests() -> dict[str, str]:
    """``probe_all_pairs`` rows per radius (seeds of up to two letters
    at radii 2-4, one letter elsewhere), and the full results of seeded
    probes on random words of at most ``radius`` letters (normal forms
    never grow, so every seed lies in the ball), one in ten of them
    paired with ZERO."""
    rng = random.Random(7)
    out: dict[str, str] = {}
    for label, system in PROBE_SYSTEMS:
        letters = system.alphabet.letters
        out[f"rows:{label}"] = _digest(
            (radius, probe_all_pairs(system, 2 if 1 < radius < 5 else 1,
                                     radius).rows)
            for radius in PROBE_RADII)
        seeds = []
        for radius in PROBE_RADII:
            for _ in range(PROBES_PER_RADIUS):
                u, v = ("".join(rng.choice(letters)
                                for _ in range(rng.randint(0, radius)))
                        for _ in range(2))
                seeds.append((u, ZERO if rng.random() < 0.1 else v, radius))
        out[f"probe:{label}"] = _digest(
            probe_congruence(system, (u, v), radius) for u, v, radius in seeds)
    return out


# Presentation files for ``--file`` calls.  missing.rws is never written.
CLI_FILES = {
    "comm.rws": "generators: a b\nrelations:\nab = ba\n",
    "comm-zero.rws": "generators: a b\nrelations:\nab = ba\naa = 0\n",
    "non-complete.rws": "generators: a b\nrelations:\nab = a\nba = b\n",
    "braid.rws": ("generators: a b c\nrelations:\n"
                  "aba = bab\nbcb = cbc\nac = ca\n"),
    "collapse.rws": "generators: a\nrelations:\na = 1\na = 0\n",
    "trivial.rws": ("generators: a b\nrelations:\n"
                    "ab = ab\nba = ab\n1 = 1\nab = ab\n"),
    "syntax.rws": "generators: a b\nab = ba\n",
    "unknown-letter.rws": "generators: a b\nrelations:\nab = xa\n",
}
CLI_SOURCES = (("--catalog", "M1"), ("--catalog", "M2"),
               ("--catalog", "dehn-example"),
               ("--catalog", "M2", "--precedence", "dcba"),
               *(("--file", name) for name in CLI_FILES
                 if name not in ("syntax.rws", "unknown-letter.rws")))
# Every subcommand that takes an input system, on words over a and b,
# which every source above but collapse.rws accepts, and with budgets
# small enough that non-complete systems answer quickly.
CLI_SOURCE_CALLS = (
    ("normalize", "abab"), ("normalize", "1"), ("normalize", "0"),
    ("equal", "ab", "ba"), ("equal", "aab", "0"),
    ("confluence",),
    ("complete", "--max-rules", "20", "--max-steps", "100"),
    ("complete", "--max-word-len", "3"),
    ("complete", "--max-steps", "2"),
    ("enumerate", "--max-len", "2"),
    ("growth", "--max-len", "4"),
    ("witness", "b", "--max-len", "4", "--max-nodes", "2000"),
    ("probe", "a", "b", "--radius", "2"),
    ("probe", "ab", "0", "--radius", "2"),
    ("probe-all", "--seed-len", "1", "--radius", "2"),
    ("dehn", "ab", "ba"),
    ("dehn", "aab", "b", "--max-len", "4", "--max-nodes", "500"),
    ("dehn-profile", "--n-max", "3", "--slack", "1"),
)
# Calls on the catalog's words over all four letters, and the input
# errors that no source call above makes.
CLI_CALLS = (
    ("--catalog", "M2", "normalize", "adacab"),
    ("--catalog", "M2", "equal", "adacab", "a"),
    ("--catalog", "M1", "witness", "b"),
    ("--catalog", "M2", "witness", "aab"),
    ("--catalog", "dehn-example", "witness", "a"),
    ("--catalog", "dehn-example", "witness", "cad"),
    ("--catalog", "dehn-example", "dehn", "cbad", "1"),
    ("--catalog", "dehn-example", "dehn", "aabb", "bbaa", "--max-len", "4"),
    ("--catalog", "M1", "probe-all", "--seed-len", "0", "--radius", "2"),
    ("verify-identities", "--n", "1"), ("verify-identities", "--n", "2"),
    ("catalog", "list"), ("catalog", "dump", "M1"),
    ("catalog", "dump", "dehn-example"),
    ("--file", "syntax.rws", "normalize", "a"),
    ("--file", "unknown-letter.rws", "complete"),
    ("--file", "missing.rws", "confluence"),
    (), ("frobnicate",), ("normalize", "a"),
    ("--catalog", "M70", "normalize", "a"),
    ("--catalog", "nope", "normalize", "a"),
    ("--catalog", "M2", "normalize", "xyz"),
    ("--catalog", "M2", "--precedence", "abc", "normalize", "a"),
    ("--catalog", "M1", "--file", "comm.rws", "normalize", "a"),
    ("--catalog", "M2", "--jobs", "0", "probe-all", "--seed-len", "1",
     "--radius", "3"),
    ("--catalog", "M2", "probe", "aa", "1", "--radius", "1"),
    ("--catalog", "M2", "growth"),
    ("--catalog", "M2", "growth", "--max-len", "x"),
    ("--catalog", "M2", "enumerate", "--max-len", "-1"),
    ("--catalog", "M2", "complete", "--max-rules", "-1"),
    ("--catalog", "M2", "complete", "--max-word-len", "-1"),
    ("--catalog", "M2", "complete", "--max-steps", "-1"),
    ("--catalog", "dehn-example", "dehn", "ab", "ba", "--max-nodes", "-3"),
    ("--catalog", "dehn-example", "witness", "a", "--max-len", "-1"),
    ("--catalog", "M1", "verify-identities", "--n", "1"),
    ("verify-identities", "--n", "0"), ("verify-identities", "--n", "65"),
    ("catalog", "dump"), ("catalog", "dump", "nope"),
    ("catalog", "dump", "M70"),
)


def _cli_call(argv: list[str], directory: str) -> tuple:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([directory + "/" + a if a.endswith(".rws") else a
                         for a in argv])
    return (code, out.getvalue().replace(directory, "<dir>"),
            err.getvalue().replace(directory, "<dir>"))


def cli_digests() -> dict[str, str]:
    """One digest of (exit code, stdout, stderr) per argv, run in-process
    through ``cli.main`` in each of the three formats.  File paths read
    ``<dir>`` in the output, and argparse's usage lines wrap at a pinned
    width."""
    calls = [source + call for source in CLI_SOURCES
             for call in CLI_SOURCE_CALLS] + list(CLI_CALLS)
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as directory:
            for name, text in CLI_FILES.items():
                Path(directory, name).write_text(text)
            return {" ".join(argv): _digest([_cli_call(argv, directory)])
                    for argv in (["--format", fmt, *call] for call in calls
                                 for fmt in ("text", "json", "csv"))}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


SECTIONS = {
    "cli": cli_digests,
    "congruence": congruence_digests,
    "dehn_area": area_digests,
    "dehn_profile": profile_digests,
    "knuth_bendix": completion_digests,
}


def main() -> None:
    golden = {name: compute() for name, compute in SECTIONS.items()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
