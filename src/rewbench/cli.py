"""Command-line front end.

One invocation runs one subcommand against one input system, chosen
by ``--catalog NAME`` or ``--file PATH``.  Output is text, JSON, or
CSV; identical argv always produces byte-identical output.

Exit codes: 0 the operation succeeded or the checked claim holds,
1 the claim is refuted, 2 the answer is undetermined, a resource limit
was hit, a worker process died or the run was interrupted, 3 malformed
input: any ``ValueError``, from the library or from this module, whose
message becomes the one ``error:`` line on stderr.  Warnings, such as a
skipped trivial relation, go to stderr as ``warning:`` lines.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from functools import cache
from typing import Iterable, Optional

from .catalog import CatalogEntry, family_index, get_entry, list_catalog
from .completion import (
    CompletionLimits,
    check_local_confluence,
    knuth_bendix,
)
from .congruence import probe_all_pairs, probe_congruence
from .core import (
    ZERO,
    Element,
    Presentation,
    PresentationSyntaxError,
    RewritingSystem,
    UnorientableRelationError,
    dump_presentation,
    format_element,
    is_zero,
    normalize,
    orient,
    parse_presentation,
)
from .dehn import (
    AREA,
    AREA_MAX_NODES,
    DEFAULT_SLACK,
    NOT_EQUAL,
    dehn_area,
    dehn_profile,
)
from .enumeration import growth_series, iter_normal_forms
from .identities import all_hold, verify_mn_identities
from .parallel import WorkerDied
from .witnesses import (
    SEARCH_MAX_LEN,
    SEARCH_MAX_NODES,
    unit_witness_mn,
    unit_witness_search,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3

# words longer than this have no business on a command line
MAX_CLI_N = 64


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call and reused:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rewbench",
        description="String rewriting workbench for monoid presentations.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--catalog", metavar="NAME",
                        help="built-in presentation (see `catalog list`)")
    source.add_argument("--file", metavar="PATH",
                        help="presentation file")
    parser.add_argument("--precedence", default="",
                        help="letter precedence, lowest first "
                             "(default: the input's own order)")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for probe-all and "
                             "dehn-profile (capped at the CPU count and "
                             "the number of tasks)")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("normalize", help="normal form of a word")
    p.add_argument("word")

    p = sub.add_parser("equal", help="decide whether two words are equal")
    p.add_argument("u")
    p.add_argument("v")

    sub.add_parser("confluence", help="local confluence report")

    p = sub.add_parser("complete", help="run Knuth-Bendix completion")
    p.add_argument("--max-rules", type=int,
                   default=CompletionLimits.max_rules)
    p.add_argument("--max-word-len", type=int,
                   default=CompletionLimits.max_word_len)
    p.add_argument("--max-steps", type=int,
                   default=CompletionLimits.max_steps)

    p = sub.add_parser("enumerate", help="normal forms up to a length")
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("growth", help="normal-form counts per length")
    p.add_argument("--max-len", type=int, required=True)

    p = sub.add_parser("witness", help="two-sided unit witness for a word")
    p.add_argument("word")
    p.add_argument("--max-len", type=int, default=SEARCH_MAX_LEN)
    p.add_argument("--max-nodes", type=int, default=SEARCH_MAX_NODES)

    p = sub.add_parser("probe", help="congruence collapse probe for a pair")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("probe-all", help="probe every seed pair up to a length")
    p.add_argument("--seed-len", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)

    p = sub.add_parser("dehn", help="least derivation length between words")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--max-nodes", type=int, default=AREA_MAX_NODES)

    p = sub.add_parser("dehn-profile",
                       help="max derivation length by total word length")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--slack", type=int, default=DEFAULT_SLACK)

    p = sub.add_parser("verify-identities",
                       help="check the defining identities of the n-th "
                            "catalog family member")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("catalog", help="list or dump built-in presentations")
    p.add_argument("action", choices=("list", "dump"))
    p.add_argument("name", nargs="?")

    return parser


def _parse_word(p: Presentation, token: str, allow_zero: bool = False) -> Element:
    if token == "1":
        return ""
    if token == "0":
        if allow_zero:
            return ZERO
        raise ValueError("the zero element is not a word here")
    return p.alphabet.check_word(token)


def _catalog_entry(name: str) -> CatalogEntry:
    n = family_index(name)
    if n is not None and n > MAX_CLI_N:
        raise ValueError(f"family index is capped at {MAX_CLI_N} "
                         "on the command line")
    try:
        return get_entry(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc


def _load(args: argparse.Namespace,
          ) -> tuple[Presentation, str, RewritingSystem, Optional[CatalogEntry]]:
    entry: Optional[CatalogEntry] = None
    if args.catalog is not None:
        entry = _catalog_entry(args.catalog)
        p = entry.presentation
        precedence = args.precedence or entry.precedence
    elif args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                p = parse_presentation(fh.read())
        except OSError as exc:
            raise ValueError(
                f"cannot read {args.file}: {exc.strerror}") from exc
        except (PresentationSyntaxError, UnicodeDecodeError) as exc:
            raise ValueError(f"{args.file}: {exc}") from exc
        precedence = args.precedence
    else:
        raise ValueError("an input system is required: --catalog or --file")
    return p, precedence, orient(p, precedence), entry


def _no_source(args: argparse.Namespace) -> None:
    if args.catalog is not None or args.file is not None:
        raise ValueError(f"{args.subcommand} takes no input system")


def _nonnegative(args: argparse.Namespace, *flags: str) -> None:
    """Rejects the flags, named together, if any of them is negative."""
    if any(getattr(args, f[2:].replace("-", "_")) < 0 for f in flags):
        raise ValueError(f"{' and '.join(flags)} must be >= 0")


def _emit(args: argparse.Namespace, obj: object, lines: list[str],
          table: Optional[tuple[list[str], Iterable[Iterable[object]]]] = None,
          ) -> None:
    """Writes one result in the chosen ``--format``.

    ``obj`` is the JSON view and ``lines`` the text view.  Subcommands
    whose result is tabular also pass ``table = (header, rows)``, its
    csv view; for every other subcommand csv is an input error.
    """
    if args.format == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    elif args.format == "text":
        sys.stdout.write("\n".join(lines) + "\n")
    elif table is None:
        raise ValueError(f"{args.subcommand} has no csv form")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(table[1])


def _cmd_normalize(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    word = _parse_word(p, args.word)
    nf = format_element(normalize(system, word))
    _emit(args, {"input": args.word, "normalForm": nf}, [nf])
    return EXIT_OK


def _cmd_equal(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    u = _parse_word(p, args.u, allow_zero=True)
    v = _parse_word(p, args.v, allow_zero=True)
    nu = normalize(system, u)
    nv = normalize(system, v)
    complete = check_local_confluence(system).locally_confluent
    if nu == nv:
        verdict: Optional[bool] = True
    elif complete:
        verdict = False
    else:
        verdict = None
    word = "undetermined" if verdict is None else str(verdict).lower()
    _emit(args, {"u": args.u, "v": args.v, "equal": verdict,
                 "decidedByCompleteSystem": complete}, [f"equal: {word}"])
    if verdict is True:
        return EXIT_OK
    return EXIT_REFUTED if verdict is False else EXIT_UNDETERMINED


def _cmd_confluence(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    report = check_local_confluence(system)
    lines = [
        f"locally confluent: {str(report.locally_confluent).lower()}, "
        f"terminating: {str(report.terminating).lower()}, "
        f"critical pairs: {report.critical_pair_count}"
    ]
    for pair in report.unresolved:
        lines.append(
            f"unresolved: {format_element(pair.left)} vs "
            f"{format_element(pair.right)} "
            f"(overlap {format_element(pair.overlap.word)})")
    _emit(args, {
        "locallyConfluent": report.locally_confluent,
        "terminating": report.terminating,
        "criticalPairCount": report.critical_pair_count,
        "unresolved": [
            {
                "rule1": pair.overlap.rule1,
                "rule2": pair.overlap.rule2,
                "overlapWord": pair.overlap.word,
                "left": format_element(pair.left),
                "right": format_element(pair.right),
            }
            for pair in report.unresolved
        ],
    }, lines)
    return EXIT_OK if report.locally_confluent else EXIT_REFUTED


def _cmd_complete(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    _nonnegative(args, "--max-rules")
    _nonnegative(args, "--max-word-len")
    _nonnegative(args, "--max-steps")
    limits = CompletionLimits(max_rules=args.max_rules,
                              max_word_len=args.max_word_len,
                              max_steps=args.max_steps)
    try:
        outcome = knuth_bendix(p, precedence, limits)
    except UnorientableRelationError as exc:
        _emit(args, {"completed": False, "collapsed": True,
                     "reason": str(exc)},
              [f"completed: false, collapsed: {exc}"])
        return EXIT_REFUTED
    rules = [(r.lhs, format_element(r.rhs)) for r in outcome.system.rules]
    lines = [f"completed: {str(outcome.completed).lower()}, "
             f"rules: {len(rules)}, steps: {outcome.steps}"]
    if outcome.reason:
        lines.append(f"reason: {outcome.reason}")
    lines.extend(f"{lhs} -> {rhs}" for lhs, rhs in rules)
    _emit(args, {
        "completed": outcome.completed,
        "steps": outcome.steps,
        "reason": outcome.reason,
        "rules": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in rules],
    }, lines)
    return EXIT_OK if outcome.completed else EXIT_UNDETERMINED


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    _nonnegative(args, "--max-len")
    forms = list(iter_normal_forms(system, args.max_len))
    words = [format_element(w) for w in forms]
    _emit(args, {"maxLen": args.max_len, "count": len(words),
                 "normalForms": words}, words,
          (["length", "word"], ([len(w), s] for w, s in zip(forms, words))))
    return EXIT_OK


def _cmd_growth(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    _nonnegative(args, "--max-len")
    series = growth_series(system, args.max_len)
    counts = list(series.counts)
    lines = [f"{n}: {c}" for n, c in enumerate(counts)]
    lines.append(f"total: {series.total()}")
    _emit(args, {"maxLen": args.max_len, "counts": counts,
                 "total": series.total()}, lines,
          (["length", "count"], enumerate(counts)))
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    p, _, system, entry = _load(args)
    word = _parse_word(p, args.word)
    _nonnegative(args, "--max-len")
    _nonnegative(args, "--max-nodes")
    nf = normalize(system, word)
    if is_zero(nf):
        _emit(args, {"word": args.word, "unit": False},
              ["not a unit: the word equals zero"])
        return EXIT_REFUTED
    n = family_index(entry.name) if entry is not None else None
    if n is not None:
        pair = unit_witness_mn(n, nf)
        method = "constructive"
    else:
        pair = unit_witness_search(system, nf, max_len=args.max_len,
                                   max_nodes=args.max_nodes)
        method = "search"
        if pair is None:
            _emit(args, {"word": args.word, "unit": None, "method": method},
                  ["undetermined: no witness within limits"])
            return EXIT_UNDETERMINED
    x, y = format_element(pair.x), format_element(pair.y)
    _emit(args, {"word": args.word, "unit": True, "method": method,
                 "x": x, "y": y}, [f"x: {x}, y: {y}"])
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    u = _parse_word(p, args.u, allow_zero=True)
    v = _parse_word(p, args.v, allow_zero=True)
    _nonnegative(args, "--radius")
    result = probe_congruence(system, (u, v), args.radius)
    trace_len = len(result.trace.path) if result.trace is not None else None
    if result.collapsed:
        line = (f"collapsed: true, merges: {result.merges}, "
                f"trace length: {trace_len}")
    else:
        line = (f"collapsed: false, classes: {result.class_count}, "
                f"truncated: {result.truncated}")
    _emit(args, {
        "collapsed": result.collapsed,
        "merges": result.merges,
        "traceLength": trace_len,
        "truncated": result.truncated,
        "classCount": result.class_count,
        "radius": result.radius,
        "universeSize": result.universe_size,
    }, [line])
    return EXIT_OK if result.collapsed else EXIT_UNDETERMINED


def _cmd_probe_all(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    _nonnegative(args, "--seed-len", "--radius")
    summary = probe_all_pairs(system, args.seed_len, args.radius,
                              jobs=args.jobs)
    rows = [(format_element(r.u), format_element(r.v), r)
            for r in summary.rows]
    _emit(args, {
        "radius": summary.radius,
        "universeSize": summary.universe_size,
        "collapsedCount": summary.collapsed_count,
        "undeterminedCount": summary.undetermined_count,
        "undeterminedWithoutTruncation":
            summary.undetermined_without_truncation,
        "worstTraceLength": summary.worst_trace_len,
        "rows": [{"u": u, "v": v, "collapsed": r.collapsed,
                  "traceLength": r.trace_len, "truncated": r.truncated}
                 for u, v, r in rows],
    }, [f"pairs: {len(summary.rows)}, "
        f"collapsed: {summary.collapsed_count}, "
        f"undetermined: {summary.undetermined_count}, "
        f"worst trace length: {summary.worst_trace_len}"],
        (["seed_u", "seed_v", "status", "trace_len", "truncated"],
         ([u, v, "collapsed" if r.collapsed else "undetermined",
           r.trace_len, r.truncated] for u, v, r in rows)))
    return EXIT_OK if summary.undetermined_count == 0 else EXIT_UNDETERMINED


def _cmd_dehn(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    u = _parse_word(p, args.u)
    v = _parse_word(p, args.v)
    _nonnegative(args, "--max-nodes")
    result = dehn_area(p, u, v, max_len=args.max_len,
                       max_nodes=args.max_nodes, precedence=precedence)
    chain = [format_element(w) for w in result.derivation]
    if result.status == AREA:
        lines = [f"area: {result.steps}", f"derivation: {' -> '.join(chain)}"]
    elif result.status == NOT_EQUAL:
        lines = ["not equal"]
    else:
        lines = [f"resource limit: {result.reason}"]
    _emit(args, {"status": result.status, "steps": result.steps,
                 "derivation": chain, "reason": result.reason}, lines)
    if result.status == AREA:
        return EXIT_OK
    return EXIT_REFUTED if result.status == NOT_EQUAL else EXIT_UNDETERMINED


def _cmd_dehn_profile(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    _nonnegative(args, "--n-max")
    _nonnegative(args, "--slack")
    result = dehn_profile(p, args.n_max, slack=args.slack,
                          precedence=precedence, jobs=args.jobs)
    rows = [(format_element(r.witness_u), format_element(r.witness_v), r)
            for r in result.rows]
    lines = []
    for wu, wv, r in rows:
        line = f"D({r.n}) = {r.d}"
        if r.d > 0:
            line += f"  witness: {wu} ~ {wv}"
        if r.limited_pairs:
            line += f"  limited pairs: {r.limited_pairs}"
        lines.append(line)
    lines.append(f"resolved pairs: {result.resolved_pairs}")
    lines.extend(f"incomplete class: {label}"
                 for label in result.incomplete_classes)
    _emit(args, {
        "nMax": result.n_max,
        "maxLen": result.max_len,
        "resolvedPairs": result.resolved_pairs,
        "limitedPairs": result.limited_pairs,
        "incompleteClasses": list(result.incomplete_classes),
        "rows": [{"n": r.n, "d": r.d, "witnessU": wu, "witnessV": wv,
                  "limitedPairs": r.limited_pairs} for wu, wv, r in rows],
    }, lines,
        (["n", "d", "witness_u", "witness_v", "limited_pairs"],
         ([r.n, r.d, wu, wv, r.limited_pairs] for wu, wv, r in rows)))
    limited = result.limited_pairs > 0 or bool(result.incomplete_classes)
    return EXIT_UNDETERMINED if limited else EXIT_OK


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    _no_source(args)
    if not 1 <= args.n <= MAX_CLI_N:
        raise ValueError(f"--n must be between 1 and {MAX_CLI_N}")
    checks = verify_mn_identities(args.n)
    ok = all_hold(checks)
    lines = []
    for c in checks:
        if c.ok:
            lines.append(f"PASS {c.name}: {format_element(c.word)} = "
                         f"{format_element(c.expected)}")
        else:
            lines.append(f"FAIL {c.name}: {format_element(c.word)} -> "
                         f"{format_element(c.actual)}, expected "
                         f"{format_element(c.expected)}")
    lines.append(f"all identities hold: {str(ok).lower()}")
    _emit(args, {
        "n": args.n,
        "allHold": ok,
        "checks": [{
            "name": c.name, "word": format_element(c.word),
            "expected": format_element(c.expected),
            "actual": format_element(c.actual), "ok": c.ok,
        } for c in checks],
    }, lines)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_catalog(args: argparse.Namespace) -> int:
    _no_source(args)
    if args.action == "list":
        entries = list_catalog()
        _emit(args, [{
            "name": e.name,
            "generators": e.presentation.alphabet.letters,
            "precedence": e.precedence,
            "relationCount": len(e.presentation.relations),
            "provenance": e.provenance,
        } for e in entries], [f"{e.name}: {e.provenance}" for e in entries],
            (["name", "generators", "precedence", "relations"],
             ([e.name, e.presentation.alphabet.letters, e.precedence,
               len(e.presentation.relations)] for e in entries)))
        return EXIT_OK
    if args.name is None:
        raise ValueError("catalog dump needs a name")
    entry = _catalog_entry(args.name)
    _emit(args, {
        "name": entry.name,
        "generators": entry.presentation.alphabet.letters,
        "precedence": entry.precedence,
        "provenance": entry.provenance,
        "relations": [[format_element(x), format_element(y)]
                      for x, y in entry.presentation.relations],
    }, dump_presentation(entry.presentation).splitlines())
    return EXIT_OK


_HANDLERS = {
    "normalize": _cmd_normalize,
    "equal": _cmd_equal,
    "confluence": _cmd_confluence,
    "complete": _cmd_complete,
    "enumerate": _cmd_enumerate,
    "growth": _cmd_growth,
    "witness": _cmd_witness,
    "probe": _cmd_probe,
    "probe-all": _cmd_probe_all,
    "dehn": _cmd_dehn,
    "dehn-profile": _cmd_dehn_profile,
    "verify-identities": _cmd_verify_identities,
    "catalog": _cmd_catalog,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    code, error = EXIT_UNDETERMINED, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            if args.jobs < 1:
                raise ValueError("--jobs must be >= 1")
            code = _HANDLERS[args.subcommand](args)
        except ValueError as exc:
            code, error = EXIT_INPUT, str(exc)
        except WorkerDied:
            error = "a worker process died"
        except MemoryError:
            error = "out of memory"
        except KeyboardInterrupt:
            error = "interrupted"
    # each distinct warning once: complete orients twice, dehn and
    # dehn-profile do too on a presentation's first Dehn query, and a
    # file may repeat a trivial relation
    for message in dict.fromkeys(str(w.message) for w in caught):
        sys.stderr.write(f"warning: {message}\n")
    if error is not None:
        sys.stderr.write(f"error: {error}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
