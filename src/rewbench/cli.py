"""Command-line front end.

One invocation runs one subcommand against one input system, chosen
by ``--catalog NAME`` or ``--file PATH``.  Output is text, JSON, or
CSV; identical argv always produces byte-identical output.

Exit codes: 0 the operation succeeded or the checked claim holds,
1 the claim is refuted, 2 the answer is undetermined or a resource
limit was hit, 3 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Optional

from .catalog import _MN_NAME, CatalogEntry, get_entry, list_catalog
from .completion import (
    CompletionLimits,
    check_local_confluence,
    confluence_report_json,
    knuth_bendix,
)
from .congruence import probe_all_pairs, probe_congruence
from .core import (
    ZERO,
    Element,
    Presentation,
    PresentationSyntaxError,
    RewritingSystem,
    StepBudgetExceededError,
    UnorientableRelationError,
    dump_presentation,
    format_element,
    is_zero,
    normalize,
    orient,
    parse_presentation,
)
from .dehn import AREA, NOT_EQUAL, dehn_area, dehn_profile
from .enumeration import growth_series, iter_normal_forms
from .identities import all_hold, verify_mn_identities
from .witnesses import unit_witness_mn, unit_witness_search

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT = 3

# words longer than this have no business on a command line
MAX_CLI_N = 64

FALLBACK_CLI_STEPS = 100_000


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--max-nodes", type=int, default=200_000)

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
    p.add_argument("--max-nodes", type=int, default=1_000_000)

    p = sub.add_parser("dehn-profile",
                       help="max derivation length by total word length")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--slack", type=int, default=4)

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
        raise _CliError("the zero element is not a word here")
    try:
        return p.alphabet.check_word(token)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _catalog_entry(name: str) -> CatalogEntry:
    m = _MN_NAME.match(name)
    if m and int(m.group(1)) > MAX_CLI_N:
        raise _CliError(f"family index is capped at {MAX_CLI_N} "
                        "on the command line")
    try:
        return get_entry(name)
    except KeyError as exc:
        raise _CliError(exc.args[0]) from exc


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
                text = fh.read()
        except OSError as exc:
            raise _CliError(f"cannot read {args.file}: {exc.strerror}") from exc
        try:
            p = parse_presentation(text)
        except PresentationSyntaxError as exc:
            raise _CliError(f"{args.file}: {exc}") from exc
        precedence = args.precedence
    else:
        raise _CliError("an input system is required: --catalog or --file")
    try:
        system = orient(p, precedence)
    except UnorientableRelationError as exc:
        raise _CliError(str(exc)) from exc
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    return p, precedence, system, entry


def _no_source(args: argparse.Namespace) -> None:
    if args.catalog is not None or args.file is not None:
        raise _CliError(f"{args.subcommand} takes no input system")


def _emit_text(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj: object) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list[object]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _no_csv(args: argparse.Namespace) -> None:
    if args.format == "csv":
        raise _CliError(f"{args.subcommand} has no csv form")


def _normalize_budget(system: RewritingSystem) -> Optional[int]:
    return None if system.terminating else FALLBACK_CLI_STEPS


def _cmd_normalize(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    word = _parse_word(p, args.word)
    nf = normalize(system, word, _normalize_budget(system))
    _no_csv(args)
    if args.format == "json":
        _emit_json({"input": args.word, "normalForm": format_element(nf)})
    else:
        _emit_text([format_element(nf)])
    return EXIT_OK


def _cmd_equal(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    u = _parse_word(p, args.u, allow_zero=True)
    v = _parse_word(p, args.v, allow_zero=True)
    budget = _normalize_budget(system)
    nu = normalize(system, u, budget)
    nv = normalize(system, v, budget)
    complete = system.terminating \
        and check_local_confluence(system).locally_confluent
    if nu == nv:
        verdict: Optional[bool] = True
    elif complete:
        verdict = False
    else:
        verdict = None
    _no_csv(args)
    if args.format == "json":
        _emit_json({"u": args.u, "v": args.v, "equal": verdict,
                    "decidedByCompleteSystem": complete})
    else:
        word = "undetermined" if verdict is None else str(verdict).lower()
        _emit_text([f"equal: {word}"])
    if verdict is True:
        return EXIT_OK
    return EXIT_REFUTED if verdict is False else EXIT_UNDETERMINED


def _cmd_confluence(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    report = check_local_confluence(system)
    _no_csv(args)
    if args.format == "json":
        _emit_json(confluence_report_json(report, system))
    else:
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
        _emit_text(lines)
    return EXIT_OK if report.locally_confluent else EXIT_REFUTED


def _cmd_complete(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    limits = CompletionLimits(max_rules=args.max_rules,
                              max_word_len=args.max_word_len,
                              max_steps=args.max_steps)
    try:
        outcome = knuth_bendix(p, precedence, limits)
    except UnorientableRelationError as exc:
        _no_csv(args)
        if args.format == "json":
            _emit_json({"completed": False, "collapsed": True,
                        "reason": str(exc)})
        else:
            _emit_text([f"completed: false, collapsed: {exc}"])
        return EXIT_REFUTED
    _no_csv(args)
    rules = [(r.lhs, format_element(r.rhs)) for r in outcome.system.rules]
    if args.format == "json":
        _emit_json({
            "completed": outcome.completed,
            "steps": outcome.steps,
            "reason": outcome.reason,
            "rules": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in rules],
        })
    else:
        lines = [f"completed: {str(outcome.completed).lower()}, "
                 f"rules: {len(rules)}, steps: {outcome.steps}"]
        if outcome.reason:
            lines.append(f"reason: {outcome.reason}")
        lines.extend(f"{lhs} -> {rhs}" for lhs, rhs in rules)
        _emit_text(lines)
    return EXIT_OK if outcome.completed else EXIT_UNDETERMINED


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    if args.max_len < 0:
        raise _CliError("--max-len must be >= 0")
    forms = list(iter_normal_forms(system, args.max_len))
    if args.format == "json":
        _emit_json({"maxLen": args.max_len, "count": len(forms),
                    "normalForms": [format_element(w) for w in forms]})
    elif args.format == "csv":
        _emit_csv(["length", "word"],
                  [[len(w), format_element(w)] for w in forms])
    else:
        _emit_text([format_element(w) for w in forms])
    return EXIT_OK


def _cmd_growth(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    if args.max_len < 0:
        raise _CliError("--max-len must be >= 0")
    series = growth_series(system, args.max_len)
    if args.format == "json":
        _emit_json({"maxLen": args.max_len, "counts": list(series.counts),
                    "total": series.total()})
    elif args.format == "csv":
        _emit_csv(["length", "count"],
                  [[n, c] for n, c in enumerate(series.counts)])
    else:
        lines = [f"{n}: {c}" for n, c in enumerate(series.counts)]
        lines.append(f"total: {series.total()}")
        _emit_text(lines)
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    p, _, system, entry = _load(args)
    if not system.terminating:
        raise _CliError("witness needs a terminating orientation")
    word = _parse_word(p, args.word)
    nf = normalize(system, word)
    _no_csv(args)
    if is_zero(nf):
        if args.format == "json":
            _emit_json({"word": args.word, "unit": False})
        else:
            _emit_text(["not a unit: the word equals zero"])
        return EXIT_REFUTED
    m = _MN_NAME.match(entry.name) if entry is not None else None
    if m:
        pair = unit_witness_mn(int(m.group(1)), nf)
        method = "constructive"
    else:
        pair = unit_witness_search(system, nf, max_len=args.max_len,
                                   max_nodes=args.max_nodes)
        method = "search"
        if pair is None:
            if args.format == "json":
                _emit_json({"word": args.word, "unit": None,
                            "method": method})
            else:
                _emit_text(["undetermined: no witness within limits"])
            return EXIT_UNDETERMINED
    if args.format == "json":
        _emit_json({"word": args.word, "unit": True, "method": method,
                    "x": format_element(pair.x), "y": format_element(pair.y)})
    else:
        _emit_text([f"x: {format_element(pair.x)}, "
                    f"y: {format_element(pair.y)}"])
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    p, _, system, _ = _load(args)
    if not system.terminating:
        raise _CliError("probe needs a terminating orientation")
    u = _parse_word(p, args.u, allow_zero=True)
    v = _parse_word(p, args.v, allow_zero=True)
    if args.radius < 0:
        raise _CliError("--radius must be >= 0")
    try:
        result = probe_congruence(system, (u, v), args.radius)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _no_csv(args)
    trace_len = len(result.trace.path) if result.trace is not None else None
    if args.format == "json":
        _emit_json({
            "collapsed": result.collapsed,
            "merges": result.merges,
            "traceLength": trace_len,
            "truncated": result.truncated,
            "classCount": result.class_count,
            "radius": result.radius,
            "universeSize": result.universe_size,
        })
    elif result.collapsed:
        _emit_text([f"collapsed: true, merges: {result.merges}, "
                    f"trace length: {trace_len}"])
    else:
        _emit_text([f"collapsed: false, classes: {result.class_count}, "
                    f"truncated: {result.truncated}"])
    return EXIT_OK if result.collapsed else EXIT_UNDETERMINED


def _cmd_probe_all(args: argparse.Namespace) -> int:
    _, _, system, _ = _load(args)
    if not system.terminating:
        raise _CliError("probe-all needs a terminating orientation")
    if args.seed_len < 0 or args.radius < 0:
        raise _CliError("--seed-len and --radius must be >= 0")
    summary = probe_all_pairs(system, args.seed_len, args.radius,
                              jobs=args.jobs)
    if args.format == "json":
        _emit_json({
            "radius": summary.radius,
            "universeSize": summary.universe_size,
            "collapsedCount": summary.collapsed_count,
            "undeterminedCount": summary.undetermined_count,
            "undeterminedWithoutTruncation":
                summary.undetermined_without_truncation,
            "worstTraceLength": summary.worst_trace_len,
            "rows": [{
                "u": format_element(r.u), "v": format_element(r.v),
                "collapsed": r.collapsed, "traceLength": r.trace_len,
                "truncated": r.truncated,
            } for r in summary.rows],
        })
    elif args.format == "csv":
        _emit_csv(
            ["seed_u", "seed_v", "status", "trace_len", "truncated"],
            [[format_element(r.u), format_element(r.v),
              "collapsed" if r.collapsed else "undetermined",
              r.trace_len, r.truncated] for r in summary.rows])
    else:
        _emit_text([
            f"pairs: {len(summary.rows)}, "
            f"collapsed: {summary.collapsed_count}, "
            f"undetermined: {summary.undetermined_count}, "
            f"worst trace length: {summary.worst_trace_len}"])
    return EXIT_OK if summary.undetermined_count == 0 else EXIT_UNDETERMINED


def _cmd_dehn(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    u = _parse_word(p, args.u)
    v = _parse_word(p, args.v)
    try:
        result = dehn_area(p, u, v, max_len=args.max_len,
                           max_nodes=args.max_nodes, precedence=precedence)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _no_csv(args)
    if args.format == "json":
        _emit_json({
            "status": result.status,
            "steps": result.steps,
            "derivation": [format_element(w) for w in result.derivation],
            "reason": result.reason,
        })
    elif result.status == AREA:
        chain = " -> ".join(format_element(w) for w in result.derivation)
        _emit_text([f"area: {result.steps}", f"derivation: {chain}"])
    elif result.status == NOT_EQUAL:
        _emit_text(["not equal"])
    else:
        _emit_text([f"resource limit: {result.reason}"])
    if result.status == AREA:
        return EXIT_OK
    return EXIT_REFUTED if result.status == NOT_EQUAL else EXIT_UNDETERMINED


def _cmd_dehn_profile(args: argparse.Namespace) -> int:
    p, precedence, _, _ = _load(args)
    if args.n_max < 0:
        raise _CliError("--n-max must be >= 0")
    if args.slack < 0:
        raise _CliError("--slack must be >= 0")
    try:
        result = dehn_profile(p, args.n_max, slack=args.slack,
                              precedence=precedence, jobs=args.jobs)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    limited = result.limited_pairs > 0 or bool(result.incomplete_classes)
    if args.format == "json":
        _emit_json({
            "nMax": result.n_max,
            "maxLen": result.max_len,
            "resolvedPairs": result.resolved_pairs,
            "limitedPairs": result.limited_pairs,
            "incompleteClasses": list(result.incomplete_classes),
            "rows": [{
                "n": r.n, "d": r.d,
                "witnessU": format_element(r.witness_u),
                "witnessV": format_element(r.witness_v),
                "limitedPairs": r.limited_pairs,
            } for r in result.rows],
        })
    elif args.format == "csv":
        _emit_csv(
            ["n", "d", "witness_u", "witness_v", "limited_pairs"],
            [[r.n, r.d, format_element(r.witness_u),
              format_element(r.witness_v), r.limited_pairs]
             for r in result.rows])
    else:
        lines = []
        for r in result.rows:
            line = f"D({r.n}) = {r.d}"
            if r.d > 0:
                line += (f"  witness: {format_element(r.witness_u)} ~ "
                         f"{format_element(r.witness_v)}")
            if r.limited_pairs:
                line += f"  limited pairs: {r.limited_pairs}"
            lines.append(line)
        lines.append(f"resolved pairs: {result.resolved_pairs}")
        for label in result.incomplete_classes:
            lines.append(f"incomplete class: {label}")
        _emit_text(lines)
    return EXIT_UNDETERMINED if limited else EXIT_OK


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    _no_source(args)
    if not 1 <= args.n <= MAX_CLI_N:
        raise _CliError(f"--n must be between 1 and {MAX_CLI_N}")
    checks = verify_mn_identities(args.n)
    ok = all_hold(checks)
    _no_csv(args)
    if args.format == "json":
        _emit_json({
            "n": args.n,
            "allHold": ok,
            "checks": [{
                "name": c.name, "word": format_element(c.word),
                "expected": format_element(c.expected),
                "actual": format_element(c.actual), "ok": c.ok,
            } for c in checks],
        })
    else:
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
        _emit_text(lines)
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_catalog(args: argparse.Namespace) -> int:
    _no_source(args)
    if args.action == "list":
        entries = list_catalog()
        if args.format == "json":
            _emit_json([{
                "name": e.name,
                "generators": e.presentation.alphabet.letters,
                "precedence": e.precedence,
                "relationCount": len(e.presentation.relations),
                "provenance": e.provenance,
            } for e in entries])
        elif args.format == "csv":
            _emit_csv(["name", "generators", "precedence", "relations"],
                      [[e.name, e.presentation.alphabet.letters,
                        e.precedence, len(e.presentation.relations)]
                       for e in entries])
        else:
            _emit_text([f"{e.name}: {e.provenance}" for e in entries])
        return EXIT_OK
    if args.name is None:
        raise _CliError("catalog dump needs a name")
    entry = _catalog_entry(args.name)
    _no_csv(args)
    if args.format == "json":
        _emit_json({
            "name": entry.name,
            "generators": entry.presentation.alphabet.letters,
            "precedence": entry.precedence,
            "provenance": entry.provenance,
            "relations": [[format_element(x), format_element(y)]
                          for x, y in entry.presentation.relations],
        })
    else:
        sys.stdout.write(dump_presentation(entry.presentation))
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
    if args.jobs < 1:
        sys.stderr.write("error: --jobs must be >= 1\n")
        return EXIT_INPUT
    handler = _HANDLERS[args.subcommand]
    try:
        return handler(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except StepBudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNDETERMINED
    except BrokenProcessPool:
        sys.stderr.write("error: a worker process died\n")
        return EXIT_UNDETERMINED
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return EXIT_UNDETERMINED


if __name__ == "__main__":
    sys.exit(main())
