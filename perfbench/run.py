"""rewbench benchmark: one workload per process, jobs=1, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run times set-up (import, catalog entries and their systems) several
times, each in a fresh process, and keeps the median.  It generates the
workload's inputs from the seed, then repeats the workload's fixed round
of work (one warm-up round, then timed rounds until ``--seconds`` have
passed) and checks every answer after each round.  With ``--trace 1``
one more round runs with every public layer function wrapped (see
``tracing.py``) and the per-layer metrics are reported instead of the
end-to-end ones.

The last stdout line is the result object; the line before it is the
run record (machine, inputs, deterministic work counts), which is also
written under ``perfbench/out/``.  Exit status 1 means a wrong answer
or an error in the program, 2 a missing program or bad arguments.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, WrongAnswer  # noqa: E402

SETUP_REPEATS = 15
# query_ms.p95 needs ten queries above it, so at least 200 distinct
# interactive queries per workload.
TAIL_PERCENTILE = 95
TAIL_QUERIES = 200
MIN_ROUNDS = 3
MODULES = ("core", "matcher", "completion", "catalog", "enumeration",
           "witnesses", "congruence", "dehn", "identities", "cli")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_ms.p50": "ms",
                    f"query_ms.p{TAIL_PERCENTILE}": "ms", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def import_package() -> SimpleNamespace:
    try:
        package = importlib.import_module("rewbench")
        mods = {m: importlib.import_module(f"rewbench.{m}") for m in MODULES}
    except ImportError as exc:
        raise MissingProgram(f"cannot import rewbench: {exc}") from exc
    if ROOT / "src" not in Path(package.__file__).resolve().parents:
        raise MissingProgram(f"rewbench imported from outside this checkout: "
                             f"{package.__file__}")
    return SimpleNamespace(package=package, **mods)


def import_oracles():
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise MissingProgram("tests/oracles.py is missing")
    sys.modules.pop("oracles", None)
    return importlib.import_module("oracles")


# One set-up in a fresh interpreter, so that each repeat also pays for
# the standard-library modules rewbench imports.  Arguments: the src
# directory, the modules, then the entry names (none: the whole catalog).
# Prints the seconds taken.
SETUP_CHILD = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in ["rewbench"] + ["rewbench." + m for m in sys.argv[2].split(",")]:
    importlib.import_module(name)
catalog = sys.modules["rewbench.catalog"]
names = sys.argv[3:]
for entry in ([catalog.get_entry(n) for n in names] if names
              else catalog.list_catalog()):
    entry.system
print(time.perf_counter() - t0)
"""


def time_setups(workload, count: int, errors: list) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"),
            ",".join(MODULES), *(workload.entries or ())]
    times = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            errors.append(f"set-up: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
            break
        times.append(float(proc.stdout))
    return times


def build_entries(rb, workload) -> dict:
    if workload.entries is None:
        entries = {e.name: e for e in rb.catalog.list_catalog()}
    else:
        entries = {name: rb.catalog.get_entry(name) for name in workload.entries}
    for entry in entries.values():
        entry.system
    return entries


def run_round(ops, tracer=None):
    """Runs every op once; returns wall time, latencies and results."""
    latencies = []
    results = []
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.query = f"{i}:{op.kind}"
        t0 = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a crash in the program is a failed op
            result, error = None, exc
        t1 = clock()
        results.append((result, error))
        if op.interactive:
            latencies.append(t1 - t0)
    return clock() - start, latencies, results


def check_round(ops, results, errors: list) -> tuple[Counter, int]:
    counts: Counter = Counter()
    failed = 0
    for op, (result, error) in zip(ops, results):
        if error is not None:
            failed += 1
            errors.append(f"{op.kind}: raised {error!r}")
            continue
        try:
            counts.update(op.check(result))
        except WrongAnswer as exc:
            errors.append(f"{op.kind}: {exc}")
        except Exception as exc:  # the reference itself rejected the answer
            errors.append(f"{op.kind}: check raised {exc!r}")
    return counts, failed


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def machine_facts() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((ROOT / "src").rglob("*.py")))}


def git_commit():
    """HEAD's commit, or None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def layer_metrics(tracer: Tracer, round_counts: Counter, overhead: float,
                  failed_frac: float) -> dict:
    calls, busy, counts = tracer.calls, tracer.busy, tracer.counts
    frac = lambda num, den: num / den if den else 0.0
    m = {
        "matcher.scan.calls": (calls["matcher.scan"], "count"),
        "matcher.scan.busy_s": (busy["matcher.scan"], "s"),
        "matcher.scan.letters": (counts["matcher.scan.letters"], "letters"),
        "matcher.compile.calls": (calls["matcher.compile"], "count"),
        "matcher.compile.busy_s": (busy["matcher.compile"], "s"),
        "core.normalize.calls": (calls["core.normalize"], "count"),
        "core.normalize.busy_s": (busy["core.normalize"], "s"),
        "core.normalize.letters": (counts["core.normalize.letters"], "letters"),
        "core.normalize.zero_frac": (frac(counts["core.normalize.zero"],
                                          calls["core.normalize"]), "frac"),
        "core.product.calls": (calls["core.product"], "count"),
        "enumeration.calls": (calls["enumeration"], "count"),
        "enumeration.busy_s": (busy["enumeration"], "s"),
        "enumeration.forms": (counts["enumeration.forms"], "count"),
        "congruence.probe.calls": (calls["congruence.probe"], "count"),
        "congruence.probe.busy_s": (busy["congruence.probe"], "s"),
        "congruence.probe.merges": (counts["congruence.probe.merges"], "count"),
        "congruence.probe.truncated": (counts["congruence.probe.truncated"],
                                       "count"),
        "congruence.probe.collapsed_frac": (
            frac(counts["congruence.probe.collapsed"],
                 calls["congruence.probe"]), "frac"),
        "congruence.sweep.busy_s": (busy["congruence.sweep"], "s"),
        "witnesses.search.calls": (calls["witnesses.search"], "count"),
        "witnesses.search.busy_s": (busy["witnesses.search"], "s"),
        "witnesses.search.found_frac": (
            frac(counts["witnesses.search.found"],
                 calls["witnesses.search"]), "frac"),
        "witnesses.search.context_len": (
            counts["witnesses.search.context_len"], "letters"),
        "completion.kb.calls": (calls["completion.kb"], "count"),
        "completion.kb.busy_s": (busy["completion.kb"], "s"),
        "completion.kb.rules_added": (counts["completion.kb.rules_added"],
                                      "count"),
        "completion.kb.completed_frac": (
            frac(counts["completion.kb.completed"], calls["completion.kb"]),
            "frac"),
        "completion.critical_pairs.calls": (calls["completion.critical_pairs"],
                                            "count"),
        "completion.critical_pairs.busy_s": (busy["completion.critical_pairs"],
                                             "s"),
        "completion.critical_pairs.pairs": (
            counts["completion.critical_pairs.pairs"], "count"),
        "dehn.profile.calls": (calls["dehn.profile"], "count"),
        "dehn.profile.busy_s": (busy["dehn.profile"], "s"),
        "dehn.profile.resolved_pairs": (counts["dehn.profile.resolved_pairs"],
                                        "count"),
        "dehn.profile.limited_pairs": (counts["dehn.profile.limited_pairs"],
                                       "count"),
        "dehn.area.calls": (calls["dehn.area"], "count"),
        "dehn.area.busy_s": (busy["dehn.area"], "s"),
        "dehn.area.steps": (counts["dehn.area.steps"], "count"),
        "dehn.area.limited": (counts["dehn.area.limited"], "count"),
        "cli.calls": (calls["cli"], "count"),
        "cli.busy_s": (busy["cli"], "s"),
        "cli.output_bytes": (round_counts["cli_output_bytes"], "bytes"),
        "catalog.build.busy_s": (busy["catalog.build"], "s"),
        "trace.overhead_s": (overhead, "s"),
        "failed_frac": (failed_frac, "frac"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    rb = import_package()
    oracles = import_oracles()
    errors: list[str] = []
    setup_times = time_setups(workload, 1, errors)
    entries = build_entries(rb, workload)
    try:
        prepared = workload.prepare(rb, oracles, entries,
                                    random.Random(f"{name}/{seed}"))
    except WrongAnswer as exc:
        errors.append(f"inputs: {exc}")
        prepared = None
    rounds = prepared.rounds if prepared else []
    # Latency sums per interactive query, by round list and position.
    query_sums = [[0.0] * sum(op.interactive for op in ops) for ops in rounds]
    if rounds and sum(map(len, query_sums)) < TAIL_QUERIES:
        errors.append(f"fewer than {TAIL_QUERIES} interactive queries")

    start = time.perf_counter()
    walls: list[float] = []
    attempted = failed = 0
    # Work counts per round list; they must repeat whenever a list does.
    # The first list's counts (also the traced round's) go in the record.
    set_counts: dict[int, Counter] = {}
    if rounds:
        _, _, results = run_round(rounds[0])  # warm-up: caches, lazy set-up
        set_counts[0], failed = check_round(rounds[0], results, errors)
        attempted = set_counts[0]["attempted"]

    def more_rounds() -> bool:
        """Whole cycles through the round lists, so that each list weighs
        the same in every run; stop at the cycle end nearest --seconds."""
        done = len(walls)
        if done < MIN_ROUNDS or done % len(rounds):
            return True
        cycle_time = sum(walls[-len(rounds):])
        return time.perf_counter() - start + cycle_time / 2 < seconds

    while rounds and not errors and more_rounds():
        k = len(walls) % len(rounds)
        wall, lat, results = run_round(rounds[k])
        counts, bad = check_round(rounds[k], results, errors)
        walls.append(wall)
        query_sums[k] = [a + b for a, b in zip(query_sums[k], lat)]
        attempted += counts["attempted"]
        failed += bad
        if set_counts.setdefault(k, counts) != counts:
            errors.append("work counts differ between rounds of one list")
        # Set-ups run between rounds, spread over the run: the machine
        # drifts between slow and fast phases of a few seconds, and
        # set-ups made back to back would all land in one phase.
        due = 1 + int((time.perf_counter() - start) * SETUP_REPEATS / seconds)
        setup_times += time_setups(workload, min(due, SETUP_REPEATS)
                                   - len(setup_times), errors)
    setup_times += time_setups(workload, SETUP_REPEATS - len(setup_times),
                               errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Runs stop at a cycle end, so every query ran the same number of times.
    cycles = len(walls) // len(rounds) if rounds else 0
    latencies = [total / cycles for sums in query_sums for total in sums
                 if cycles]
    round_counts = set_counts.get(0, Counter())
    failed_frac = (round_counts["undetermined"] / round_counts["attempted"]
                   if rounds else 0.0)

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "jobs": 1, "machine": machine_facts(),
              "inputs": prepared.inputs if prepared else {},
              "rounds": len(walls), "round_wall_s": walls,
              "queries": len(latencies),
              "setup_s_samples": setup_times,
              "round_counts": dict(sorted(round_counts.items())),
              "failed_frac": failed_frac}

    metrics = {}
    if walls and not errors and trace:
        tracer = Tracer()
        tracer.install(rb.package)
        tracer.active = True
        tracer.query = "setup"
        build_entries(rb, workload)
        traced_wall, _, results = run_round(rounds[0], tracer)
        tracer.active = False
        traced_counts, bad = check_round(rounds[0], results, errors)
        failed += bad
        overhead = traced_wall - statistics.fmean(walls[::len(rounds)])
        metrics = layer_metrics(tracer, traced_counts, overhead, failed_frac)
        record["trace_counts"] = {
            "calls": dict(sorted(tracer.calls.items())),
            "counts": dict(sorted(tracer.counts.items())),
            "round_counts": dict(sorted(traced_counts.items()))}
        record["patched"] = tracer.patched
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    elif cycles and not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(walls),
            "query_ms.p50": statistics.median(latencies) * 1000,
            f"query_ms.p{TAIL_PERCENTILE}":
                percentile(latencies, TAIL_PERCENTILE) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}

    correct = not errors
    record["metrics"] = metrics
    record["errors"] = errors[:20]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in errors[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_child(name: str, seed: int, seconds: int, trace: bool):
    """Runs one workload in its own process; returns its exit status,
    run record and result (both None when it printed none)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return (proc.returncode, json.loads(lines[-2])["record"],
            json.loads(lines[-1]))


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Runs each workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        code, record, result = run_child(name, seed, seconds, trace)
        if code != 0 or result is None:
            print(f"{name}: FAILED (exit {code})")
            status = 1
            if result is None:
                continue
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:36s} {metric['value']:>14.6g} {metric['unit']}")
        if not trace:
            print(f"  {'failed_frac':36s} {record['failed_frac']:>14.6g} frac")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
