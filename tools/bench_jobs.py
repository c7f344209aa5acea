"""Records how the two parallel sweeps scale from one worker to two.

The sweeps are acceptance criterion c05's ``probe_all_pairs`` calls (M1
and M2 with seeds of up to 3 letters, ``dehn-example`` up to 2, radius
9) and c07's ``dehn_profile`` of ``dehn-example`` (n <= 12, slack 1).
Each sweep runs ``REPEATS`` times at ``jobs=1`` and at ``jobs=2``, the
two alternating, and its results must be equal at both worker counts.
One untimed c05 sweep first builds the systems and their probe balls,
which workers inherit under ``fork``, so every timed sweep starts warm.
The record holds every sample, the medians, the ``jobs=1`` / ``jobs=2``
speed-up and the machine's facts.  Run from the repository root:

    python3 tools/bench_jobs.py --out BENCH_jobs.json

The profile at ``jobs=1`` takes a minute or more per repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rewbench.catalog import get_entry  # noqa: E402
from rewbench.congruence import probe_all_pairs  # noqa: E402
from rewbench.dehn import dehn_profile  # noqa: E402

WORKER_COUNTS = (1, 2)
REPEATS = 3
C05_RUNS = (("M1", 3), ("M2", 3), ("dehn-example", 2))


def c05(jobs: int):
    return [probe_all_pairs(get_entry(name).system, seed_len, 9, jobs=jobs)
            for name, seed_len in C05_RUNS]


def c07(jobs: int):
    entry = get_entry("dehn-example")
    return dehn_profile(entry.presentation, 12, slack=1,
                        precedence=entry.precedence, jobs=jobs)


def machine_facts() -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                check=False).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "git_commit": commit,
            "loadavg": os.getloadavg()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_jobs.json"))
    args = parser.parse_args()
    c05(1)  # untimed: builds the catalog systems and their probe balls
    record = {"machine": machine_facts(), "repeats": REPEATS, "sweeps": {}}
    for name, sweep in (("c05_probe_all_pairs", c05),
                        ("c07_dehn_profile", c07)):
        samples = {jobs: [] for jobs in WORKER_COUNTS}
        results = {}
        for _ in range(REPEATS):
            for jobs in WORKER_COUNTS:
                start = time.perf_counter()
                result = sweep(jobs)
                samples[jobs].append(time.perf_counter() - start)
                if results.setdefault(jobs, result) != result:
                    raise AssertionError(f"{name}: jobs={jobs} is not repeatable")
        if results[1] != results[2]:
            raise AssertionError(f"{name}: jobs=1 and jobs=2 differ")
        medians = {jobs: statistics.median(s) for jobs, s in samples.items()}
        record["sweeps"][name] = {
            "samples_s": {f"jobs={j}": s for j, s in samples.items()},
            "median_s": {f"jobs={j}": m for j, m in medians.items()},
            "speedup": medians[1] / medians[2]}
        print(f"{name}: jobs=1 {medians[1]:.2f} s, jobs=2 {medians[2]:.2f} s,"
              f" speed-up {medians[1] / medians[2]:.2f}x", file=sys.stderr)
    record["machine"]["loadavg_end"] = os.getloadavg()
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
