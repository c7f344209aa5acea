"""Benchmark self-test: traced work counts must repeat exactly.

Runs every workload twice with ``--trace 1`` on one small seed, each
run in its own process (so string hashing differs between them), and
compares the deterministic counts of the two records: traced call
counts, traced work totals and the counts taken from public results.
It also checks that the tracer patched the by-name imports the package
relies on.  Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Exit status 0 when every workload repeats its counts, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3

# Namespaces that import a traced function by name; a wrapper missing
# from any of them would hide that layer's calls.
MUST_PATCH = {
    "product": "rewbench.congruence.product",
    "normalize": "rewbench.completion.normalize",
    "check_local_confluence": "rewbench.dehn.check_local_confluence",
    "growth_series": "rewbench.congruence.growth_series",
}


def traced_record(workload: str) -> dict:
    code, record, _ = run_child(workload, SEED, 1, True)
    if code != 0 or record is None:
        raise RuntimeError(f"{workload}: run failed (exit {code})")
    return record


def main() -> int:
    status = 0
    for name in WORKLOADS:
        first, second = (traced_record(name) for _ in range(2))
        same = first["trace_counts"] == second["trace_counts"]
        missing = [where for fn, where in MUST_PATCH.items()
                   if where not in first["patched"].get(fn, [])]
        calls = sum(first["trace_counts"]["calls"].values())
        print(f"{name}: {calls} traced calls, counts "
              f"{'repeat' if same else 'DIFFER'}"
              + (f", unpatched: {missing}" if missing else ""))
        if not same:
            for key in ("calls", "counts", "round_counts"):
                a, b = (r["trace_counts"][key] for r in (first, second))
                diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys()
                        if a.get(k) != b.get(k)}
                if diff:
                    print(f"  {key}: {diff}")
        if not same or missing:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
