"""The count gate's CLI.

Run the suite the baseline records and compare every count exactly (CI's
perf-gate job)::

    python -m repro.perf

Refresh the baseline after an intentional behaviour change::

    python -m repro.perf --update

``--only`` restricts the check to named workloads; ``--baseline`` points at
another baseline file, which also names the suite to run (``meta.suite``).
Every invocation either compares or rewrites: there is no way to run the
suite and exit 0 without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.perf.bench import (
    DEFAULT_BASELINE,
    compare_counts,
    load_baseline,
    run_suite,
    suite_report,
)
from repro.perf.workloads import WORKLOADS, WorkloadRun


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Run the deterministic workload suite and fail on any "
                    "events/pops count that differs from the committed "
                    "BENCH_engine.json baseline.",
    )
    parser.add_argument("--only", nargs="+", choices=sorted(WORKLOADS),
                        help="check only these workloads")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON path (default {DEFAULT_BASELINE})")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run's counts")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.update and args.only:
        parser.error("--update rewrites every row of the baseline; "
                     "it cannot be combined with --only")
    baseline = load_baseline(args.baseline)
    if baseline is None:
        parser.error(f"no baseline at {args.baseline}: it names the suite "
                     "to run and holds the counts to compare against")
    # a baseline without one falls through to suite_params' "unknown suite"
    suite = baseline.get("meta", {}).get("suite")

    def progress(name: str, run: WorkloadRun) -> None:
        print(f"  {name:<12} {run.events:>8} events  {run.pops:>8} pops")

    print(f"perf suite {suite!r}:")
    runs = run_suite(suite, only=args.only, progress=progress)

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(suite_report(runs, suite), handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    mismatches = compare_counts(runs, baseline)
    for message in mismatches:
        print(f"REGRESSION {message}", file=sys.stderr)
    if mismatches:
        return 1
    print(f"{len(runs)} workload(s) match {args.baseline} exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
