"""Perf-suite CLI.

Run the suite and check against the committed baseline (CI's perf-smoke
job)::

    python -m repro.perf --suite smoke

Refresh the baseline after an intentional perf change::

    python -m repro.perf --suite full --update

``--no-check`` measures without judging; ``--only`` restricts to named
workloads; ``--json`` additionally writes the report somewhere else.

The check has two halves (see :mod:`repro.perf.bench`): exact
``events``/``pops`` counts (deterministic, always gating when the run's
suite matches the baseline's) and events/sec wall throughput (noisy;
``--wall-advisory`` demotes its failures to warnings so a slow CI runner
alone cannot fail the job).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.perf.bench import (
    DEFAULT_BASELINE,
    DEFAULT_TOLERANCE,
    compare_counts,
    compare_to_baseline,
    load_baseline,
    run_suite,
    suite_report,
)
from repro.perf.workloads import SUITES, WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Measure the engine/harness workload suite and fail on "
                    "events/sec regression vs. the committed "
                    "BENCH_engine.json baseline.",
    )
    parser.add_argument("--suite", default="smoke", choices=sorted(SUITES),
                        help="workload sizes (default: smoke)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per workload, best wall time kept "
                             "(default 3)")
    parser.add_argument("--only", nargs="*", choices=sorted(WORKLOADS),
                        help="run only these workloads")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline JSON path (default {DEFAULT_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative events/sec drop "
                             "(default 0.30)")
    parser.add_argument("--no-check", action="store_true",
                        help="measure only; skip the baseline comparison")
    parser.add_argument("--wall-advisory", action="store_true",
                        help="report events/sec regressions as warnings "
                             "instead of failures; the deterministic "
                             "events/pops count check still gates")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report JSON here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    def progress(result) -> None:
        print(f"  {result.name:<12} {result.events_per_sec:>12.0f} events/s"
              f"  ({result.events} events, {result.wall * 1e3:.1f} ms wall)")

    print(f"perf suite {args.suite!r} (best of {args.repeat}):")
    results = run_suite(args.suite, repeat=args.repeat, only=args.only,
                        progress=progress)

    baseline = load_baseline(args.baseline)
    report = suite_report(results, args.suite, args.repeat)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report: {args.json}")

    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if args.no_check:
        return 0
    if baseline is None:
        print(f"no baseline at {args.baseline}; run with --update to create "
              "one", file=sys.stderr)
        return 0
    if args.only:
        baseline = dict(baseline)
        baseline["workloads"] = {
            name: entry
            for name, entry in baseline.get("workloads", {}).items()
            if name in args.only
        }
    failures: List[str] = []
    baseline_suite = (baseline.get("meta") or {}).get("suite")
    if baseline_suite == args.suite:
        failures.extend(compare_counts(results, baseline))
    else:
        print(f"note: counts not compared (run suite {args.suite!r} != "
              f"baseline suite {baseline_suite!r})")
    wall_regressions = compare_to_baseline(results, baseline,
                                           tolerance=args.tolerance)
    if args.wall_advisory:
        for message in wall_regressions:
            print(f"ADVISORY {message}", file=sys.stderr)
    else:
        failures.extend(wall_regressions)
    if failures:
        for message in failures:
            print(f"REGRESSION {message}", file=sys.stderr)
        return 1
    print("no regressions vs. baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
