"""Command-line entry: regenerate any table/figure of the paper.

Usage::

    python -m repro.harness fig5 [fig7 ...] [--profile quick|paper|smoke]
                                 [--seed N] [--save-dir results] [--no-save]
    python -m repro.harness all --profile quick
    python -m repro.harness --list
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from repro.ft import RECOVERY_POLICIES
from repro.harness.config import PROFILES, cli_int, get_profile
from repro.harness.figures import EXPERIMENT_IDS, get_experiment
from repro.harness.report import render, save_json

__all__ = ["main"]


def main(argv=None) -> int:
    # what the imports built lives as long as the process: freeze it once,
    # so the collection before each run only walks the runs' objects
    gc.collect()
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help=f"experiment ids ({', '.join(EXPERIMENT_IDS)}) "
                             "or 'all'")
    parser.add_argument("--profile", default="quick", choices=sorted(PROFILES),
                        help="experiment scale (default: quick)")
    parser.add_argument("--seed", type=cli_int(0), default=0)
    parser.add_argument("--save-dir", default="results",
                        help="where to write JSON results")
    parser.add_argument("--no-save", action="store_true")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--jobs", type=cli_int(1), default=None, metavar="N",
                        help="run each figure's grid of independent runs "
                             "on an N-worker process pool (default: the "
                             "REPRO_JOBS environment variable, else "
                             "sequential); results are identical either "
                             "way")
    parser.add_argument("--policy", default=None,
                        choices=RECOVERY_POLICIES,
                        help="restrict the 'recovery' figure to one "
                             "recovery policy series (other figures are "
                             "unaffected; see docs/RECOVERY.md)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect repro.obs metrics for every run and "
                             "embed the snapshots in the figure JSON "
                             "(figures are identical either way; see "
                             "docs/OBSERVABILITY.md)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.experiments) - {"all", *EXPERIMENT_IDS})
    if unknown:
        parser.error(f"unknown experiment id(s) {', '.join(unknown)}; "
                     f"valid: {', '.join(EXPERIMENT_IDS)} or 'all'")
    if args.jobs is not None:
        # Figure modules read REPRO_JOBS through execute_grid, so the flag
        # needs no per-figure plumbing.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.metrics:
        # execute() reads REPRO_METRICS, so pool workers inherit it too.
        os.environ["REPRO_METRICS"] = "1"

    if args.list or not args.experiments:
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0

    requested = list(EXPERIMENT_IDS) if "all" in args.experiments \
        else args.experiments
    profile = get_profile(args.profile, seed=args.seed)
    # --policy overrides one entry of the recovery figure's PARAMS
    overrides = {"recovery": {"policies": (args.policy,)}} if args.policy \
        else {}

    failures = 0
    for experiment_id in requested:
        started = time.time()
        result = get_experiment(experiment_id)(
            profile, **overrides.get(experiment_id, {}))
        elapsed = time.time() - started
        print(render(result))
        print(f"[{experiment_id}] regenerated in {elapsed:.1f}s wall time")
        if not args.no_save:
            path = save_json(result, args.save_dir)
            print(f"[{experiment_id}] saved {path}")
        print()
        if not result.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing shape checks",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
