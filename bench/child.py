"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with a scrubbed environment, one at a time.  Three
modes:

* ``timed``  — set up, make the one timed call, record wall / CPU / peak RSS;
* ``setup``  — set up and stop: one more sample of ``setup_s``;
* ``traced`` — set up, run once untimed with metrics on (lazy imports done,
  work counts written), then once under ``cProfile`` with metrics off and
  dump the profiler's edge table for ``layers.attribute``.

The simulator is driven only through ``repro.harness`` / ``repro.chaos``
``main(argv)`` and ``repro.perf.workloads.WORKLOADS``.  Results go to
``<out>/child.json``; the workload's own outputs to directories beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import spec


def prepare(workload: spec.Workload, sim_seed: int) -> Callable[[Path, bool], int]:
    """Import what the workload needs; return ``call(out_dir, metrics)``,
    which runs it once, leaves its outputs in ``out_dir`` and returns the
    exit code."""
    seed = str(sim_seed)
    if workload.kind == "figure":
        from repro.harness.__main__ import main

        def call(out_dir: Path, metrics: bool) -> int:
            argv = [workload.target, "--profile", "smoke", "--seed", seed,
                    "--save-dir", str(out_dir)]
            return main(argv + ["--metrics"] if metrics else argv)
    elif workload.kind == "chaos":
        from repro.chaos.__main__ import main

        def call(out_dir: Path, metrics: bool) -> int:
            if metrics:
                os.environ["REPRO_METRICS"] = "1"
            codes = [main([f"--{campaign}", "--seed", seed,
                           "--out", str(out_dir / campaign)])
                     for campaign in spec.CHAOS_CAMPAIGNS]
            return max(codes)
    else:
        from repro.perf.workloads import WORKLOADS
        run_workload = WORKLOADS[workload.target]

        def call(out_dir: Path, metrics: bool) -> int:
            run = run_workload(**spec.SCALE_10K_PARAMS)
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / "run.json", "w") as handle:
                json.dump({"events": run.events}, handle)
            return 0
    return call


def _quietly(call: Callable[[Path, bool], int], out_dir: Path,
             metrics: bool = False) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return call(out_dir, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("timed", "setup", "traced"))
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() just before it "
                             "started this interpreter")
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # one busy process on one core: no migration noise, and a second
        # core cannot buy wall time unseen
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    call = prepare(spec.WORKLOADS[args.workload], args.sim_seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading and
    # this one share an origin: interpreter start and imports are inside
    result = {"setup_s": time.monotonic() - args.spawned_at}

    if args.mode == "timed":
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        result["exit_code"] = _quietly(call, args.out / "run")
        result["wall_s"] = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = ((after.ru_utime + after.ru_stime)
                           - (before.ru_utime + before.ru_stime))
        result["peak_rss_mb"] = after.ru_maxrss / 1024.0  # Linux: KiB
    elif args.mode == "traced":
        import cProfile

        result["warm_exit_code"] = _quietly(call, args.out / "warm", metrics=True)
        # --metrics and the chaos path both leave this set; the profiled run
        # must take the same metrics-off path the timed runs take
        os.environ.pop("REPRO_METRICS", None)
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        try:
            result["exit_code"] = _quietly(call, args.out / "run")
        finally:
            profiler.disable()
        result["traced_wall_s"] = time.perf_counter() - started
        profiler.dump_stats(str(args.out / "profile.pstats"))

    with open(args.out / "child.json", "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
