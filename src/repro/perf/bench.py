"""Run the perf workload suite, compare against the committed baseline.

The contract of ``BENCH_engine.json`` (repo root):

* ``workloads`` — one entry per workload: useful-event count, engine pops,
  best-of-N wall seconds, and ``events_per_sec`` (the regression metric);
* ``meta`` — suite name, repeat count, schema tag.

Regression policy is two independent checks:

* **Determinism** (:func:`compare_counts`) — each workload's ``events`` and
  ``pops`` must match the baseline *exactly*.  The workloads are
  deterministic simulations, so any drift means the kernel's observable
  behaviour changed (an optimisation reordered events, a protocol edit
  moved work) — a hard failure no matter how fast the machine is.
* **Throughput** (:func:`compare_to_baseline`) — ``events_per_sec`` must
  not fall more than ``tolerance`` (default 30%) below the baseline.  This
  is a pure wall-time guard; the head-room absorbs CI-runner noise while
  still catching a lost optimisation (the kernel overhaul is a >2x swing).
  CI runs it in advisory mode (``--wall-advisory``): a slow shared runner
  alone cannot fail the job, because the determinism check already pins
  everything wall time cannot.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.perf.workloads import WORKLOADS, WorkloadRun, suite_params

__all__ = [
    "BenchResult",
    "DEFAULT_BASELINE",
    "DEFAULT_TOLERANCE",
    "run_workload",
    "run_suite",
    "suite_report",
    "load_baseline",
    "compare_to_baseline",
    "compare_counts",
]

#: committed baseline file, resolved relative to the working directory
DEFAULT_BASELINE = "BENCH_engine.json"

#: relative events/sec drop that counts as a regression
DEFAULT_TOLERANCE = 0.30


@dataclass
class BenchResult:
    """One workload's measurement (best wall time over ``repeat`` runs)."""

    name: str
    wall: float
    events: int
    pops: int
    events_per_sec: float
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_seconds": round(self.wall, 6),
            "events": self.events,
            "pops": self.pops,
            "events_per_sec": round(self.events_per_sec, 1),
            "extra": self.extra,
        }


def run_workload(
    name: str,
    params: Optional[Dict[str, Any]] = None,
    repeat: int = 3,
    clock: Callable[[], float] = time.perf_counter,
) -> BenchResult:
    """Measure one workload; keeps the fastest of ``repeat`` runs.

    Best-of-N is the standard microbench reduction: the minimum is the run
    least perturbed by the host, and the workloads are deterministic so
    every run does identical work.
    """
    workload = WORKLOADS[name]
    params = dict(params or {})
    best_wall: Optional[float] = None
    run: Optional[WorkloadRun] = None
    # Pause the cyclic collector while measuring: a collection landing
    # mid-run charges its cost to whichever workload was unlucky.  The
    # workloads allocate freely, so collect eagerly between runs instead.
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, repeat)):
            gc.collect()
            if gc_was_enabled:
                gc.disable()
            started = clock()
            candidate = workload(**params)
            wall = clock() - started
            if gc_was_enabled:
                gc.enable()
            if best_wall is None or wall < best_wall:
                best_wall, run = wall, candidate
    finally:
        if gc_was_enabled:
            gc.enable()
    assert run is not None and best_wall is not None
    wall = max(best_wall, 1e-9)
    return BenchResult(
        name=name,
        wall=wall,
        events=run.events,
        pops=run.pops,
        events_per_sec=run.events / wall if run.events else 0.0,
        extra=run.extra,
    )


def run_suite(suite: str = "smoke", repeat: int = 3,
              only: Optional[List[str]] = None,
              progress: Optional[Callable[[BenchResult], None]] = None,
              ) -> Dict[str, BenchResult]:
    """Measure every workload of ``suite`` in declaration order."""
    params = suite_params(suite)
    results: Dict[str, BenchResult] = {}
    for name in WORKLOADS:
        if only and name not in only:
            continue
        result = run_workload(name, params.get(name, {}), repeat=repeat)
        results[name] = result
        if progress is not None:
            progress(result)
    return results


def suite_report(results: Dict[str, BenchResult], suite: str,
                 repeat: int) -> Dict[str, Any]:
    """The JSON document written to ``BENCH_engine.json``."""
    return {
        "schema": "repro.perf/1",
        "meta": {"suite": suite, "repeat": repeat,
                 "metric": "events_per_sec (fixed work / wall seconds)"},
        "workloads": {name: r.to_dict() for name, r in results.items()},
    }


def load_baseline(path: str = DEFAULT_BASELINE) -> Optional[Dict[str, Any]]:
    """The committed baseline document, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def compare_to_baseline(
    results: Dict[str, BenchResult],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Wall-time regression messages (empty when every workload holds).

    Only workloads present in both the run and the baseline are compared,
    so a smoke run checks cleanly against a full-suite baseline.  This is
    the timing-dependent half of the gate; :func:`compare_counts` is the
    deterministic half.
    """
    regressions: List[str] = []
    for name, entry in baseline.get("workloads", {}).items():
        current = results.get(name)
        want = entry.get("events_per_sec", 0.0)
        if current is None or not want:
            continue
        floor = want * (1.0 - tolerance)
        if current.events_per_sec < floor:
            regressions.append(
                f"{name}: {current.events_per_sec:.0f} events/s is "
                f"{100 * (1 - current.events_per_sec / want):.0f}% below the "
                f"baseline {want:.0f} (tolerance {tolerance:.0%})"
            )
    return regressions


def compare_counts(
    results: Dict[str, BenchResult],
    baseline: Dict[str, Any],
) -> List[str]:
    """Deterministic-count mismatches against the baseline (empty = clean).

    A workload's ``events`` and ``pops`` are functions of its parameters
    and the kernel's deterministic total event order — never of the host —
    so an exact comparison catches behavioural drift that the wall-time
    gate cannot see (and that wall-time noise cannot excuse).  The caveat:
    a *smoke* run's counts differ from the committed *full*-suite baseline
    by design, so callers must only compare counts measured with the
    baseline's own suite parameters (``python -m repro.perf`` checks the
    stored ``meta.suite`` and skips the count check on a suite mismatch).
    """
    mismatches: List[str] = []
    for name, entry in baseline.get("workloads", {}).items():
        current = results.get(name)
        if current is None:
            continue
        want_events = entry.get("events")
        want_pops = entry.get("pops")
        if want_events is not None and current.events != want_events:
            mismatches.append(
                f"{name}: {current.events} events, baseline has "
                f"{want_events} — deterministic workload changed behaviour"
            )
        if want_pops is not None and current.pops != want_pops:
            mismatches.append(
                f"{name}: {current.pops} engine pops, baseline has "
                f"{want_pops} — deterministic workload changed behaviour"
            )
    return mismatches
