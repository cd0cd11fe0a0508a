"""Run the workload suite and judge it against the committed baseline.

``BENCH_engine.json`` (repo root) records, per workload, the ``events`` and
``pops`` of one run at the parameters of ``meta.suite``.  The workloads are
deterministic simulations, so :func:`compare_counts` is exact: any drift
means the kernel's observable behaviour changed (an optimisation reordered
events, a protocol edit moved work) — a failure no matter how fast or slow
the machine is.  There is no timing here; wall time, CPU and memory are
``bench/``'s job (``python3 bench/run.py``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.perf.workloads import WORKLOADS, WorkloadRun, suite_params

__all__ = [
    "DEFAULT_BASELINE",
    "run_suite",
    "suite_report",
    "load_baseline",
    "compare_counts",
]

#: committed baseline file, resolved relative to the working directory
DEFAULT_BASELINE = "BENCH_engine.json"


def run_suite(suite: str, only: Optional[List[str]] = None,
              progress: Optional[Callable[[str, WorkloadRun], None]] = None,
              ) -> Dict[str, WorkloadRun]:
    """Run every workload of ``suite`` (or just ``only``) once, in
    declaration order."""
    params = suite_params(suite)
    runs: Dict[str, WorkloadRun] = {}
    for name, workload in WORKLOADS.items():
        if only and name not in only:
            continue
        runs[name] = workload(**params.get(name, {}))
        if progress is not None:
            progress(name, runs[name])
    return runs


def suite_report(runs: Dict[str, WorkloadRun], suite: str) -> Dict[str, Any]:
    """The JSON document written to ``BENCH_engine.json``."""
    return {
        "schema": "repro.perf/1",
        "meta": {"suite": suite},
        "workloads": {name: {"events": run.events, "pops": run.pops}
                      for name, run in runs.items()},
    }


def load_baseline(path: str = DEFAULT_BASELINE) -> Optional[Dict[str, Any]]:
    """The committed baseline document, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def compare_counts(runs: Dict[str, WorkloadRun],
                   baseline: Dict[str, Any]) -> List[str]:
    """Count mismatches of ``runs`` against the baseline (empty = clean).

    Every workload that ran is judged: one the baseline has no row for is a
    failure too, not a pass — a new workload gates from the commit that adds
    it, with its row.  ``runs`` must come from the baseline's own
    ``meta.suite`` (the CLI reads it from there), since another suite's
    counts differ by parameterisation, not by drift.
    """
    rows = baseline.get("workloads", {})
    mismatches: List[str] = []
    for name, run in runs.items():
        if name not in rows:
            mismatches.append(
                f"{name}: no row in the baseline — nothing to compare "
                "against; record it with --update")
            continue
        for key, label, got in (("events", "events", run.events),
                                ("pops", "engine pops", run.pops)):
            want = rows[name][key]
            if got != want:
                mismatches.append(
                    f"{name}: {got} {label}, baseline has {want} — "
                    "deterministic workload changed behaviour")
    return mismatches
