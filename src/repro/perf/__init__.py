"""The exact event/pop count gate.

Eight deterministic workloads (:mod:`repro.perf.workloads`), one run each,
every ``events``/``pops`` count compared exactly with the committed
``BENCH_engine.json`` (:mod:`repro.perf.bench`, ``python -m repro.perf``).
Wall time is measured elsewhere — ``bench/`` + ``BENCHMARK.json``; see
``docs/PERF.md`` for both.
"""

from repro.perf.bench import (
    DEFAULT_BASELINE,
    compare_counts,
    load_baseline,
    run_suite,
    suite_report,
)
from repro.perf.workloads import SUITES, WORKLOADS, WorkloadRun

__all__ = [
    "WorkloadRun",
    "WORKLOADS",
    "SUITES",
    "DEFAULT_BASELINE",
    "run_suite",
    "suite_report",
    "load_baseline",
    "compare_counts",
]
