"""Opt-in process-pool execution for run grids.

Every figure is a grid of independent :func:`~repro.harness.runner.execute`
calls (each owns its own :class:`~repro.sim.Simulator`), and every chaos
campaign is a list of independent scenarios — embarrassingly parallel work
that the harness historically ran sequentially.  This module provides the
shared machinery:

* :func:`resolve_jobs` — the worker count from an explicit ``--jobs`` value
  or the ``REPRO_JOBS`` environment variable (default 1: sequential);
* :func:`pool_map` — ordered map over a :class:`ProcessPoolExecutor`,
  falling back to a plain loop when one worker suffices;
* :func:`execute_grid` — run a list of ``execute`` keyword dicts, in spec
  order, re-recording each worker's monitor verdicts into the parent's
  active :func:`~repro.harness.runner.monitor_ledger`.

Determinism contract: results are *identical* to sequential execution.
Each run's simulator is seeded independently and shares no state with its
siblings, and ``pool.map`` returns results in submission order, so the only
thing parallelism changes is wall time.
"""

from __future__ import annotations

import gc
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.harness.runner import RunResult, execute, record_run

__all__ = ["resolve_jobs", "pool_imap", "pool_map", "execute_grid"]

T = TypeVar("T")
R = TypeVar("R")

#: environment variable consulted when no explicit job count is given
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: explicit value, else ``REPRO_JOBS``,
    else 1 (sequential).  Never below 1."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(f"{JOBS_ENV}={raw!r} is not an integer")
    return max(1, jobs or 1)


def pool_imap(fn: Callable[[T], R], items: Iterable[T],
              jobs: Optional[int] = None) -> Iterator[R]:
    """Lazily map ``fn`` over ``items``, yielding results in input order.

    With one job (or one item) this is a plain loop in the calling process
    — no pickling, no subprocesses, byte-identical to the historical
    sequential path.  With more, items are dispatched to a process pool;
    ``fn`` and each item must be picklable (top-level functions and plain
    dataclasses).  Either way results come back in submission order, so
    callers see a deterministic stream regardless of worker scheduling.
    """
    items = list(items)
    jobs = min(resolve_jobs(jobs), len(items))
    if jobs <= 1:
        for item in items:
            yield fn(item)
        return
    # imported here: every figure reaches this module through its RunTable,
    # and the sequential default should not pay for multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(fn, items)


def pool_map(fn: Callable[[T], R], items: Iterable[T],
             jobs: Optional[int] = None) -> List[R]:
    """Eager :func:`pool_imap`."""
    return list(pool_imap(fn, items, jobs=jobs))


def _execute_task(kwargs: Dict[str, Any]) -> RunResult:
    """Top-level worker: one ``execute`` call (picklable by name)."""
    return execute(**kwargs)


def execute_grid(tasks: Sequence[Dict[str, Any]],
                 jobs: Optional[int] = None) -> List[RunResult]:
    """Run a grid of ``execute`` keyword dicts, results in ``tasks`` order.

    Worker processes have no access to the parent's monitor ledger, so each
    result's verdict and metrics (carried in ``RunResult.meta``) are
    re-recorded here — in grid order — making the figure wrappers' ledgers
    identical whether the grid ran sequentially or in a pool.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        results = []
        for kwargs in tasks:
            # A finished run's simulation is cyclic garbage (processes,
            # events and their callbacks refer to one another) that only
            # the cyclic collector frees; collect it before the next run
            # grows, so a grid's peak memory is its largest run's.
            gc.collect()
            results.append(execute(**kwargs))
        return results
    results = pool_map(_execute_task, tasks, jobs=jobs)
    for result in results:
        record_run(result.meta)
    return results
