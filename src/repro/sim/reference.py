"""A naive reference kernel, and the kernel-selection factory.

:class:`ReferenceSimulator` is the executable specification of the event
order the optimised kernel must produce.  The spec is one sentence:

    Fire every entry whose seq equals its item's seq and that is not
    cancelled, in key order ``(time, priority, seq)``.

A one-shot event is pushed once, with its own ``seq``; a re-armable timer
slot takes a fresh ``seq`` on every re-arm, so only its latest entry
matches.  The optimised :class:`~repro.sim.engine.Simulator` realises the
spec with a binary heap, lazy garbage discard and in-place compaction,
whose failure modes (a resurrected cancelled timer, a tie-break flipped by
a frozen sequence number, a superseded entry fired) would silently corrupt
figures.  The reference kernel has none of that machinery: each pop is a
full scan for the smallest live entry.  O(n) per pop and proudly so — its
job is to be *obviously* correct, not fast.

The two kernels share the write side (``call_at``, ``_push``, ``rearm``)
and the run methods, so what the differential rig in
``tests/sim/test_kernel_differential.py`` actually compares is the read
side: garbage discard, compaction and the hot run loop.  Anything
observable — pop order, clock, ``events_processed``, step-listener
streams, trace records, monitor verdicts — must match event-for-event.

Kernel selection
----------------
:func:`make_simulator` is how the harness and the perf workloads construct
their simulator.  It honours the ``REPRO_KERNEL`` environment variable
(``fast`` — the default — or ``reference``), which lets the figure-level
byte-equivalence sweeps run the *whole* pipeline on the naive kernel with
no code changes::

    REPRO_KERNEL=reference python -m repro.harness --figure fig5 ...
"""

from __future__ import annotations

import os
from typing import Any, Optional, Tuple

from repro.sim.engine import (
    _DONE,
    _DRAINED,
    _PAST_BOUND,
    Simulator,
    SimulationError,
    Watchdog,
    _live,
)
from repro.sim.events import Event
from repro.sim.trace import Tracer

__all__ = ["ReferenceSimulator", "make_simulator", "KERNEL_ENV", "KERNELS"]

#: environment variable consulted by :func:`make_simulator`
KERNEL_ENV = "REPRO_KERNEL"

#: a heap entry, ``(time, priority, seq, item)``
Entry = Tuple[float, int, int, Any]


class ReferenceSimulator(Simulator):
    """Naive kernel: linear scan for the next live entry.

    Inherits the write side (``call_at``, ``_push``, timer slots,
    ``at_instant_end``), the run methods and every factory from
    :class:`Simulator`; replaces the read side (``peek``, ``step`` and the
    loop behind both run methods) with scans that close an instant
    whenever the next live entry is later (or there is none).  The
    inherited ``_heap`` list is treated as a plain bag of entries — the
    reference kernel never relies on the heap invariant or the tombstone
    count (the inherited compaction may still fire from the write side; it
    only shrinks the bag, which a scan is indifferent to).
    """

    def _scan_next(self) -> Optional[Entry]:
        """The live entry with the smallest key, or None (keys are unique:
        no two entries share a seq)."""
        return min(filter(_live, self._heap), default=None)

    def _scan_live(self) -> Optional[Entry]:
        """:meth:`_scan_next`, once the current instant is closed if nothing
        live is left in it: the :meth:`~Simulator.at_instant_end` callbacks
        run before the clock may move, and what they schedule is scanned
        afresh."""
        while True:
            entry = self._scan_next()
            if not self._instant_end or (
                    entry is not None and entry[0] <= self._now):
                return entry
            self._end_instant()

    def peek(self) -> float:
        entry = self._scan_next()
        return float("inf") if entry is None else entry[0]

    def step(self) -> None:
        entry = self._scan_live()
        if entry is None:
            raise SimulationError("step() on an empty event heap")
        self._heap.remove(entry)
        self._fire(*entry)

    def _loop(self, event: Event, bound: float) -> str:
        while not event.processed:
            entry = self._scan_live()
            if entry is None:
                return _DRAINED
            if entry[0] > bound:
                return _PAST_BOUND
            self._heap.remove(entry)
            self._fire(*entry)
        return _DONE


#: registered kernels, by the name ``REPRO_KERNEL`` selects
KERNELS = {
    "fast": Simulator,
    "reference": ReferenceSimulator,
}


def make_simulator(
    seed: int = 0,
    trace: Optional[Tracer] = None,
    watchdog: Optional[Watchdog] = None,
    kernel: Optional[str] = None,
) -> Simulator:
    """Construct the selected simulation kernel.

    ``kernel`` overrides explicitly; otherwise the ``REPRO_KERNEL``
    environment variable decides (default ``fast``).  An unknown name is a
    hard error — silently falling back would make an equivalence sweep
    vacuously green.
    """
    name = kernel if kernel is not None else os.environ.get(KERNEL_ENV, "fast")
    try:
        cls = KERNELS[name]
    except KeyError:
        raise SimulationError(
            f"unknown simulation kernel {name!r} "
            f"(valid: {', '.join(sorted(KERNELS))})"
        ) from None
    return cls(seed=seed, trace=trace, watchdog=watchdog)
