"""A naive reference kernel, and the kernel-selection factory.

:class:`ReferenceSimulator` is the executable specification of the event
order the optimised kernel must produce.  The spec is simple to state:

    Every scheduled item has one *authoritative* position.  For a one-shot
    event that is the ``(time, priority, seq)`` it was pushed with; for a
    re-armable timer slot it is the handle's current ``(time, seq)``
    (updated on every re-arm, which always takes a fresh sequence number).
    The simulation processes live items strictly in ascending authoritative
    order; cancelled items never fire.

The optimised :class:`~repro.sim.engine.Simulator` realises this spec with
a binary heap, lazy tombstones, stale-anchor reconciliation and in-place
compaction — a pile of machinery whose subtle failure modes (a resurrected
cancelled timer, a tie-break flipped by a frozen sequence number, a lazily
moved timer firing at its stale position) would silently corrupt figures.
The reference kernel has none of that machinery: each pop is a full scan
for the minimal authoritative key over the live scheduled items.  O(n) per
pop and proudly so — its job is to be *obviously* correct, not fast.

The two kernels share the write side (``call_at``, ``_push``, ``rearm``
maintain the same slot fields), so what the differential rig in
``tests/sim/test_kernel_differential.py`` actually compares is the entire
read side: garbage discard, reconciliation, compaction and the hot run
loops.  Anything observable — pop order, clock, ``events_processed``,
step-listener streams, trace records, monitor verdicts — must match
event-for-event.

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
    DeadlockError,
    Simulator,
    SimulationError,
    TimeLimitError,
    Watchdog,
)
from repro.sim.events import Event
from repro.sim.trace import Tracer

__all__ = ["ReferenceSimulator", "make_simulator", "KERNEL_ENV", "KERNELS"]

#: environment variable consulted by :func:`make_simulator`
KERNEL_ENV = "REPRO_KERNEL"


class ReferenceSimulator(Simulator):
    """Naive kernel: linear scan for the next live item, eager semantics.

    Inherits the write side (``call_at``, ``_push``, timer slots,
    ``at_instant_end``) and every factory from :class:`Simulator`; replaces
    the read side (``peek``, ``step``, ``run``, ``run_until_complete``)
    with scan-based versions that consult only *authoritative* positions
    and close an instant whenever the next live item is later (or there is
    none).  The inherited ``_heap`` list is treated as a plain bag of
    entries — the reference kernel never relies on the heap invariant,
    tombstone counts, or compaction (the
    inherited compaction may still fire from the write side; it only
    shrinks the bag, which a scan is indifferent to).
    """

    # ------------------------------------------------------------ selection
    def _scan_next(self) -> Optional[Tuple[int, Tuple[float, int, int, Any]]]:
        """Index and authoritative entry of the next live item, or None.

        An entry is live when its item is not cancelled and it is the
        item's current incarnation: for events (one-shot, ``seq`` fixed at
        push) every entry qualifies; for timer slots only the anchor entry
        (``entry seq == handle.heap_seq``) does, and its authoritative key
        is read off the handle, not the entry.
        """
        best_index = -1
        best_key: Optional[Tuple[float, int, int]] = None
        best_item: Any = None
        for index, (etime, priority, eseq, item) in enumerate(self._heap):
            if item.cancelled:
                continue
            iseq = item.seq
            if iseq == eseq:
                key = (etime, priority, eseq)
            else:
                # A timer slot that was re-armed after this entry was
                # pushed: only its anchor stands for it.
                if eseq != item.heap_seq:
                    continue
                key = (item.time, priority, iseq)
            if best_key is None or key < best_key:
                best_index, best_key, best_item = index, key, item
        if best_key is None:
            return None
        return best_index, (best_key[0], best_key[1], best_key[2], best_item)

    def _scan_live(self) -> Optional[Tuple[int, Tuple[float, int, int, Any]]]:
        """:meth:`_scan_next`, once the current instant is closed if nothing
        live is left in it: the :meth:`~Simulator.at_instant_end` callbacks
        run before the clock may move, and what they schedule is scanned
        afresh."""
        while True:
            found = self._scan_next()
            if not self._instant_end or (
                    found is not None and found[1][0] <= self._now):
                return found
            self._end_instant()

    def _take(self, index: int) -> None:
        """Remove one entry from the bag (order is irrelevant to a scan)."""
        heap = self._heap
        last = heap.pop()
        if index < len(heap):
            heap[index] = last

    # ------------------------------------------------------------- read side
    def peek(self) -> float:
        found = self._scan_next()
        if found is None:
            return float("inf")
        return found[1][0]

    def step(self) -> None:
        found = self._scan_live()
        if found is None:
            raise SimulationError("step() on an empty event heap")
        index, (time, priority, seq, item) = found
        self._take(index)
        self._fire(time, priority, seq, item)

    def _fire(self, time: float, priority: int, seq: int, item: Any) -> None:
        """The same per-pop observable sequence as the fast kernel."""
        self._now = time
        self._events_processed += 1
        if self._watchdog is not None:
            self._watchdog.observe(self, time, item)
        listeners = self.trace.step_listeners
        if listeners:
            for listener in listeners:
                listener(time, priority, seq)
        item._process()

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self._now:
            raise SimulationError(
                f"until={until!r} is in the past (now={self._now!r})"
            )
        while True:
            found = self._scan_live()
            if found is None:
                break
            index, (time, priority, seq, item) = found
            if until is not None and time > until:
                break
            self._take(index)
            self._fire(time, priority, seq, item)
        if until is not None:
            self._now = max(self._now, until)

    def run_until_complete(self, event: Event, limit: Optional[float] = None) -> Any:
        while not event.processed:
            found = self._scan_live()
            if found is None:
                raise DeadlockError(
                    f"deadlock: event heap drained before {event!r} completed"
                )
            index, (time, priority, seq, item) = found
            if limit is not None and time > limit:
                raise TimeLimitError(
                    f"time limit {limit!r} reached before {event!r} completed"
                )
            self._take(index)
            self._fire(time, priority, seq, item)
        if event.ok:
            return event.value
        event.defused = True
        raise event.value


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
