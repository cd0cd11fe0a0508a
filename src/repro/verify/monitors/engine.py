"""What the event kernel promises: a monotone clock and the deterministic
total order.  The monitor reads the raw heap-pop stream (``wants_steps``)
and rides on every run; that the clock keeps advancing is the engine
:class:`~repro.sim.engine.Watchdog`'s check."""

from __future__ import annotations

from repro.sim.trace import TraceRecord
from repro.verify.base import Monitor

__all__ = ["MonotoneClockMonitor"]


class MonotoneClockMonitor(Monitor):
    """Simulation time is monotone; event pops follow the total order.

    Events scheduled *while processing* a same-timestamp event legally pop
    after it despite a more urgent (priority, seq) key, so the checkable
    property is: within one timestamp, a pop must never be preceded by the
    pop of a *later-pushed* (higher seq) event of equal or lower urgency —
    an earlier-pushed event at equal-or-higher urgency can never still be
    pending when a dominated one pops.
    """

    name = "monotone-clock"
    categories = None  # every record carries a timestamp to check
    wants_steps = True

    #: record timestamps may trail the last one by float residue only
    RECORD_SLACK = 1e-12

    def __init__(self) -> None:
        super().__init__()
        self.step_time = -1.0
        # Highest seq popped at the current timestamp, split by the engine's
        # two priority levels (URGENT=0, NORMAL=1).  Scalars, not a dict:
        # this method runs once per heap pop, millions of times per run.
        self.max_urgent = -1
        self.max_normal = -1
        self.record_time = -1.0

    def on_step(self, time: float, priority: int, seq: int) -> None:
        self.checked += 1
        if time != self.step_time:
            if time < self.step_time:
                self.violation(
                    time,
                    f"event pop at t={time} after a pop at t={self.step_time} "
                    "— the simulation clock ran backwards",
                )
            self.step_time = time
            if priority:
                self.max_normal = seq
                self.max_urgent = -1
            else:
                self.max_urgent = seq
                self.max_normal = -1
            return
        # A pop is dominated when an event popped earlier at this timestamp
        # had equal-or-lower urgency (priority >= ours) yet a higher seq
        # (pushed later): we were already pending and should have won.
        if priority:
            if self.max_normal > seq:
                self.violation(
                    time,
                    f"event (priority={priority}, seq={seq}) popped after "
                    f"(priority=1, seq={self.max_normal}) at the same "
                    f"t={time} although it was pushed earlier at equal or "
                    "higher urgency — deterministic total order broken",
                )
            else:
                self.max_normal = seq
        else:
            worst = self.max_normal if self.max_normal > self.max_urgent \
                else self.max_urgent
            if worst > seq:
                self.violation(
                    time,
                    f"event (priority={priority}, seq={seq}) popped after "
                    f"(seq={worst}) at the same t={time} although it was "
                    "pushed earlier at equal or higher urgency — "
                    "deterministic total order broken",
                )
            if seq > self.max_urgent:
                self.max_urgent = seq

    def on_record(self, record: TraceRecord) -> None:
        # The bus inlines this comparison into its per-category closures
        # (one frame less per record); the report below is shared.
        self.checked += 1
        if record.time < self.record_time - self.RECORD_SLACK:
            self.record_regressed(record.time, record.category)
        else:
            self.record_time = record.time

    def record_regressed(self, time: float, category: str) -> None:
        self.violation(
            time,
            f"trace record {category!r} at t={time} emitted "
            f"after a record at t={self.record_time} — simulation "
            "clock ran backwards",
        )
