"""Monitor framework: the base class, the handler table, the violation type.

A :class:`Monitor` is a small online state machine fed the trace stream in
emission order.  It states its checks as *handlers*: one method per trace
category, taking ``(time, *fields)`` in the category's declared order
(:func:`repro.sim.trace.declare`) and marked with :func:`on`.  The handler is
the single definition of the check; two adapters reach it — the
:class:`~repro.verify.bus.MonitorBus` closures on the live path (values
passed as they come, no record built) and :meth:`Monitor.on_record` for a
materialised :class:`~repro.sim.trace.TraceRecord` (offline checking, unit
tests).

Monitors never mutate simulation state; they mirror just enough of it
(per-rank wave counters, marker sets, frozen sources) to evaluate their
invariant, and they reset those mirrors on the failure/restart records so
rollback-recovery runs stay checkable across incarnations.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Container, Dict, Iterable, List,
                    Optional, Tuple)

from repro.sim.trace import SCHEMAS, TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.bus import MonitorBus

__all__ = ["InvariantViolation", "Monitor", "on"]


class InvariantViolation(AssertionError):
    """A protocol invariant observably failed at a specific event.

    Carries the monitor name, the simulation time, and the window of trace
    records leading up to (and including) the offending one.
    """

    def __init__(
        self,
        monitor: str,
        message: str,
        time: float,
        window: Iterable[TraceRecord] = (),
    ) -> None:
        self.monitor = monitor
        self.message = message
        self.time = time
        self.window: List[TraceRecord] = list(window)
        lines = [f"[{monitor}] t={time:.6f}: {message}"]
        if self.window:
            lines.append("event window (oldest first):")
            for record in self.window:
                fields = " ".join(f"{k}={v!r}" for k, v in record.fields)
                lines.append(f"  t={record.time:.6f} {record.category} {fields}")
        super().__init__("\n".join(lines))


def on(*categories: str) -> Callable:
    """Mark a :class:`Monitor` method as the handler of ``categories``.

    The method takes ``(self, time, *fields)`` with the fields named and
    ordered as declared (a field a site may omit defaults to None), or
    ``(self, time, *_, **__)`` when it serves several categories and reads
    none of their fields.
    """
    def mark(method: Callable) -> Callable:
        method.handles = categories
        return method
    return mark


class Monitor:
    """Base class for one online invariant checker."""

    #: stable identifier used in verdicts and violation reports
    name = "monitor"
    #: category -> handler method name, collected from the :func:`on` marks
    handlers: Dict[str, str] = {}
    #: trace categories this monitor consumes — the handler table's keys
    #: unless a subclass that overrides :meth:`on_record` wholesale says
    #: otherwise; None subscribes to everything
    categories: Optional[Tuple[str, ...]] = None
    #: set True to also receive the engine's raw (time, priority, seq) pops
    wants_steps = False
    #: the guard: which deployments can emit what this monitor checks, as
    #: the ``DeploymentSpec.protocol`` / ``.recovery_policy`` values that do
    #: (None = any, a run without a protocol included); matched by
    #: :func:`repro.verify.monitors_for`
    protocols: Optional[Container[str]] = None
    recovery_policies: Optional[Container[str]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        handlers = dict(cls.handlers)
        for name, member in vars(cls).items():
            for category in getattr(member, "handles", ()):
                handlers[category] = name
        cls.handlers = handlers
        if handlers and "categories" not in vars(cls):
            cls.categories = tuple(handlers)

    def __init__(self) -> None:
        self.bus: Optional["MonitorBus"] = None
        #: events this monitor actually inspected (for verdict reporting)
        self.checked = 0

    # ------------------------------------------------------------- plumbing
    def attach(self, bus: "MonitorBus") -> None:
        self.bus = bus

    def violation(self, time: float, message: str) -> None:
        """Report an invariant violation (raises unless the bus collects)."""
        if self.bus is not None:
            self.bus.report(self, time, message)
        else:  # standalone monitor, e.g. in unit tests
            raise InvariantViolation(self.name, message, time)

    # ----------------------------------------------------------------- hooks
    def on_record(self, record: TraceRecord) -> None:
        """Consume one materialised record: the generic adapter onto the
        category's handler (a field the record lacks arrives as None)."""
        name = self.handlers.get(record.category)
        if name is None:
            return
        self.checked += 1
        values = SCHEMAS[record.category].values(record.as_dict())
        getattr(self, name)(record.time, *values)

    def on_step(self, time: float, priority: int, seq: int) -> None:
        """Consume one engine heap pop (only when ``wants_steps``)."""

    def finish(self) -> None:
        """End-of-run checks (completeness properties)."""
