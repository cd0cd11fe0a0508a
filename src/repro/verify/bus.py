"""The monitor bus: one subscription, one closure per trace category.

The :class:`MonitorBus` owns the subscription to a simulator's tracer and
keeps a sliding window of recent events so a violation can point at the
offending event context rather than just a message.  It reaches the
monitors' handlers two ways:

* **live** — for each category the bus hands the tracer one closure
  (:meth:`MonitorBus.probe`) that the emitting site ends up calling with
  ``(time, *values)``: window entry (a plain tuple), the interested
  monitors' handlers in bus order, then ``monotone-clock``'s record
  timestamp check inline.  No :class:`~repro.sim.trace.TraceRecord` exists
  unless a violation is reported;
* **generic** — :meth:`MonitorBus.dispatch` feeds a materialised record to
  the same monitors in the same order through :meth:`Monitor.on_record`
  (the offline CLI, unit tests).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.trace import TraceRecord, make_record
from repro.verify.base import InvariantViolation, Monitor
from repro.verify.monitors.engine import MonotoneClockMonitor

__all__ = ["MonitorBus"]

#: what the event window holds: a record (generic path) or the
#: ``(time, category, values, named)`` a live closure was called with
_WindowEntry = Union[TraceRecord, Tuple[float, str, tuple, dict]]


class MonitorBus:
    """Routes a tracer's record stream to a set of monitors.

    Parameters
    ----------
    monitors:
        Monitor instances; each is attached to this bus.
    raise_on_violation:
        When True (the default, used by tests) a violation raises
        :class:`InvariantViolation` at the offending event.  When False
        (harness mode) violations are collected and reported in
        :meth:`verdicts`.
    window:
        Number of recent records retained as the violation's event window.
    """

    def __init__(
        self,
        monitors: Iterable[Monitor],
        raise_on_violation: bool = True,
        window: int = 24,
    ) -> None:
        self.monitors: List[Monitor] = list(monitors)
        self.raise_on_violation = raise_on_violation
        self.violations: List[InvariantViolation] = []
        self._window: Deque[_WindowEntry] = deque(maxlen=window)
        #: bound once: delivery runs per record, tens of thousands per run
        self._window_append = self._window.append
        self._by_category: Dict[str, List[Monitor]] = {}
        self._wildcards: List[Monitor] = []
        #: category -> flat [interested..., wildcards...] list, built lazily
        self._route: Dict[str, List[Monitor]] = {}
        self._steppers: List[Monitor] = []
        self._tracer = None
        self._step_callbacks: List = []
        for monitor in self.monitors:
            monitor.attach(self)
            if monitor.categories is None:
                self._wildcards.append(monitor)
            else:
                for category in monitor.categories:
                    self._by_category.setdefault(category, []).append(monitor)
            if monitor.wants_steps:
                self._steppers.append(monitor)

    # ---------------------------------------------------------- attachment
    def categories(self) -> Optional[List[str]]:
        """Union of monitor category interests (None = everything)."""
        if self._wildcards:
            return None
        return sorted(self._by_category)

    def attach(self, sim: "Simulator") -> None:
        """Subscribe to ``sim``'s tracer (records and, if needed, steps)."""
        if self._tracer is not None:
            raise RuntimeError("MonitorBus is already attached")
        self._tracer = sim.trace
        self._tracer.subscribe(self.dispatch, self.categories(),
                               positional=self.probe)
        # The listener list fires once per heap pop, millions of times per
        # run: bound methods go in directly.
        self._step_callbacks = [m.on_step for m in self._steppers]
        self._tracer.step_listeners.extend(self._step_callbacks)

    def detach(self) -> None:
        if self._tracer is None:
            return
        self._tracer.unsubscribe(self.dispatch)
        for callback in self._step_callbacks:
            if callback in self._tracer.step_listeners:
                self._tracer.step_listeners.remove(callback)
        self._step_callbacks = []
        self._tracer = None

    # ------------------------------------------------------------- delivery
    def _routed(self, category: str) -> List[Monitor]:
        route = self._route.get(category)
        if route is None:
            route = self._by_category.get(category, []) + self._wildcards
            self._route[category] = route
        return route

    def dispatch(self, record: TraceRecord) -> None:
        """Feed one materialised record to every interested monitor — the
        generic adapter (the offline CLI calls it for each JSONL record)."""
        self._window_append(record)
        for monitor in self._routed(record.category):
            monitor.on_record(record)

    def probe(self, category: str) -> Optional[Callable[..., None]]:
        """The live entry point of ``category``: a closure taking
        ``(time, *values, **named)`` that delivers in :meth:`dispatch`'s
        order without building a record (None when nobody is interested).
        """
        route = self._routed(category)
        if not route:
            return None
        *handled, clock = route
        if (type(clock) is not MonotoneClockMonitor
                or any(category not in m.handlers for m in handled)):
            # a bus without the clock monitor last, or a monitor that
            # consumes records wholesale (on_record overridden): only
            # tests build those — materialise and deliver generically
            dispatch = self.dispatch
            return lambda time, *values, **named: dispatch(
                make_record(time, category, values, named))
        pairs = tuple((monitor, getattr(monitor, monitor.handlers[category]))
                      for monitor in handled)
        window_append = self._window_append
        slack = clock.RECORD_SLACK

        def deliver(time, *values, **named):
            window_append((time, category, values, named))
            for monitor, handler in pairs:
                monitor.checked += 1
                handler(time, *values, **named)
            # MonotoneClockMonitor.on_record, inlined
            clock.checked += 1
            if time < clock.record_time - slack:
                clock.record_regressed(time, category)
            else:
                clock.record_time = time
        return deliver

    # --------------------------------------------------------------- results
    def report(self, monitor: Monitor, time: float, message: str) -> None:
        window = [entry if isinstance(entry, TraceRecord)
                  else make_record(*entry) for entry in self._window]
        violation = InvariantViolation(monitor.name, message, time,
                                       window=window)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise violation

    def finish(self) -> List[InvariantViolation]:
        """Run end-of-stream checks; returns all collected violations."""
        for monitor in self.monitors:
            monitor.finish()
        return self.violations

    def verdicts(self) -> Dict[str, Dict]:
        """Per-monitor verdict: ok flag, events checked, violation texts."""
        by_monitor: Dict[str, List[str]] = {m.name: [] for m in self.monitors}
        for violation in self.violations:
            by_monitor.setdefault(violation.monitor, []).append(
                violation.message
            )
        return {
            monitor.name: {
                "ok": not by_monitor.get(monitor.name),
                "checked": monitor.checked,
                "violations": by_monitor.get(monitor.name, []),
            }
            for monitor in self.monitors
        }

    @property
    def ok(self) -> bool:
        return not self.violations
