"""One-shot events for the discrete-event kernel.

Events follow a small, strict life cycle::

    pending --> triggered --> processed

``succeed``/``fail`` move an event to *triggered* and put it on the simulator
heap; when the simulator pops it, its callbacks run exactly once and it becomes
*processed*.  Events are one-shot: triggering twice is a programming error and
raises :class:`RuntimeError`.

A failed event whose failure is never observed (no callbacks and not defused)
re-raises its exception out of :meth:`repro.sim.engine.Simulator.run`; this
mirrors SimPy and turns silently dropped errors into loud test failures.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

__all__ = ["Event", "Timeout", "Condition", "AllOf", "AnyOf"]

# Heap priorities.  Lower runs earlier at equal timestamps.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` and traces: a string, or the object
        the event belongs to, whose ``event_name`` is then read as the label
        (derived when read, so an event formats no string it never shows).
    """

    __slots__ = ("sim", "_name", "callbacks", "_value", "_ok", "_state",
                 "defused", "seq")

    #: life-cycle states
    PENDING = 0
    TRIGGERED = 1
    PROCESSED = 2

    #: events are never tombstones; the engine's pop loop checks
    #: ``item.cancelled`` uniformly on events and timer handles, and a class
    #: attribute keeps the check a plain load despite ``__slots__``
    cancelled = False

    def __init__(self, sim: "Simulator", name: Any = None) -> None:
        self.sim = sim
        self._name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._state = Event.PENDING
        #: set to True once a consumer acknowledged the failure
        self.defused = False

    # ------------------------------------------------------------------ state
    @property
    def name(self) -> Optional[str]:
        name = self._name
        if name is None or name.__class__ is str:
            return name
        return name.event_name

    @name.setter
    def name(self, name: Any) -> None:
        self._name = name

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._state >= Event.TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None while pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception when failed).

        Only meaningful once :attr:`triggered` is true.
        """
        return self._value

    # ------------------------------------------------------------- triggering
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful and schedule its callbacks for *now*."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        # Inline of sim._push(self, 0.0, priority): triggering is the
        # hottest event-creation path and a zero delay needs no validation
        # or addition (simulated times are never -0.0, so now + 0.0 == now).
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        self.seq = seq
        heapq.heappush(sim._heap, (sim._now, priority, seq, self))
        return self

    def succeed_in(self, delay: float, value: Any = None) -> "Event":
        """Mark the event successful with its callbacks due ``delay``
        seconds from now: a :class:`Timeout` whose clock starts when this
        is called rather than when the event was created, so a waiter can
        hold the event while it is still queued for something."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        self.sim._push(self, delay, NORMAL)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed and schedule its callbacks for *now*."""
        if self._state != Event.PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = Event.TRIGGERED
        sim = self.sim  # inline of sim._push(self, 0.0, priority); see succeed
        seq = sim._seq + 1
        sim._seq = seq
        self.seq = seq
        heapq.heappush(sim._heap, (sim._now, priority, seq, self))
        return self

    # ------------------------------------------------------------- processing
    def _process(self) -> None:
        """Run callbacks.  Called by the simulator exactly once."""
        self._state = Event.PROCESSED
        callbacks = self.callbacks
        if callbacks:
            # Detach before running so a callback appending to this event
            # (legal but pointless once processed) cannot extend the loop;
            # when there are no callbacks the existing empty list is kept,
            # which skips an allocation per fire-and-forget event.
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        if self._ok is False and not self.defused:
            # Nobody consumed the failure: surface it from run().
            raise self._value

    def describe(self) -> str:
        """Compact diagnostic label: the event's name (or class) plus the
        names of whatever its callbacks would resume.

        This is what the engine watchdog samples while a zero-time cascade
        spins, so it must work on any event without touching its state:
        bound-method callbacks (``Process._resume``, ``Condition._on_child``)
        expose their owner via ``__self__`` and the owner's ``name`` labels
        the waiter.
        """
        label = self.name or self.__class__.__name__
        waiters = []
        for callback in self.callbacks:
            owner = getattr(callback, "__self__", None)
            if owner is None or owner is self:
                continue
            owner_name = getattr(owner, "name", None)
            if owner_name:
                waiters.append(str(owner_name))
        if waiters:
            return f"{label} -> {','.join(waiters)}"
        return label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = ("pending", "triggered", "processed")[self._state]
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        name: Optional[str] = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim, name=name)
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = Event.TRIGGERED
        sim._push(self, delay, NORMAL)


class Condition(Event):
    """An event that triggers based on the outcomes of child events.

    ``evaluate`` receives (events, number_processed_ok) and returns True once
    the condition holds.  When it triggers successfully its value is a dict
    mapping each *processed* child event to its value.

    Any child failure fails the whole condition immediately (the failure is
    forwarded, the remaining children are left untouched).
    """

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events, name: Optional[str] = None) -> None:
        super().__init__(sim, name=name)
        self.events = tuple(events)
        self._count = 0
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError(f"Condition child {event!r} is not an Event")
            if event.sim is not sim:
                raise ValueError("all condition children must share a simulator")
        if self._evaluate_now():
            return
        for event in self.events:
            if event.processed:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _satisfied(self, count: int) -> bool:
        raise NotImplementedError

    def _evaluate_now(self) -> bool:
        """Handle conditions that are satisfiable at construction time."""
        processed_ok = sum(1 for e in self.events if e.processed and e.ok)
        failed = next((e for e in self.events if e.processed and not e.ok), None)
        if failed is not None:
            failed.defused = True
            self.fail(failed.value)
            return True
        self._count = processed_ok
        if self._satisfied(processed_ok):
            self.succeed(self._collect())
            return True
        return False

    def _collect(self):
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._count += 1
        if self._satisfied(self._count):
            self.succeed(self._collect())


class AllOf(Condition):
    """Triggers when every child has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count >= len(self.events)


class AnyOf(Condition):
    """Triggers when at least one child has succeeded."""

    __slots__ = ()

    def _satisfied(self, count: int) -> bool:
        return count >= 1 or not self.events
