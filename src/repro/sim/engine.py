"""The simulation event loop.

:class:`Simulator` owns the clock and the event heap.  Heap entries are
``(time, priority, sequence, item)`` tuples; the monotonically increasing
sequence number makes the order a deterministic total order, which is the
backbone of the reproducibility guarantees the benchmark harness relies on.
An item is either an :class:`~repro.sim.events.Event` or a
:class:`TimerHandle` — a cancellable, *re-armable* scheduled callback
returned by :meth:`Simulator.call_at`.

Re-armable timers
-----------------
A :class:`TimerHandle` is a reusable slot: :meth:`TimerHandle.rearm` moves
it to a new fire time without allocating a handle.  Cancelling and
re-arming are both eager and both O(1) on the item: the queued entry is
left in the heap as garbage, and a re-arm takes a fresh sequence number
and pushes a fresh entry.  One test tells live entries from garbage, for
events and timers alike: an entry is live exactly when its sequence number
is its item's current one and the item is not cancelled.  The run loop
fires every live entry in key order; ``tests/sim/
test_kernel_differential.py`` pins this against the naive kernel in
:mod:`repro.sim.reference`, which states that rule and nothing else.

Garbage is discarded when it surfaces — never advancing the clock, never
feeding the watchdog or step listeners — and the heap is compacted in
place once garbage outnumbers live entries, so hot re-rate paths can
re-arm without growing the heap.

:meth:`Simulator.at_instant_end` is the one seam for work that must see a
whole instant: its callbacks run once nothing live is left at the current
time, before the clock moves (the flow scheduler settles and re-rates there
once per instant).  They are not events, so they add no pop.

The optional :class:`Watchdog` turns a zero-time event cascade that never
advances the clock into a :class:`LivelockError` that carries the
repeating event cycle and the processes waiting on the heap, so a stuck
run is a diagnosable artifact instead of a hung pytest.  It counts pops,
not seconds, so it trips at the same pop on every host.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.sim.events import AllOf, AnyOf, Event, Timeout, NORMAL
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

__all__ = [
    "Simulator",
    "SimulationError",
    "DeadlockError",
    "TimeLimitError",
    "LivelockError",
    "TimerHandle",
    "Watchdog",
    "DEFAULT_MAX_SAME_TIME_EVENTS",
]

#: default zero-time cascade budget before the watchdog trips.  A barrier
#: release is a few pops per rank (~1.3k at 337 processes), but a
#: checkpoint wave's markers can land in one instant: two pops per ordered
#: rank pair, 2·N·(N-1), which passes 100k beyond ~224 ranks, so
#: ``execute`` sizes its budget to the job (:meth:`Watchdog.for_ranks`).
#: Real livelocks spin millions of times; 100k trips within a fraction of
#: a second.
DEFAULT_MAX_SAME_TIME_EVENTS = 100_000

#: hot-loop bound for "no time limit": one float compare beats an is-None
#: test plus a compare, and simulated times are always finite
_INF = float("inf")

#: why :meth:`Simulator._loop` stopped
_DONE, _DRAINED, _PAST_BOUND = "done", "drained", "past the bound"


def _live(entry: Tuple[float, int, int, Any]) -> bool:
    """Whether a heap entry fires: it carries its item's current sequence
    number and the item is not cancelled (anything else is garbage)."""
    item = entry[3]
    return item.seq == entry[2] and not item.cancelled


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. time travel)."""


class TimerHandle:
    """A scheduled callback slot: cancellable and re-armable in O(1).

    Returned by :meth:`Simulator.call_at`.  ``(time, seq)`` is the key of
    the handle's queued heap entry.  :meth:`cancel` marks the tombstone
    bit; a cancelled handle's callback is guaranteed never to run.
    :meth:`rearm` reuses the slot for a new fire time, which is what lets
    one flow own one handle for its whole lifetime instead of allocating a
    fresh handle per re-rate.
    """

    __slots__ = (
        "sim",
        "time",
        "seq",
        "queued",
        "callback",
        "args",
        "name",
        "cancelled",
    )

    def __init__(
        self,
        sim: "Simulator",
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        name: Optional[str],
    ) -> None:
        self.sim = sim
        self.time = time
        self.seq = seq
        #: True while an entry keyed ``(time, seq)`` waits in the heap
        self.queued = True
        self.callback = callback
        self.args = args
        self.name = name
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.sim._note_tombstone()

    def rearm(self, delay: float) -> None:
        """Move this timer to fire ``delay`` seconds from now.

        Equivalent — including its effect on the deterministic total event
        order — to ``self.cancel()`` followed by ``sim.call_at(delay,
        self.callback, *self.args)``, without allocating a handle: the
        queued entry becomes garbage and a fresh one is pushed.  An
        already-fired slot is simply pushed again; re-arming a cancelled
        slot is a programming error (cancel() promises the callback never
        runs).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s into the past")
        if self.cancelled:
            raise SimulationError("cannot rearm a cancelled timer")
        sim = self.sim
        superseded = self.queued
        sim._seq += 1
        self.seq = seq = sim._seq
        self.time = time = sim._now + delay
        self.queued = True
        heapq.heappush(sim._heap, (time, NORMAL, seq, self))
        if superseded:
            sim._note_tombstone()

    def _process(self) -> None:
        # The entry was just popped: a rearm from inside the callback has
        # no garbage to leave behind.
        self.queued = False
        self.callback(*self.args)

    def describe(self) -> str:
        """Diagnostic label for watchdog reports; resolves the callback's
        qualified name — and, for a bound method, its owner's ``name``
        (``call:_Pipe._hand_over conn12.ab``) — lazily, so the hot
        scheduling path never pays for it."""
        if self.name:
            return self.name
        target = getattr(self.callback, "__qualname__", None)
        if not target:
            return "timer"
        owner = getattr(getattr(self.callback, "__self__", None), "name", None)
        return f"call:{target} {owner}" if owner else f"call:{target}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<TimerHandle {self.describe()} t={self.time!r} {state}>"


class DeadlockError(SimulationError):
    """The event heap drained before the awaited event completed."""


class TimeLimitError(SimulationError):
    """The simulated-time limit was reached before the awaited event."""


class LivelockError(SimulationError):
    """The engine is processing events but the clock no longer advances.

    Attributes
    ----------
    time:
        Simulated time at which the cascade is stuck.
    cascade_length:
        Number of same-timestamp pops observed before tripping.
    cycle:
        The repeating tail of event descriptions (empty when no exact
        repetition was found; ``cycle_exact`` tells the difference).
    waiting:
        Descriptions of the heap's head events and the processes their
        callbacks would resume — the "who is stuck" stack.
    """

    def __init__(
        self,
        message: str,
        time: float,
        cascade_length: int = 0,
        cycle: Tuple[str, ...] = (),
        cycle_exact: bool = False,
        waiting: Tuple[str, ...] = (),
    ) -> None:
        self.time = time
        self.cascade_length = cascade_length
        self.cycle = tuple(cycle)
        self.cycle_exact = cycle_exact
        self.waiting = tuple(waiting)
        lines = [message]
        if self.cycle:
            label = ("repeating event cycle" if cycle_exact
                     else "most recent same-time events (no exact cycle)")
            lines.append(f"{label} (length {len(self.cycle)}):")
            lines.extend(f"  {entry}" for entry in self.cycle)
        if self.waiting:
            lines.append("event heap head at trip time (who is waiting):")
            lines.extend(f"  {entry}" for entry in self.waiting)
        super().__init__("\n".join(lines))


class Watchdog:
    """Engine progress watchdog: detects zero-time event cascades.

    Parameters
    ----------
    max_same_time_events:
        Trip after this many consecutive event pops without the simulation
        clock advancing.  Must comfortably exceed the largest legitimate
        same-timestamp burst of the workload (see
        :data:`DEFAULT_MAX_SAME_TIME_EVENTS`).
    sample_window:
        Number of event descriptions recorded past the threshold before
        tripping; the cycle report is extracted from this window.
    """

    def __init__(
        self,
        max_same_time_events: int = DEFAULT_MAX_SAME_TIME_EVENTS,
        sample_window: int = 64,
    ) -> None:
        if max_same_time_events < 1:
            raise ValueError("max_same_time_events must be >= 1")
        if sample_window < 4:
            raise ValueError("sample_window must be >= 4")
        self.max_same_time_events = max_same_time_events
        self.sample_window = sample_window
        self.reset()

    @classmethod
    def for_ranks(cls, ranks: int) -> "Watchdog":
        """A watchdog for a job of ``ranks`` ranks.  A checkpoint wave's
        N·(N-1) markers can land in one instant, and each is two pops there
        (its delivery and its hand-over to the channel): past ~224 ranks
        that alone exceeds the default budget.  Twice that, and never
        below the default."""
        return cls(max(DEFAULT_MAX_SAME_TIME_EVENTS, 4 * ranks * (ranks - 1)))

    def reset(self) -> None:
        """Forget all progress state (e.g. before reusing across runs)."""
        self._time: Optional[float] = None
        self._streak = 0
        self._samples: List[str] = []
        self._max_cascade = 0

    @property
    def max_cascade(self) -> int:
        """Longest same-timestamp pop streak seen so far (including the
        streak currently in flight) — an observability figure, updated only
        when the clock advances so the hot path stays one comparison."""
        return max(self._max_cascade, self._streak)

    # ------------------------------------------------------------- observing
    def observe(self, sim: "Simulator", now: float, event: Event) -> None:
        """Called once per popped event, before its callbacks run: by the
        hot loop :meth:`Simulator._loop` (``run`` and
        ``run_until_complete``) and by :meth:`Simulator._fire`, through
        which :meth:`Simulator.step` and the reference kernel pop."""
        if now != self._time:
            self._time = now
            if self._streak > self._max_cascade:
                self._max_cascade = self._streak
            self._streak = 0
            if self._samples:
                self._samples.clear()
        else:
            self._streak += 1
            if self._streak >= self.max_same_time_events:
                self._samples.append(event.describe())
                if len(self._samples) >= self.sample_window:
                    self._trip_cascade(sim, now)

    # -------------------------------------------------------------- tripping
    def _trip_cascade(self, sim: "Simulator", now: float) -> None:
        cycle, exact = self._detect_cycle(self._samples)
        raise LivelockError(
            f"livelock: {self._streak + 1} events processed at "
            f"t={now!r} without the simulation clock advancing "
            f"(threshold {self.max_same_time_events})",
            time=now,
            cascade_length=self._streak + 1,
            cycle=cycle,
            cycle_exact=exact,
            waiting=self._waiting_report(sim),
        )

    @staticmethod
    def _detect_cycle(samples: List[str]) -> Tuple[Tuple[str, ...], bool]:
        """Smallest period whose repetition produces the window's tail."""
        n = len(samples)
        for period in range(1, n // 2 + 1):
            if samples[-period:] == samples[-2 * period:-period]:
                return tuple(samples[-period:]), True
        return tuple(samples[-min(8, n):]), False

    @staticmethod
    def _waiting_report(sim: "Simulator", limit: int = 12) -> Tuple[str, ...]:
        # Garbage goes first, so any amount of it cannot crowd live waiters
        # out of the report.
        return tuple(
            f"t={entry_time!r} prio={priority} seq={seq} {event.describe()}"
            for entry_time, priority, seq, event
            in heapq.nsmallest(limit, filter(_live, sim._heap))
        )


class Simulator:
    """Discrete-event simulator with a deterministic total event order.

    Parameters
    ----------
    seed:
        Root seed for all random streams (see :class:`~repro.sim.rng.RngRegistry`).
    trace:
        Optional tracer; when omitted a disabled tracer is installed so call
        sites never need to branch.
    watchdog:
        Optional :class:`Watchdog`; when armed, every event pop feeds the
        progress checks and a stall raises :class:`LivelockError` out of
        whichever ``run`` variant is driving the loop.
    """

    #: garbage count below which compaction never triggers (a tiny heap
    #: dominated by garbage is not worth a heapify)
    COMPACT_MIN_TOMBSTONES = 64

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Tracer] = None,
        watchdog: Optional[Watchdog] = None,
    ) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._events_processed = 0
        self._tombstones = 0
        self._tombstones_total = 0
        self._compactions = 0
        #: callbacks to run once the current instant has no event left
        #: (:meth:`at_instant_end`); the run loop binds this list, so it is
        #: only ever mutated in place
        self._instant_end: List[Callable[[], None]] = []
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self._watchdog = watchdog
        #: optional :class:`repro.obs.MetricsRegistry`; installed by
        #: :func:`repro.obs.attach_metrics`.  The engine never touches it —
        #: holding the slot here lets every layer reach metrics through the
        #: simulator it already has, without importing repro.obs.
        self.metrics: Optional[Any] = None

    # ---------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total live heap pops processed so far (the `repro.perf`
        denominator); garbage discards are never counted."""
        return self._events_processed

    @property
    def tombstones_total(self) -> int:
        """Cumulative garbage heap entries over the run: queued timers
        cancelled or superseded by :meth:`TimerHandle.rearm` (never
        decremented)."""
        return self._tombstones_total

    @property
    def compactions(self) -> int:
        """Number of in-place heap compactions triggered by garbage."""
        return self._compactions

    # ------------------------------------------------------------- watchdog
    @property
    def watchdog(self) -> Optional[Watchdog]:
        """The armed progress watchdog, or None."""
        return self._watchdog

    # ------------------------------------------------------------- factories
    def event(self, name: Any = None) -> Event:
        """Create a pending one-shot event (``name``: a label, or the object
        the event belongs to; see :class:`~repro.sim.events.Event`)."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: Optional[str] = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Spawn a process driving ``generator``; starts at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event], name: Optional[str] = None) -> AllOf:
        return AllOf(self, events, name=name)

    def any_of(self, events: Iterable[Event], name: Optional[str] = None) -> AnyOf:
        return AnyOf(self, events, name=name)

    def call_at(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        name: Optional[str] = None,
    ) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` seconds.

        Returns a :class:`TimerHandle` whose :meth:`~TimerHandle.cancel`
        guarantees the callback never runs and whose
        :meth:`~TimerHandle.rearm` reuses the slot for a new fire time.
        This is the cheap path for scheduled callbacks: no
        :class:`~repro.sim.events.Event`, no closure, one heap entry.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s into the past")
        self._seq += 1
        handle = TimerHandle(self, self._now + delay, self._seq, callback,
                             args, name)
        heapq.heappush(self._heap, (handle.time, NORMAL, self._seq, handle))
        return handle

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Run ``callback()`` once, after the last event due at the current
        instant and before the clock moves.

        Registration order is run order.  A callback is not an event: it
        pops nothing, feeds neither the watchdog nor the step listeners,
        and leaves ``events_processed`` alone.  Whatever it schedules for
        the current instant still runs at this instant, and a callback
        registered from there runs once that is done.  The callbacks also
        run before :meth:`run` jumps the clock to ``until`` and before
        :meth:`run_until_complete` declares a deadlock on a drained heap
        (only :meth:`peek` never runs them).
        """
        self._instant_end.append(callback)

    def _end_instant(self) -> None:
        callbacks = list(self._instant_end)
        self._instant_end.clear()
        for callback in callbacks:
            callback()

    # ----------------------------------------------------------------- queue
    def _push(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r}s into the past")
        self._seq += 1
        event.seq = self._seq
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _note_tombstone(self) -> None:
        """Account one garbage heap entry; compact when they dominate.

        Compaction is in place (the heap list's identity is load-bearing:
        the run loop holds a local binding) and deterministic — pop order
        depends only on the entry keys, not the heap's internal layout.
        """
        self._tombstones += 1
        self._tombstones_total += 1
        heap = self._heap
        if (self._tombstones > self.COMPACT_MIN_TOMBSTONES
                and self._tombstones * 2 > len(heap)):
            heap[:] = [entry for entry in heap if _live(entry)]
            heapq.heapify(heap)
            self._tombstones = 0
            self._compactions += 1

    def _head(self) -> Optional[Tuple[float, int, int, Any]]:
        """Discard garbage at the heap top; return the next live entry
        (left in place), or None when the heap has drained."""
        heap = self._heap
        while heap:
            if _live(heap[0]):
                return heap[0]
            heapq.heappop(heap)
            self._tombstones -= 1
        return None

    def peek(self) -> float:
        """Time of the next live event, or ``float('inf')`` when empty."""
        entry = self._head()
        return _INF if entry is None else entry[0]

    def step(self) -> None:
        """Process exactly one live event (garbage is discarded)."""
        entry = self._head()
        while self._instant_end and (entry is None or entry[0] > self._now):
            self._end_instant()
            entry = self._head()
        if entry is None:
            raise SimulationError("step() on an empty event heap")
        heapq.heappop(self._heap)
        self._fire(*entry)

    def _fire(self, time: float, priority: int, seq: int, item: Any) -> None:
        """The per-pop observable sequence, as :meth:`_loop` inlines it."""
        self._now = time
        self._events_processed += 1
        # The watchdog sees the event *before* its callbacks run, while
        # the waiting processes are still attached — that is what makes
        # the cycle report name who would have been resumed.
        if self._watchdog is not None:
            self._watchdog.observe(self, time, item)
        # Online monitors observe the raw pop order through the tracer's
        # step listeners (repro.verify's total-order invariant); the
        # list is empty unless a monitor asked for it.
        for listener in self.trace.step_listeners:
            listener(time, priority, seq)
        item._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until!r} is in the past (now={self._now!r})")
        self._loop(Event(self), _INF if until is None else until)
        if until is not None:
            self._now = max(self._now, until)

    def run_until_complete(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, :class:`DeadlockError`
        if the heap drains first, or :class:`TimeLimitError` when ``limit``
        is hit (both are :class:`SimulationError` subclasses).
        """
        stop = self._loop(event, _INF if limit is None else limit)
        if stop == _DRAINED:
            raise DeadlockError(
                f"deadlock: event heap drained before {event!r} completed"
            )
        if stop == _PAST_BOUND:
            raise TimeLimitError(
                f"time limit {limit!r} reached before {event!r} completed"
            )
        if event.ok:
            return event.value
        event.defused = True
        raise event.value

    def _loop(self, event: Event, bound: float) -> str:
        """Fire live entries in key order until ``event`` is processed
        (:data:`_DONE`), nothing is left (:data:`_DRAINED`) or the next
        entry is due after ``bound`` (:data:`_PAST_BOUND`; the clock stays
        at the last fired entry).

        The hot loop: it binds the heap, the listener list, the
        instant-end list (all mutated in place, so the bindings stay live)
        and the watchdog (fixed for a run: nothing arms or disarms one from
        a callback), inlines :meth:`_fire`, and reads the event's state
        slot directly — the ``processed`` property would cost a descriptor
        call per pop.
        """
        heap = self._heap
        pop = heapq.heappop
        listeners = self.trace.step_listeners
        ending = self._instant_end
        watchdog = self._watchdog
        done = Event.PROCESSED
        while event._state != done:
            # Garbage never lies before the clock, so a later heap top
            # means nothing live is left at this instant.
            if ending and (not heap or heap[0][0] > self._now):
                self._end_instant()
                continue
            if not heap:
                return _DRAINED
            entry = pop(heap)
            time, priority, seq, item = entry
            if item.seq != seq or item.cancelled:
                self._tombstones -= 1
                continue
            if time > bound:
                heapq.heappush(heap, entry)
                return _PAST_BOUND
            self._now = time
            self._events_processed += 1
            if watchdog is not None:
                watchdog.observe(self, time, item)
            if listeners:
                for listener in listeners:
                    listener(time, priority, seq)
            item._process()
        return _DONE
