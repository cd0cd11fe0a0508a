"""Synchronization primitives built on events.

* :class:`Store` — an unbounded FIFO queue with event-returning ``get``; the
  workhorse behind sockets, progress-engine inboxes and server request queues.
* :class:`Resource` — a counted resource with FIFO grant order; models bounded
  things such as the number of concurrent ssh connections or a disk.
* :class:`Gate` — a reusable open/closed barrier.

Queues are allocated on demand.  A 10,000-rank job holds ~100,000 of these
objects and nearly all of them are idle at any instant, so every queue
attribute starts as the shared immutable :data:`EMPTY` and becomes a real
container on its first enqueue (one identity test per enqueue); an object
that never queued anything owns no container.

Their events are named after them (``get:<store>``, ``acquire:<resource>``,
``gate:<gate>``), derived when read: an event names its primitive, whose
``event_name`` formats the label (see :class:`~repro.sim.events.Event`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple, Union

from repro.sim.events import Event

__all__ = ["EMPTY", "Store", "Resource", "Gate"]

#: the one empty queue every idle holder shares: falsy, ``len() == 0``,
#: iterable — everything the read paths need — and immutable, so a write
#: that forgets the identity test fails loudly instead of leaking into
#: every other holder
EMPTY: Tuple[()] = ()


class Store:
    """Unbounded FIFO of items with event-based consumption.

    ``put`` never blocks.  ``get`` returns an :class:`Event` that succeeds
    with the oldest item as soon as one is available (immediately if the
    store is non-empty).  Waiters are served strictly in request order.

    ``poison`` fails all current and future getters with the given exception —
    this is how broken connections propagate to blocked readers.

    Footprint: the common shape is one reader parked on an empty store (a
    server's or daemon's receive loop), so the oldest waiter lives in the
    ``_getter`` slot and costs no container; ``_more_getters`` (waiters
    behind it) and ``_items`` stay :data:`EMPTY` until a second concurrent
    waiter / a backlog actually appears.  A store that has held a backlog
    keeps its deque (a receiver slower than its sender would otherwise
    reallocate it per message); :meth:`drain` gives it back.
    """

    __slots__ = ("sim", "name", "_items", "_getter", "_more_getters",
                 "_poison")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self._items: Union[Tuple[()], Deque[Any]] = EMPTY
        self._getter: Optional[Event] = None
        self._more_getters: Union[Tuple[()], Deque[Event]] = EMPTY
        self._poison: Optional[BaseException] = None

    def __len__(self) -> int:
        return len(self._items)

    #: its events are named ``get:<store>``, derived when read
    event_name = property(lambda self: f"get:{self.name}")

    def put(self, item: Any) -> None:
        if self._poison is not None:
            raise RuntimeError(f"put() on poisoned store {self.name!r}")
        while (getter := self._getter) is not None:
            more = self._more_getters
            self._getter = more.popleft() if more else None
            # skip cancelled/interrupted waiters: triggered already, or
            # abandoned (the interrupted process removed its callback)
            if not getter.triggered and getter.callbacks:
                getter.succeed(item)
                return
        if self._items is EMPTY:
            self._items = deque((item,))
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = self.sim.event(name=self)
        if self._items:
            event.succeed(self._items.popleft())
        elif self._poison is not None:
            event.fail(self._poison)
        elif self._getter is None:
            self._getter = event
        elif self._more_getters is EMPTY:
            self._more_getters = deque((event,))
        else:
            self._more_getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking get; returns the item or None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def poison(self, exception: BaseException) -> None:
        """Fail all pending and future getters (idempotent)."""
        if self._poison is not None:
            return
        self._poison = exception
        getter, self._getter = self._getter, None
        more, self._more_getters = self._more_getters, EMPTY
        if getter is not None:
            for waiter in (getter, *more):
                if not waiter.triggered:
                    waiter.fail(exception)

    def drain(self) -> Union[Tuple[()], Deque[Any]]:
        """Remove and return all queued items."""
        items, self._items = self._items, EMPTY
        return items


class Resource:
    """Counted resource with FIFO grant order.

    ``acquire`` returns an event that succeeds when a slot is granted;
    ``release`` hands the slot to the next waiter.  There is no ownership
    bookkeeping — callers are trusted to pair acquire/release, matching the
    kernel-style use sites in this codebase.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters", "name")

    def __init__(self, sim: "Simulator", capacity: int, name: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Union[Tuple[()], Deque[Event]] = EMPTY

    #: its events are named ``acquire:<resource>``, derived when read
    event_name = property(lambda self: f"acquire:{self.name}")

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        event = self.sim.event(name=self)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        elif self._waiters is EMPTY:
            self._waiters = deque((event,))
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered or not waiter.callbacks:  # cancelled waiter
                continue
            waiter.succeed()
            return
        if self._in_use <= 0:
            raise RuntimeError(f"release() without acquire on {self.name!r}")
        self._in_use -= 1


class Gate:
    """A reusable open/closed barrier.

    While open, ``wait`` completes immediately; while closed, waiters queue
    until the next ``open()``.  Used by the blocking (Pcl) protocol to freeze
    sends/receives per channel during a checkpoint wave.
    """

    __slots__ = ("sim", "name", "_open", "_waiters")

    def __init__(self, sim: "Simulator", open: bool = True, name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self._open = open
        #: appended to and handed over whole by open(): a list is enough
        self._waiters: Union[Tuple[()], List[Event]] = EMPTY

    #: its events are named ``gate:<gate>``, derived when read
    event_name = property(lambda self: f"gate:{self.name}")

    @property
    def is_open(self) -> bool:
        return self._open

    def close(self) -> None:
        self._open = False

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, EMPTY
        for waiter in waiters:
            if not waiter.triggered and waiter.callbacks:
                waiter.succeed()

    def wait(self) -> Event:
        event = self.sim.event(name=self)
        if self._open:
            event.succeed()
        elif self._waiters is EMPTY:
            self._waiters = [event]
        else:
            self._waiters.append(event)
        return event
