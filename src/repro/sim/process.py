"""Generator-based simulation processes.

A :class:`Process` drives a Python generator: every object the generator
yields must be an :class:`~repro.sim.events.Event`; the generator resumes when
that event is processed, receiving the event's value (or its exception thrown
in when the event failed).

Processes are themselves events — they succeed with the generator's return
value, or fail with its uncaught exception — so they can be joined with
``yield other_process`` or combined in conditions.

Interruption (used to model node failures and protocol aborts) throws
:class:`Interrupt` into the generator at its current yield point and detaches
it from whatever event it was waiting on.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event, URGENT

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`;
    ``args[0]`` is the cause (None when none was given)."""


class Process(Event):
    """An executing generator, schedulable and joinable like an event."""

    __slots__ = ("generator", "_target")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim, name=name or getattr(generator, "__name__", None))
        self.generator = generator
        #: the event this process is currently waiting on (None when running
        #: its first step or already terminated)
        self._target: Optional[Event] = None
        # Kick off the first step as an urgent event at the current time.
        bootstrap = Event(sim, name=f"init:{self.name}")
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed(priority=URGENT)
        self._target = bootstrap

    # ---------------------------------------------------------------- public
    @property
    def alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._state == Event.PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is a no-op, which keeps failure injection
        code simple (a node may die after its processes already finished).
        """
        if not self.alive:
            return
        target = self._target
        if target is not None and not target.processed:
            # Detach from the event we were waiting on; it may still fire but
            # must no longer resume us.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # We were the consumer of that event; if it fails later (e.g. a
            # poisoned store getter) nobody is left to observe the failure.
            target.defused = True
        wakeup = Event(self.sim, name=f"interrupt:{self.name}")
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause), priority=URGENT)
        # The wakeup is now what we are waiting on: a second interrupt in
        # the same instant (e.g. a node kill followed by the job teardown)
        # detaches from it above and replaces it, so the generator sees
        # exactly one Interrupt instead of a throw into a dead generator.
        self._target = wakeup

    # -------------------------------------------------------------- internals
    def _resume(self, event: Event) -> None:
        # Slot reads, not the .ok/.value/.processed properties: one
        # descriptor call each per resume was a visible share of every run.
        self._target = None
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                event.defused = True
                target = self.generator.throw(event._value)
        except StopIteration as exc:
            self.succeed(getattr(exc, "value", None))
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process "cleanly": this is
            # the normal way a killed node's processes disappear.  The cause
            # is preserved as the process failure value so joiners notice,
            # but it is pre-defused so an unjoined killed process does not
            # crash the simulation.
            self.defused = True
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            error = TypeError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
            self.generator.close()
            self.fail(error)
            return
        if target.sim is not self.sim:
            self.generator.close()
            self.fail(ValueError("yielded event belongs to another simulator"))
            return
        if target._state == Event.PROCESSED:
            # Already over: resume immediately (but via the heap to preserve
            # the cooperative-scheduling illusion and determinism).
            relay = Event(self.sim, name=f"relay:{self.name}")
            relay.callbacks.append(self._resume)
            if target._ok:
                relay.succeed(target._value, priority=URGENT)
            else:
                target.defused = True
                relay.fail(target._value, priority=URGENT)
            self._target = relay
        else:
            target.callbacks.append(self._resume)
            self._target = target
