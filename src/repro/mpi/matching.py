"""MPI message matching: posted receives and the unexpected queue.

Matching follows the MPI rules: a receive matches the oldest unexpected
message with a compatible (source, tag); an arriving message matches the
oldest compatible posted receive.  Wildcards ``ANY_SOURCE``/``ANY_TAG`` are
supported.

The unexpected queue is part of a process's checkpointable state (in the real
systems it lives in the process image), so the engine supports snapshot and
restore.  Posted receives are *not* snapshotted: a receive pending at
checkpoint time is an incomplete operation and is re-posted by the restart
replay (see :mod:`repro.mpi.context`).
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.mpi.consts import ANY_SOURCE, ANY_TAG
from repro.mpi.message import AppPacket
from repro.sim.events import Event
from repro.sim.primitives import EMPTY, appended

__all__ = ["MatchingEngine"]

#: a posted receive: ``(source, tag, event)``
_PostedRecv = Tuple[int, int, Event]


class MatchingEngine:
    """Per-rank matching state."""

    def __init__(self, sim: "Simulator", rank: int) -> None:
        self.sim = sim
        self.rank = rank
        # Both queues are scanned linearly and deleted from mid-sequence,
        # which a list does as well as a deque at a fraction of the idle
        # footprint (56 B against 760 B); the unexpected queue, empty
        # nearly always, is a list on demand.
        self.posted: List[_PostedRecv] = []
        self.unexpected: Union[Tuple[()], List[AppPacket]] = EMPTY

    #: its receive events are named ``recv:r<rank>``, derived when read
    event_name = property(lambda self: f"recv:r{self.rank}")

    # ----------------------------------------------------------------- post
    def post_recv(self, source: int, tag: int) -> "Event":
        """Post a receive; the event fires with the message's data."""
        event = Event(self.sim, self)
        for index, packet in enumerate(self.unexpected):
            if (source in (ANY_SOURCE, packet.src)) and (tag in (ANY_TAG, packet.tag)):
                del self.unexpected[index]
                event.succeed(packet.data)
                return event
        self.posted.append((source, tag, event))
        return event

    # -------------------------------------------------------------- delivery
    def deliver(self, packet: AppPacket) -> None:
        """Hand an arriving application packet to matching."""
        for index, (source, tag, event) in enumerate(self.posted):
            if (source in (ANY_SOURCE, packet.src)
                    and tag in (ANY_TAG, packet.tag)):
                del self.posted[index]
                event.succeed(packet.data)
                return
        self.unexpected = appended(self.unexpected, packet)

    # --------------------------------------------------------------- failure
    def fail_all(self, error: BaseException) -> None:
        """Fail every posted receive (process/job teardown)."""
        posted, self.posted = self.posted, []
        for _source, _tag, event in posted:
            if not event.triggered:
                event.defused = True
                event.fail(error)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> List[AppPacket]:
        """Copy of the unexpected queue for inclusion in a checkpoint image."""
        return list(self.unexpected)

    def restore(self, packets: List[AppPacket]) -> None:
        """Reload the unexpected queue from a checkpoint image."""
        if self.posted:
            raise RuntimeError("restore() with receives posted")
        self.unexpected = list(packets) if packets else EMPTY
