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

from typing import List

from repro.mpi.consts import ANY_SOURCE, ANY_TAG
from repro.mpi.message import AppPacket
from repro.mpi.status import Status

__all__ = ["MatchingEngine"]


class _PostedRecv:
    __slots__ = ("source", "tag", "event")

    def __init__(self, source: int, tag: int, event: "Event") -> None:
        self.source = source
        self.tag = tag
        self.event = event

    def matches(self, packet: AppPacket) -> bool:
        return (self.source in (ANY_SOURCE, packet.src)) and (
            self.tag in (ANY_TAG, packet.tag)
        )


class MatchingEngine:
    """Per-rank matching state."""

    def __init__(self, sim: "Simulator", rank: int) -> None:
        self.sim = sim
        self.rank = rank
        # Both queues are scanned linearly and deleted from mid-sequence,
        # which a list does as well as a deque at a fraction of the idle
        # footprint (56 B against 760 B, one pair per rank).
        self.posted: List[_PostedRecv] = []
        self.unexpected: List[AppPacket] = []

    # ----------------------------------------------------------------- post
    def post_recv(self, source: int, tag: int) -> "Event":
        """Post a receive; the event fires with ``(data, Status)``."""
        event = self.sim.event(name=f"recv:r{self.rank}")
        for index, packet in enumerate(self.unexpected):
            if (source in (ANY_SOURCE, packet.src)) and (tag in (ANY_TAG, packet.tag)):
                del self.unexpected[index]
                event.succeed((packet.data, Status(packet.src, packet.tag, packet.nbytes)))
                return event
        self.posted.append(_PostedRecv(source, tag, event))
        return event

    # -------------------------------------------------------------- delivery
    def deliver(self, packet: AppPacket) -> None:
        """Hand an arriving application packet to matching."""
        for index, posted in enumerate(self.posted):
            if posted.matches(packet):
                del self.posted[index]
                posted.event.succeed(
                    (packet.data, Status(packet.src, packet.tag, packet.nbytes))
                )
                return
        self.unexpected.append(packet)

    # --------------------------------------------------------------- failure
    def fail_all(self, error: BaseException) -> None:
        """Fail every posted receive (process/job teardown)."""
        posted, self.posted = self.posted, []
        for recv in posted:
            if not recv.event.triggered:
                recv.event.defused = True
                recv.event.fail(error)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> List[AppPacket]:
        """Copy of the unexpected queue for inclusion in a checkpoint image."""
        return list(self.unexpected)

    def restore(self, packets: List[AppPacket]) -> None:
        """Reload the unexpected queue from a checkpoint image."""
        if self.posted:
            raise RuntimeError("restore() with receives posted")
        self.unexpected = list(packets)

    @property
    def unexpected_bytes(self) -> float:
        return sum(p.nbytes for p in self.unexpected)
