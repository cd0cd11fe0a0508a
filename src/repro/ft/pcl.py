"""Pcl: the blocking coordinated checkpointing protocol (Sec. 3, Fig. 2).

Wave life cycle, exactly as the paper describes it:

1. The MPI process of rank 0 starts a wave after ``period`` seconds have
   elapsed since the previous wave's images were all stored; it moves to the
   ``checkpointing`` state and sends markers to every other process.
2. On its first marker, a process enters ``checkpointing`` and sends markers
   to every other process.  After *sending* a marker on a channel, it sends
   no further application message on that channel until its checkpoint
   (send gates / the Nemesis stopper request); after *receiving* a marker on
   a channel, application receptions from it are delayed until the end of
   the local checkpoint (receive freezing with a delayed queue).
3. Once a process holds markers from every other process, the channels are
   flushed: it takes its snapshot (no channel state needs saving), forks,
   and — after the fork pause — reopens its gates, delivers its delayed
   queue and resumes computing while the clone streams the image to the
   checkpoint server concurrently with the resumed application traffic
   (this contention is the Fig. 5 effect).
4. When a process's image is stored it notifies rank 0; rank 0 commits the
   wave on every checkpoint server once all notifications arrived, and only
   then starts the timer for the next wave.
"""

from __future__ import annotations

from typing import List, Set

from repro.ft.protocol import BaseProtocol, BlockingEndpoint
from repro.mpi.message import MarkerPacket
from repro.sim.trace import declare

__all__ = ["PclProtocol", "PclEndpoint"]


declare("ft.enter_wave", __name__, rank=int, wave=int)


class PclEndpoint(BlockingEndpoint):
    """Rank-side quiesce strategy of the blocking protocol: marker flush."""

    def __init__(self, protocol: "PclProtocol", rank: int) -> None:
        super().__init__(protocol, rank)
        self._markers_from: Set[int] = set()

    def _quiesce(self, wave: int, others: List[int]) -> None:
        self._markers_from = set()
        if self.sim.trace.wants("ft.enter_wave"):
            self.sim.trace.record(self.sim.now, "ft.enter_wave",
                                  rank=self.rank, wave=wave)
        # Freeze sends *before* the markers go out: anything already queued
        # precedes the marker (FIFO); nothing may follow it.
        if self.protocol.channel_gating_enabled:
            self.channel.freeze_sends(others)
        if others:
            self._fan_out(others, MarkerPacket, wave)
        else:
            self._cut_complete()

    def on_marker(self, src: int) -> None:
        # after a marker, receptions from that channel wait for the end of
        # the local checkpoint (the delayed receive queue)
        if self.protocol.channel_gating_enabled:
            self.channel.freeze_source(src)
        self._markers_from.add(src)
        if len(self._markers_from) == self.job.size - 1:
            # this rank holds every marker: its channels are flushed
            self._cut_complete()


class PclProtocol(BaseProtocol):
    """Blocking coordinated checkpointing inside MPICH2 (MPICH2-Pcl)."""

    protocol_name = "pcl"
    endpoint_cls = PclEndpoint

    #: test-only knob for repro.verify: setting this False disables the
    #: send gates / Nemesis stopper and the receive freezing, which the
    #: pcl-flush monitor must catch as payload crossing a flushed channel
    #: (never disable outside tests)
    channel_gating_enabled = True
