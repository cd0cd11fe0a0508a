"""Dcl: coordinated message-drain checkpointing (counter quiescence).

A third protocol family next to the paper's two: instead of flushing every
channel pairwise with markers (Pcl) or logging in-transit messages at the
daemon (Vcl), Dcl *drains* the network — the topological-sort / Collective
Vector Clock idiom (arXiv:2408.02218, arXiv:2212.05701).  Wave life cycle:

1. Rank 0 starts a wave after ``period`` seconds, enters the ``draining``
   state and broadcasts a drain request to every other process.
2. On the request, a process stops injecting new application sends (send
   gates / the Nemesis stopper — exactly Pcl's machinery) and reports its
   cumulative *committed-send* and *receive* counters to rank 0.  Every
   application packet that still arrives while draining bumps the receive
   counter and triggers a fresh report.
3. Rank 0 declares **counter quiescence** once every rank has reported and
   the reported sends equal the reported receives.  Because sends are
   frozen after a rank's report, the send total is exact and the receive
   total can only grow toward it: equality is reached exactly when the last
   in-flight message arrived — the network is empty.  No per-channel
   markers, no delayed-receive queues, no message logging.
4. Rank 0 then orders the checkpoint: every process forks, streams its
   image to the checkpoint server (replication/quorum as usual) and resumes;
   rank 0 commits the wave once all images are acknowledged.

Because no application message is in flight at fork time, the set of local
images alone is a consistent global state — the ``dcl-network-empty``
monitor (:mod:`repro.verify.monitors.dcl`) checks precisely this, and the
``dcl-drain-liveness`` monitor checks that quiescence lands within
:data:`DRAIN_BUDGET` of the wave start.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ft.protocol import BaseProtocol, BlockingEndpoint
from repro.mpi.message import (
    DrainCountPacket,
    DrainGoPacket,
    MarkerPacket,
    Packet,
)
from repro.sim.trace import declare

__all__ = ["DclProtocol", "DclEndpoint", "DRAIN_BUDGET"]

#: simulated seconds a drain may take from ``ft.wave_started`` to counter
#: quiescence before the ``dcl-drain-liveness`` monitor calls it stalled.
#: Shared between the protocol docs and the monitor so the two never
#: disagree.
DRAIN_BUDGET = 30.0


declare("ft.drain_open", __name__, rank=int, wave=int, sent=int, recvd=int)
declare("ft.drain_quiesced", __name__, wave=int, sent=int, recvd=int,
        elapsed=float, protocol=str)


class DclEndpoint(BlockingEndpoint):
    """Rank-side quiesce strategy of the message-drain protocol: counter
    reports until the initiator's go-order."""

    blocked_state = "draining"

    def __init__(self, protocol: "DclProtocol", rank: int) -> None:
        super().__init__(protocol, rank)
        #: cumulative application sends committed to the wire (see
        #: :meth:`on_app_sent`: counted at the commit point, not at seq
        #: assignment — a packet parked at a closed gate was not sent)
        self.sent = 0
        #: cumulative application packets that arrived at the channel
        self.recvd = 0
        self._report_dirty = False
        #: the chain sending this rank's counter reports, if one ran
        self._reporter = None
        self._local_pending = False

    # ------------------------------------------------------------ drain entry
    def _quiesce(self, wave: int, others: List[int]) -> None:
        if self.sim.trace.wants("ft.drain_open"):
            self.sim.trace.record(self.sim.now, "ft.drain_open",
                                  rank=self.rank, wave=wave,
                                  sent=self.sent, recvd=self.recvd)
        # Freeze new sends before anything else: a commit after the report
        # would make the reported send total stale (see on_app_sent).
        if self.protocol.drain_gating_enabled:
            self.channel.freeze_sends(others)
        if self.rank == 0 and others:
            # the drain request doubles as the wave marker
            self._fan_out(others, MarkerPacket, wave)
        self._counters_changed()

    # ------------------------------------------------------- counter reports
    def _counters_changed(self) -> None:
        """Push the current counters to the initiator (coalesced)."""
        if self.state != "draining":
            return
        if self.rank == 0:
            # Deferred one heap event: if the triggering packet is still in
            # ``handle_packet``, it must reach the matching engine *before*
            # quiescence can order a snapshot, or the message would be
            # counted as received yet missing from the image.
            if not self._local_pending:
                self._local_pending = True
                self.sim.call_at(0.0, self._local_report, self.wave)
        else:
            self._report_dirty = True
            if self._reporter is None or self._reporter.waiting is None:
                self._reporter = self.channel.post_control(
                    self._reports(self.wave), f"dcl:report:r{self.rank}")
                self._helpers.append(self._reporter)

    def _local_report(self, wave: int) -> None:
        self._local_pending = False
        if (self.state != "draining" or self.wave != wave
                or self.protocol.detached):
            return
        self.protocol.on_rank_count(0, wave, self.sent, self.recvd)

    def _reports(self, wave: int):
        """The reports of one reporter chain, drawn one at a time: a single
        report in flight per rank, re-sent while the counters move."""
        while (self.state == "draining" and self.wave == wave
               and not self.protocol.detached):
            self._report_dirty = False
            yield 0, DrainCountPacket(self.rank, wave, self.sent, self.recvd)
            if not self._report_dirty:
                return

    # ---------------------------------------------------------------- events
    def on_app_sent(self, packet, dst: int) -> None:
        self.sent += 1
        self._counters_changed()

    def on_app_packet(self, packet) -> None:
        self.recvd += 1
        self._counters_changed()

    def on_control(self, packet: Packet) -> None:
        if isinstance(packet, DrainCountPacket):
            self.protocol.on_rank_count(packet.src, packet.wave,
                                        packet.sent, packet.recvd)
        elif isinstance(packet, DrainGoPacket):
            if packet.wave == self.wave and self.state == "draining":
                self._cut_complete()
        else:
            super().on_control(packet)


class DclProtocol(BaseProtocol):
    """Coordinated message-drain checkpointing (counter quiescence)."""

    protocol_name = "dcl"
    endpoint_cls = DclEndpoint

    #: the drain wave adds its own phase between the request broadcast and
    #: the channel-empty snapshot; see BaseProtocol._emit_phases
    wave_phase_milestones = (
        ("markers", "enter"),
        ("drain", "drained"),
        ("flush", "flushed"),
        ("stream", "stored"),
    )

    #: test-only knob for repro.verify: setting this False lets application
    #: sends commit while draining, so stale counter reports can declare
    #: quiescence with messages still in flight — the dcl-network-empty
    #: monitor must catch both (never disable outside tests)
    drain_gating_enabled = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: rank -> (sent, recvd), the latest report of the open wave
        self._counts: Dict[int, Tuple[int, int]] = {}
        self._quiesced = False

    def _open_wave(self, wave: int) -> None:
        self._counts = {}
        self._quiesced = False
        super()._open_wave(wave)

    # ------------------------------------------------------------ quiescence
    def on_rank_count(self, rank: int, wave: int, sent: int, recvd: int) -> None:
        """A rank's counter report (message to rank 0, or rank 0's own)."""
        if wave != self._current_wave or self.detached or self._quiesced:
            return
        self._counts[rank] = (sent, recvd)
        if len(self._counts) < self.job.size:
            return
        total_sent = sum(s for s, _r in self._counts.values())
        total_recvd = sum(r for _s, r in self._counts.values())
        if total_sent != total_recvd:
            return  # messages still in flight; a fresh report will follow
        self._quiesced = True
        self.note_phase("drained", wave)
        elapsed = self.sim.now - self._wave_started_at
        self.sim.trace.record(
            self.sim.now, "ft.drain_quiesced", wave=wave,
            sent=total_sent, recvd=total_recvd, elapsed=elapsed,
            protocol=self.protocol_name,
        )
        if self.sim.metrics is not None:
            self.sim.metrics.observe("ft.drain_seconds", elapsed,
                                     protocol=self.protocol_name)
        # the network is empty: order the checkpoint
        initiator = self.endpoints[0]
        if self.job.size > 1:
            initiator._fan_out(range(1, self.job.size), DrainGoPacket, wave)
        initiator._cut_complete()
