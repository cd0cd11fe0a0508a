"""Vcl: the non-blocking Chandy–Lamport protocol (Sec. 3, Fig. 1).

A dedicated *checkpoint scheduler* process initiates waves.  On its first
marker of a wave (from the scheduler or from a peer), a process:

1. records its local state immediately — the fork makes the interruption
   "only the local checkpointing" — and starts streaming the image to its
   checkpoint server while computation continues;
2. sends a marker to every other process;
3. starts logging: every application message received on a channel after the
   local checkpoint and before that channel's marker is copied into the
   daemon's volatile memory as the channel state, to be shipped to the
   checkpoint server and replayed at restart.

When the markers of all peers have arrived and the image and logs are
stored, the process acknowledges the scheduler; the scheduler asserts the
wave to the servers once every acknowledgment is in, and only then arms the
timer for the next wave.

Communication is never frozen — the protocol's entire cost is the fork, the
background image transfer, and the logging copies.  That is why Vcl's
completion time is flat in the number of waves (Figs. 5–7) while Pcl's is
linear.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ft.image import CheckpointImage
from repro.ft.protocol import BaseEndpoint, BaseProtocol, SCHEDULER_ID
from repro.mpi.channels.ch_v import ChVChannel
from repro.mpi.message import (
    AppPacket,
    MarkerPacket,
    MARKER_BYTES,
)
from repro.net.topology import Endpoint
from repro.sim.trace import declare

__all__ = ["VclProtocol", "VclEndpoint"]


declare("ft.logging_open", __name__, rank=int, wave=int, peers=tuple)
declare("ft.logging_closed", __name__, rank=int, wave=int, messages=int,
        nbytes=float)
declare("ft.logged", __name__, rank=int, src=int, seq=int, wave=int,
        nbytes=float)


class VclEndpoint(BaseEndpoint):
    """Rank-side quiesce strategy of the non-blocking protocol: fork at
    once, log every channel until its marker arrives."""

    #: the image message does not complete a Vcl upload — the channel-state
    #: log may still follow, so the server seals the record at log attach
    #: (or via seal_record() when the wave logged nothing)
    image_final = False

    def __init__(self, protocol: "VclProtocol", rank: int) -> None:
        super().__init__(protocol, rank)
        self._logging_from: Set[int] = set()
        self._log: List[AppPacket] = []
        self._log_bytes = 0.0
        self._image_stored = False
        self._acked = False

    # ------------------------------------------------------------ wave entry
    def enter_wave(self, wave: int) -> None:
        if wave <= self.wave:
            return
        self.wave = wave
        # 1. local checkpoint, immediately and atomically; the fork pause is
        # the protocol's only interruption of the computation
        self._checkpoint()

    def _after_fork(self) -> None:
        wave = self.wave
        self.protocol.note_phase("enter", wave)
        # 2. open the logging window for every peer channel
        self._logging_from = {r for r in range(self.job.size) if r != self.rank}
        self._log = []
        self._log_bytes = 0.0
        self._image_stored = False
        self._acked = False
        if self.sim.trace.wants("ft.logging_open"):
            self.sim.trace.record(
                self.sim.now, "ft.logging_open", rank=self.rank, wave=wave,
                peers=tuple(sorted(self._logging_from)),
            )
        # 3. markers to everyone; image transfer in the background
        if self._logging_from:
            self._fan_out(sorted(self._logging_from), MarkerPacket, wave)

    def _after_store(self, image: CheckpointImage) -> None:
        # the image alone does not finish a Vcl wave: the channel-state log
        # ships (and reports the rank) once every peer's marker is in too
        self._image_stored = True
        self._image = image
        self._check_local_done()

    # ---------------------------------------------------------------- events
    def on_marker(self, src: int) -> None:
        if src in self._logging_from:  # never the scheduler's pseudo-rank
            self._logging_from.discard(src)
            if not self._logging_from:
                # every peer's marker has arrived: the Chandy–Lamport
                # cut is complete for this rank
                self.protocol.note_phase("flushed", self.wave)
                if self.sim.trace.wants("ft.logging_closed"):
                    self.sim.trace.record(
                        self.sim.now, "ft.logging_closed",
                        rank=self.rank, wave=self.wave,
                        messages=len(self._log), nbytes=self._log_bytes,
                    )
            self._check_local_done()

    def on_app_packet(self, packet: AppPacket) -> None:
        """Chandy–Lamport channel-state recording (the daemon's copy)."""
        if not self.protocol.logging_enabled:
            return
        if packet.src in self._logging_from:
            if self.sim.trace.wants("ft.logged"):
                self.sim.trace.record(
                    self.sim.now, "ft.logged", rank=self.rank,
                    src=packet.src, seq=packet.seq, wave=self.wave,
                    nbytes=packet.nbytes,
                )
            self._log.append(packet)
            self._log_bytes += packet.nbytes
            if isinstance(self.channel, ChVChannel):
                self.channel.log_buffer_bytes += packet.nbytes
            self.protocol.stats.logged_messages += 1
            self.protocol.stats.logged_bytes += packet.nbytes
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.count("ft.logged_messages", 1.0,
                              rank=self.rank, wave=self.wave)
                metrics.count("ft.logged_bytes", packet.nbytes,
                              rank=self.rank, wave=self.wave)
                if isinstance(self.channel, ChVChannel):
                    metrics.set("channel.log_buffer_bytes",
                                self.channel.log_buffer_bytes,
                                rank=self.rank)

    # ----------------------------------------------------------- completion
    def _check_local_done(self) -> None:
        if self._acked or not self._image_stored or self._logging_from:
            return
        self._acked = True
        self._spawn(self._ship_logs_and_ack(), f"vcl:logs:r{self.rank}")

    def _ship_logs_and_ack(self):
        wave = self.wave
        if self._log:
            # Ship the channel state to the live replicas that hold this
            # wave's image; a majority of them must attach (and seal) the
            # log before the wave may be acknowledged.
            targets = self._live_replica_ends(
                sorted(self._acked_replicas.get(wave, ())))
            if not targets:
                return
            gate = self._replicated_send(
                "log", wave, targets,
                ("log", self.rank, wave, list(self._log), self._log_bytes),
                nbytes=self._log_bytes)
            try:
                yield gate
            except ConnectionError:
                return
            # keep the image's log reference locally too (same-node restarts)
            self._image.logged_messages = list(self._log)
            self._image.logged_bytes = self._log_bytes
            if isinstance(self.channel, ChVChannel):
                self.channel.log_buffer_bytes = 0.0
                if self.sim.metrics is not None:
                    self.sim.metrics.set("channel.log_buffer_bytes", 0.0,
                                         rank=self.rank)
        else:
            # No channel state this wave: nothing more will arrive, so the
            # stored replicas are complete — seal them in place (in-process,
            # like the on_rank_done notification below).
            for index in sorted(self._acked_replicas.get(wave, ())):
                server = self.replicas[index]
                if server.node.alive:
                    server.seal_record(wave, self.rank)
        # reported in-process: the ack message cost is modelled by the
        # log/image acks that precede it
        self.protocol.on_rank_done(self.rank, wave)


class VclScheduler:
    """The centralized checkpoint-wave initiator (its own machine)."""

    def __init__(self, protocol: "VclProtocol", node: "Node") -> None:
        self.protocol = protocol
        self.sim = protocol.sim
        self.node = node
        self.endpoint = Endpoint(node, 0)
        self._rank_ends: Dict[int, "ConnectionEnd"] = {}

    def connect_all(self) -> None:
        """Open one connection per MPI process (as the scheduler does at
        deployment time) and plug the rank side into each rank's channel."""
        job = self.protocol.job
        for rank in range(job.size):
            connection = job.net.connect(self.endpoint, job.endpoints[rank])
            self._rank_ends[rank] = connection.end_a
            job.channels[rank].attach(SCHEDULER_ID, connection.end_b)
            self.protocol._connections.append(connection)
            self.sim.process(
                self._listen(rank, connection.end_a), name=f"vcl:sched:r{rank}"
            )

    def broadcast_markers(self, wave: int) -> None:
        for rank, end in self._rank_ends.items():
            if not end.broken:
                end.send(MarkerPacket(SCHEDULER_ID, wave), nbytes=MARKER_BYTES)

    def _listen(self, rank: int, end: "ConnectionEnd"):
        """Hold the scheduler's end of the link until it breaks (ranks
        report their wave in-process, so nothing is expected back)."""
        while True:
            try:
                yield end.recv()
            except ConnectionError:
                return


class VclProtocol(BaseProtocol):
    """Non-blocking coordinated checkpointing inside MPICH-1 (MPICH-Vcl)."""

    protocol_name = "vcl"
    endpoint_cls = VclEndpoint
    default_launcher = "dispatcher"
    needs_scheduler = True

    #: test-only knob for repro.verify: setting this False disables the
    #: daemon's channel-state logging, which the vcl-logging monitor must
    #: catch as an incomplete cut (never disable outside tests)
    logging_enabled = True

    def __init__(self, *args, scheduler_node: "Node" = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if scheduler_node is None:
            raise ValueError("VclProtocol needs a scheduler_node")
        self.scheduler = VclScheduler(self, scheduler_node)

    def _connect_initiator(self) -> None:
        self.scheduler.connect_all()

    def _open_wave(self, wave: int) -> None:
        self.scheduler.broadcast_markers(wave)
