"""Channel base: connection management, gating, delayed receives, hooks.

A channel is one rank's communication engine.  It owns:

* lazily established connections to peers (two processes connect on their
  first communication, like MPICH2 — except channels with ``eager_connect``,
  which build the full mesh at startup like MPICH-1's ch_p4/ch_v);
* per-destination *send gates* and a global send gate (the Nemesis "stopper
  request"), closed by the blocking protocol during a wave;
* per-source *receive freezing* with a delayed receive queue: frozen sources'
  application packets are parked and handed to matching only when the
  protocol thaws them (after the local checkpoint).  The delayed queue is
  deliberately **not** part of a snapshot: its packets were sent after the
  sender's checkpoint, so a restart discards them and the sender re-sends —
  exactly the Nemesis behaviour described in the paper (Sec. 4.2);
* protocol hooks: control packets are routed to the attached protocol
  endpoint, and application packets are offered to it first (the Vcl
  protocol uses this to log in-transit messages).

Reception is one progress engine per MPI process, as in ft-sock and Nemesis
(Sec. 4.2): the channel registers itself as the *sink* of every connection
end it attaches (:meth:`~repro.net.connection.ConnectionEnd.set_sink`) and
the transport calls :meth:`BaseChannel.handle_packet` per delivery and
:meth:`BaseChannel.socket_closed` per broken connection.  No connection end
owns a process; :meth:`BaseChannel._start_receiving` (with its shutdown
counterpart ``_stop_receiving``) is the one hook a device whose reception
takes host time — ch_v's daemon — overrides.

Channels never interpret payloads; everything above the envelope is opaque.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket, MarkerPacket, Packet
from repro.net.connection import BrokenConnectionError, ConnectionEnd
from repro.sim.events import URGENT, Event
from repro.sim.primitives import EMPTY, Gate
from repro.sim.process import Interrupt
from repro.sim.trace import declare

__all__ = ["BaseChannel", "ChannelDownError"]

#: envelope bytes added to every application payload on the wire
HEADER_BYTES = 32.0


declare("mpi.send", __name__, job=int, src=int, dst=int, seq=int,
        nbytes=float, wave=int, state=str, protocol=Optional[str])
declare("mpi.recv", __name__, job=int, rank=int, src=int, seq=int)
declare("mpi.deliver", __name__, job=int, rank=int, src=int, seq=int)


class ChannelDownError(ConnectionError):
    """Raised when operating on a channel after shutdown."""


class BaseChannel:
    """One rank's communication engine.  Subclasses set the cost model."""

    #: establish the full connection mesh at job start (MPICH-1 style)
    eager_connect = False
    #: human-readable channel name for traces and reports
    channel_name = "base"
    #: progress-engine coupling of checkpoint-image streaming (Sec. 5.2):
    #: while this rank's image is in flight, every application send stalls
    #: for roughly one image chunk's service time at the transfer's current
    #: rate, scaled by this factor.  1.0 for the MPICH2 channels (the MPI
    #: process's own engine pipelines the file to the server); small for
    #: ch_v (the daemon's data connection decouples the transfer from the
    #: computation — why Vcl's completion stays flat in Fig. 5).
    transfer_coupling = 1.0
    #: pipelining chunk of the image streaming path
    TRANSFER_CHUNK_BYTES = 128 * 1024.0
    #: fold per-message engine costs into delivery latency (cheap) instead
    #: of blocking the sender (ch_v overrides: the daemon really serializes)
    defer_send_overhead = True

    def __init__(self, job: "MPIJob", rank: int) -> None:
        self.job = job
        self.sim = job.sim
        self.rank = rank
        self.matching = MatchingEngine(self.sim, rank)
        self.conns: Dict[int, ConnectionEnd] = {}
        self._send_gates: Dict[int, Gate] = {}
        self.global_send_gate = Gate(self.sim, open=True, name=f"g:r{rank}")
        #: sources whose app packets are parked; a set on demand
        self._frozen_sources: Union[Tuple[()], Set[int]] = EMPTY
        #: app packets from frozen sources, in arrival order; appended to
        #: and handed over whole by thaw_sources(), so a list on demand
        self.delayed_queue: Union[Tuple[()], List[AppPacket]] = EMPTY
        self.protocol: Optional[Any] = None
        self.down = False
        self._seq = 0
        #: every end this channel sinks, including ends no longer (or, for
        #: a self-connection's first end, never alone) in ``conns``
        self._attached: List[ConnectionEnd] = []
        #: the connection end streaming this rank's checkpoint image, set by
        #: the protocol endpoint for the duration of the transfer
        self.active_transfer_end = None

    # ----------------------------------------------------------- cost model
    def send_overhead(self, nbytes: float) -> float:
        """Per-message send-side host cost (seconds); subclass hook."""
        return 0.0

    # ----------------------------------------------------------------- gates
    def send_gate(self, dst: int) -> Gate:
        gate = self._send_gates.get(dst)
        if gate is None:
            gate = Gate(self.sim, open=True, name=f"g:r{self.rank}->r{dst}")
            self._send_gates[dst] = gate
        return gate

    def freeze_sends(self, dsts) -> None:
        """Stop committing application sends to ``dsts`` (control packets
        still pass) until :meth:`resume_sends`.  How is the device's
        business: per-destination gates here, the stopper on Nemesis."""
        for dst in dsts:
            self.send_gate(dst).close()

    def resume_sends(self) -> None:
        for gate in self._send_gates.values():
            gate.open()

    # --------------------------------------------------------------- freezing
    def freeze_source(self, src: int) -> None:
        if self._frozen_sources is EMPTY:
            self._frozen_sources = {src}
        else:
            self._frozen_sources.add(src)

    def thaw_sources(self) -> None:
        """Deliver the delayed receive queue in arrival order, then unfreeze."""
        self._frozen_sources = EMPTY
        drained, self.delayed_queue = self.delayed_queue, EMPTY
        for packet in drained:
            self._deliver_app(packet)
        if drained and self.sim.metrics is not None:
            self.sim.metrics.set("channel.delayed_queue_depth", 0.0,
                                 rank=self.rank)

    @property
    def frozen_sources(self):
        return frozenset(self._frozen_sources)

    # ------------------------------------------------------------------ send
    def post_send(self, dst: int, tag: int, data: Any, nbytes: float):
        """Generator: enqueue an application message to ``dst``.

        Returns the transmit-complete event.  The payload is *committed*
        (guaranteed to reach the peer's channel or the wave's channel state)
        once this generator returns.
        """
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        packet = AppPacket(self.rank, tag, data, nbytes + HEADER_BYTES, self._next_seq())
        sent = yield from self._send_packet(dst, packet, gated=True)
        self.sim.trace.count("mpi.messages")
        self.sim.trace.count("mpi.bytes", nbytes)
        self._trace_send(packet, dst)
        if self.sim.metrics is not None:
            self._metrics_sent(packet, dst)
        if self.protocol is not None:
            # Commit-point hook (seq assignment above is *pre*-gate, so a
            # packet parked at a closed gate has not been sent): Dcl counts
            # committed application sends here for counter quiescence.
            self.protocol.on_app_sent(packet, dst)
        return sent

    def send_control(self, dst: int, packet: Packet):
        """Generator: send a protocol packet, bypassing the send gates.

        A control packet is one envelope on the wire (``HEADER_BYTES``) and
        has no transmit-complete event: nobody waits for one."""
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        yield from self._send_packet(dst, packet, gated=False)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _gates_open(self, dst: int) -> bool:
        if not self.global_send_gate.is_open:
            return False
        gate = self._send_gates.get(dst)
        return gate is None or gate.is_open

    def _send_packet(self, dst: int, packet: Packet, gated: bool):
        while True:
            if gated and not self._gates_open(dst):
                yield self.send_gate(dst).wait()
                yield self.global_send_gate.wait()
                continue
            end = self.conns.get(dst)
            if end is None:
                end = yield from self.job.establish(self.rank, dst)
                if self.down:
                    raise ChannelDownError(f"rank {self.rank} channel is down")
                continue  # gates may have moved while connecting; re-check
            break
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        nbytes = getattr(packet, "nbytes", HEADER_BYTES)
        overhead = self.send_overhead(nbytes)
        if gated:
            overhead += self.transfer_tax()
        # Channels with ``defer_send_overhead`` push their (tiny) per-message
        # engine costs onto the message's delivery latency instead of
        # blocking the sender — behaviourally equivalent for microsecond
        # costs but one event cheaper per message.  ch_v keeps the blocking
        # path: its daemon serialization is load-bearing.
        if overhead > 0.0 and not self.defer_send_overhead:
            yield from self._host_cost(overhead)
            overhead = 0.0
            if self.down:  # the rank died while its send waited
                raise ChannelDownError(f"rank {self.rank} channel is down")
        return end.send(packet, nbytes, extra_latency=overhead, notify=gated)

    def try_fast_send(self, dst: int, tag: int, data: Any, nbytes: float):
        """Non-yielding send when the path is clear: connection up, gates
        open.  Returns the transmit-complete event, or None if the slow
        (generator) path is required."""
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        end = self.conns.get(dst)
        if end is None or not self._gates_open(dst):
            return None
        wire_bytes = nbytes + HEADER_BYTES
        overhead = self.send_overhead(wire_bytes) + self.transfer_tax()
        if overhead > 0.0 and not self.defer_send_overhead:
            return None
        packet = AppPacket(self.rank, tag, data, wire_bytes, self._next_seq())
        self.sim.trace.count("mpi.messages")
        self.sim.trace.count("mpi.bytes", nbytes)
        self._trace_send(packet, dst)
        if self.sim.metrics is not None:
            self._metrics_sent(packet, dst)
        if self.protocol is not None:
            self.protocol.on_app_sent(packet, dst)
        return end.send(packet, wire_bytes, extra_latency=overhead)

    def _trace_send(self, packet: AppPacket, dst: int) -> None:
        """Emit mpi.send at the commit point (when the category is live).

        The record carries the sender's protocol view *at commit time* —
        its latest snapshot wave and blocking state — which is exactly what
        the orphan/flush invariants quantify over.
        """
        probe = self.sim.trace.probes.get("mpi.send")
        if probe is not None:
            endpoint = self.protocol
            probe(self.sim.now, self.job.uid, self.rank, dst, packet.seq,
                  packet.nbytes,
                  getattr(endpoint, "wave", 0),
                  getattr(endpoint, "state", "normal"),
                  getattr(getattr(endpoint, "protocol", None),
                          "protocol_name", None))

    def _metrics_sent(self, packet: AppPacket, dst: int) -> None:
        """Per-link wire accounting at the send commit point (metrics on).

        Counts *wire* bytes (payload + envelope) so the send and receive
        sides of a link agree byte-for-byte — the conservation law the
        property tests assert.  Control packets are deliberately excluded
        on both sides: markers and acks are protocol traffic, not
        application traffic.
        """
        metrics = self.sim.metrics
        metrics.count("channel.messages_sent", 1.0,
                      channel=self.channel_name, src=self.rank, dst=dst)
        metrics.count("channel.bytes_sent", packet.nbytes,
                      channel=self.channel_name, src=self.rank, dst=dst)

    def transfer_tax(self) -> float:
        """Engine stall imposed on application messages while this rank's
        checkpoint image streams to its server."""
        end = self.active_transfer_end
        if end is None or self.transfer_coupling <= 0.0:
            return 0.0
        flow = end.active_flow
        if flow is None or not flow.active:
            return 0.0
        rate = end.scheduler.rate(flow)
        if rate <= 0.0:
            return 0.0
        return self.transfer_coupling * self.TRANSFER_CHUNK_BYTES / rate

    def host_hop(self, seconds: float, value: Any = None) -> Event:
        """Event that succeeds with ``value`` once ``seconds`` of this
        rank's host time are spent (channels that do not defer their send
        overhead); ch_v serializes it through its daemon."""
        return self.sim.timeout(seconds, value)

    def abandon_hop(self, hop: Event, waiter: Optional[str] = None) -> None:
        """Nobody waits for ``hop`` any more (its waiter was interrupted, or
        the callbacks named ``waiter`` stopped); a daemon stops serving
        it."""

    def _host_cost(self, seconds: float):
        """Generator: spend ``seconds`` of host time on a message."""
        hop = self.host_hop(seconds)
        try:
            yield hop
        except Interrupt:
            self.abandon_hop(hop)
            raise

    # -------------------------------------------------------------- receive
    def attach(self, peer: int, end: ConnectionEnd) -> None:
        """Register a connection end for ``peer`` and start receiving."""
        self.conns[peer] = end
        self._start_receiving(peer, end)

    def _start_receiving(self, peer: int, end: ConnectionEnd) -> None:
        """Become ``end``'s sink, one URGENT step from now.

        The step is deliberate: reception starts behind whatever is already
        queued for this instant at URGENT priority — where a receiver
        process's bootstrap ran — so every later pop keeps its place.
        """
        self._attached.append(end)

        def begin(_start: Event) -> None:
            if end in self._attached:  # no shutdown() since attach()
                end.set_sink(self, peer)

        start = Event(self.sim, name="rx:start")
        start.callbacks.append(begin)
        start.succeed(priority=URGENT)

    def _stop_receiving(self) -> None:
        """Stop taking deliveries on every end ever attached (shutdown)."""
        for end in self._attached:
            end.clear_sink()
        self._attached.clear()

    def socket_closed(self, peer: int) -> None:
        """The connection to ``peer`` broke under us: failure detection by
        unexpected socket closure."""
        if not self.down:
            self.job.notify_socket_closed(self.rank, peer)

    def handle_packet(self, packet: Packet) -> None:
        if self.down:
            return
        if isinstance(packet, AppPacket):
            probe = self.sim.trace.probes.get("mpi.recv")
            if probe is not None:
                probe(self.sim.now, self.job.uid, self.rank, packet.src,
                      packet.seq)
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.count("channel.messages_received", 1.0,
                              channel=self.channel_name,
                              src=packet.src, dst=self.rank)
                metrics.count("channel.bytes_received", packet.nbytes,
                              channel=self.channel_name,
                              src=packet.src, dst=self.rank)
            if self.protocol is not None:
                self.protocol.on_app_packet(packet)
            if packet.src in self._frozen_sources:
                if self.delayed_queue is EMPTY:
                    self.delayed_queue = [packet]
                else:
                    self.delayed_queue.append(packet)
                self.sim.trace.count("channel.delayed_packets")
                if metrics is not None:
                    # gauge (not counter): current depth of the Pcl
                    # delayed-receive queue; peak is kept by the instrument
                    metrics.set("channel.delayed_queue_depth",
                                float(len(self.delayed_queue)),
                                rank=self.rank)
            else:
                self._deliver_app(packet)
        else:
            if self.protocol is not None:
                self.protocol.on_control(packet)
            else:
                self.job.on_unclaimed_control(self.rank, packet)

    def _deliver_app(self, packet: AppPacket) -> None:
        probe = self.sim.trace.probes.get("mpi.deliver")
        if probe is not None:
            probe(self.sim.now, self.job.uid, self.rank, packet.src,
                  packet.seq)
        self.matching.deliver(packet)

    # -------------------------------------------------------------- shutdown
    def shutdown(self, error: Optional[BaseException] = None) -> None:
        """Tear the channel down (process killed or job dismantled)."""
        if self.down:
            return
        self.down = True
        error = error or ChannelDownError(f"rank {self.rank} shut down")
        for end in self.conns.values():
            end.connection.break_()
        self.conns.clear()
        self.matching.fail_all(error)
        self._stop_receiving()
        self.delayed_queue = EMPTY
