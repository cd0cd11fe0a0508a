"""Channel base: connection management, gating, delayed receives, hooks.

A channel is one rank's communication engine.  It owns:

* lazily established connections to peers (two processes connect on their
  first communication, like MPICH2 — except channels with ``eager_connect``,
  which build the full mesh at startup like MPICH-1's ch_p4/ch_v);
* per-destination *send gates* and a global send gate (the Nemesis "stopper
  request"), closed by the blocking protocol during a wave, each allocated
  on first use;
* per-source *receive freezing* with a delayed receive queue: frozen sources'
  application packets are parked and handed to matching only when the
  protocol thaws them (after the local checkpoint).  The delayed queue is
  deliberately **not** part of a snapshot: its packets were sent after the
  sender's checkpoint, so a restart discards them and the sender re-sends —
  exactly the Nemesis behaviour described in the paper (Sec. 4.2);
* protocol hooks: control packets are routed to the attached protocol
  endpoint, and application packets are offered to it first (the Vcl
  protocol uses this to log in-transit messages);
* the send path: an application send that can go out at once goes out
  inside :meth:`BaseChannel.post`; every other application send and every
  control send is a :class:`SendChain` — gates, link, host hop,
  ``end.send``, commit — that the channel keeps while it waits and stops
  at :meth:`BaseChannel.shutdown`.
  :meth:`BaseChannel.post` is what ``send`` and ``isend`` call,
  :meth:`BaseChannel.post_control` what the protocols' fan-outs and reports
  call; how a packet reaches the wire is decided in this module.

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

from typing import (Any, Callable, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket, Packet
from repro.net.connection import ConnectionEnd
from repro.sim.events import URGENT, Event
from repro.sim.primitives import EMPTY, Gate
from repro.sim.trace import declare

__all__ = ["BaseChannel", "ChannelDownError", "SendChain"]

#: envelope bytes added to every application payload on the wire
HEADER_BYTES = 32.0

#: what a sender is told at a send's commit point: ``(dst, packet)``
OnCommit = Callable[[int, Packet], None]


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

    __slots__ = ("job", "sim", "rank", "matching", "conns", "_send_gates",
                 "_global_gate", "_frozen_sources", "delayed_queue",
                 "protocol", "down", "_seq", "_attached",
                 "active_transfer_end", "_chains")

    def __init__(self, job: "MPIJob", rank: int) -> None:
        self.job = job
        self.sim = job.sim
        self.rank = rank
        self.matching = MatchingEngine(self.sim, rank)
        self.conns: Dict[int, ConnectionEnd] = {}
        self._send_gates: Dict[int, Gate] = {}
        self._global_gate: Optional[Gate] = None
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
        #: every send chain waiting for something, in the order it began
        #: to wait; shutdown() stops them.  A dict on demand, given back
        #: when the last one left
        self._chains: Union[Tuple[()], Dict["SendChain", None]] = EMPTY

    # ----------------------------------------------------------- cost model
    def send_overhead(self, nbytes: float) -> float:
        """Per-message send-side host cost (seconds); subclass hook."""
        return 0.0

    # ----------------------------------------------------------------- gates
    @property
    def global_send_gate(self) -> Gate:
        if self._global_gate is None:
            self._global_gate = Gate(self.sim, name=f"g:r{self.rank}")
        return self._global_gate

    def send_gate(self, dst: int) -> Gate:
        gate = self._send_gates.get(dst)
        if gate is None:
            gate = Gate(self.sim, name=f"g:r{self.rank}->r{dst}")
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

    # ------------------------------------------------------------------ send
    def post(self, dst: int, tag: int, data: Any, nbytes: float,
             defer: bool = False) -> Union[Event, "SendChain"]:
        """Send an application message to ``dst``.

        A send that can go out right now (link up, gates open, on a channel
        that defers its send overhead) goes out inside this call and builds
        no chain: it is accounted, the connection takes its packet, and its
        transmit-complete event is returned — the caller commits it.  Any
        other send is a :class:`SendChain` (on a channel that does not
        defer its overhead, the chain decides between a host hop and a
        put), which takes its first step inside this call — a blocking
        send's slow path starts inline — or, with ``defer``, one URGENT
        step from now and succeeds ``chain.done`` one step after its packet
        left.  The chain is returned only while it waits, so its
        ``on_commit(dst, packet)``, set by the caller on return, runs at its
        commit point (the payload is on the connection); a chain that put
        its packet inside this call returns the transmit-complete event
        like an inline send.
        """
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        if (self.defer_send_overhead and dst in self.conns
                and self._gates_open(dst)):
            wire_bytes = nbytes + HEADER_BYTES
            overhead = self.send_overhead(wire_bytes)
            if self.active_transfer_end is not None:
                overhead += self.transfer_tax()
            packet = self._number(tag, data, nbytes)
            self._committed(packet, dst, nbytes)
            return self.conns[dst].send(packet, wire_bytes, overhead)
        chain = SendChain(self, None, None)
        chain._dst = dst
        chain.nbytes = nbytes
        if defer:
            chain._packet = (tag, data)
            chain.done = Event(self.sim, chain)  # named as an isend's
            chain._defer()
        else:
            chain._packet = self._number(tag, data, nbytes)
            chain._go()
            if chain.waiting is None:  # it went out without a wait
                return chain.sent
        return chain

    def post_control(self, packets: Iterable[Tuple[int, Packet]], name: str,
                     on_commit: Optional[OnCommit] = None,
                     defer: bool = True) -> "SendChain":
        """Send protocol packets, each ``(dst, packet)`` of ``packets`` in
        order, bypassing the send gates.  A control packet is one envelope
        on the wire (``HEADER_BYTES``) and has no transmit-complete event:
        nobody waits for one.  A failed send ends the chain quietly (a
        mid-wave failure: recovery discards the wave); on a channel that is
        already down nothing is sent."""
        chain = SendChain(self, name, on_commit, iter(packets))
        if not self.down:
            chain._defer() if defer else chain._step()
        return chain

    def _number(self, tag: int, data: Any, nbytes: float) -> AppPacket:
        """The application packet of a send, with the next sequence
        number."""
        self._seq += 1
        return AppPacket(self.rank, tag, data, nbytes + HEADER_BYTES,
                         self._seq)

    def _gates_open(self, dst: int) -> bool:
        gate = self._global_gate
        if gate is not None and not gate.is_open:
            return False
        gate = self._send_gates.get(dst) if self._send_gates else None
        return gate is None or gate.is_open

    def _committed(self, packet: AppPacket, dst: int, nbytes: float) -> None:
        """The commit accounting of an application send."""
        trace = self.sim.trace
        trace.count("mpi.messages")
        trace.count("mpi.bytes", nbytes)
        if "mpi.send" in trace.probes:
            self._trace_send(packet, dst)
        if self.sim.metrics is not None:
            self._metrics_sent(packet, dst)
        if self.protocol is not None:
            # Commit-point hook (seq assignment is *pre*-gate, so a packet
            # parked at a closed gate has not been sent): Dcl counts
            # committed application sends here for counter quiescence.
            self.protocol.on_app_sent(packet, dst)

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
        for chain in list(self._chains):
            chain.stop()
        error = error or ChannelDownError(f"rank {self.rank} shut down")
        for end in self.conns.values():
            end.connection.break_()
        self.conns.clear()
        self.matching.fail_all(error)
        self._stop_receiving()
        self.delayed_queue = EMPTY


#: what a send chain waits on: its start step, the destination's gate, the
#: global gate, the link, a host hop
_START, _GATE, _GLOBAL, _LINK, _HOP = range(5)


class SendChain:
    """Packets onto connections, one destination after another, as
    callbacks: a channel's send path for whatever has to wait (an
    application packet that can go out at once goes out inside
    :meth:`BaseChannel.post`, and no chain exists for it).

    For each ``(dst, packet)`` the chain waits for the send gates (an
    application packet only), for the link (the job's handshake when none
    is up), and for a host hop (a channel that does not defer its send
    overhead: ch_v's daemon), skipping each wait that is not needed; then
    it hands the packet to the connection end and runs the commit
    accounting and the caller's ``on_commit``.  The next destination
    starts once the previous packet is on the wire.  It waits on exactly
    the gate, handshake, link and hop events the generator send path
    waited on, so every pop keeps its place.

    The channel keeps every chain that is waiting; :meth:`BaseChannel.
    shutdown` stops them all, and a protocol detach stops its chains
    (:meth:`interrupt`): a stopped chain drops its wait, abandons its hop
    and sends nothing more, so no send outlives its incarnation.

    ``waiting`` is the event the chain waits on.  A blocking send's
    application process waits on the same event, behind the chain's
    callback, so it goes on in the pop where its send commits or fails.
    A failure ends the chain with ``error`` set.
    """

    __slots__ = ("channel", "_label", "on_commit", "nbytes", "_packets",
                 "_dst", "_packet", "_stage", "waiting", "sent", "error",
                 "done")

    def __init__(self, channel: BaseChannel, label: Optional[str],
                 on_commit: Optional[OnCommit], packets=None) -> None:
        self.channel = channel
        self._label = label
        self.on_commit = on_commit
        #: an application send's payload size (without the envelope)
        self.nbytes = 0.0
        #: the control packets still to send, as ``(dst, packet)``; None
        #: for an application send (one gated packet)
        self._packets = packets
        self._dst = 0
        #: the packet in hand (a deferred application send holds its
        #: ``(tag, data)`` until it starts and takes its sequence number)
        self._packet: Any = None
        self._stage = _START
        #: the event the chain waits on; None once it is over
        self.waiting: Optional[Event] = None
        #: the application packet's transmit-complete event
        self.sent: Optional[Event] = None
        self.error: Optional[BaseException] = None
        #: a deferred application send's completion: succeeds one step
        #: after its packet left, or when it failed
        self.done: Optional[Event] = None

    @property
    def name(self) -> str:
        """What ``Event.describe()`` names as the waiter (and its start
        and done events, when read)."""
        if self._label is not None:
            return self._label
        kind = "send" if self.done is None else "isend"
        return f"{kind}:r{self.channel.rank}->r{self._dst}"

    event_name = name

    # -------------------------------------------------------------- control
    def stop(self, _cause: Any = None) -> None:
        """Send nothing more: drop the wait, abandon the hop."""
        event, self.waiting = self.waiting, None
        if event is not None:
            event.callbacks.remove(self._step)
            if self._stage == _HOP:
                self.channel.abandon_hop(event, self.name)
            self._leave()

    #: what a protocol detach calls on its helpers
    interrupt = stop

    def _wait(self, event: Event, stage: int) -> None:
        self.waiting = event
        self._stage = stage
        event.callbacks.append(self._step)
        channel = self.channel
        if channel._chains is EMPTY:
            channel._chains = {self: None}
        else:
            channel._chains[self] = None

    def _leave(self) -> None:
        channel = self.channel
        if channel._chains:  # held there if it waited
            channel._chains.pop(self, None)
            if not channel._chains:
                channel._chains = EMPTY

    def _defer(self) -> None:
        """Take the first step one URGENT step from now, behind whatever is
        already queued for this instant at that priority (where the helper
        process a chain replaces took its first step)."""
        start = Event(self.channel.sim, self)
        self._wait(start, _START)
        start.succeed(priority=URGENT)

    # ---------------------------------------------------------------- steps
    def _step(self, event: Optional[Event] = None) -> None:
        """Go on after the event waited on (a control chain that starts
        inline takes its first step here too)."""
        stage, self.waiting = self._stage, None
        channel = self.channel
        try:
            if stage == _GATE:
                self._wait(channel.global_send_gate.wait(), _GLOBAL)
                return
            if stage == _LINK:
                if not event._ok:
                    event.defused = True
                    raise event._value
                if self._dst not in channel.conns:
                    raise ConnectionResetError(f"link to r{self._dst} gone")
            elif stage == _HOP:
                self._put(event._value, 0.0)
                if not self._next():
                    return
            elif stage == _START:
                if self._packets is None:
                    self._packet = channel._number(*self._packet, self.nbytes)
                elif not self._next():
                    return
            self._go()
        except ConnectionError as error:
            self._fail(error)

    def _go(self) -> None:
        """Put packets until one has to wait or none is left."""
        while self._put_or_wait():
            if not self._next():
                return

    def _next(self) -> bool:
        """Move on to the next destination; False when none is left."""
        item = None if self._packets is None else next(self._packets, None)
        if item is None:
            self._leave()
            return False
        self._dst, self._packet = item
        return True

    def _put_or_wait(self) -> bool:
        """Put the packet in hand, or start the wait it needs first."""
        channel = self.channel
        dst = self._dst
        gated = self._packets is None
        if gated and not channel._gates_open(dst):
            self._wait(channel.send_gate(dst).wait(), _GATE)
            return False
        end = channel.conns.get(dst)
        if end is None:
            self._wait(channel.job.establish(channel.rank, dst), _LINK)
            return False
        if gated:
            overhead = (channel.send_overhead(self._packet.nbytes)
                        + channel.transfer_tax())
        else:
            overhead = channel.send_overhead(HEADER_BYTES)
        # Channels with ``defer_send_overhead`` push their (tiny)
        # per-message engine costs onto the message's delivery latency
        # instead of blocking the sender — behaviourally equivalent for
        # microsecond costs but one event cheaper per message.  ch_v takes
        # the hop: its daemon serialization is load-bearing.
        if overhead > 0.0 and not channel.defer_send_overhead:
            self._wait(channel.host_hop(overhead, end), _HOP)
            return False
        self._put(end, overhead)
        return True

    def _put(self, end: ConnectionEnd, extra_latency: float) -> None:
        packet, dst = self._packet, self._dst
        if self._packets is None:
            # accounted after the connection took it (a send that went out
            # inside post() was accounted before)
            self.sent = end.send(packet, packet.nbytes, extra_latency)
            self.channel._committed(packet, dst, self.nbytes)
        else:
            end.send(packet, HEADER_BYTES, extra_latency, notify=False)
        if self.on_commit is not None:
            self.on_commit(dst, packet)
        if self.done is not None:
            self.sent.callbacks.append(self._settle)

    # -------------------------------------------------------------- endings
    def _fail(self, error: BaseException) -> None:
        self.error = error
        self._leave()
        if self.done is not None:
            self._settle(None)

    def _settle(self, sent: Optional[Event]) -> None:
        """A deferred send's packet left, or it failed (before the wire,
        or its pipe broke first).  A failure has nobody to throw into:
        report the closure the way the receive path does and let recovery
        roll the op back."""
        channel = self.channel
        if (sent is None or not sent._ok) and not channel.down:
            channel.job.notify_socket_closed(channel.rank, self._dst)
        self.done.succeed()
