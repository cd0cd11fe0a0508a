"""Channel base: connection management, gating, delayed receives, hooks.

A channel is one rank's communication engine.  It owns:

* lazily established connections to peers (two processes connect on their
  first communication, like MPICH2 — except channels with ``eager_connect``,
  which build the full mesh at startup like MPICH-1's ch_p4/ch_v);
* per-destination *send freezing*, set by the blocking protocol during a
  wave: a set of frozen destinations on demand, with a list of waiting
  sends per destination only while one waits (Nemesis freezes all of a
  rank's sends with its stopper instead, :mod:`repro.mpi.channels.nemesis`);
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
  control send is a :class:`SendChain` — freeze, link, host hop,
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

from typing import (Any, Callable, Dict, Iterable, List, Optional, Tuple,
                    Union)

from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket, Packet
from repro.net.connection import ConnectionEnd
from repro.sim.events import URGENT, Event
from repro.sim.primitives import EMPTY, appended
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


class _DstOpen(Event):
    """A send's wait for its destination to unfreeze, named
    ``gate:g:r<rank>->r<dst>`` (as the per-destination gate it replaced)
    when read."""

    __slots__ = ("dst",)

    name = property(lambda self: f"gate:g:r{self._name.rank}->r{self.dst}")


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

    __slots__ = ("job", "sim", "rank", "matching", "conns", "_frozen_dsts",
                 "_frozen_sources", "delayed_queue",
                 "protocol", "down", "_seq", "_attached", "_lost",
                 "active_transfer_end", "_chains")

    def __init__(self, job: "MPIJob", rank: int) -> None:
        self.job = job
        self.sim = job.sim
        self.rank = rank
        self.matching = MatchingEngine(self.sim, rank)
        self.conns: Dict[int, ConnectionEnd] = {}
        #: nothing is frozen yet: ``_frozen_dsts`` holds the destinations
        #: whose application sends wait, in the order they were frozen,
        #: each with the list of sends waiting for it (EMPTY while none
        #: does), a dict on demand; ``_frozen_sources`` the sources whose
        #: app packets are parked, a set on demand
        self.lift_freezes()
        #: app packets from frozen sources, in arrival order; appended to
        #: and handed over whole by thaw_sources(), so a list on demand
        self.delayed_queue: Union[Tuple[()], List[AppPacket]] = EMPTY
        self.protocol: Optional[Any] = None
        self.down = False
        self._seq = 0
        #: every end the default :meth:`_start_receiving` made (or is about
        #: to make) this channel the sink of since the last shutdown,
        #: including ends no longer (or, for a self-connection's first end,
        #: never alone) in ``conns``; ch_v overrides both receiving hooks
        #: and keeps its readers instead, so there it stays empty
        self._attached: List[ConnectionEnd] = []
        #: peers whose end ``conns`` held and no longer does (harvested,
        #: or dropped at shutdown): a link that was up and is gone
        self._lost: Tuple[int, ...] = EMPTY
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

    # ------------------------------------------------------------ send freeze
    def freeze_sends(self, dsts) -> None:
        """Stop committing application sends to ``dsts`` (control packets
        still pass) until :meth:`resume_sends`.  How is the device's
        business: a set of frozen destinations here, the stopper on
        Nemesis."""
        if self._frozen_dsts is EMPTY:
            self._frozen_dsts = {}
        for dst in dsts:
            self._frozen_dsts.setdefault(dst, EMPTY)

    def resume_sends(self) -> None:
        """Unfreeze every destination and wake the sends waiting for them:
        destinations in the order they were frozen, each one's sends in
        the order they began to wait."""
        frozen, self._frozen_dsts = self._frozen_dsts, EMPTY
        for waiters in frozen and frozen.values():
            for waiter in waiters:
                if not waiter.triggered and waiter.callbacks:
                    waiter.succeed()

    def send_open(self, dst: int) -> bool:
        """Whether an application send to ``dst`` may go on now."""
        return dst not in self._frozen_dsts

    def dst_open(self, dst: int) -> Event:
        """The wait of an application send to ``dst``, which is frozen
        (:meth:`send_open` is False): succeeds at :meth:`resume_sends`.
        Named ``gate:g:r<rank>->r<dst>`` when read."""
        event = _DstOpen(self.sim, self)
        event.dst = dst
        self._frozen_dsts[dst] = appended(self._frozen_dsts[dst], event)
        return event

    # --------------------------------------------------------------- freezing
    def lift_freezes(self) -> None:
        """Forget every send and receive freeze without waking a send or
        delivering the delayed queue (a detached protocol's wave is over:
        a restart discards the queue with the channel)."""
        self._frozen_dsts = self._frozen_sources = EMPTY

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
    def post(self, dst: int, tag: int, data: Any,
             nbytes: float) -> Union[Event, "SendChain"]:
        """Send an application message to ``dst``: ``send`` and ``isend``
        alike, so a rank's sends to one peer leave in the order posted.

        The packet takes its sequence number here.  A send that can go out
        right now (link up, destination open, no earlier send to ``dst``
        it must wait behind, on a channel that defers its send overhead)
        goes out inside this call and builds no chain: the connection takes
        its packet, it is accounted, and its transmit-complete event is
        returned — the caller commits it.  Any other send is a
        :class:`SendChain` (on a channel that does not defer its overhead,
        the chain decides between a host hop and a put) that starts inside
        this call: it joins its first wait here — on the event of the
        earlier send to ``dst`` it must wait behind (:meth:`_held_to`), if
        there is one — or puts its packet and returns the transmit-complete
        event like an inline send.  The chain is returned while it waits,
        so its ``on_commit(dst, packet)``, set by the caller on return, runs
        at its commit point (the payload is on the connection).  A send
        that fails inside this call raises ``ConnectionError`` here, inline
        or chained; one that fails later ends its chain with ``error`` set.
        """
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        packet = self._number(tag, data, nbytes)
        ahead = self._held_to(dst) if self._chains else None
        end = self.conns.get(dst)
        if (ahead is None and end is not None and self.defer_send_overhead
                and self.send_open(dst)):
            overhead = self.send_overhead(packet.nbytes) + self.transfer_tax()
            return self._commit_send(end, packet, dst, nbytes, overhead)
        chain = SendChain(self, "send", None)
        chain._dst, chain._packet, chain.nbytes = dst, packet, nbytes
        if ahead is not None:
            # goes on in the pop where the send ahead of it does, after it
            chain._wait(ahead.waiting, ahead._stage)
            return chain
        chain._go()
        return chain.sent or chain  # no packet sent: it waits

    def _held_to(self, dst: int) -> Optional["SendChain"]:
        """The last posted application send to ``dst`` that a send posted
        now must wait behind: one waiting for its link, or one a lifted
        freeze has woken that has not gone on yet.  (Behind one still
        frozen, a send's own freeze wait lines it up; in a daemon hop, or
        frozen after it, the daemon's queue does: a send posted behind it
        takes its own hop first.)"""
        ahead = None
        for chain in self._chains:  # in post order: each waits from its post
            if (chain._dst == dst and chain._packets is None
                    and (chain._stage == _LINK or chain._stage == _FREEZE
                         and chain.waiting.triggered)):
                ahead = chain
        return ahead

    def post_control(self, packets: Iterable[Tuple[int, Packet]], name: str,
                     on_commit: Optional[OnCommit] = None,
                     defer: bool = True) -> "SendChain":
        """Send protocol packets, each ``(dst, packet)`` of ``packets`` in
        order, past any send freeze.  A control packet is one envelope on
        the wire (``HEADER_BYTES``) and has no transmit-complete event:
        nobody waits for one.  The chain takes its first step one URGENT
        step from now, or with ``defer=False`` inside this call.  A failed
        send ends the chain quietly (a mid-wave failure: recovery discards
        the wave); on a channel that is already down nothing is sent."""
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

    def _commit_send(self, end: ConnectionEnd, packet: AppPacket, dst: int,
                     nbytes: float, extra_latency: float) -> Event:
        """Hand an application packet to ``end``, then account it: the
        commit step of every application send.  Returns its
        transmit-complete event.

        The ``mpi.send`` record (when the category is live) carries the
        sender's protocol view *at commit time* — its latest snapshot wave
        and blocking state — which is exactly what the orphan/flush
        invariants quantify over.  With metrics on, the per-link counters
        count *wire* bytes (payload + envelope) so the send and receive
        sides of a link agree byte-for-byte — the conservation law the
        property tests assert; control packets are deliberately excluded
        on both sides (markers and acks are protocol traffic).
        """
        sent = end.send(packet, packet.nbytes, extra_latency)
        sim = self.sim
        sim.trace.count("mpi.messages")
        sim.trace.count("mpi.bytes", nbytes)
        endpoint = self.protocol
        probe = sim.trace.probes.get("mpi.send")
        if probe is not None:
            probe(sim.now, self.job.uid, self.rank, dst, packet.seq,
                  packet.nbytes, getattr(endpoint, "wave", 0),
                  getattr(endpoint, "state", "normal"),
                  getattr(getattr(endpoint, "protocol", None),
                          "protocol_name", None))
        if sim.metrics is not None:
            sim.metrics.count("channel.messages_sent", 1.0,
                              channel=self.channel_name, src=self.rank,
                              dst=dst)
            sim.metrics.count("channel.bytes_sent", packet.nbytes,
                              channel=self.channel_name, src=self.rank,
                              dst=dst)
        if endpoint is not None:
            # Commit-point hook (the sequence number is taken at the post,
            # so a packet held by a freeze has not been sent): Dcl counts
            # committed application sends here for counter quiescence.
            endpoint.on_app_sent(packet, dst)
        return sent

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

    def detach(self, peer: int) -> Optional[ConnectionEnd]:
        """Take ``peer``'s end out of ``conns`` (a harvest), if it has
        one; the link is lost to this channel."""
        end = self.conns.pop(peer, None)
        if end is not None:
            self._lost += (peer,)
        return end

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
                self.delayed_queue = appended(self.delayed_queue, packet)
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
        self._lost += tuple(self.conns)
        self.conns.clear()
        self.matching.fail_all(error)
        self._stop_receiving()
        self.delayed_queue = EMPTY


#: what a send chain waits on: its start step (a control chain), the
#: application packet's freeze, the link, a host hop, a freeze that came
#: while the application packet was in its hop
_START, _FREEZE, _LINK, _HOP, _HOPPED = range(5)


class SendChain:
    """Packets onto connections, one destination after another, as
    callbacks: a channel's send path for whatever has to wait (an
    application packet that can go out at once goes out inside
    :meth:`BaseChannel.post`, and no chain exists for it).

    For each ``(dst, packet)`` the chain waits for what holds an
    application packet (:meth:`BaseChannel.dst_open`: the destination's
    freeze, or the Nemesis stopper), for the link (the job's handshake when
    none is up), and for a host hop (a channel that does not defer its send
    overhead: ch_v's daemon), skipping each wait that is not needed; then
    it hands the packet to the connection end and runs the commit
    accounting and the caller's ``on_commit``.  The next destination
    starts once the previous packet is on the wire.  It waits on exactly
    the freeze, handshake, link and hop events the generator send path
    waited on, so every pop keeps its place.

    The channel keeps every chain that is waiting; :meth:`BaseChannel.
    shutdown` stops them all, and a protocol detach stops its chains
    (:meth:`interrupt`): a stopped chain drops its wait, abandons its hop
    and sends nothing more, so no send outlives its incarnation.

    ``waiting`` is the event the chain waits on.  The application process
    of a send, blocking or waited later (:func:`repro.mpi.request.
    wait_posted`), waits on the same event, behind the chain's callback,
    so it goes on in the pop where its send commits or fails.  A failure
    ends the chain with ``error`` set.
    """

    __slots__ = ("channel", "label", "on_commit", "nbytes", "_packets",
                 "_dst", "_packet", "_stage", "waiting", "sent", "error",
                 "done")

    def __init__(self, channel: BaseChannel, label: str,
                 on_commit: Optional[OnCommit], packets=None) -> None:
        self.channel = channel
        #: a control chain's name; an application send's kind (``send`` or
        #: ``isend``, set by the rank context), which its name completes
        self.label = label
        self.on_commit = on_commit
        #: an application send's payload size (without the envelope)
        self.nbytes = 0.0
        #: the control packets still to send, as ``(dst, packet)``; None
        #: for an application send (one packet that a freeze holds)
        self._packets = packets
        self._dst = 0
        #: the packet in hand
        self._packet: Any = None
        self._stage = _START
        #: the event the chain waits on; None once it is over
        self.waiting: Optional[Event] = None
        #: the application packet's transmit-complete event
        self.sent: Optional[Event] = None
        self.error: Optional[BaseException] = None
        #: an ``isend``'s completion, made at its put: succeeds (or fails
        #: with its pipe) one step after the packet left, and is dropped
        #: once popped
        self.done: Optional[Event] = None

    @property
    def name(self) -> str:
        """What ``Event.describe()`` names as the waiter (and its start
        and done events, when read)."""
        if self._packets is not None:
            return self.label
        return f"{self.label}:r{self.channel.rank}->r{self._dst}"

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
        process a control chain replaces took its first step)."""
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
            if stage == _LINK:
                if not event._ok:
                    event.defused = True
                    raise event._value
                if self._dst not in channel.conns:
                    raise ConnectionResetError(f"link to r{self._dst} gone")
            elif stage >= _HOP:  # the hop is over: no second one
                end = (event._value if stage == _HOP
                       else channel.conns.get(self._dst))
                if not self._put_or_wait(end) or not self._next():
                    return
            elif stage == _START and not self._next():
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

    def _put_or_wait(self, hopped: Optional[ConnectionEnd] = None) -> bool:
        """Put the packet in hand, or start the wait it needs first.
        ``hopped`` is the end a host hop that is over was taken for: a
        wave may have frozen the destination meanwhile, and no second hop
        is taken."""
        channel = self.channel
        dst = self._dst
        app = self._packets is None
        if app and not channel.send_open(dst):
            self._wait(channel.dst_open(dst),
                       _FREEZE if hopped is None else _HOPPED)
            return False
        if hopped is not None:
            self._put(hopped, 0.0)
            return True
        end = channel.conns.get(dst)
        if end is None:
            self._wait(channel.job.establish(channel.rank, dst), _LINK)
            return False
        overhead = channel.send_overhead(self._packet.nbytes if app
                                         else HEADER_BYTES)
        if app:
            overhead += channel.transfer_tax()
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
            self.sent = self.channel._commit_send(end, packet, dst,
                                                  self.nbytes, extra_latency)
            if self.label == "isend":
                done = self.done = Event(self.channel.sim, self)
                # popped, it is dropped (a later wait relays the popped
                # transmit-complete event instead, the same way), so the
                # chain, which names it, is freed with its request
                done.callbacks.append(lambda _: setattr(self, "done", None))
                self.sent.callbacks.append(self._left)
        else:
            end.send(packet, HEADER_BYTES, extra_latency, notify=False)
        if self.on_commit is not None:
            self.on_commit(dst, packet)

    def _left(self, sent: Event) -> None:
        """An ``isend``'s packet left, or its pipe broke: it completes one
        step later, where the process the chain replaced ended (its waiter
        goes on there: an earlier step moves Vcl's daemon order)."""
        if sent._ok:
            self.done.succeed()
        else:
            self.done.defused = True  # raised where the isend is waited for
            self.done.fail(sent._value)

    def _fail(self, error: BaseException) -> None:
        """End the chain: ``error`` is raised where its send is waited
        for."""
        self.error = error
        self._leave()
