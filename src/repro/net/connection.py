"""TCP-like full-duplex FIFO connections.

A :class:`Connection` joins two endpoints with two directed pipes.  Each pipe
serializes its messages (one fluid flow at a time, like bytes on a TCP
stream), delivers a message one path latency after its last byte leaves, and
preserves FIFO order — the property the Chandy–Lamport algorithm requires of
channels.

Breaking a connection (node failure) cancels the in-flight flow, drops queued
and in-flight messages, and poisons both receive queues with
:class:`BrokenConnectionError`; blocked readers wake with the error
immediately, which is the "failure detection by unexpected socket closure"
semantics of the paper's runtimes.

An end is consumed in one of two ways.  A reader — a process (the
checkpoint server, the protocols' ack and fetch loops, the Vcl scheduler)
or callbacks (ch_v's daemon readers) — waits on :meth:`ConnectionEnd.recv`.
A consumer that is one progress engine over many connections (an MPI
channel) registers itself as the end's *sink* with
:meth:`ConnectionEnd.set_sink` and is called back per delivery, so a
connection end owns no process.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim.events import URGENT, Event
from repro.sim.primitives import EMPTY, Store, appended
from repro.sim.trace import declare

__all__ = ["BrokenConnectionError", "Connection", "ConnectionEnd"]

#: messages at or below this size take the inline path when the pipe and its
#: links are idle: same timing as a fluid flow with no competitors, but
#: without allocating one (latency-bound workloads send millions of these)
_INLINE_BYTES = 2048.0


declare("net.sent", __name__, pipe=str, msg=int, nbytes=float)
declare("net.delivered", __name__, pipe=str, msg=int)


#: one queued or in-flight message:
#: ``(payload, nbytes, sent, extra_latency, msg_id)``; ``sent`` is None for
#: a message sent without a transmit-complete event
_Message = Tuple[Any, float, Optional[Event], float, int]

#: what the hand-over hop carries when it announces a broken pipe
_CLOSED = object()


class BrokenConnectionError(ConnectionError):
    """Raised to readers/writers of a connection whose peer vanished."""


class _Kick(Event):
    """A pipe pump's first step, named ``pump:<pipe>`` when read."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return f"pump:{self._name.name}"


class _Pipe:
    """One direction of a connection.

    An idle pipe owns no container and a busy one owns no process.
    ``egress`` is the shared :data:`~repro.sim.primitives.EMPTY` until a
    message has to queue, then a list, handed back when the pump goes
    idle; the inbox is allocated on demand too, for a reader or a queued
    arrival.  The pipe's name, ``conn<id>.<direction>``, is derived from
    the connection id and direction on first read and kept (the
    ``net.sent`` probe reads it on every send); its events (``sent:<pipe>``,
    ``pump:<pipe>``) and its inbox (``inbox:<pipe>``) derive theirs from it
    when read.

    The *pump* that serializes queued messages is two plain callbacks, not
    a process.  ``send()`` on an idle pipe pushes one URGENT kick event
    (``pump:<pipe>``) whose callback :meth:`_start_next` takes the oldest
    queued message and starts its flow; :meth:`_flow_done`, a callback on
    ``flow.done``, settles that message and starts the next one in the same
    step.  Both hops are deliberate.  The kick defers the flow start past
    everything already scheduled for this instant at URGENT priority, and
    until it fires the links still look idle — so a same-step small send
    on a pipe sharing the NIC takes the inline path.  Starting the flow
    inside ``send()`` would flip that decision and move simulated times
    (``tests/net/test_pump_reference.py`` pins this against a generator
    reference pump).

    Reception is a callback too.  With a *sink* registered
    (:meth:`set_sink`) an arrival is not queued for a reader: ``_deliver``
    pushes one NORMAL zero-delay hop (:meth:`_hop`) whose callback
    :meth:`_hand_over` calls ``sink.handle_packet(payload)``.  At most one
    hop is in flight per pipe; arrivals behind it wait in the inbox and the
    next hop is pushed only after the sink returned, and ``break_()`` is
    announced (``sink.socket_closed(tag)``) through the same kind of hop
    after everything already delivered.  That is push for push what a
    reader process parked on ``inbox.get()`` cost — the ``get`` event
    succeeded by ``put`` (or failed by ``poison``), the next ``get()`` after
    handling — minus the process: handling a packet inside ``_deliver``
    would run it ahead of everything already queued for that instant
    (``tests/mpi/test_rx_reference.py`` races the sink against the
    generator receiver it replaced, and rejects a hop-less one).
    """

    __slots__ = ("sim", "scheduler", "links", "latency", "cap", "queue_bytes",
                 "_idle_rate", "_inbox", "egress", "pumping", "broken",
                 "bytes_sent", "messages_sent", "conn_id", "direction", "_name",
                 "_current_flow", "_in_flight", "_last_delivery", "_msg_id",
                 "_flush_gen", "_sink", "_sink_tag", "_handing", "_rx_gen")

    def __init__(
        self,
        sim: "Simulator",
        scheduler: FlowScheduler,
        links: Sequence[Link],
        latency: float,
        cap: Optional[float],
        conn_id: int,
        direction: str,
        queue_bytes: float = 0.0,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.links = tuple(links)
        self.latency = latency
        self.cap = cap
        #: bytes each competing flow queues ahead of ours on every link
        self.queue_bytes = queue_bytes
        # the rate of an uncontended flow on this path (the inline path's)
        rate = min([link.capacity for link in self.links], default=None)
        if rate is not None and cap is not None:
            rate = min(rate, cap)
        self._idle_rate = rate
        self._inbox: Optional[Store] = None
        #: messages waiting for the wire, oldest first (a queue that stays
        #: short: a plain ``pop(0)`` consumes it)
        self.egress: Union[Tuple[()], List[_Message]] = EMPTY
        #: True from the kick until the pump finds ``egress`` empty
        self.pumping = False
        self.broken = False
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.conn_id = conn_id
        self.direction = direction
        self._name: Optional[str] = None
        self._current_flow = None
        #: the message ``_current_flow`` carries, plus its queueing penalty
        self._in_flight: Optional[Tuple[_Message, float]] = None
        self._last_delivery = 0.0
        #: bumped by flush(); scheduled deliveries from before a flush carry
        #: the old generation and are discarded on arrival
        self._flush_gen = 0
        #: FIFO position of the last message accepted for sending; ids are
        #: only assigned while net.sent is live (a monitor, a storing tracer)
        self._msg_id = 0
        #: who takes this pipe's deliveries by callback (None: a reader of
        #: ``inbox`` does), and what it asked to be told on closure
        self._sink: Any = None
        self._sink_tag: Any = None
        #: True while a hand-over hop is in flight; arrivals queue behind it
        self._handing = False
        #: bumped by clear_sink(); a hop from before carries the old
        #: generation and hands nothing over when it pops
        self._rx_gen = 0

    @property
    def name(self) -> str:
        if self._name is None:
            self._name = f"conn{self.conn_id}.{self.direction}"
        return self._name

    #: its transmit-complete events are ``sent:<pipe>``, derived when read
    event_name = property(lambda self: f"sent:{self.name}")
    #: its inbox is ``inbox:<pipe>``, derived when read
    store_name = property(lambda self: f"inbox:{self.name}")

    @property
    def inbox(self) -> Store:
        """What a reader takes deliveries from and arrivals queue in."""
        if self._inbox is None:
            self._inbox = Store(self.sim, name=self)
        return self._inbox

    # ------------------------------------------------------------------ send
    def send(self, payload: Any, nbytes: float, extra_latency: float = 0.0,
             notify: bool = True) -> Optional[Event]:
        """Queue ``payload``; the returned event fires when the last byte has
        left the sender (not when it is delivered).  ``extra_latency`` is
        added to this message's delivery time (deferred host costs).  With
        ``notify=False`` there is no such event (None is returned)."""
        if self.broken:
            raise BrokenConnectionError(f"send on broken pipe {self.name}")
        sim = self.sim
        now = sim.now
        probe = sim.trace.probes.get("net.sent")
        if probe is not None:
            self._msg_id += 1
            msg_id = self._msg_id
            probe(now, self.name, msg_id, nbytes)
        else:
            msg_id = 0
        sent = Event(sim, self) if notify else None
        idle = not self.pumping and nbytes <= _INLINE_BYTES
        if idle:
            for link in self.links:
                if link.flows:
                    idle = False
                    break
        if idle:
            # Idle-path shortcut: identical timing to an uncontended flow.
            rate = self._idle_rate
            serialization = nbytes / rate if rate else 0.0
            delivery = now + serialization + self.latency + extra_latency
            # consecutive small messages serialize on the wire: each departs
            # one serialization time after the previous one at the earliest
            earliest = self._last_delivery + serialization
            if earliest > delivery:
                delivery = earliest
            self._last_delivery = delivery
            self.bytes_sent += nbytes
            self.messages_sent += 1
            metrics = sim.metrics
            if metrics is not None:
                # unlabelled on purpose: one instrument for the whole
                # fabric, not one per (transient) pipe
                metrics.count("net.inline_sends")
                metrics.count("net.bytes_sent", nbytes)
            if sent is not None:
                sent.succeed()
            sim.call_at(delivery - now, self._deliver, payload, msg_id,
                        self._flush_gen)
            return sent
        message = (payload, nbytes, sent, extra_latency, msg_id)
        self.egress = appended(self.egress, message)
        if not self.pumping:
            self.pumping = True
            self._kick()
        return sent

    # ------------------------------------------------------------------ pump
    def _kick(self) -> None:
        """Schedule the pump's first step for this instant, after whatever
        is already queued at URGENT priority.  (The seam the reference and
        negative pumps in ``tests/net/test_pump_reference.py`` replace.)"""
        kick = _Kick(self.sim, self)
        kick.callbacks.append(self._start_next)
        kick.succeed(priority=URGENT)

    def _start_next(self, _event: Optional[Event] = None) -> None:
        """Put the oldest queued message on the wire, or go idle."""
        if self.broken or not self.egress:
            self.pumping = False
            self.egress = EMPTY
            return
        message = self.egress.pop(0)
        # Queueing penalty: packets of competing flows sit ahead of ours
        # in the NIC queues along the path.
        queueing = 0.0
        queue_bytes = self.queue_bytes
        for link in self.links:
            competitors = len(link.flows)
            if competitors:
                queueing += competitors * (queue_bytes / link.capacity)
        flow = self.scheduler.start(self.links, message[1], cap=self.cap)
        self._current_flow = flow
        self._in_flight = (message, queueing)
        flow.done.callbacks.append(self._flow_done)

    def _flow_done(self, done: Event) -> None:
        """The in-flight message's last byte left (or its flow was
        cancelled): settle it, then start the next one."""
        (payload, nbytes, sent, extra_latency, msg_id), queueing = self._in_flight
        self._current_flow = None
        self._in_flight = None
        if done.ok:
            self.bytes_sent += nbytes
            self.messages_sent += 1
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.count("net.flow_sends")
                metrics.count("net.bytes_sent", nbytes)
            if sent is not None and not sent.triggered:
                sent.succeed()
            # FIFO guard: a later message with a smaller queueing penalty must
            # not overtake an earlier one.
            delivery = max(self.sim.now + self.latency + queueing + extra_latency,
                           self._last_delivery)
            self._last_delivery = delivery
            self.sim.call_at(delivery - self.sim.now, self._deliver, payload,
                             msg_id, self._flush_gen)
        elif not self.broken and sent is not None and not sent.triggered:
            # Cancelled by flush(): this message is dropped, but the pipe
            # lives on — keep draining whatever was enqueued since.  (After
            # break_() the queued messages are already dropped and
            # _start_next just goes idle.)
            sent.defused = True
            sent.fail(BrokenConnectionError(f"pipe {self.name} flushed"))
        self._start_next()

    def _deliver(self, payload: Any, msg_id: int = 0, gen: int = 0) -> None:
        if gen != self._flush_gen:
            return  # sent before a flush(); the epoch that wanted it is gone
        if not self.broken:
            if msg_id:
                probe = self.sim.trace.probes.get("net.delivered")
                if probe is not None:
                    probe(self.sim.now, self.name, msg_id)
            if self._sink is None or self._handing:
                # for a reader process, or behind the hop in flight
                self.inbox.put(payload)
            else:
                self._hop(payload)

    # --------------------------------------------------------------- receive
    def set_sink(self, sink: Any, tag: Any) -> None:
        if self._sink is not None:
            raise RuntimeError(f"pipe {self.name} already delivers to a sink")
        self._sink = sink
        self._sink_tag = tag
        self._feed()

    def clear_sink(self) -> None:
        self._sink = self._sink_tag = None
        self._handing = False
        self._rx_gen += 1

    def _hop(self, payload: Any) -> None:
        """Schedule the hand-over of ``payload`` for this instant, behind
        whatever is already queued for it — where ``inbox.put`` succeeding
        a parked ``get`` pushed that event.  (The seam the negative in
        ``tests/mpi/test_rx_reference.py`` replaces.)"""
        self._handing = True
        self.sim.call_at(0.0, self._hand_over, payload, self._rx_gen)

    def _hand_over(self, payload: Any, gen: int) -> None:
        if gen != self._rx_gen:
            return  # for a consumer that stopped receiving: lost with it
        sink = self._sink
        if payload is _CLOSED:
            tag = self._sink_tag
            self.clear_sink()  # nothing follows a closure
            sink.socket_closed(tag)
            return
        sink.handle_packet(payload)
        if gen == self._rx_gen:  # the sink may have stopped from inside
            self._feed()

    def _feed(self) -> None:
        """Hop what the sink is owed next, in the order a reader's next
        ``get()`` found it: the oldest arrival still queued, then the
        closure of a broken pipe; otherwise wait for the next arrival."""
        if self._inbox:
            self._hop(self._inbox.try_get())
        elif self.broken:
            self._hop(_CLOSED)
        else:
            self._handing = False

    # ----------------------------------------------------------------- flush
    def flush(self) -> None:
        """Drop every queued, in-flight, and delivered-but-unread message
        without breaking the pipe.

        Used when a surviving connection is carried across a job incarnation
        (ULFM-style recovery): the TCP stream stays up, but everything the
        dead epoch put on the wire must never reach the new one.  Blocked
        senders get :class:`BrokenConnectionError` for the dropped messages;
        the inbox is drained, not poisoned, so the next epoch's receiver
        starts clean.
        """
        if self.broken:
            return
        self._flush_gen += 1
        if self._current_flow is not None:
            self.scheduler.cancel(self._current_flow)
        self._drop_egress(BrokenConnectionError(f"pipe {self.name} flushed"))
        self.inbox.drain()

    def _drop_egress(self, error: BrokenConnectionError) -> None:
        """Drop every queued message, failing its transmit-complete event
        (the pump, if running, goes idle on its next step)."""
        egress, self.egress = self.egress, EMPTY
        for _payload, _nbytes, sent, _extra, _msg_id in egress:
            if sent is not None and not sent.triggered:
                sent.defused = True
                sent.fail(error)

    # ----------------------------------------------------------------- break
    def break_(self) -> None:
        if self.broken:
            return
        self.broken = True
        error = BrokenConnectionError(f"pipe {self.name} broken")
        if self._current_flow is not None:
            self.scheduler.cancel(self._current_flow)
        self._drop_egress(error)
        self.inbox.poison(error)  # for a reader to come, too
        if self._sink is not None and not self._handing:
            self._hop(_CLOSED)


class ConnectionEnd:
    """One side's view of a connection."""

    __slots__ = ("connection", "_out", "_in", "local", "remote")

    def __init__(self, connection: "Connection", out_pipe: _Pipe, in_pipe: _Pipe,
                 local: Any, remote: Any) -> None:
        self.connection = connection
        self._out = out_pipe
        self._in = in_pipe
        self.local = local
        self.remote = remote

    @property
    def broken(self) -> bool:
        return self._out.broken or self._in.broken

    def send(self, payload: Any, nbytes: float = 0.0,
             extra_latency: float = 0.0, notify: bool = True) -> Optional[Event]:
        """Send a message; returns the transmit-complete event (None with
        ``notify=False``)."""
        return self._out.send(payload, nbytes, extra_latency, notify)

    def recv(self) -> Event:
        """Event yielding the next in-order message from the peer."""
        if self._in._sink is not None:
            raise self._has_sink("recv")
        return self._in.inbox.get()

    def try_recv(self) -> Any:
        """Non-blocking receive; None when nothing is queued."""
        if self._in._sink is not None:
            raise self._has_sink("try_recv")
        return self._in.inbox.try_get()

    def _has_sink(self, call: str) -> RuntimeError:
        # two consumers of one stream would silently split it
        return RuntimeError(
            f"{call}() on pipe {self._in.name}, which delivers to a sink")

    def set_sink(self, sink: Any, tag: Any = None) -> None:
        """Hand this end's deliveries to ``sink`` instead of queueing them
        for :meth:`recv`: ``sink.handle_packet(payload)`` per message, in
        order, each one zero-delay step after it arrived and one at a time
        (a same-instant burst is handed over packet by packet, other events
        of that instant in between); ``sink.socket_closed(tag)`` once,
        after everything delivered before it, if the connection breaks.
        Messages already delivered and unread are handed over first.  One
        object may sink many ends; ``tag`` tells it which one closed."""
        self._in.set_sink(sink, tag)

    def clear_sink(self) -> None:
        """Stop handing deliveries to the sink (idempotent).  A hand-over
        already scheduled is lost, as a message taken by a reader that was
        interrupted before it ran is; later arrivals wait for :meth:`recv`
        or the next sink."""
        self._in.clear_sink()

    @property
    def active_flow(self):
        """The flow currently leaving this end, if any (rate inspection)."""
        return self._out._current_flow

    @property
    def scheduler(self) -> FlowScheduler:
        """The flow scheduler this end's transfers run on; read a flow's
        rate through its :meth:`~FlowScheduler.rate`."""
        return self._out.scheduler

    @property
    def latency(self) -> float:
        return self._out.latency


class Connection:
    """A full-duplex FIFO stream between two endpoints."""

    __slots__ = ("id", "sim", "pipes", "end_a", "end_b")

    def __init__(
        self,
        sim: "Simulator",
        scheduler: FlowScheduler,
        links_ab: Sequence[Link],
        links_ba: Sequence[Link],
        latency: float,
        cap: Optional[float] = None,
        a: Any = "a",
        b: Any = "b",
        queue_bytes: float = 0.0,
    ) -> None:
        # Per-simulator ids keep pipe names (which end up in trace records)
        # deterministic across repeated runs within one process.
        counter = getattr(sim, "_connection_counter", 0) + 1
        sim._connection_counter = counter
        self.id = counter
        self.sim = sim
        pipe_ab = _Pipe(sim, scheduler, links_ab, latency, cap, counter, "ab",
                        queue_bytes=queue_bytes)
        pipe_ba = _Pipe(sim, scheduler, links_ba, latency, cap, counter, "ba",
                        queue_bytes=queue_bytes)
        self.pipes = (pipe_ab, pipe_ba)
        self.end_a = ConnectionEnd(self, pipe_ab, pipe_ba, a, b)
        self.end_b = ConnectionEnd(self, pipe_ba, pipe_ab, b, a)

    @property
    def broken(self) -> bool:
        return self.pipes[0].broken or self.pipes[1].broken

    def break_(self) -> None:
        """Tear down both directions (idempotent)."""
        for pipe in self.pipes:
            pipe.break_()

    def flush(self) -> None:
        """Drop all in-flight traffic in both directions, keep the stream up
        (survivor-link reuse across a recovery)."""
        for pipe in self.pipes:
            pipe.flush()
