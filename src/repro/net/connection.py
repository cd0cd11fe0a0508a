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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Sequence, Tuple

from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim.events import Event
from repro.sim.primitives import Store
from repro.sim.trace import declare

__all__ = ["BrokenConnectionError", "Connection", "ConnectionEnd"]

#: messages at or below this size take the inline path when the pipe and its
#: links are idle: same timing as a fluid flow with no competitors, but
#: without allocating one (latency-bound workloads send millions of these)
_INLINE_BYTES = 2048.0


declare("net.sent", __name__, pipe=str, msg=int, nbytes=float)
declare("net.delivered", __name__, pipe=str, msg=int)


class BrokenConnectionError(ConnectionError):
    """Raised to readers/writers of a connection whose peer vanished."""


class _Pipe:
    """One direction of a connection."""

    __slots__ = (
        "sim",
        "scheduler",
        "links",
        "latency",
        "cap",
        "queue_unit",
        "inbox",
        "egress",
        "pumping",
        "broken",
        "bytes_sent",
        "messages_sent",
        "name",
        "_current_flow",
        "_last_delivery",
        "_msg_id",
        "_flush_gen",
        "_sent_name",
    )

    def __init__(
        self,
        sim: "Simulator",
        scheduler: FlowScheduler,
        links: Sequence[Link],
        latency: float,
        cap: Optional[float],
        name: str,
        queue_bytes: float = 0.0,
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.links = tuple(links)
        self.latency = latency
        self.cap = cap
        # per-link seconds of extra delay contributed by each competing flow
        self.queue_unit = tuple(queue_bytes / link.capacity for link in links)
        self.inbox = Store(sim, name=f"inbox:{name}")
        self.egress: Deque[Tuple[Any, float, Event]] = deque()
        self.pumping = False
        self.broken = False
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.name = name
        self._current_flow = None
        self._last_delivery = 0.0
        #: bumped by flush(); scheduled deliveries from before a flush carry
        #: the old generation and are discarded on arrival
        self._flush_gen = 0
        #: FIFO position of the last message accepted for sending; ids are
        #: only assigned while net.sent is live (a monitor, a storing tracer)
        self._msg_id = 0
        #: precomputed sent-event label (send() is hot; an f-string per
        #: message showed up in profiles)
        self._sent_name = f"sent:{name}"

    # ------------------------------------------------------------------ send
    def send(self, payload: Any, nbytes: float, extra_latency: float = 0.0) -> Event:
        """Queue ``payload``; the returned event fires when the last byte has
        left the sender (not when it is delivered).  ``extra_latency`` is
        added to this message's delivery time (deferred host costs)."""
        if self.broken:
            raise BrokenConnectionError(f"send on broken pipe {self.name}")
        probe = self.sim.trace.probes.get("net.sent")
        if probe is not None:
            self._msg_id += 1
            msg_id = self._msg_id
            probe(self.sim.now, self.name, msg_id, nbytes)
        else:
            msg_id = 0
        sent = self.sim.event(name=self._sent_name)
        if (
            not self.pumping
            and nbytes <= _INLINE_BYTES
            and all(not link.flows for link in self.links)
        ):
            # Idle-path shortcut: identical timing to an uncontended flow.
            rate = min((link.capacity for link in self.links), default=None)
            if rate is not None and self.cap is not None:
                rate = min(rate, self.cap)
            serialization = nbytes / rate if rate else 0.0
            # consecutive small messages serialize on the wire: each departs
            # one serialization time after the previous one at the earliest
            delivery = max(
                self.sim.now + serialization + self.latency + extra_latency,
                self._last_delivery + serialization,
            )
            self._last_delivery = delivery
            self.bytes_sent += nbytes
            self.messages_sent += 1
            metrics = self.sim.metrics
            if metrics is not None:
                # unlabelled on purpose: one instrument for the whole
                # fabric, not one per (transient) pipe
                metrics.count("net.inline_sends")
                metrics.count("net.bytes_sent", nbytes)
            sent.succeed()
            self.sim.call_at(delivery - self.sim.now, self._deliver, payload,
                             msg_id, self._flush_gen)
            return sent
        self.egress.append((payload, nbytes, sent, extra_latency, msg_id))
        if not self.pumping:
            self.pumping = True
            self.sim.process(self._pump(), name=f"pump:{self.name}")
        return sent

    def _pump(self):
        while self.egress and not self.broken:
            payload, nbytes, sent, extra_latency, msg_id = self.egress.popleft()
            # Queueing penalty: packets of competing flows sit ahead of ours
            # in the NIC queues along the path.
            queueing = 0.0
            for link, unit in zip(self.links, self.queue_unit):
                competitors = len(link.flows)
                if competitors:
                    queueing += competitors * unit
            flow = self.scheduler.start(self.links, nbytes, cap=self.cap)
            self._current_flow = flow
            try:
                yield flow.done
            except ConnectionError:
                if self.broken:
                    # Cancelled by break_(); queued messages already dropped.
                    break
                # Cancelled by flush(): this message is dropped, but the pipe
                # lives on — keep draining whatever was enqueued since.
                if not sent.triggered:
                    sent.defused = True
                    sent.fail(BrokenConnectionError(
                        f"pipe {self.name} flushed"))
                continue
            finally:
                self._current_flow = None
            self.bytes_sent += nbytes
            self.messages_sent += 1
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.count("net.flow_sends")
                metrics.count("net.bytes_sent", nbytes)
            if not sent.triggered:
                sent.succeed()
            # FIFO guard: a later message with a smaller queueing penalty must
            # not overtake an earlier one.
            delivery = max(self.sim.now + self.latency + queueing + extra_latency,
                           self._last_delivery)
            self._last_delivery = delivery
            self.sim.call_at(delivery - self.sim.now, self._deliver, payload,
                             msg_id, self._flush_gen)
        self.pumping = False

    def _deliver(self, payload: Any, msg_id: int = 0, gen: int = 0) -> None:
        if gen != self._flush_gen:
            return  # sent before a flush(); the epoch that wanted it is gone
        if not self.broken and not self.inbox.poisoned:
            if msg_id:
                probe = self.sim.trace.probes.get("net.delivered")
                if probe is not None:
                    probe(self.sim.now, self.name, msg_id)
            self.inbox.put(payload)

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
        error = BrokenConnectionError(f"pipe {self.name} flushed")
        while self.egress:
            entry = self.egress.popleft()
            sent = entry[2]
            if not sent.triggered:
                sent.defused = True
                sent.fail(error)
        self.inbox.drain()

    # ----------------------------------------------------------------- break
    def break_(self) -> None:
        if self.broken:
            return
        self.broken = True
        error = BrokenConnectionError(f"pipe {self.name} broken")
        if self._current_flow is not None:
            self.scheduler.cancel(self._current_flow)
        while self.egress:
            entry = self.egress.popleft()
            sent = entry[2]
            if not sent.triggered:
                sent.defused = True
                sent.fail(error)
        self.inbox.poison(error)


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
             extra_latency: float = 0.0) -> Event:
        """Send a message; returns the transmit-complete event."""
        return self._out.send(payload, nbytes, extra_latency)

    def recv(self) -> Event:
        """Event yielding the next in-order message from the peer."""
        return self._in.inbox.get()

    def try_recv(self) -> Any:
        """Non-blocking receive; None when nothing is queued."""
        return self._in.inbox.try_get()

    def pending(self) -> int:
        """Number of delivered-but-unread messages."""
        return len(self._in.inbox)

    def close(self) -> None:
        self.connection.break_()

    @property
    def active_flow(self):
        """The flow currently leaving this end, if any (rate inspection)."""
        return self._out._current_flow

    @property
    def bytes_sent(self) -> float:
        return self._out.bytes_sent

    @property
    def latency(self) -> float:
        return self._out.latency


class Connection:
    """A full-duplex FIFO stream between two endpoints."""

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
        name = f"conn{self.id}"
        self.sim = sim
        pipe_ab = _Pipe(sim, scheduler, links_ab, latency, cap, f"{name}.ab",
                        queue_bytes=queue_bytes)
        pipe_ba = _Pipe(sim, scheduler, links_ba, latency, cap, f"{name}.ba",
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

    def ends(self) -> Tuple[ConnectionEnd, ConnectionEnd]:
        return self.end_a, self.end_b
