"""The ch_v device: MPICH-V's communication-daemon channel.

Every MPI process is paired with a single-threaded communication daemon
(Sec. 4.1).  Application messages traverse two extra Unix-socket hops (MPI
process -> local daemon on the send side, daemon -> MPI process on the
receive side) plus one memory copy per hop, and all of a process's traffic is
multiplexed through the one daemon thread (select()-based).

This is what the paper blames for Vcl's poor latency on Myrinet ("each
message has to pass through two UNIX sockets ..., resulting in unnecessary
copies and a high latency overhead", Sec. 5.3), so the cost model here is
the load-bearing part: a per-message daemon cost on each side, *serialized*
through a single daemon per process, plus a per-byte copy charge.

The daemon is a single-server FIFO of *hops*, one per message it touches:
an application send, a control packet, a received packet.
:meth:`ChVChannel.host_hop` queues one and returns the event that fires
when it has been served.  A hop's completion is scheduled when the hop
reaches the head of the queue — at once on an idle daemon, else when the
hop ahead of it completes — for ``service`` seconds later, so the daemon
serves strictly one hop at a time, in submission order, and each hop costs
the engine one pop.

Reception is one reader per connection end, and a reader is callbacks, not
a process: it takes a packet with ``end.recv()``, queues the packet's hop,
hands the packet to :meth:`~BaseChannel.handle_packet` when the hop
completes, and only then asks the end for the next packet.  A burst on one
end is thereby paced one hop at a time, while other ends' packets and the
rank's own sends queue between them in the order they reached the daemon.
The process-based daemon this replaced (a ``Resource``, one receive process
per end) is raced against it in ``tests/mpi/test_chv_reference.py``.

The daemon is also where Vcl logs in-transit messages during a checkpoint
wave; the logging bookkeeping itself lives in the protocol
(:mod:`repro.ft.vcl`) via the ``on_app_packet`` hook, but the channel exposes
the volatile log buffer accounting the daemon would hold.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from repro.mpi.channels.base import HEADER_BYTES, BaseChannel
from repro.net.connection import ConnectionEnd
from repro.sim.events import URGENT, Event
from repro.sim.primitives import EMPTY, appended

__all__ = ["ChVChannel"]

#: one Unix-socket hop: write + select() wakeup + read + scheduling in the
#: single-threaded daemon under load (the MPICH-V line of papers reports
#: multi-fold small-message latency over the raw device)
UNIX_HOP_SECONDS = 120e-6

#: daemon memcpy bandwidth for the extra copy per hop
COPY_BANDWIDTH = 1.2e9

#: per-socket cost of each select() scan in the single-threaded daemon
SELECT_SCAN_PER_SOCKET = 0.25e-6

#: a hop waiting for the daemon: ``(hop, service, value, submitted_at)``
_Queued = Tuple[Event, float, Any, float]


class _Reader:
    """One connection end's receive path through the daemon: callbacks on
    the end's ``get`` event and on the packet's hop."""

    __slots__ = ("channel", "peer", "end", "_get", "_hop", "_stopped")

    def __init__(self, channel: "ChVChannel", peer: int,
                 end: ConnectionEnd) -> None:
        self.channel = channel
        self.peer = peer
        self.end = end
        #: the ``get`` this reader waits on, or the hop of the packet it took
        self._get: Optional[Event] = None
        self._hop: Optional[Event] = None
        self._stopped = False
        # Reading starts one URGENT step from now, behind whatever is
        # already queued for this instant at that priority, as the base
        # channel's sink does (``rx:start``): a packet already waiting in
        # an adopted link's inbox must not be taken ahead of it.
        start = Event(channel.sim, name="rx:start")
        start.callbacks.append(self._take)
        start.succeed(priority=URGENT)

    #: the waiter ``Event.describe()`` names (``vdaemon:r1 -> rx:r1<-r0``),
    #: derived when read
    name = property(lambda self: f"rx:r{self.channel.rank}<-r{self.peer}")

    def _take(self, _event: Optional[Event] = None) -> None:
        if not self._stopped:
            self._get = self.end.recv()
            self._get.callbacks.append(self._got)

    def _got(self, get: Event) -> None:
        self._get = None
        if get._ok:
            self._submit(get._value)
        else:
            get.defused = True
            self.channel.socket_closed(self.peer)

    def _submit(self, packet: Any) -> None:
        """Queue the daemon hop that hands ``packet`` over.  (The seam the
        negative in ``tests/mpi/test_chv_reference.py`` feeds straight from
        the inbox.)"""
        channel = self.channel
        hop = channel.host_hop(
            channel.recv_overhead(getattr(packet, "nbytes", HEADER_BYTES)),
            packet)
        hop.callbacks.append(self._handle)
        self._hop = hop

    def _handle(self, hop: Event) -> None:
        self._hop = None
        self.channel.handle_packet(hop._value)
        self._take()

    def stop(self) -> None:
        """Take no more packets; a packet taken and not yet handled is
        lost with the daemon."""
        self._stopped = True
        if self._get is not None:
            self._get.callbacks.remove(self._got)
            # a later poison() fails it with nobody left to observe that
            self._get.defused = True
        if self._hop is not None:
            self.channel.abandon_hop(self._hop, self.name)


class ChVChannel(BaseChannel):
    """MPICH-V's daemon-mediated channel."""

    channel_name = "ch_v"
    #: ch_p4-style runtimes open all sockets at startup
    eager_connect = True
    #: the daemon thread genuinely serializes message processing
    defer_send_overhead = False
    #: the clone + daemon data connection stream the image out of band, so
    #: the MPI process's communication barely couples to the transfer
    transfer_coupling = 0.15

    __slots__ = ("_serving", "_serving_since", "_queue", "log_buffer_bytes",
                 "_readers")

    def __init__(self, job: "MPIJob", rank: int) -> None:
        super().__init__(job, rank)
        #: the hop the daemon thread is serving, and when it was submitted
        self._serving: Optional[Event] = None
        self._serving_since = 0.0
        #: hops waiting for the daemon thread, oldest first; a list on
        #: demand, given back when the daemon drained it
        self._queue: Union[Tuple[()], List[_Queued]] = EMPTY
        #: bytes of in-transit messages currently held in daemon memory
        self.log_buffer_bytes = 0.0
        self._readers: List[_Reader] = []

    #: its daemon's hops are named ``vdaemon:r<rank>``, derived when read
    event_name = property(lambda self: f"vdaemon:r{self.rank}")

    def _scan_cost(self) -> float:
        # the daemon select()s over one socket per peer plus the servers
        return SELECT_SCAN_PER_SOCKET * max(1, len(self.conns) + 2)

    def send_overhead(self, nbytes: float) -> float:
        return UNIX_HOP_SECONDS + nbytes / COPY_BANDWIDTH + self._scan_cost()

    def recv_overhead(self, nbytes: float) -> float:
        return UNIX_HOP_SECONDS + nbytes / COPY_BANDWIDTH + self._scan_cost()

    # ------------------------------------------------------------ the daemon
    def host_hop(self, seconds: float, value: Any = None) -> Event:
        """Queue ``seconds`` of daemon work; the returned event succeeds
        with ``value`` once the daemon thread has served it."""
        hop = Event(self.sim, self)
        hop.callbacks.append(self._hop_done)
        job = (hop, seconds, value, self.sim.now)
        if self._serving is None:
            self._serve(*job)
        else:
            self._queue = appended(self._queue, job)
        return hop

    def abandon_hop(self, hop: Event, waiter: Optional[str] = None) -> None:
        """Nobody waits for ``hop`` any more.  A queued hop is skipped when
        it reaches the head of the queue.  A hop in service stops and the
        daemon moves on: at once for a process interrupted while it waited
        (it calls this from its wakeup), one URGENT step later for a
        callback ``waiter`` that stopped — where a process's wakeup would
        have run."""
        hop.callbacks.clear()
        if hop is not self._serving:
            return
        if waiter is None:
            self._hop_done(hop)
            return
        wakeup = Event(self.sim, name=f"interrupt:{waiter}")
        wakeup.callbacks.append(self._hop_done)
        wakeup.succeed(priority=URGENT)

    def _serve(self, hop: Event, seconds: float, value: Any,
               since: float) -> None:
        self._serving = hop
        self._serving_since = since
        hop.succeed_in(seconds, value)

    def _hop_done(self, _event: Event) -> None:
        """The hop in service is over (served, or abandoned): serve the next
        one still waited for."""
        since = self._serving_since
        self._serving = None
        queue = self._queue
        while queue:
            queued = queue.pop(0)
            # skip a hop nobody waits for (its waiter was interrupted, or
            # the hop abandoned, while it queued): only this callback left
            if len(queued[0].callbacks) > 1:
                self._serve(*queued)
                break
        if not queue:
            self._queue = EMPTY
        metrics = self.sim.metrics
        if metrics is not None:
            # total hop latency = queueing behind the single daemon thread
            # + the hop's own service time; the queueing share is what
            # blows up under load (the paper's Sec. 5.3 complaint)
            metrics.observe("channel.daemon_hop_seconds",
                            self.sim.now - since, rank=self.rank)

    # ------------------------------------------------------------- reception
    def _start_receiving(self, peer: int, end: ConnectionEnd) -> None:
        self._readers.append(_Reader(self, peer, end))

    def _stop_receiving(self) -> None:
        for reader in self._readers:
            reader.stop()
        self._readers.clear()
