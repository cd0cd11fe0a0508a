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
through a single daemon resource per process, plus a per-byte copy charge.

The daemon is a process in the paper and stays one here: ch_v is the one
device that overrides :meth:`BaseChannel._start_receiving` with a receive
loop of its own (one per connection end, parked on ``end.recv()``), because
each packet queues for the daemon resource and sleeps a service time before
it is handled.  The other devices take deliveries by callback.

The daemon is also where Vcl logs in-transit messages during a checkpoint
wave; the logging bookkeeping itself lives in the protocol
(:mod:`repro.ft.vcl`) via the ``on_app_packet`` hook, but the channel exposes
the volatile log buffer accounting the daemon would hold.
"""

from __future__ import annotations

from typing import List

from repro.mpi.channels.base import HEADER_BYTES, BaseChannel
from repro.net.connection import ConnectionEnd
from repro.sim.primitives import Resource

__all__ = ["ChVChannel"]

#: one Unix-socket hop: write + select() wakeup + read + scheduling in the
#: single-threaded daemon under load (the MPICH-V line of papers reports
#: multi-fold small-message latency over the raw device)
UNIX_HOP_SECONDS = 120e-6

#: daemon memcpy bandwidth for the extra copy per hop
COPY_BANDWIDTH = 1.2e9

#: per-socket cost of each select() scan in the single-threaded daemon
SELECT_SCAN_PER_SOCKET = 0.25e-6


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

    def __init__(self, job: "MPIJob", rank: int) -> None:
        super().__init__(job, rank)
        #: the single daemon thread all messages serialize through
        self._daemon = Resource(self.sim, capacity=1, name=f"vdaemon:r{rank}")
        #: bytes of in-transit messages currently held in daemon memory
        self.log_buffer_bytes = 0.0
        #: the daemon's receive loops, one per attached connection end
        self._receivers: List["Process"] = []

    def _scan_cost(self) -> float:
        # the daemon select()s over one socket per peer plus the servers
        return SELECT_SCAN_PER_SOCKET * max(1, len(self.conns) + 2)

    def send_overhead(self, nbytes: float) -> float:
        return UNIX_HOP_SECONDS + nbytes / COPY_BANDWIDTH + self._scan_cost()

    def recv_overhead(self, nbytes: float) -> float:
        return UNIX_HOP_SECONDS + nbytes / COPY_BANDWIDTH + self._scan_cost()

    def _start_receiving(self, peer: int, end: ConnectionEnd) -> None:
        self._receivers.append(self.sim.process(
            self._receiver(peer, end), name=f"rx:r{self.rank}<-r{peer}"))

    def _receiver(self, peer: int, end: ConnectionEnd):
        while True:
            try:
                packet = yield end.recv()
            except ConnectionError:
                self.socket_closed(peer)
                return
            yield from self._host_cost(
                self.recv_overhead(getattr(packet, "nbytes", HEADER_BYTES)))
            self.handle_packet(packet)

    def _stop_receiving(self) -> None:
        for receiver in self._receivers:
            receiver.interrupt("channel shut down")
        self._receivers.clear()

    def _host_cost(self, seconds: float):
        metrics = self.sim.metrics
        start = self.sim.now if metrics is not None else 0.0
        yield self._daemon.acquire()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self._daemon.release()
            if metrics is not None:
                # total hop latency = queueing behind the single daemon
                # thread + the hop's own service time; the queueing share is
                # what blows up under load (the paper's Sec. 5.3 complaint)
                metrics.observe("channel.daemon_hop_seconds",
                                self.sim.now - start, rank=self.rank)
