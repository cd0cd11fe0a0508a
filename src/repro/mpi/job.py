"""The MPI job: ranks, channels, lazy connections, and lifecycle.

An :class:`MPIJob` binds one application function to a set of endpoints on a
network, one :class:`~repro.mpi.context.RankContext` per rank.  Connections
between ranks are established on the first communication between them
(MPICH2 semantics); channels with ``eager_connect`` (MPICH-1/ch_v) build the
full mesh during :meth:`start`.

The job is the unit of failure handling: a node death surfaces as socket
closures, which the channels report through :meth:`notify_socket_closed`; the
attached failure listener (the dispatcher or FTPM of :mod:`repro.runtime`)
then kills the job and drives recovery, recreating a new job from the last
completed checkpoint wave's snapshots.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.mpi.context import RankContext, Snapshot
from repro.mpi.message import Packet
from repro.net.topology import BaseNetwork, Endpoint
from repro.sim.process import Interrupt
from repro.sim.trace import declare

__all__ = ["MPIJob"]

#: TCP-style connection establishment: one round trip before data flows
_HANDSHAKE_RTTS = 2.0


class _Up:
    """What ``MPIJob._links`` keeps of a pair's ready event once it was
    popped: all a later asker reads of it."""

    processed = triggered = True


_UP = _Up()


declare("app.rank_done", __name__, job=str, rank=int)
declare("job.killed", __name__, job=int, name=str)
declare("job.socket_closed", __name__, job=str, rank=int, peer=Optional[int])


class MPIJob:
    """One parallel application run."""

    def __init__(
        self,
        sim: "Simulator",
        net: BaseNetwork,
        endpoints: Sequence[Endpoint],
        app_factory: Callable[[RankContext], Any],
        channel_cls: type,
        name: str = "job",
        image_bytes: float = 0.0,
        inherited_links: Optional[Dict[Tuple[int, int], Tuple[Any, Any]]] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.endpoints = list(endpoints)
        self.size = len(self.endpoints)
        if self.size < 1:
            raise ValueError("a job needs at least one rank")
        self.app_factory = app_factory
        self.name = name
        # Per-simulator unique id: names may repeat across incarnations and
        # tests, but trace records (and the repro.verify monitors keying on
        # them) need an unambiguous, deterministic job identity.
        uid = getattr(sim, "_job_counter", 0) + 1
        sim._job_counter = uid
        self.uid = uid
        self.channels = [channel_cls(self, rank) for rank in range(self.size)]
        per_rank = image_bytes if callable(image_bytes) else (lambda _r: image_bytes)
        self.contexts = [
            RankContext(self, rank, self.size, self.channels[rank],
                        image_bytes=float(per_rank(rank)))
            for rank in range(self.size)
        ]
        self.app_processes: List["Process"] = []
        self.completed = sim.event(name=f"{name}:completed")
        self.failure_listener: Optional[Callable[[int, Optional[int]], None]] = None
        #: a pair's ready event until it is popped, then ``_UP``
        self._links: Dict[Tuple[int, int], Any] = {}
        self._finished = 0
        self._started = False
        self.killed = False
        #: survivor connections harvested from the previous incarnation
        #: (ULFM-style recovery); adopted in start()
        self._inherited_links = dict(inherited_links or {})

    # ------------------------------------------------------------- lifecycle
    def start(
        self,
        snapshots: Optional[Sequence[Optional[Snapshot]]] = None,
        start_delays: Optional[Sequence[float]] = None,
    ) -> None:
        """Spawn every rank's application process.

        ``snapshots`` restores each rank from a checkpoint before execution
        (restart path).  ``start_delays`` models launch skew (ssh spawning).
        """
        if self._started:
            raise RuntimeError(f"job {self.name} already started")
        self._started = True
        if snapshots is not None:
            for rank, snapshot in enumerate(snapshots):
                if snapshot is not None:
                    self.contexts[rank].restore_snapshot(snapshot)
        if self._inherited_links:
            self._adopt_links()
        if self.channels and self.channels[0].eager_connect:
            self.sim.process(self._mesh_connect(), name=f"{self.name}:mesh")
        for rank in range(self.size):
            delay = 0.0 if start_delays is None else start_delays[rank]
            # named ``<job>:r<rank>`` by its context, when read
            process = self.sim.process(self._app_wrapper(rank, delay),
                                       name=self.contexts[rank])
            self.app_processes.append(process)

    def _mesh_connect(self):
        for a in range(self.size):
            for b in range(a + 1, self.size):
                if self.killed:
                    return
                try:
                    link = self.establish(a, b)
                    if link is not None:
                        yield link
                except ConnectionError:
                    # The job died under the mesh builder (e.g. a failure in
                    # the very first instants of the run): the teardown /
                    # recovery machinery owns the rest.
                    if self.killed:
                        return
                    # A refused connect is itself failure detection: one
                    # endpoint's machine is gone but the job outlives it
                    # (survivor policies agree on membership before the
                    # kill).  Report the dead side and park the builder.
                    dead = [r for r in (a, b)
                            if not self.endpoints[r].node.alive]
                    if not dead:
                        raise
                    for r in dead:
                        self.notify_socket_closed(r, None)
                    return

    def _app_wrapper(self, rank: int, delay: float):
        if delay > 0.0:
            yield self.sim.timeout(delay)
        context = self.contexts[rank]
        try:
            result = yield from self.app_factory(context)
        except Interrupt:
            raise  # killed: let the process machinery absorb it
        except ConnectionError:
            # A peer vanished mid-operation; report and park this rank until
            # the runtime tears the job down.
            self.notify_socket_closed(rank, None)
            return None
        self._finished += 1
        self.sim.trace.record(self.sim.now, "app.rank_done", job=self.name, rank=rank)
        if self._finished == self.size and not self.completed.triggered:
            self.completed.succeed(self.sim.now)
        return result

    def kill(self) -> None:
        """Tear everything down: channels, connections, rank processes."""
        if self.killed:
            return
        self.killed = True
        if self.sim.trace.wants("job.killed"):
            self.sim.trace.record(self.sim.now, "job.killed",
                                  job=self.uid, name=self.name)
        for channel in self.channels:
            channel.shutdown()
        for process in self.app_processes:
            process.interrupt("job killed")

    # ------------------------------------------------------------ connections
    def _adopt_links(self) -> None:
        """Attach connections harvested from the previous incarnation.

        Survivor pairs skip the TCP handshake entirely: the ends are attached
        to the fresh channels and the link event is pre-succeeded, so both
        :meth:`establish` and the eager mesh builder see the pair as already
        connected.  Links whose connection broke since the harvest (a
        cascading node kill) are silently skipped — those pairs reconnect
        lazily like any cold pair.
        """
        for key in sorted(self._inherited_links):
            end_lo, end_hi = self._inherited_links[key]
            if end_lo.connection.broken:
                continue
            lo, hi = key
            if lo >= self.size or hi >= self.size:
                continue
            self.channels[lo].attach(hi, end_lo)
            self.channels[hi].attach(lo, end_hi)
            ready = self.sim.event(name=f"{self.name}:link{key}")
            ready.callbacks.append(self._link_up(key))
            ready.succeed()
            self._links[key] = ready
        self._inherited_links = {}

    def harvest_links(self, survivors: Sequence[int]
                      ) -> Dict[Tuple[int, int], Tuple[Any, Any]]:
        """Detach healthy survivor<->survivor connections from this job.

        Popping the ends out of the channels' connection tables means the
        subsequent :meth:`kill` (whose shutdown breaks every *registered*
        connection) leaves them untouched; shutdown still stops reception on
        every end a channel attached, so nothing takes deliveries from the
        harvested ends until the next incarnation adopts them via
        ``inherited_links``.
        """
        alive = set(survivors)
        links: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        for lo, hi in sorted(self._links):
            if lo not in alive or hi not in alive:
                continue
            end_lo = self.channels[lo].conns.pop(hi, None)
            end_hi = self.channels[hi].conns.pop(lo, None)
            if end_lo is None or end_hi is None or end_lo.connection.broken:
                continue
            links[(lo, hi)] = (end_lo, end_hi)
        return links

    def establish(self, a: int, b: int) -> Optional["Event"]:
        """Ask for a connection between ranks ``a`` and ``b``.

        Returns None when they are connected, else the event to wait on:
        for the first asker the handshake of a new link (one TCP-style
        exchange, two round trips), whose first callback attaches both ends
        — so the asker goes on in the pop that connected it — and for any
        other the link's ready event, which fails if the handshake did not
        complete.  Raises ConnectionError when the connect is refused or
        the link is known but its end is gone (harvested).
        """
        key = (a, b) if a < b else (b, a)
        ready = self._links.get(key)
        if ready is None:
            ready = self.sim.event(name=f"{self.name}:link{key}")
            self._links[key] = ready
            lo, hi = key
            try:
                connection = self.net.connect(self.endpoints[lo],
                                              self.endpoints[hi])
            except Exception as error:
                self._link_failed(key, ready, error)
                raise
            handshake = self.sim.timeout(
                _HANDSHAKE_RTTS * connection.end_a.latency)
            handshake.callbacks.append(
                lambda _event: self._connected(key, ready, connection))
            return handshake
        if not ready.processed:
            return ready
        if b not in self.channels[a].conns:
            raise ConnectionResetError(f"link {a}<->{b} vanished during establish")
        return None

    def _connected(self, key: Tuple[int, int], ready: "Event",
                   connection: Any) -> None:
        """A handshake is over: attach both ends, or give up on a killed
        job."""
        if self.killed:
            connection.break_()
            self._link_failed(key, ready, ConnectionResetError(
                f"job {self.name} killed during connect"))
            return
        lo, hi = key
        self.channels[lo].attach(hi, connection.end_a)
        self.channels[hi].attach(lo, connection.end_b)
        ready.callbacks.append(self._link_up(key))
        ready.succeed()

    def _link_up(self, key: Tuple[int, int]) -> Callable[[Any], None]:
        """The callback that leaves a pair only ``_UP`` once its ready event
        is popped (a plain function: a watchdog names no waiter)."""
        return lambda _ready: self._links.__setitem__(key, _UP)

    def _link_failed(self, key: Tuple[int, int], ready: "Event",
                     error: Exception) -> None:
        # Wake every rank queued behind this handshake; otherwise a
        # refused connection deadlocks them forever.
        del self._links[key]
        ready.defused = True
        ready.fail(error)

    # --------------------------------------------------------------- failure
    def notify_socket_closed(self, rank: int, peer: Optional[int]) -> None:
        """A channel observed an unexpected socket closure."""
        self.sim.trace.record(
            self.sim.now, "job.socket_closed", job=self.name, rank=rank, peer=peer
        )
        if self.failure_listener is not None:
            self.failure_listener(rank, peer)

    def on_unclaimed_control(self, rank: int, packet: Packet) -> None:
        """Control packet arriving with no protocol attached — a stale wave
        message after a protocol detach; dropped, like a packet for a closed
        port."""
        self.sim.trace.count("job.unclaimed_control")
