"""The wave skeleton every protocol shares: driver, endpoints, image storage.

All three protocols are built from the same pieces the paper's
implementations share (Sec. 4): the wave life cycle (timer -> begin -> open
-> commit once every rank reported), the control fan-out, the abstract
checkpointing mechanism (fork + pipelined local-disk write and network
stream to the checkpoint server), the acknowledgement plumbing, and per-wave
bookkeeping.  The subclasses (:mod:`repro.ft.pcl`, :mod:`repro.ft.vcl`,
:mod:`repro.ft.dcl`) state only their *quiesce strategy* — how the cut is
made consistent: flush the channels with markers and freeze receives, log
in-transit messages, or count the network empty — and declare the phase
milestones that strategy passes (docs/PROTOCOLS.md, "Adding a protocol").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.ft.image import CheckpointImage, FORK_LATENCY
from repro.ft.server import CheckpointServer
from repro.mpi.message import CheckpointDonePacket, MarkerPacket, Packet
from repro.sim.process import Interrupt
from repro.sim.trace import declare

__all__ = ["FTStats", "BaseProtocol", "BaseEndpoint", "BlockingEndpoint",
           "SCHEDULER_ID", "LocalImageStore", "emit_phase_spans"]

#: pseudo-rank of the Vcl checkpoint scheduler on rank channels
SCHEDULER_ID = -100


declare("ft.marker_recv", __name__, rank=int, src=int, wave=int, protocol=str)
declare("ft.local_checkpoint", __name__, rank=int, wave=int, protocol=str)
declare("ft.image_stored", __name__, rank=int, wave=int, nbytes=float)
declare("ft.resume", __name__, rank=int, wave=int)
declare("ft.wave_requested", __name__, protocol=str)
declare("ft.wave_started", __name__, wave=int, protocol=str)
declare("ft.wave_completed", __name__, wave=int, duration=float, protocol=str)
declare("ft.wave_aborted", __name__, wave=int, protocol=str)
declare("ft.wave_phase", __name__, wave=int, phase=str, start=float,
        end=float, duration=float, protocol=str)


def emit_phase_spans(sim: "Simulator", category: str, milestones,
                     marks: Dict[str, float], started_at: float,
                     labels: Dict[str, object], **fields) -> None:
    """Tile ``[started_at, now]`` into consecutive phases and publish them.

    ``milestones`` is the ordered ``(phase, mark key)`` list; a key of None
    runs the last phase up to ``now``.  The marks are clamped monotone into
    the interval, so the spans tile it exactly whatever order the milestones
    were reached in — a phase that was skipped (a degraded recovery, say)
    comes out zero-length, not missing.  Emitted as ``category`` trace
    records (timeline slices, carrying ``fields``) and as
    ``<category>_seconds`` histograms (snapshot aggregation), both labelled
    with ``labels``; with neither a live category nor a registry this
    returns after two checks.
    """
    trace = sim.trace
    metrics = sim.metrics
    wants = trace.wants(category)
    if not wants and metrics is None:
        return
    end = sim.now
    prev = started_at
    for phase, key in milestones:
        at = end if key is None else min(max(marks.get(key, prev), prev), end)
        if wants:
            trace.record(end, category, **fields, phase=phase, start=prev,
                         end=at, duration=at - prev, **labels)
        if metrics is not None:
            metrics.observe(f"{category}_seconds", at - prev,
                            **labels, phase=phase)
        prev = at


class FTStats:
    """Fault-tolerance counters that persist across job incarnations."""

    def __init__(self) -> None:
        self.waves_completed = 0
        #: (wave, start_time, completion_time)
        self.wave_records: List[Tuple[int, float, float]] = []
        self.logged_bytes = 0.0
        self.logged_messages = 0
        self.image_bytes_stored = 0.0
        self.blocked_seconds = 0.0
        self.markers_sent = 0
        self.failures = 0
        self.restarts = 0
        self.recovery_seconds = 0.0
        #: remote image fetches that failed and were retried on another
        #: replica or a later backoff round
        self.fetch_retries = 0
        #: restarts that had to fall back past the newest committed wave
        self.wave_fallbacks = 0
        #: spare-pool nodes promoted to replace dead machines
        self.spares_promoted = 0
        #: shrink recoveries (the job re-decomposed over the survivors)
        self.shrinks = 0
        #: survivor-policy recoveries that degraded to a full restart
        #: (spare-pool exhaustion, non-malleable app, cascading kills)
        self.policy_degradations = 0

    def wave_durations(self) -> List[float]:
        return [end - start for _w, start, end in self.wave_records]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FTStats waves={self.waves_completed} blocked={self.blocked_seconds:.2f}s "
            f"logged={self.logged_bytes / 1e6:.1f}MB restarts={self.restarts}>"
        )


class LocalImageStore:
    """Per-machine local checkpoint files, persistent across incarnations.

    Restarting on the same machine reads the image from local disk; restarting
    elsewhere must fetch it from the checkpoint server (Sec. 4.2's FTPM
    location database makes the same distinction).
    """

    def __init__(self) -> None:
        self._images: Dict[Tuple[str, int], CheckpointImage] = {}

    def put(self, node_name: str, rank: int, image: CheckpointImage) -> None:
        self._images[(node_name, rank)] = image

    def get(self, node_name: str, rank: int, wave: int) -> Optional[CheckpointImage]:
        image = self._images.get((node_name, rank))
        if image is not None and image.wave == wave:
            return image
        return None

    def drop_node(self, node_name: str) -> None:
        """A machine died: its local checkpoint files are gone."""
        for key in [k for k in self._images if k[0] == node_name]:
            del self._images[key]

    def waves(self) -> List[int]:
        """Distinct waves with at least one surviving local image."""
        return sorted({image.wave for image in self._images.values()})


class BaseEndpoint:
    """Per-rank protocol endpoint: control traffic, the local checkpoint,
    server connections, image storage.  A strategy subclass defines
    :meth:`enter_wave` and, as needed, :meth:`on_marker`, :meth:`_after_fork`
    and :meth:`_after_store`; everything else is shared.

    Every replication degree K takes one storage path: the rank streams
    its image to each of its K assigned replicas that is reachable
    (each stream is a real connection, so the extra NIC/uplink contention
    the replication costs is modelled, keeping Fig. 5 honest) and proceeds
    once a majority of them acknowledged.  K=1 is a quorum of one: the
    rank waits on its one server's ack.
    """

    #: whether the image message alone completes this protocol's upload
    #: (Vcl overrides: its log may still follow, so the server must not
    #: seal the record at image receipt)
    image_final = True

    def __init__(self, protocol: "BaseProtocol", rank: int) -> None:
        self.protocol = protocol
        self.rank = rank
        self.job = protocol.job
        self.sim = protocol.sim
        self.channel = self.job.channels[rank]
        self.context = self.job.contexts[rank]
        self.endpoint = self.job.endpoints[rank]
        #: ordered replica servers; index 0 is the primary
        self.replicas: List[CheckpointServer] = protocol.replica_map[rank]
        #: newest wave this rank entered
        self.wave = 0
        self._server_ends: List[Optional["ConnectionEnd"]] = [None] * len(self.replicas)
        self._ack_waiters: Dict[Tuple[int, str, int], "Event"] = {}
        #: wave -> replica indices whose image upload was acknowledged
        self._acked_replicas: Dict[int, set] = {}
        #: helper processes and send chains; detach interrupts them all
        self._helpers: List[Any] = []

    # ----------------------------------------------------------- plumbing
    def _spawn(self, generator, name: str) -> "Process":
        process = self.sim.process(generator, name=name)
        self._helpers.append(process)
        return process

    # ------------------------------------------------------ the wave, per rank
    def enter_wave(self, wave: int) -> None:  # pragma: no cover - abstract
        """This rank's first contact with ``wave`` (the initiator's call or
        its first marker).  Idempotent; the quiesce strategy starts here."""
        raise NotImplementedError

    def on_marker(self, src: int) -> None:
        """A marker of the current wave arrived from ``src``."""

    def on_control(self, packet: Packet) -> None:
        if isinstance(packet, MarkerPacket):
            self.enter_wave(packet.wave)
            if packet.wave != self.wave:
                return  # stale marker from an aborted wave
            if self.sim.trace.wants("ft.marker_recv"):
                self.sim.trace.record(
                    self.sim.now, "ft.marker_recv", rank=self.rank,
                    src=packet.src, wave=packet.wave,
                    protocol=self.protocol.protocol_name,
                )
            self.on_marker(packet.src)
        elif isinstance(packet, CheckpointDonePacket):
            self.protocol.on_rank_done(packet.src, packet.wave)

    def _fan_out(self, dsts, packet_cls, wave: int) -> None:
        """Send one ``packet_cls(self.rank, wave)`` control packet to every
        rank in ``dsts``, in order, by a send chain that starts one URGENT
        step from now and connects missing links on the way."""
        name = (f"fan-out:{self.protocol.protocol_name}:"
                f"{packet_cls.__name__}:r{self.rank}")
        counted = self._count_marker if packet_cls is MarkerPacket else None
        self._helpers.append(self.channel.post_control(
            ((dst, packet_cls(self.rank, wave)) for dst in dsts), name,
            counted))

    def _count_marker(self, _dst: int, _packet: Packet) -> None:
        self.protocol.stats.markers_sent += 1

    def _checkpoint(self) -> None:
        """The local checkpoint, at the instant the strategy calls it: take
        the snapshot, charge the fork pause, and let the clone stream the
        image while the original computes on."""
        name = self.protocol.protocol_name
        snapshot = self.context.take_snapshot(self.wave)
        # fork() suspends the whole process briefly
        self.context.add_stall(self.protocol.fork_latency)
        self.sim.trace.record(
            self.sim.now, "ft.local_checkpoint", rank=self.rank,
            wave=self.wave, protocol=name,
        )
        self._after_fork()
        self._spawn(self._store_and_notify(snapshot),
                    f"{name}:store:r{self.rank}")

    def _after_fork(self) -> None:
        """Strategy hook between the fork and the start of the image stream."""

    def _store_and_notify(self, snapshot):
        image = CheckpointImage(self.rank, snapshot.wave, snapshot.image_bytes,
                                snapshot)
        try:
            yield from self._store_image(image)
        except ConnectionError:
            return  # failure mid-transfer; the wave will never commit
        self._after_store(image)

    def _after_store(self, image: CheckpointImage) -> None:
        """The image is stored.  By default that completes this rank's
        wave, so report it to the initiator (rank 0)."""
        if self.rank == 0:
            self.protocol.on_rank_done(0, image.wave)
        else:
            self._helpers.append(self.channel.post_control(
                [(0, CheckpointDonePacket(self.rank, image.wave))],
                f"{self.protocol.protocol_name}:done:r{self.rank}",
                defer=False))

    # ------------------------------------------------------ server plumbing
    def _server_connection(self, index: int):
        if self._server_ends[index] is None:
            end = self.replicas[index].open_connection(self.endpoint)
            self._server_ends[index] = end
            suffix = "" if index == 0 else f":s{index}"
            self._spawn(self._ack_loop(index), f"ft:ack:r{self.rank}{suffix}")
            self.protocol._connections.append(end.connection)
        return self._server_ends[index]

    def _ack_loop(self, index: int):
        end = self._server_ends[index]
        while True:
            try:
                message = yield end.recv()
            except ConnectionError:
                # The replica (or our own node) went away: fail this
                # replica's pending acks, so a quorum gate re-counts and a
                # send waiting on this one ack raises.
                for key in [k for k in self._ack_waiters if k[0] == index]:
                    waiter = self._ack_waiters.pop(key)
                    if not waiter.triggered:
                        waiter.defused = True
                        waiter.fail(ConnectionError("server connection lost"))
                return
            if message[0] == "ack":
                _kind, what, _rank, wave = message
                waiter = self._ack_waiters.pop((index, what, wave), None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed()

    def _await_ack(self, what: str, wave: int, index: int) -> "Event":
        suffix = "" if index == 0 else f":s{index}"
        event = self.sim.event(name=f"ack:{what}:{wave}:r{self.rank}{suffix}")
        self._ack_waiters[(index, what, wave)] = event
        return event

    # --------------------------------------------------------- image storage
    def _store_image(self, image: CheckpointImage):
        """Generator: fork, then pipeline the image to local disk and to every
        live checkpoint replica; completes once a majority of them
        acknowledged (with one live replica, its own ack)."""
        yield self.sim.timeout(self.protocol.fork_latency)
        ends = self._live_replica_ends()
        if not ends:
            raise ConnectionError("no reachable checkpoint replica")
        disk_write = self.endpoint.node.disk.write(image.nbytes)
        gate = self._replicated_send(
            "image", image.wave, ends,
            ("image", self.rank, image.wave, image, self.image_final),
            nbytes=image.nbytes,
            on_ok=self._acked_replicas.setdefault(image.wave, set()).add)
        # While the image streams, the channel taxes application messages
        # (progress-engine coupling; see BaseChannel.transfer_tax).  All the
        # streams contend on this rank's uplink; the tax is charged once,
        # keyed off the first live replica's stream.
        self.channel.active_transfer_end = ends[0][1]
        try:
            yield gate
        finally:
            self.channel.active_transfer_end = None
        yield disk_write
        self.protocol.local_images.put(self.endpoint.node.name, self.rank, image)
        self.protocol.stats.image_bytes_stored += image.nbytes
        self.sim.trace.record(
            self.sim.now, "ft.image_stored",
            rank=self.rank, wave=image.wave, nbytes=image.nbytes,
        )
        self.protocol.note_phase("stored", image.wave)

    def _live_replica_ends(self, indices=None) -> List[Tuple[int, "ConnectionEnd"]]:
        """(index, connection end) for every reachable replica.

        ``indices`` restricts the candidates (e.g. to the replicas that
        acknowledged this wave's image); by default all replicas are tried.
        Connections are opened lazily, dead servers and broken connections
        are skipped.
        """
        candidates = range(len(self.replicas)) if indices is None else indices
        ends: List[Tuple[int, "ConnectionEnd"]] = []
        for index in candidates:
            if not self.replicas[index].node.alive:
                continue
            end = self._server_connection(index)
            if end.broken:
                continue
            ends.append((index, end))
        return ends

    def _replicated_send(self, what: str, wave: int, targets, message,
                         nbytes: float, on_ok=None) -> "Event":
        """Send ``message`` to every target replica; the returned event
        succeeds once a majority of the targets acknowledged and fails when
        enough replicas became unreachable that a majority is impossible.
        ``on_ok(index)`` runs for every target that acknowledged.

        Majority of the replicas reachable *now*: a healthy K-replica set
        proceeds only with ceil((K+1)/2) copies — enough that any single
        server failure leaves the wave restorable — while an already
        degraded replica set can still make progress on what is left.  One
        target (K=1, or a set degraded to one live server) is a quorum of
        one: the returned event is that target's ack itself.
        """
        acks = []
        for index, end in targets:
            ack = self._await_ack(what, wave, index)
            if on_ok is not None:
                ack.callbacks.append(
                    lambda event, index=index: event.ok and on_ok(index))
            end.send(message, nbytes=nbytes)
            acks.append(ack)
        if len(acks) == 1:
            return acks[0]
        need = len(acks) // 2 + 1
        gate = self.sim.event(name=f"quorum:{what}:{wave}:r{self.rank}")
        state = {"ok": 0, "done": 0}

        def count(event: "Event") -> None:
            state["done"] += 1
            if event.ok:
                state["ok"] += 1
            else:
                # the gate is this transfer's consumer; a per-replica
                # failure must not escape to the engine
                event.defused = True
            if gate.triggered:
                return
            if state["ok"] >= need:
                gate.succeed()
            elif state["done"] == len(acks):
                gate.fail(ConnectionError(
                    f"checkpoint replica quorum unreachable ({what})"))

        for ack in acks:
            ack.callbacks.append(count)
        return gate

    def break_server_links(self) -> None:
        """The task died: its sockets to the checkpoint servers close."""
        for end in self._server_ends:
            if end is not None:
                end.connection.break_()

    def detach(self) -> None:
        for helper in self._helpers:
            helper.interrupt("protocol detached")
        self._helpers.clear()
        # a wave cut short leaves nothing frozen behind (its delayed
        # receptions are not delivered: the channel discards them)
        self.channel.lift_freezes()
        for waiter in self._ack_waiters.values():
            if not waiter.triggered:
                waiter.defused = True
                waiter.fail(ConnectionError("protocol detached"))
        self._ack_waiters.clear()

    # ------------------------------------------------- hooks for the channel
    def on_app_packet(self, packet) -> None:
        """Default: application packets need no protocol attention."""

    def on_app_sent(self, packet, dst: int) -> None:
        """Called at the send *commit* point (payload on the wire or in the
        wave's channel state).  Default: no protocol attention; Dcl counts
        committed sends here for counter quiescence."""


class BlockingEndpoint(BaseEndpoint):
    """The blocking family (Pcl, Dcl): application sends are frozen from wave
    entry until the end of the fork pause.  The strategy's :meth:`_quiesce`
    freezes the sends and starts whatever proves the channels empty, then
    calls :meth:`_cut_complete`.  ``state`` is what ``mpi.send`` records
    carry for the flush and drain monitors.
    """

    #: ``state`` while this rank is inside a wave's freeze window
    blocked_state = "checkpointing"

    def __init__(self, protocol: "BaseProtocol", rank: int) -> None:
        super().__init__(protocol, rank)
        self.state = "normal"
        self._entered_at = 0.0

    def enter_wave(self, wave: int) -> None:
        if self.state != "normal" or wave <= self.wave:
            return
        self.state = self.blocked_state
        self.wave = wave
        self._entered_at = self.sim.now
        self.protocol.note_phase("enter", wave)
        self._quiesce(wave, [r for r in range(self.job.size) if r != self.rank])

    def _quiesce(self, wave: int, others: List[int]) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _cut_complete(self) -> None:
        """This rank's channels are proven empty: the local snapshot needs
        no channel state."""
        self.protocol.note_phase("flushed", self.wave)
        self._checkpoint()

    def _after_fork(self) -> None:
        self._spawn(self._resume(),
                    f"{self.protocol.protocol_name}:resume:r{self.rank}")

    def _resume(self):
        """After the fork pause, reopen the sends and deliver what the
        receive side delayed."""
        yield self.sim.timeout(self.protocol.fork_latency)
        self.state = "normal"
        if self.sim.trace.wants("ft.resume"):
            self.sim.trace.record(self.sim.now, "ft.resume",
                                  rank=self.rank, wave=self.wave)
        self.channel.resume_sends()
        self.channel.thaw_sources()
        blocked = self.sim.now - self._entered_at
        self.protocol.stats.blocked_seconds += blocked
        if self.sim.metrics is not None:
            self.sim.metrics.observe("ft.rank_blocked_seconds", blocked,
                                     protocol=self.protocol.protocol_name,
                                     rank=self.rank)


class BaseProtocol:
    """One protocol instance per job incarnation: the wave driver."""

    #: human-readable protocol name for reports
    protocol_name = "base"
    #: the strategy's per-rank endpoint class
    endpoint_cls = BaseEndpoint
    #: deployment facts: the launcher the implementation ships with ("ftpm"
    #: for MPICH2, "dispatcher" for MPICH-V) and whether waves start from a
    #: scheduler machine
    default_launcher = "ftpm"
    needs_scheduler = False

    #: ordered (phase name, milestone key) pairs that tile a committed wave
    #: between ``ft.wave_started`` and the commit; the trailing ``commit``
    #: phase (last milestone -> commit time) is implicit.  Subclasses insert
    #: protocol-specific phases (Dcl adds ``drain`` between the request
    #: broadcast and the channel flush); see :meth:`_emit_phases`.
    wave_phase_milestones: Tuple[Tuple[str, str], ...] = (
        ("markers", "enter"),
        ("flush", "flushed"),
        ("stream", "stored"),
    )

    def __init__(
        self,
        job: "MPIJob",
        replica_map: Dict[int, List[CheckpointServer]],
        period: float,
        stats: Optional[FTStats] = None,
        local_images: Optional[LocalImageStore] = None,
        start_wave: int = 1,
        fork_latency: float = FORK_LATENCY,
    ) -> None:
        if period <= 0:
            raise ValueError("checkpoint period must be positive")
        self.job = job
        self.sim = job.sim
        #: rank -> ordered replica servers (index 0 is the rank's primary)
        self.replica_map = replica_map
        self.period = period
        self.stats = stats if stats is not None else FTStats()
        self.local_images = local_images if local_images is not None else LocalImageStore()
        self.start_wave = start_wave
        self.fork_latency = fork_latency
        self.endpoints: List[BaseEndpoint] = []
        self.detached = False
        self._connections: List["Connection"] = []
        self._driver: Optional["Process"] = None
        self._wave_trigger: Optional["Event"] = None
        # Wave-in-progress bookkeeping; the pending
        # ``_wave_committed`` event is what detach() inspects to tell an
        # aborted wave from a quiescent protocol.
        self._current_wave = 0
        self._wave_started_at = 0.0
        self._wave_committed: Optional["Event"] = None
        #: ranks whose part of the open wave is complete
        self._done_from: Set[int] = set()
        #: phase -> latest sim time any rank hit that milestone this wave
        #: (see :meth:`note_phase`); reset by :meth:`_begin_wave`
        self._phase_marks: Dict[str, float] = {}

    # ------------------------------------------------------- proactive waves
    def request_wave(self) -> None:
        """Trigger the next checkpoint wave immediately (conclusion of the
        paper: components observing a rising failure probability — e.g. a
        CPU temperature probe — should start a wave without waiting for the
        timer).  No-op while a wave is already in progress."""
        trigger = self._wave_trigger
        if trigger is not None and not trigger.triggered:
            trigger.succeed()
            self.sim.trace.record(self.sim.now, "ft.wave_requested",
                                  protocol=self.protocol_name)

    def _arm_timer(self):
        """Event for the driver: the period timeout or an early trigger."""
        self._wave_trigger = self.sim.event(name=f"{self.protocol_name}:trigger")
        return self.sim.any_of([self.sim.timeout(self.period),
                                self._wave_trigger])

    @property
    def servers(self) -> List[CheckpointServer]:
        seen: List[CheckpointServer] = []
        for replicas in self.replica_map.values():
            for server in replicas:
                if server not in seen:
                    seen.append(server)
        return seen

    # ------------------------------------------------------ the wave skeleton
    def install(self) -> None:
        self.endpoints = [self.endpoint_cls(self, rank)
                          for rank in range(self.job.size)]
        for rank, endpoint in enumerate(self.endpoints):
            self.job.channels[rank].protocol = endpoint
        self._connect_initiator()
        self._driver = self.sim.process(
            self._drive(), name=f"{self.protocol_name}:driver")

    def _connect_initiator(self) -> None:
        """Strategy hook: wiring the wave initiator needs before the first
        timer (Vcl: the scheduler's links).  Rank 0 initiates by default."""

    def _drive(self):
        """The wave initiation loop: arm, begin, open, await the commit."""
        wave = self.start_wave
        try:
            while True:
                yield self._arm_timer()
                if self.job.completed.triggered or self.job.killed:
                    return
                committed = self._begin_wave(wave)
                self._open_wave(wave)
                yield committed
                wave += 1
        except Interrupt:
            return  # detached: the job died or completed

    def _open_wave(self, wave: int) -> None:
        """Start the strategy: by default rank 0 enters the wave."""
        self.endpoints[0].enter_wave(wave)

    def on_rank_done(self, rank: int, wave: int) -> None:
        """A rank's part of the wave is complete (its message to the
        initiator, or an in-process report); commit once every rank is in."""
        if wave != self._current_wave or self.detached:
            return
        self._done_from.add(rank)
        if len(self._done_from) == self.job.size:
            self._commit_servers(wave)
            self._record_wave(wave, self._wave_started_at)
            if self._wave_committed is not None and not self._wave_committed.triggered:
                self._wave_committed.succeed()

    def detach(self) -> None:
        """Stop drivers and endpoint helpers; break protocol connections.

        Called when the job dies (failure) or completes.  Checkpoint servers
        and the stats object survive for the next incarnation.
        """
        if self.detached:
            return
        self.detached = True
        if self._wave_committed is not None and not self._wave_committed.triggered:
            # A wave was in flight when the job died or completed: it will
            # never commit.  Recording the abort closes the liveness ledger
            # (every ft.wave_started is matched by ft.wave_completed or
            # ft.wave_aborted — the wave-liveness monitor checks this).
            self.sim.trace.record(
                self.sim.now, "ft.wave_aborted",
                wave=self._current_wave, protocol=self.protocol_name,
            )
            self._wave_committed = None
        if self._driver is not None:
            self._driver.interrupt("protocol detached")
        for endpoint in self.endpoints:
            endpoint.detach()
        for channel in self.job.channels:
            if channel.protocol in self.endpoints:
                channel.protocol = None
        for connection in self._connections:
            connection.break_()
        self._connections.clear()

    def _begin_wave(self, wave: int) -> "Event":
        """Wave-start bookkeeping.

        Sets the in-progress state, clears the phase marks and the done
        set, creates the commit event and emits ``ft.wave_started``;
        returns the commit event for the driver to await.
        """
        self._current_wave = wave
        self._wave_started_at = self.sim.now
        self._phase_marks = {}
        self._done_from = set()
        self._wave_committed = self.sim.event(
            name=f"{self.protocol_name}:wave{wave}")
        self.sim.trace.record(self.sim.now, "ft.wave_started",
                              wave=wave, protocol=self.protocol_name)
        return self._wave_committed

    def note_phase(self, phase: str, wave: int) -> None:
        """Record that a rank reached a per-wave milestone *now*.

        Milestones are ``enter`` (local checkpoint / wave entry),
        ``drained`` (dcl: the initiator observed counter quiescence),
        ``flushed`` (pcl: all markers held, channels flushed; dcl: the
        checkpoint order arrived; vcl: logging window closed) and
        ``stored`` (image upload acknowledged).  The
        *last* rank to reach each milestone defines the wave-global phase
        boundary, so later calls simply overwrite.  One dict store per
        milestone per rank — cheap enough to run unconditionally.
        """
        if wave == self._current_wave:
            self._phase_marks[phase] = self.sim.now

    def _record_wave(self, wave: int, started_at: float) -> None:
        self.stats.waves_completed += 1
        self.stats.wave_records.append((wave, started_at, self.sim.now))
        self.sim.trace.record(
            self.sim.now, "ft.wave_completed", wave=wave,
            duration=self.sim.now - started_at, protocol=self.protocol_name,
        )
        self._emit_phases(wave, started_at)

    def _emit_phases(self, wave: int, started_at: float) -> None:
        """Tile the committed wave into its phases and publish them.

        The raw milestone marks (one per :attr:`wave_phase_milestones`
        entry) are clamped monotone into ``[started_at, now]``, which makes
        the phase intervals tile the wave exactly by construction:

        * ``markers`` — wave start until the last rank entered the wave,
        * ``drain``   — (Dcl only) until the initiator observed counter
          quiescence: every committed send was received, network empty,
        * ``flush``   — until the last rank's channels were flushed (pcl/
          dcl: the local snapshot) or logging window closed (vcl): the
          blocking protocols' stall lives here,
        * ``stream``  — until the last image upload was acknowledged,
        * ``commit``  — log shipping (vcl), done/ack collection and the
          server commit quorum.

        Published by :func:`emit_phase_spans` as ``ft.wave_phase`` records
        and ``ft.wave_phase_seconds`` histograms.
        """
        emit_phase_spans(
            self.sim, "ft.wave_phase",
            (*self.wave_phase_milestones, ("commit", None)),
            self._phase_marks, started_at,
            {"protocol": self.protocol_name}, wave=wave)

    def _commit_servers(self, wave: int) -> None:
        for server in self.servers:
            if server.node.alive:
                server.commit(wave)
