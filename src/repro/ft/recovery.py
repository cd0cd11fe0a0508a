"""Rollback-recovery orchestration: the fault-tolerant run.

:class:`FTRun` owns everything that *survives* a failure — the network, the
checkpoint servers, the local image store, the statistics — and drives the
kill/rollback/restart cycle over successive :class:`~repro.mpi.job.MPIJob`
incarnations:

1. a failure surfaces as an unexpected socket closure (the job's failure
   listener fires);
2. every process of the job is killed and the active (uncommitted) wave is
   abandoned;
3. the launcher respawns the processes (ssh cost; a machine a node kill
   took down reboots);
4. each rank reloads the image of the last *committed* wave — from its local
   disk when it restarts on the same machine, otherwise streamed back from
   its checkpoint server;
5. for Vcl, the daemon replays the wave's logged in-transit messages into
   the matching engine;
6. a fresh protocol instance installs and the wave timer re-arms.

That sequence is one pipeline, :meth:`FTRun._recover`: detect -> (agree) ->
place -> restore -> relaunch.  The recovery policies are the rows of
:data:`RECOVERY_POLICIES`: ``restart`` is the paper's sequence above, and a
survivor policy adds the agreement round and its own *place* step, one
module each (:mod:`repro.ft.spare`, :mod:`repro.ft.shrink`).  Step 4 is
:mod:`repro.ft.restore`'s job.

The launcher is pluggable; :mod:`repro.runtime` provides the paper's two
environments (the MPICH-V dispatcher and the MPICH2 FTPM) with their spawn
costs and scalability limits.  The default :class:`InstantLauncher` starts
processes with no cost, for unit tests.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.ft import shrink, spare
from repro.ft.failure import FAULTS, Fault, KillRecord
from repro.ft.membership import MembershipTracker
from repro.ft.protocol import FTStats, LocalImageStore, emit_phase_spans
from repro.ft.restore import FETCH_ROUNDS, ImageRestorer
from repro.ft.server import CheckpointServer, assign_replicas
from repro.mpi.job import MPIJob
from repro.net.topology import BaseNetwork, Endpoint
from repro.sim.trace import declare

__all__ = ["FTRun", "InstantLauncher", "RECOVERY_POLICIES", "RecoveryPolicy",
           "SURVIVOR_POLICIES"]


class RecoveryPolicy(NamedTuple):
    """One row of :data:`RECOVERY_POLICIES`."""

    #: ``place(run, failed, survivors, committed, inherited, marks,
    #: started_at)``: the generator run after the agreement committed and
    #: the old job was killed; it relaunches through
    #: ``FTRun._finish_recovery`` and returns None, or returns a degradation
    #: reason having relaunched nothing.  None: no survivors, no agreement —
    #: straight to the full restart
    place: Optional[Callable[..., Any]]
    #: whether the survivors' sockets are harvested before the kill and
    #: handed to ``place`` as ``inherited``
    keeps_links: bool = False


#: recovery policy -> its row; the keys are the single source of the valid
#: ``recovery_policy`` names, for specs and CLIs
RECOVERY_POLICIES: Dict[str, RecoveryPolicy] = {
    #: kill everything and reload the last committed wave (the paper)
    "restart": RecoveryPolicy(None),
    #: promote pre-allocated spare machines; survivors keep their sockets
    "spare": RecoveryPolicy(spare.place, keeps_links=True),
    #: renumber the survivors and re-decompose a malleable app
    "shrink": RecoveryPolicy(shrink.place),
}
#: those with a place step, hence an agreement round before it
SURVIVOR_POLICIES = tuple(name for name, row in RECOVERY_POLICIES.items()
                          if row.place is not None)


#: the (phase, mark) tiling of a survivor recovery; ``restore`` runs to the
#: relaunch
_RECOVERY_PHASES = (("detect", "detect"), ("agree", "agree"),
                    ("promote", "promote"), ("restore", None))


declare("ft.storage_config", __name__, replication=int, n_servers=int,
        gc_keep=int, fetch_rounds=int)
declare("runtime.validated", __name__, n_ranks=int, launcher=str,
        fd_limit=Optional[int], sockets_per_process=Optional[int],
        reserved_fds=Optional[int], max_processes=Optional[int])
declare("ft.replayed", __name__, rank=int, src=int, seq=int, wave=int)
declare("ft.failure_detected", __name__, incarnation=int)
declare("ft.recovery_begin", __name__, policy=str, ballot=int, failed=tuple,
        n_ranks=int, committed=int, incarnation=int)
declare("ft.recovery_degraded", __name__, policy=str, reason=str,
        incarnation=int)
declare("ft.restarted", __name__, wave=int, incarnation=int)
declare("ft.recovery_phase", __name__, phase=str, start=float, end=float,
        duration=float, policy=str)


class InstantLauncher:
    """Zero-cost launcher: no validation limit, no spawn delay, no respawn
    lead time.  It is ``execute``'s default (``launcher="instant"``), so
    every chaos scenario, ``mttf``, the ablations and every figure grid
    point but ``recovery`` and ``scale_limit`` restart through it; the
    launchers with real costs live in :mod:`repro.runtime`."""

    def validate(self, n_ranks: int) -> None:
        """Raise if this environment cannot run ``n_ranks`` processes."""

    def fd_budget(self) -> Dict[str, int]:
        """Descriptor-budget facts for the runtime.validated trace record
        (empty when this launcher has no file-descriptor wall)."""
        return {}

    def spawn_delays(self, n_ranks: int) -> List[float]:
        """Per-rank start delays for a (re)launch."""
        return [0.0] * n_ranks

    def respawn_lead_time(self) -> float:
        """Fixed cost before respawning begins (signalling, cleanup)."""
        return 0.0


class FTRun:
    """One fault-tolerant application execution, across failures."""

    def __init__(
        self,
        sim: "Simulator",
        net: BaseNetwork,
        endpoints: Sequence[Endpoint],
        app_factory: Callable,
        channel_cls: type,
        protocol_factory: Optional[Callable[[MPIJob, "FTRun"], "BaseProtocol"]],
        servers: Sequence[CheckpointServer],
        launcher: Optional[InstantLauncher] = None,
        image_bytes: float = 0.0,
        name: str = "ftrun",
        replication: int = 1,
        recovery_policy: str = "restart",
        spare_pool: Optional[Sequence] = None,
        malleable_app_factory: Optional[Callable[[int], Callable]] = None,
    ) -> None:
        if recovery_policy not in RECOVERY_POLICIES:
            raise ValueError(f"unknown recovery policy {recovery_policy!r}")
        self.sim = sim
        self.net = net
        self.endpoints = list(endpoints)
        self.app_factory = app_factory
        self.channel_cls = channel_cls
        self.protocol_factory = protocol_factory
        self.servers = list(servers)
        self.replication = replication
        self.launcher = launcher if launcher is not None else InstantLauncher()
        self.image_bytes = image_bytes
        self.name = name
        #: recoveries allowed before the run gives up (callers may raise it)
        self.max_restarts = 16
        #: a :data:`RECOVERY_POLICIES` name
        self.recovery_policy = recovery_policy
        #: deployment facts the policy modules read: idle machines a
        #: placement may promote, and size -> app function for a placement
        #: that re-decomposes the application
        self.spare_pool = list(spare_pool or [])
        self.malleable_app_factory = malleable_app_factory

        self.stats = FTStats()
        self.local_images = LocalImageStore()
        #: what the fault injectors actually did, in order
        self.injected: List[KillRecord] = []
        self.restorer = ImageRestorer(self)
        self.completed = sim.event(name=f"{name}:completed")
        self.job: Optional[MPIJob] = None
        self.protocol = None
        self.incarnation = 0
        self._handling_failure = False
        self._started_at = 0.0
        #: live agreement round, set while a survivor recovery is deciding
        #: the failed set; later socket-closure signals fold into it
        self._membership: Optional[MembershipTracker] = None
        self._next_ballot = 1

    @cached_property
    def replica_map(self) -> Dict[int, List[CheckpointServer]]:
        """Rank -> ordered K replica servers; index 0 is the rank's primary.
        Built by :func:`assign_replicas` on first read (an assignment, by
        :meth:`use_site_primaries` or a shrink, replaces it): a run that
        neither checkpoints nor restores keeps no per-rank table."""
        return (assign_replicas(len(self.endpoints), self.servers,
                                self.replication) if self.servers else {})

    def use_site_primaries(self, mapping: Dict[int, CheckpointServer]) -> None:
        """Override the round-robin primary assignment (e.g. Grid'5000 site
        locality) while keeping the replica sets consistent: each rank's
        replicas are its new primary followed by the next servers in ring
        order."""
        order = self.servers
        self.replica_map = {}
        for rank, primary in mapping.items():
            start = order.index(primary)
            self.replica_map[rank] = [
                order[(start + j) % len(order)] for j in range(self.replication)
            ]

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self.launcher.validate(len(self.endpoints))
        self._announce_world()
        if self.sim.trace.wants("ft.storage_config"):
            self.sim.trace.record(
                self.sim.now, "ft.storage_config",
                replication=self.replication,
                n_servers=len(self.servers),
                gc_keep=max((s.gc_keep for s in self.servers), default=1),
                fetch_rounds=FETCH_ROUNDS,
            )
        self._started_at = self.sim.now
        self._launch()

    def _announce_world(self) -> None:
        """World size for monitors keying coverage on ``n_ranks`` (at start,
        and again when a placement re-dimensions the stream)."""
        if self.sim.trace.wants("runtime.validated"):
            self.sim.trace.record(
                self.sim.now, "runtime.validated",
                n_ranks=len(self.endpoints),
                launcher=type(self.launcher).__name__,
                **self.launcher.fd_budget(),
            )

    def _launch(self, snapshots=None, logs=None, restored_wave: int = 0,
                inherited_links=None,
                start_delays: Optional[Sequence[float]] = None,
                seed_state: Optional[Dict] = None) -> None:
        self.incarnation += 1
        job = MPIJob(
            self.sim, self.net, self.endpoints, self.app_factory,
            self.channel_cls, name=f"{self.name}#{self.incarnation}",
            image_bytes=self.image_bytes,
            inherited_links=inherited_links,
        )
        self.job = job
        self._handling_failure = False
        job.failure_listener = self._on_failure_signal
        job.completed.callbacks.append(self._on_job_completed)
        if self.protocol_factory is not None:
            committed = self.committed_wave()
            self.protocol = self.protocol_factory(job, self)
            self.protocol.start_wave = committed + 1
            self.protocol.install()
        if seed_state:
            # a re-decomposing placement: every fresh context learns the
            # iteration the surviving decomposition resumes from (no
            # snapshot restore — the app recomputes from that boundary)
            for context in job.contexts:
                context.state.update(seed_state)
        delays = (list(start_delays) if start_delays is not None
                  else self.launcher.spawn_delays(len(self.endpoints)))
        job.start(snapshots=snapshots, start_delays=delays)
        if logs:
            # Vcl: the daemons replay the logged in-transit messages; they
            # land after the restored unexpected queues, preserving per-
            # channel FIFO order.
            trace = self.sim.trace
            live = trace.wants("ft.replayed")
            for rank, packets in logs.items():
                for packet in packets:
                    if live:
                        trace.record(self.sim.now, "ft.replayed", rank=rank,
                                     src=packet.src, seq=packet.seq,
                                     wave=restored_wave)
                    job.channels[rank].matching.deliver(packet)

    def _on_job_completed(self, event) -> None:
        if self.completed.triggered:
            return
        if self.protocol is not None:
            self.protocol.detach()
        self.completed.succeed(self.sim.now - self._started_at)

    # ----------------------------------------------------------------- waves
    def committed_wave(self) -> int:
        if not self.servers:
            return 0
        return max(server.committed_wave for server in self.servers)

    # --------------------------------------------------------------- failure
    def schedule(self, fault: Fault) -> None:
        """Inject ``fault`` into whatever incarnation is live at
        ``fault.at`` (:data:`~repro.ft.failure.FAULTS` says how)."""
        fault.check(len(self.endpoints), len(self.servers))
        delay = fault.at - self.sim.now
        if delay < 0:
            raise ValueError(
                f"{self.name}: cannot schedule {fault.label}, "
                f"the simulation is already at t={self.sim.now:g}")
        self.sim.call_at(delay, FAULTS[fault.kind].inject, self, fault)

    def _on_failure_signal(self, rank: int, peer: Optional[int]) -> None:
        """Unexpected socket closure observed; first signal wins.

        With a survivor policy, the first signal opens a membership
        agreement round and later signals — including those from a
        cascading failure — fold into it as suspicions instead of starting
        competing recoveries.
        """
        if self.completed.triggered:
            return
        if self._handling_failure:
            if self._membership is not None:
                self._membership.observe(rank, peer)
            return
        self._handling_failure = True
        self.stats.failures += 1
        self.sim.trace.record(self.sim.now, "ft.failure_detected",
                              incarnation=self.incarnation)
        if RECOVERY_POLICIES[self.recovery_policy].place is not None:
            self._membership = MembershipTracker(
                self.sim, self.job, self._detect_latency(),
                ballot_start=self._next_ballot)
            self._membership.observe(rank, peer)
        self.sim.process(self._recover(), name=f"{self.name}:recover")

    def _detect_latency(self) -> float:
        """Fabric latency used to time suspicion windows and ballots."""
        fabric = getattr(self.net, "fabric", None)
        latency = getattr(fabric, "latency", None)
        return latency if latency is not None else 1e-4

    def _recover(self):
        """The recovery pipeline.  A policy without a place step kills
        everything and goes straight to the paper's full restart; a survivor
        policy first agrees on the failed set (ULFM-style), then runs its
        place step, and degrades to the same full restart when the step
        cannot proceed (never hang)."""
        policy = self.recovery_policy
        row = RECOVERY_POLICIES[policy]
        started_at = self.sim.now
        marks: Dict[str, float] = {}
        if self.protocol is not None:
            self.protocol.detach()
        if self.stats.restarts >= self.max_restarts:
            raise RuntimeError(f"{self.name}: exceeded {self.max_restarts} restarts")
        job = self.job

        if row.place is None:
            job.kill()
            committed = self.committed_wave()
        else:
            tracker = self._membership
            failed, survivors, ballot = yield from tracker.agree()
            self._membership = None
            self._next_ballot = ballot + 1
            marks["detect"] = tracker.window_closed_at
            marks["agree"] = self.sim.now
            committed = self.committed_wave()
            self.sim.trace.record(
                self.sim.now, "ft.recovery_begin", policy=policy, ballot=ballot,
                failed=failed, n_ranks=len(self.endpoints), committed=committed,
                incarnation=self.incarnation)

            # Survivor sockets can outlive the dying incarnation: detach them
            # before the kill breaks everything, then drop whatever the dead
            # epoch left on the wire.
            inherited = job.harvest_links(survivors) if row.keeps_links else {}
            job.kill()
            for end_lo, _end_hi in inherited.values():
                end_lo.connection.flush()

            reason = yield from row.place(self, failed, survivors, committed,
                                          inherited, marks, started_at)
            if reason is None:
                return
            self.stats.policy_degradations += 1
            self.sim.trace.record(self.sim.now, "ft.recovery_degraded",
                                  policy=policy, reason=reason,
                                  incarnation=self.incarnation)
            for end_lo, _end_hi in inherited.values():
                end_lo.connection.break_()

        # ---- the paper's full restart: the policy without a place step,
        # and what every survivor policy degrades to
        yield self.sim.timeout(self.launcher.respawn_lead_time())
        self._reboot_dead_nodes()
        marks["promote"] = self.sim.now
        snapshots, logs, restored_wave = \
            yield from self.restorer.restore(committed)
        # a second kill may have landed while images were streaming back —
        # reboot before relaunching onto a dead machine
        self._reboot_dead_nodes()
        self._finish_recovery(restored_wave, snapshots, logs, marks, started_at)

    def _finish_recovery(self, restored_wave, snapshots, logs, marks,
                         started_at, **relaunch) -> None:
        """Account the recovery, then ``_launch(..., **relaunch)``."""
        now = self.sim.now
        self.stats.restarts += 1
        self.stats.recovery_seconds += now - started_at
        self.sim.trace.record(now, "ft.restarted", wave=restored_wave,
                              incarnation=self.incarnation)
        # the paper's restart has no survivor phases: its series stays
        # unlabelled and it emits no ft.recovery_phase (pinned by the goldens)
        policy = self.recovery_policy
        survivor_policy = RECOVERY_POLICIES[policy].place is not None
        if self.sim.metrics is not None:
            labels = {"policy": policy} if survivor_policy else {}
            self.sim.metrics.observe("ft.recovery_seconds", now - started_at,
                                     wave=restored_wave, **labels)
        if survivor_policy:
            emit_phase_spans(self.sim, "ft.recovery_phase", _RECOVERY_PHASES,
                             marks, started_at, {"policy": policy})
        self._launch(snapshots, logs, restored_wave=restored_wave, **relaunch)

    def _reboot_dead_nodes(self) -> None:
        """The paper's restart reuses its machines: a node a kill took down
        reboots (its local images stay lost)."""
        for endpoint in self.endpoints:
            if not endpoint.node.alive:
                endpoint.node.restore()

