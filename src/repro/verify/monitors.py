"""The shipped invariant monitors.

Provenance of each invariant:

* **monotone-clock** — the deterministic total event order of
  :class:`repro.sim.engine.Simulator` (DESIGN.md §7): heap pops are ordered
  by ``(time, priority, seq)`` and the clock never runs backwards.
* **fifo-delivery** — Chandy & Lamport's channel assumption ("Distributed
  snapshots", 1985) that both protocols inherit: every connection delivers
  messages in send order, at the pipe level and per (receiver, source) MPI
  channel.
* **vcl-no-orphan** — the no-orphan-message property of the Chandy–Lamport
  cut (paper Sec. 3, Fig. 1): a message received before the receiver's wave-w
  snapshot must have been sent before the sender's wave-w snapshot.
* **vcl-logging** — channel-state completeness (paper Sec. 3/4.1): every
  in-transit message crossing the cut (delivered after the receiver's
  snapshot, before the sender's marker) is copied into the daemon log and
  replayed exactly once per restart from that wave.
* **pcl-flush** — the channel-flush property of the blocking protocol
  (paper Sec. 3, Fig. 2): after the marker, no application payload crosses
  a channel until the local checkpoint completes — sends are gated (the
  Nemesis stopper) and receptions from marked sources are delayed.
* **dcl-network-empty** — the message-drain protocol's defining property
  (:mod:`repro.ft.dcl`): a draining rank commits no application send, and
  when a rank forks its wave-*w* image no pre-wave-*w* application message
  is still in flight anywhere — counter quiescence really emptied the
  network, so the images alone form a consistent global state.
* **dcl-drain-liveness** — counter quiescence terminates: every Dcl wave
  reaches ``ft.drain_quiesced`` within :data:`repro.ft.dcl.DRAIN_BUDGET`
  of its start (and before any rank forks or the wave commits); a drain
  that never converges is a stalled wave, not a slow one.
* **fd-budget** — the MPICH-V dispatcher's scalability wall (paper
  Sec. 5.4): 3 sockets per process multiplexed with ``select()``, whose fd
  set caps at 1024.
* **engine-liveness** — the monitor-side mirror of the engine's
  :class:`repro.sim.engine.Watchdog`: the simulation must keep advancing
  its clock; a zero-time event cascade past the watchdog's budget is a
  livelock (the failure mode behind the historical Pcl
  ``procs_per_node=2`` hang).
* **wave-liveness** — every checkpoint wave terminates: each
  ``ft.wave_started`` record must be matched by ``ft.wave_completed`` or,
  when the job dies or completes mid-wave, ``ft.wave_aborted``.  A second
  wave starting while one is open, or a dangling wave at end of run, means
  the driver's commit plumbing wedged.
* **membership-agreement** — the survivor-recovery agreement contract
  (:mod:`repro.ft.membership`, docs/RECOVERY.md): recovery acts on an
  *agreed* failed set, never a partial view — every commit matches the
  ballot's proposed failed set, no failed rank commits, and by the time
  ``ft.recovery_begin`` fires every survivor of that ballot has committed.
* **spare-consistency** — the spare-promotion contract
  (:mod:`repro.ft.recovery`, docs/RECOVERY.md): only ranks of the agreed
  failed set are promoted onto spares, and a promoted spare restores the
  recovery's newest committed wave (or the wave the restore legitimately
  fell back to), inside an open recovery — never a stale or future image.
* **storage-durability** — the replicated checkpoint store's contract
  (:mod:`repro.ft.server`): a committed wave is restorable — every rank has
  at least one sealed, checksum-intact replica on a live server when the
  commit lands and, with replication ≥ 2, still after any single server
  death; a successful fetch returns the checksum that was sealed, never a
  corrupted or dead-server copy; a run only declares
  ``storage-unrecoverable`` when no committed wave is fully covered; a
  restart restores a wave some server actually committed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ft.dcl import DRAIN_BUDGET
from repro.sim.engine import DEFAULT_MAX_SAME_TIME_EVENTS
from repro.sim.trace import TraceRecord
from repro.verify.base import Monitor, on

__all__ = [
    "MonotoneClockMonitor",
    "FifoDeliveryMonitor",
    "VclNoOrphanMonitor",
    "VclLoggingMonitor",
    "PclFlushMonitor",
    "DclNetworkEmptyMonitor",
    "DclDrainLivenessMonitor",
    "FdBudgetMonitor",
    "LivelockMonitor",
    "WaveLivenessMonitor",
    "StorageDurabilityMonitor",
    "MembershipAgreementMonitor",
    "SpareConsistencyMonitor",
    "all_monitors",
    "monitors_for",
]

#: sentinel ranks (the Vcl scheduler) that never appear in logging windows
_PSEUDO_RANK_CEILING = 0


def _is_pseudo(rank: int) -> bool:
    return rank < _PSEUDO_RANK_CEILING


class MonotoneClockMonitor(Monitor):
    """Simulation time is monotone; event pops follow the total order.

    Events scheduled *while processing* a same-timestamp event legally pop
    after it despite a more urgent (priority, seq) key, so the checkable
    property is: within one timestamp, a pop must never be preceded by the
    pop of a *later-pushed* (higher seq) event of equal or lower urgency —
    an earlier-pushed event at equal-or-higher urgency can never still be
    pending when a dominated one pops.
    """

    name = "monotone-clock"
    categories = None  # every record carries a timestamp to check
    wants_steps = True

    #: record timestamps may trail the last one by float residue only
    RECORD_SLACK = 1e-12

    def __init__(self) -> None:
        super().__init__()
        self.step_time = -1.0
        # Highest seq popped at the current timestamp, split by the engine's
        # two priority levels (URGENT=0, NORMAL=1).  Scalars, not a dict:
        # this method runs once per heap pop, millions of times per run.
        self.max_urgent = -1
        self.max_normal = -1
        self.record_time = -1.0

    def on_step(self, time: float, priority: int, seq: int) -> None:
        self.checked += 1
        if time != self.step_time:
            if time < self.step_time:
                self.violation(
                    time,
                    f"event pop at t={time} after a pop at t={self.step_time} "
                    "— the simulation clock ran backwards",
                )
            self.step_time = time
            if priority:
                self.max_normal = seq
                self.max_urgent = -1
            else:
                self.max_urgent = seq
                self.max_normal = -1
            return
        # A pop is dominated when an event popped earlier at this timestamp
        # had equal-or-lower urgency (priority >= ours) yet a higher seq
        # (pushed later): we were already pending and should have won.
        if priority:
            if self.max_normal > seq:
                self.violation(
                    time,
                    f"event (priority={priority}, seq={seq}) popped after "
                    f"(priority=1, seq={self.max_normal}) at the same "
                    f"t={time} although it was pushed earlier at equal or "
                    "higher urgency — deterministic total order broken",
                )
            else:
                self.max_normal = seq
        else:
            worst = self.max_normal if self.max_normal > self.max_urgent \
                else self.max_urgent
            if worst > seq:
                self.violation(
                    time,
                    f"event (priority={priority}, seq={seq}) popped after "
                    f"(seq={worst}) at the same t={time} although it was "
                    "pushed earlier at equal or higher urgency — "
                    "deterministic total order broken",
                )
            if seq > self.max_urgent:
                self.max_urgent = seq

    def on_record(self, record: TraceRecord) -> None:
        # The bus inlines this comparison into its per-category closures
        # (one frame less per record); the report below is shared.
        self.checked += 1
        if record.time < self.record_time - self.RECORD_SLACK:
            self.record_regressed(record.time, record.category)
        else:
            self.record_time = record.time

    def record_regressed(self, time: float, category: str) -> None:
        self.violation(
            time,
            f"trace record {category!r} at t={time} emitted "
            f"after a record at t={self.record_time} — simulation "
            "clock ran backwards",
        )


class FifoDeliveryMonitor(Monitor):
    """Connections deliver FIFO: per pipe and per (receiver, source)."""

    name = "fifo-delivery"

    def __init__(self) -> None:
        super().__init__()
        #: pipe name -> (highest id accepted for send, highest id delivered)
        self._pipes: Dict[str, Tuple[int, int]] = {}
        #: (job, rank, src) -> last seq seen arriving at the channel
        self._arrivals: Dict[Tuple[str, int, int], int] = {}
        #: (job, rank, src) -> last seq handed to the matching engine
        self._deliveries: Dict[Tuple[str, int, int], int] = {}

    @on("net.sent")
    def on_net_sent(self, time, pipe, msg, nbytes) -> None:
        sent, delivered = self._pipes.get(pipe, (0, 0))
        self._pipes[pipe] = (max(sent, msg), delivered)

    @on("net.delivered")
    def on_net_delivered(self, time, pipe, msg) -> None:
        sent, delivered = self._pipes.get(pipe, (0, 0))
        if msg <= delivered:
            self.violation(
                time,
                f"pipe {pipe}: message #{msg} delivered after #{delivered} "
                "— out-of-order (or duplicate) delivery on a FIFO pipe",
            )
        if msg > sent:
            self.violation(
                time,
                f"pipe {pipe}: message #{msg} delivered but only #{sent} "
                "was ever sent",
            )
        self._pipes[pipe] = (sent, max(delivered, msg))

    @on("mpi.recv")
    def on_mpi_recv(self, time, job, rank, src, seq) -> None:
        key = (job, rank, src)
        last = self._arrivals.get(key, 0)
        if seq <= last:
            self.violation(
                time,
                f"rank {rank} received packet #{seq} from rank {src} "
                f"after #{last} (job {job}) — per-connection FIFO "
                "arrival order broken",
            )
        self._arrivals[key] = max(last, seq)

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        key = (job, rank, src)
        last = self._deliveries.get(key, 0)
        if seq <= last:
            self.violation(
                time,
                f"rank {rank} delivered packet #{seq} from rank {src} "
                f"to matching after #{last} (job {job}) — per-channel "
                "FIFO delivery order broken (delayed queue released out "
                "of order?)",
            )
        self._deliveries[key] = max(last, seq)


class VclNoOrphanMonitor(Monitor):
    """No orphan messages in a Vcl cut.

    A message delivered to rank *r* while *r*'s latest Vcl snapshot is wave
    ``w_r`` must not have been sent by a rank whose snapshot wave at send
    time exceeded ``w_r``: that message would be *received* in the global
    checkpoint without its *send* being part of it (and it is not channel
    state — it was sent after the sender's checkpoint).  FIFO plus
    marker-before-payload makes this impossible in a correct run.
    """

    name = "vcl-no-orphan"

    def __init__(self) -> None:
        super().__init__()
        #: (job, src, seq) -> sender's snapshot wave when the send committed
        self._sends: Dict[Tuple[str, int, int], int] = {}
        #: rank -> latest Vcl snapshot wave
        self._rank_wave: Dict[int, int] = {}

    @on("mpi.send")
    def on_mpi_send(self, time, job, src, dst, seq, nbytes, wave, state,
                    protocol) -> None:
        if protocol != "vcl":
            return  # waves of other protocols are not Chandy–Lamport cuts
        self._sends[(job, src, seq)] = wave

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        send_wave = self._sends.pop((job, src, seq), 0)
        if not send_wave:
            return
        rank_wave = self._rank_wave.get(rank, 0)
        if send_wave > rank_wave:
            self.violation(
                time,
                f"orphan message: rank {src} sent packet #{seq} "
                f"after its wave-{send_wave} snapshot, but rank {rank} "
                f"received it before its own wave-{send_wave} snapshot "
                f"(receiver is still at wave {rank_wave}) — the cut "
                "records a receive without its send",
            )

    @on("ft.local_checkpoint")
    def on_ft_local_checkpoint(self, time, rank, wave, protocol) -> None:
        if protocol == "vcl":
            self._rank_wave[rank] = max(self._rank_wave.get(rank, 0), wave)

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        # Roll every mirror back to the restart wave: the new
        # incarnation's endpoints restart their wave counters from it.
        for rank in self._rank_wave:
            self._rank_wave[rank] = wave
        self._sends.clear()

    @on("job.killed")
    def on_job_killed(self, time, job, name) -> None:
        # in-flight sends of that job will never deliver
        for key in [k for k in self._sends if k[0] == job]:
            del self._sends[key]


class VclLoggingMonitor(Monitor):
    """Vcl channel-state completeness: log in-transit, replay exactly once.

    While rank *r* is logging for wave *w* (between its snapshot and the
    marker of peer *p* on that channel), every application packet from *p*
    delivered at *r* crosses the cut and must appear in the daemon log.
    After a rollback to wave *w*, the replayed messages must be exactly the
    wave-*w* log — nothing lost, nothing duplicated, nothing invented.
    """

    name = "vcl-logging"

    def __init__(self) -> None:
        super().__init__()
        #: rank -> set of peers whose marker is still outstanding
        self._window: Dict[int, Set[int]] = {}
        #: rank -> wave the open window belongs to
        self._window_wave: Dict[int, int] = {}
        #: (wave, rank) -> {(src, seq), ...} logged by the daemon
        self._logged: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
        #: active replay session: wave and per-rank replayed sets
        self._replay_wave: Optional[int] = None
        self._replayed: Dict[int, Set[Tuple[int, int]]] = {}

    @on("ft.logging_open")
    def on_ft_logging_open(self, time, rank, wave, peers) -> None:
        self._window[rank] = set(peers)
        self._window_wave[rank] = wave

    @on("ft.marker_recv")
    def on_ft_marker_recv(self, time, rank, src, wave, protocol) -> None:
        if protocol == "vcl" and not _is_pseudo(src):
            self._window.get(rank, set()).discard(src)

    @on("ft.logged")
    def on_ft_logged(self, time, rank, src, seq, wave, nbytes) -> None:
        if src not in self._window.get(rank, ()):
            self.violation(
                time,
                f"rank {rank} logged packet #{seq} from "
                f"rank {src} outside its wave-{wave} logging window — "
                "over-logging would replay a message whose send is "
                "already in the cut",
            )
        self._logged.setdefault((wave, rank), set()).add((src, seq))

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        window = self._window.get(rank)
        if window and src in window:
            wave = self._window_wave.get(rank, 0)
            if (src, seq) not in self._logged.get((wave, rank), ()):
                self.violation(
                    time,
                    f"in-transit message crossing the wave-{wave} cut was "
                    f"not logged: rank {rank} delivered packet "
                    f"#{seq} from rank {src} after its "
                    "snapshot and before that channel's marker, but the "
                    "daemon log has no copy — the channel state is "
                    "incomplete and a rollback would lose this message",
                )

    @on("ft.replayed")
    def on_ft_replayed(self, time, rank, src, seq, wave) -> None:
        entry = (src, seq)
        if self._replay_wave != wave:
            self.violation(
                time,
                f"rank {rank} replayed a wave-{wave} message but the "
                f"restart rolled back to wave {self._replay_wave}",
            )
        if entry not in self._logged.get((wave, rank), ()):
            self.violation(
                time,
                f"rank {rank} replayed packet #{seq} from rank "
                f"{src} that was never logged for wave {wave}",
            )
        replayed = self._replayed.setdefault(rank, set())
        if entry in replayed:
            self.violation(
                time,
                f"rank {rank} replayed packet #{seq} from rank "
                f"{src} twice in one restart",
            )
        replayed.add(entry)

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        self._close_replay_session(time)
        self._replay_wave = wave
        self._replayed = {}
        # windows of the dead incarnation are gone, and so are the logs
        # of every wave past the rollback point: those waves never
        # committed, and the new incarnation's packet seq counters
        # restart, so their (src, seq) entries must not linger
        self._window.clear()
        self._window_wave.clear()
        self._logged = {
            key: entries for key, entries in self._logged.items()
            if key[0] <= wave
        }

    @on("ft.failure_detected")
    def on_ft_failure_detected(self, time, incarnation) -> None:
        # logging windows die with the job
        self._window.clear()
        self._window_wave.clear()

    def _close_replay_session(self, time: float) -> None:
        if self._replay_wave is None:
            return
        wave = self._replay_wave
        for (logged_wave, rank), entries in self._logged.items():
            if logged_wave != wave:
                continue
            missing = entries - self._replayed.get(rank, set())
            if missing:
                self.violation(
                    time,
                    f"rank {rank} never replayed {len(missing)} logged "
                    f"wave-{wave} message(s) after the rollback to wave "
                    f"{wave}: {sorted(missing)[:5]} — logged channel state "
                    "was lost",
                )
        self._replay_wave = None
        self._replayed = {}

    def finish(self) -> None:
        self._close_replay_session(-1.0)


class PclFlushMonitor(Monitor):
    """Pcl channel flush: nothing crosses between marker and checkpoint.

    Send side: a rank in the ``checkpointing`` state must not commit an
    application payload to the wire (its gates are closed / the Nemesis
    stopper is queued).  Receive side: once rank *r* holds the marker of
    peer *p*, application packets from *p* must not reach the matching
    engine until *r*'s local checkpoint completes (the delayed receive
    queue).
    """

    name = "pcl-flush"

    def __init__(self) -> None:
        super().__init__()
        #: ranks currently between wave entry and post-checkpoint resume
        self._checkpointing: Set[int] = set()
        #: rank -> wave being checkpointed
        self._wave: Dict[int, int] = {}
        #: rank -> sources whose marker arrived (receptions must be delayed)
        self._frozen: Dict[int, Set[int]] = {}

    @on("mpi.send")
    def on_mpi_send(self, time, job, src, dst, seq, nbytes, wave, state,
                    protocol) -> None:
        if src in self._checkpointing:
            self.violation(
                time,
                f"rank {src} put application packet #{seq} "
                f"({nbytes or 0:.0f}B to rank "
                f"{dst}) on the wire while checkpointing "
                f"wave {self._wave.get(src)} — payload crossed the "
                "channel between the marker and the local checkpoint "
                "(send gates / Nemesis stopper bypassed)",
            )

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        if rank in self._checkpointing and src in self._frozen.get(rank, ()):
            self.violation(
                time,
                f"rank {rank} delivered packet #{seq} from "
                f"rank {src} to matching while checkpointing wave "
                f"{self._wave.get(rank)} although rank {src}'s marker "
                "had arrived — the reception must sit in the delayed "
                "queue until the local checkpoint completes",
            )

    @on("ft.enter_wave")
    def on_ft_enter_wave(self, time, rank, wave) -> None:
        self._checkpointing.add(rank)
        self._wave[rank] = wave
        self._frozen[rank] = set()

    @on("ft.resume")
    def on_ft_resume(self, time, rank, wave) -> None:
        self._checkpointing.discard(rank)
        self._frozen.pop(rank, None)

    @on("ft.marker_recv")
    def on_ft_marker_recv(self, time, rank, src, wave, protocol) -> None:
        if (protocol == "pcl" and rank in self._checkpointing
                and wave == self._wave.get(rank)):
            self._frozen.setdefault(rank, set()).add(src)

    @on("ft.restarted", "ft.failure_detected", "job.killed")
    def on_incarnation_end(self, time, *_, **__) -> None:
        self._checkpointing.clear()
        self._wave.clear()
        self._frozen.clear()


class DclNetworkEmptyMonitor(Monitor):
    """Dcl network-empty-at-fork: the drain really drained.

    Send side: a rank in the ``draining`` state must not commit an
    application payload to the wire (its gates are closed — Pcl's very
    machinery, so a bypass is the same bug class as a flush violation).
    Fork side: when a rank takes its wave-*w* Dcl checkpoint, no
    application message committed before the wave (send wave < *w*) may
    still be undelivered anywhere — otherwise counter quiescence was
    declared with bytes in flight and the images do not form a consistent
    cut.  Post-resume sends of faster ranks carry wave *w* and are legal.
    """

    name = "dcl-network-empty"

    def __init__(self) -> None:
        super().__init__()
        #: (job, src, seq) -> sender's wave when the dcl send committed
        self._outstanding: Dict[Tuple[str, int, int], int] = {}

    @on("mpi.send")
    def on_mpi_send(self, time, job, src, dst, seq, nbytes, wave, state,
                    protocol) -> None:
        if protocol != "dcl":
            return
        if state == "draining":
            self.violation(
                time,
                f"rank {src} committed application packet "
                f"#{seq} ({nbytes or 0:.0f}B "
                f"to rank {dst}) while draining wave "
                f"{wave} — the drain request froze this "
                "rank's sends (send gates / Nemesis stopper bypassed)",
            )
        self._outstanding[(job, src, seq)] = wave

    @on("mpi.deliver")
    def on_mpi_deliver(self, time, job, rank, src, seq) -> None:
        self._outstanding.pop((job, src, seq), None)

    @on("ft.local_checkpoint")
    def on_ft_local_checkpoint(self, time, rank, wave, protocol) -> None:
        if protocol != "dcl":
            return
        stale = [(key, w) for key, w in self._outstanding.items()
                 if w < wave]
        if stale:
            (job, src, seq), send_wave = stale[0]
            self.violation(
                time,
                f"rank {rank} forked its wave-{wave} image "
                f"but packet #{seq} from rank {src} (sent at wave "
                f"{send_wave}, job {job}) is still in flight — counter "
                f"quiescence declared the network empty with "
                f"{len(stale)} undelivered pre-wave message(s)",
            )

    @on("job.killed")
    def on_job_killed(self, time, job, name) -> None:
        for key in [k for k in self._outstanding if k[0] == job]:
            del self._outstanding[key]

    @on("ft.restarted", "ft.failure_detected")
    def on_incarnation_end(self, time, *_, **__) -> None:
        self._outstanding.clear()


class DclDrainLivenessMonitor(Monitor):
    """Dcl drains terminate: quiescence lands within the watchdog budget.

    Shares :data:`repro.ft.dcl.DRAIN_BUDGET` with the protocol (the same
    pattern as :class:`LivelockMonitor` and the engine watchdog) so monitor
    and implementation agree on what counts as a stalled drain.  A Dcl wave
    must reach ``ft.drain_quiesced`` within the budget of its
    ``ft.wave_started``, before any rank forks its image and before the
    wave commits; a wave that ends the run still draining never converged.
    """

    name = "dcl-drain-liveness"

    def __init__(self, budget: Optional[float] = None) -> None:
        super().__init__()
        self.budget = budget if budget is not None else DRAIN_BUDGET
        #: (wave, start time) of the open dcl wave, if any
        self._open: Optional[Tuple[int, float]] = None
        self._quiesced = False

    def _draining(self, wave: int) -> bool:
        """Is ``wave`` the open dcl wave, still short of quiescence?"""
        return (self._open is not None and self._open[0] == wave
                and not self._quiesced)

    @on("ft.wave_started")
    def on_ft_wave_started(self, time, wave, protocol) -> None:
        if protocol == "dcl":
            self._open = (wave, time)
            self._quiesced = False

    @on("ft.drain_quiesced")
    def on_ft_drain_quiesced(self, time, wave, sent, recvd, elapsed,
                             protocol) -> None:
        if self._open is None or self._open[0] != wave:
            self.violation(
                time,
                f"drain quiescence reported for wave {wave} but the open "
                f"dcl wave is "
                f"{self._open[0] if self._open else 'none'} — quiescence "
                "without a drain in progress",
            )
            return
        elapsed = time - self._open[1]
        if elapsed > self.budget:
            self.violation(
                time,
                f"wave {wave} needed {elapsed:.3f}s to reach counter "
                f"quiescence, over the drain budget of {self.budget}s — "
                "the drain stalled (a counter report lost, or sends not "
                "actually frozen)",
            )
        self._quiesced = True

    @on("ft.local_checkpoint")
    def on_ft_local_checkpoint(self, time, rank, wave, protocol) -> None:
        if protocol == "dcl" and self._draining(wave):
            self.violation(
                time,
                f"rank {rank} forked its wave-{wave} image "
                "before the initiator declared counter quiescence — the "
                "checkpoint order outran the drain",
            )

    @on("ft.wave_completed")
    def on_ft_wave_completed(self, time, wave, duration, protocol) -> None:
        if protocol != "dcl":
            return
        if self._draining(wave):
            self.violation(
                time,
                f"dcl wave {wave} committed without ever reaching "
                "counter quiescence",
            )
        self._open = None

    @on("ft.wave_aborted")
    def on_ft_wave_aborted(self, time, wave, protocol) -> None:
        if protocol == "dcl":  # a mid-drain death legally closes the wave
            self._open = None

    def finish(self) -> None:
        if self._open is not None and not self._quiesced:
            wave, started_at = self._open
            self.violation(
                started_at,
                f"dcl wave {wave} started at t={started_at} and the run "
                "finished with the drain still in progress — counter "
                "quiescence never converged (stalled drain)",
            )
        self._open = None


class FdBudgetMonitor(Monitor):
    """The dispatcher's select() budget: 3 sockets/process, 1024 fds."""

    name = "fd-budget"

    @on("runtime.validated")
    def on_runtime_validated(self, time, n_ranks, launcher, fd_limit=None,
                             sockets_per_process=None, reserved_fds=None,
                             max_processes=None) -> None:
        if fd_limit is None or sockets_per_process is None:
            return  # launcher without an fd budget (InstantLauncher, FTPM)
        n_ranks = n_ranks or 0
        reserved = reserved_fds or 0
        fds = reserved + n_ranks * sockets_per_process
        if fds > fd_limit:
            self.violation(
                time,
                f"{launcher} launched {n_ranks} processes "
                f"needing {fds} descriptors ({sockets_per_process}/process + "
                f"{reserved} reserved), over the select() fd limit of "
                f"{fd_limit} — the run would fail on real MPICH-V hardware",
            )
        if max_processes is not None and n_ranks > max_processes:
            self.violation(
                time,
                f"{launcher} admitted {n_ranks} processes past "
                f"its modeled maximum of {max_processes}",
            )


class LivelockMonitor(Monitor):
    """Engine liveness: the simulation clock must keep advancing.

    The monitor-side twin of :class:`repro.sim.engine.Watchdog`, sharing its
    :data:`~repro.sim.engine.DEFAULT_MAX_SAME_TIME_EVENTS` budget so the two
    agree on what counts as a livelock.  The engine watchdog raises
    :class:`~repro.sim.engine.LivelockError` with the repeating event cycle;
    this monitor only sees the raw ``(time, priority, seq)`` pop stream, so
    it reports the cascade length and trip time — enough to flag a run whose
    watchdog was left disarmed.
    """

    name = "engine-liveness"
    categories = ()  # liveness is a property of the pop stream, not records
    wants_steps = True

    def __init__(self, max_same_time_events: Optional[int] = None) -> None:
        super().__init__()
        self.max_same_time_events = (
            max_same_time_events if max_same_time_events is not None
            else DEFAULT_MAX_SAME_TIME_EVENTS
        )
        self.step_time: Optional[float] = None
        self.streak = 0
        self.tripped = False

    def on_step(self, time: float, priority: int, seq: int) -> None:
        self.checked += 1
        if time != self.step_time:
            self.step_time = time
            self.streak = 0
            self.tripped = False
            return
        self.streak += 1
        if self.streak >= self.max_same_time_events and not self.tripped:
            self.tripped = True  # one report per cascade in collect mode
            self.violation(
                time,
                f"livelock: {self.streak + 1} consecutive event pops at "
                f"t={time!r} without the simulation clock advancing "
                f"(budget {self.max_same_time_events}) — a zero-time event "
                "cascade is spinning (arm the engine Watchdog for the "
                "repeating cycle)",
            )


class WaveLivenessMonitor(Monitor):
    """Checkpoint waves terminate: started ⇒ completed or aborted.

    Both drivers emit ``ft.wave_started`` when markers go out and
    ``ft.wave_completed`` when every rank reported in; ``BaseProtocol.detach``
    emits ``ft.wave_aborted`` when the job dies or completes with a wave
    still in flight.  The ledger per protocol must therefore never hold two
    open waves, never complete a wave that was not started, and be empty
    when the run finishes.
    """

    name = "wave-liveness"

    def __init__(self) -> None:
        super().__init__()
        #: protocol name -> (open wave number, start time)
        self._open: Dict[str, Tuple[int, float]] = {}

    @on("ft.wave_started")
    def on_ft_wave_started(self, time, wave, protocol) -> None:
        stale = self._open.get(protocol)
        if stale is not None:
            self.violation(
                time,
                f"{protocol} started wave {wave} while wave {stale[0]} "
                f"(started at t={stale[1]}) is still open — the previous "
                "wave neither completed nor aborted",
            )
        self._open[protocol] = (wave, time)

    @on("ft.wave_completed")
    def on_ft_wave_completed(self, time, wave, duration, protocol) -> None:
        self._close(time, wave, protocol, "completed")

    @on("ft.wave_aborted")
    def on_ft_wave_aborted(self, time, wave, protocol) -> None:
        self._close(time, wave, protocol, "aborted")

    def _close(self, time: float, wave: int, protocol: str,
               closing: str) -> None:
        stale = self._open.pop(protocol, None)
        if stale is None or stale[0] != wave:
            self.violation(
                time,
                f"{protocol} wave {wave} {closing} but the open wave is "
                f"{stale[0] if stale else 'none'} — wave ledger out of "
                "sync",
            )

    def finish(self) -> None:
        for protocol, (wave, started_at) in sorted(self._open.items()):
            self.violation(
                started_at,
                f"{protocol} wave {wave} started at t={started_at} but the "
                "run finished without ft.wave_completed or ft.wave_aborted — "
                "the wave hung",
            )
        self._open.clear()


class StorageDurabilityMonitor(Monitor):
    """Committed checkpoint waves stay restorable; fetches return what was
    sealed.

    The ledger mirrors the storage tier from its trace records: sealed
    replicas (``ft.replica_stored``), commits (``ft.commit``), garbage
    collection (``ft.wave_gc``), server deaths (``ft.failure`` with
    ``kind="server"``) and injected corruption (``ft.image_corrupted``).
    Against it the monitor checks:

    1. at every commit, each rank of the job has at least one sealed,
       intact replica of the committed wave on a live server;
    2. with replication ≥ 2, the *first* server death still leaves the
       newest committed wave fully covered (K-way replication must
       tolerate one loss);
    3. a successful fetch (``ft.fetch_ok``) comes from a live server, is
       not a corrupted copy, and returns the sealed checksum;
    4. ``ft.storage_unrecoverable`` is only declared when no committed
       wave is fully covered by live intact replicas;
    5. a restart (``ft.restarted``) restores a wave some server committed.

    Job-wide coverage checks (1, 2, 4) need the rank count, learned from
    ``runtime.validated``; without it (bare unit tests driving a server
    directly) they are skipped rather than guessed.
    """

    name = "storage-durability"

    def __init__(self) -> None:
        super().__init__()
        self._replication = 1
        #: rank count of the (single) validated job; None when unknown or
        #: when several jobs of different sizes share the simulator
        self._n_ranks: Optional[int] = None
        self._ambiguous = False
        #: (wave, rank) -> {server name: sealed checksum}
        self._replicas: Dict[Tuple[int, int], Dict[str, int]] = {}
        #: (server, wave, rank) replicas corrupted by injection
        self._corrupt: Set[Tuple[str, int, int]] = set()
        self._dead: Set[str] = set()
        #: wave -> servers that committed it (and still retain it)
        self._committed: Dict[int, Set[str]] = {}

    def _covered(self, wave: int, rank: int) -> bool:
        """Does some live server hold an intact sealed replica?"""
        for server in self._replicas.get((wave, rank), ()):
            if server in self._dead:
                continue
            if (server, wave, rank) in self._corrupt:
                continue
            return True
        return False

    @on("ft.replica_stored")
    def on_ft_replica_stored(self, time, server, rank, wave, checksum,
                             nbytes) -> None:
        self._replicas.setdefault((wave, rank), {})[server] = checksum
        # a fresh upload replaces any corrupted copy
        self._corrupt.discard((server, wave, rank))

    @on("ft.commit")
    def on_ft_commit(self, time, server, wave, ranks) -> None:
        self._committed.setdefault(wave, set()).add(server)
        if self._n_ranks is None:
            return
        for rank in range(self._n_ranks):
            if not self._covered(wave, rank):
                self.violation(
                    time,
                    f"wave {wave} committed but rank {rank} has no "
                    "sealed, intact replica on a live server — the "
                    "commit is not durable",
                )

    @on("ft.wave_gc")
    def on_ft_wave_gc(self, time, server, wave) -> None:
        servers = self._committed.get(wave)
        if servers is not None:
            servers.discard(server)
            if not servers:
                del self._committed[wave]
        for (w, rank) in [k for k in self._replicas if k[0] == wave]:
            self._replicas[(w, rank)].pop(server, None)
            if not self._replicas[(w, rank)]:
                del self._replicas[(w, rank)]
            self._corrupt.discard((server, w, rank))

    @on("ft.failure")
    def on_ft_failure(self, time, kind, rank=None, server=None,
                      node=None) -> None:
        if kind != "server":
            return
        self._dead.add(server)
        if (self._replication < 2 or len(self._dead) != 1
                or self._n_ranks is None or not self._committed):
            return
        newest = max(self._committed)
        for rank in range(self._n_ranks):
            if not self._covered(newest, rank):
                self.violation(
                    time,
                    f"first server death ({server}) lost "
                    f"rank {rank} of committed wave {newest} although "
                    f"replication is {self._replication} — K-way "
                    "replication must survive one server loss",
                )

    @on("ft.image_corrupted")
    def on_ft_image_corrupted(self, time, server, rank, wave) -> None:
        self._corrupt.add((server, wave, rank))

    @on("ft.fetch_ok")
    def on_ft_fetch_ok(self, time, rank, wave, server, checksum) -> None:
        if server in self._dead:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server}, a "
                "server that already died",
            )
        if (server, wave, rank) in self._corrupt:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} whose "
                "replica was corrupted — the checksum verification "
                "accepted a bad copy",
            )
        sealed = self._replicas.get((wave, rank), {}).get(server)
        if sealed is None:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} but "
                "that server never sealed such a replica (or it was "
                "garbage-collected)",
            )
        elif checksum != sealed:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} with "
                f"checksum {checksum} but the sealed "
                f"replica recorded {sealed}",
            )

    @on("ft.storage_unrecoverable")
    def on_ft_storage_unrecoverable(self, time, committed,
                                    incarnation) -> None:
        if self._n_ranks is None:
            return
        for wave in sorted(self._committed, reverse=True):
            if wave <= 0:
                continue
            if all(self._covered(wave, rank)
                   for rank in range(self._n_ranks)):
                self.violation(
                    time,
                    f"run declared storage-unrecoverable although "
                    f"committed wave {wave} is fully covered by live, "
                    "intact replicas — the fetch/fallback path gave up "
                    "too early",
                )
                return

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        wave = wave or 0
        if wave > 0 and self._committed and wave not in self._committed:
            self.violation(
                time,
                f"restart restored wave {wave}, which no checkpoint "
                "server ever committed",
            )

    @on("ft.storage_config")
    def on_ft_storage_config(self, time, replication, n_servers, gc_keep,
                             fetch_rounds) -> None:
        self._replication = replication

    @on("runtime.validated")
    def on_runtime_validated(self, time, n_ranks, launcher, fd_limit=None,
                             sockets_per_process=None, reserved_fds=None,
                             max_processes=None) -> None:
        if n_ranks is None or self._ambiguous:
            return
        if self._n_ranks is None:
            self._n_ranks = n_ranks
        elif self._n_ranks != n_ranks:
            # several jobs of different sizes share this simulator —
            # job-wide coverage is no longer well-defined
            self._n_ranks = None
            self._ambiguous = True


class MembershipAgreementMonitor(Monitor):
    """Survivor recovery acts on an *agreed* failed set, never a partial
    view.

    The membership tracker proposes a failed set per ballot
    (``ft.membership_round``), every survivor commits it
    (``ft.membership_commit``), and only then does the recovery act
    (``ft.recovery_begin``).  The checkable contract:

    1. a commit names a ballot that was proposed, with exactly the
       proposed failed set;
    2. no rank of the failed set commits (the dead don't vote);
    3. no rank commits the same ballot twice;
    4. when recovery begins on a ballot, its committers are exactly the
       survivors (every rank of the job except the agreed failed set).
    """

    name = "membership-agreement"

    def __init__(self) -> None:
        super().__init__()
        #: ballot -> proposed failed set (last proposal wins: the tracker
        #: re-proposes the final view when it force-commits)
        self._proposals: Dict[int, Tuple[int, ...]] = {}
        #: ballot -> ranks that committed it
        self._committers: Dict[int, Set[int]] = {}

    @on("ft.membership_round")
    def on_ft_membership_round(self, time, ballot, coordinator, failed,
                               survivors) -> None:
        self._proposals[ballot] = tuple(failed)

    @on("ft.membership_commit")
    def on_ft_membership_commit(self, time, rank, ballot, failed) -> None:
        failed = tuple(failed)
        proposed = self._proposals.get(ballot)
        if proposed is None:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} which was never "
                "proposed — commit without an agreement round",
            )
        elif failed != proposed:
            self.violation(
                time,
                f"rank {rank} committed failed set {failed} for ballot "
                f"{ballot} but the proposal was {proposed} — survivors "
                "disagree on who failed",
            )
        if rank in failed:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} although it is "
                "in the failed set — the dead don't vote",
            )
        committers = self._committers.setdefault(ballot, set())
        if rank in committers:
            self.violation(
                time,
                f"rank {rank} committed ballot {ballot} twice",
            )
        committers.add(rank)

    @on("ft.recovery_begin")
    def on_ft_recovery_begin(self, time, policy, ballot, failed, n_ranks,
                             committed, incarnation) -> None:
        expected = set(range(n_ranks)) - set(failed)
        committers = self._committers.get(ballot, set())
        if committers != expected:
            missing = sorted(expected - committers)
            extra = sorted(committers - expected)
            self.violation(
                time,
                f"recovery began on ballot {ballot} but its committers "
                f"are not exactly the survivors — missing {missing}, "
                f"unexpected {extra}",
            )
        # the ballot is consumed; later recoveries use fresh ballots
        self._proposals.pop(ballot, None)
        self._committers.pop(ballot, None)


class SpareConsistencyMonitor(Monitor):
    """A promoted spare restores the failed rank's newest committed image.

    ``ft.recovery_begin`` (policy "spare") opens a recovery and pins the
    wave its restores must come from — the newest committed wave at
    agreement time; a legitimate ``ft.wave_fallback`` unpins it (an older
    retained wave will be restored instead).  Against that the monitor
    checks every ``ft.promoted`` names a rank of the agreed failed set,
    every ``ft.spare_restore`` happens inside an open spare recovery at
    the pinned wave, and ``ft.restarted`` closes the recovery.

    A kill landing *inside* the open recovery (an ``ft.failure`` record
    between ``ft.recovery_begin`` and ``ft.restarted``) is a cascading
    casualty the agreement round could not have seen: a task kill adds
    its rank to the allowed set, a node kill — whose record names only
    the machine, not the ranks on it — unpins the rank check for the rest
    of this recovery (the retry loop may then promote any casualty).
    """

    name = "spare-consistency"

    def __init__(self) -> None:
        super().__init__()
        self._close()

    def _close(self) -> None:
        self._open = False
        #: failed set of the open spare recovery
        self._failed: Set[int] = set()
        #: wave the restores must come from; None = unpinned (nothing
        #: committed, or a fallback re-routed to an older wave)
        self._expected: Optional[int] = None
        #: a node died mid-recovery: its record carries no rank, so any
        #: promotion is legitimate until the recovery closes
        self._cascading = False

    @on("ft.recovery_begin")
    def on_ft_recovery_begin(self, time, policy, ballot, failed, n_ranks,
                             committed, incarnation) -> None:
        self._close()
        if policy == "spare":
            self._open = True
            self._failed = set(failed)
            self._expected = committed if committed > 0 else None

    @on("ft.failure")
    def on_ft_failure(self, time, kind, rank=None, server=None,
                      node=None) -> None:
        if not self._open:
            return
        if kind == "task" and rank is not None:
            self._failed.add(rank)
        elif kind == "node":
            self._cascading = True

    @on("ft.promoted")
    def on_ft_promoted(self, time, rank, node, incarnation) -> None:
        if not self._open or self._cascading:
            return  # degraded/restart paths and cascading casualties
        if rank not in self._failed:
            self.violation(
                time,
                f"rank {rank} was promoted onto a spare although the "
                f"agreed failed set is {sorted(self._failed)} — a "
                "surviving rank lost its engine",
            )

    @on("ft.spare_restore")
    def on_ft_spare_restore(self, time, rank, wave, node) -> None:
        if not self._open:
            self.violation(
                time,
                f"spare restore of wave {wave} outside an open spare "
                "recovery",
            )
        elif self._expected is not None and wave != self._expected:
            self.violation(
                time,
                f"promoted spare restored wave {wave} but the newest "
                f"committed wave at agreement was {self._expected} — "
                "a spare must restore the newest committed image",
            )

    @on("ft.wave_fallback")
    def on_ft_wave_fallback(self, time, wave, incarnation) -> None:
        self._expected = None

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        self._close()


def all_monitors() -> List[Monitor]:
    """Fresh instances of every shipped monitor."""
    return [
        MonotoneClockMonitor(),
        FifoDeliveryMonitor(),
        VclNoOrphanMonitor(),
        VclLoggingMonitor(),
        PclFlushMonitor(),
        DclNetworkEmptyMonitor(),
        DclDrainLivenessMonitor(),
        FdBudgetMonitor(),
        LivelockMonitor(),
        WaveLivenessMonitor(),
        StorageDurabilityMonitor(),
        MembershipAgreementMonitor(),
        SpareConsistencyMonitor(),
    ]


def monitors_for(spec: "DeploymentSpec") -> List[Monitor]:
    """The monitors that can fire on a run deployed from ``spec``.

    A protocol's monitors are armed only by records that protocol emits,
    wave and storage records need a protocol at all, and the membership and
    promotion records come from the survivor recovery policies — the rest
    of :func:`all_monitors` would ride along with nothing to check
    (``tests/verify/test_selection.py`` proves that, it is not assumed).
    """
    protocol = spec.protocol
    survivors = spec.recovery_policy in ("spare", "shrink")
    applies = {
        VclNoOrphanMonitor: protocol == "vcl",
        VclLoggingMonitor: protocol == "vcl",
        PclFlushMonitor: protocol == "pcl",
        DclNetworkEmptyMonitor: protocol == "dcl",
        DclDrainLivenessMonitor: protocol == "dcl",
        WaveLivenessMonitor: protocol is not None,
        StorageDurabilityMonitor: protocol is not None,
        MembershipAgreementMonitor: survivors,
        SpareConsistencyMonitor: survivors,
    }
    return [monitor for monitor in all_monitors()
            if applies.get(type(monitor), True)]
