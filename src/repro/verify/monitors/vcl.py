"""The Chandy–Lamport cut of the non-blocking protocol
(:mod:`repro.ft.vcl`): orphan-free snapshots, complete channel state."""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.verify.base import Monitor, on

__all__ = ["VclNoOrphanMonitor", "VclLoggingMonitor"]

#: sentinel ranks (the Vcl scheduler) that never appear in logging windows
_PSEUDO_RANK_CEILING = 0


def _is_pseudo(rank: int) -> bool:
    return rank < _PSEUDO_RANK_CEILING


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
    protocols = ("vcl",)

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
    protocols = ("vcl",)

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
