"""Counter quiescence of the message-drain protocol (:mod:`repro.ft.dcl`):
the drain empties the network, and it terminates."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ft.dcl import DRAIN_BUDGET
from repro.verify.base import Monitor, on

__all__ = ["DclNetworkEmptyMonitor", "DclDrainLivenessMonitor"]


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
    protocols = ("dcl",)

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
    """Dcl drains terminate: quiescence lands within the drain budget.

    Shares :data:`repro.ft.dcl.DRAIN_BUDGET` with the protocol so monitor
    and implementation agree on what counts as a stalled drain.  A Dcl wave
    must reach ``ft.drain_quiesced`` within the budget of its
    ``ft.wave_started``, before any rank forks its image and before the
    wave commits; a wave that ends the run still draining never converged.
    """

    name = "dcl-drain-liveness"
    protocols = ("dcl",)

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
