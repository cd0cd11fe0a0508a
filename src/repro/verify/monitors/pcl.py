"""The channel flush of the blocking protocol (:mod:`repro.ft.pcl`)."""

from __future__ import annotations

from typing import Dict, Set

from repro.verify.base import Monitor, on

__all__ = ["PclFlushMonitor"]


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
    protocols = ("pcl",)

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
