"""Checkpoint images and cost constants.

The paper uses system-level checkpointing (BLCR by default): the image is the
whole process — memory map, kernel state, registers — so its size is directly
proportional to the memory allocated, and "few optimizations can be used to
reduce this size" (Sec. 4.1).  Taking the image starts with a ``fork``: the
clone writes the image while the original continues computing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.mpi.context import Snapshot
from repro.mpi.message import AppPacket

__all__ = ["CheckpointImage", "CONTROL_BYTES", "FORK_LATENCY",
           "RUNTIME_IMAGE_OVERHEAD_BYTES"]

#: wire size of every small fault-tolerance control record: done/count
#: notifications between ranks, server acks, fetch requests
CONTROL_BYTES = 64.0

#: pause caused by fork() + copy-on-write page-table duplication (tens of
#: milliseconds for a tens-of-MB image); charged to the application's
#: compute via RankContext.add_stall — this is the "delay induced by the
#: checkpoint corresponds only to the local checkpointing" of Sec. 2
FORK_LATENCY = 0.02

#: image bytes beyond the application data: code, libraries, runtime buffers
RUNTIME_IMAGE_OVERHEAD_BYTES = 24e6


@dataclass
class CheckpointImage:
    """One rank's stored checkpoint for one wave."""

    rank: int
    wave: int
    nbytes: float
    snapshot: Snapshot
    #: Vcl only: in-transit messages logged for this rank during the wave,
    #: replayed by the daemon at restart
    logged_messages: List[AppPacket] = field(default_factory=list)
    logged_bytes: float = 0.0
    #: simulated time at which the image was fully stored
    stored_at: Optional[float] = None
    #: integrity checksum over the record's restore-relevant fields; set when
    #: the storing server seals the record (BLCR images carry a CRC trailer)
    checksum: Optional[int] = None
    #: a sealed record is complete — image received in full, logs (if any)
    #: attached — and eligible for commit; unsealed records are partial
    sealed: bool = False

    @property
    def total_bytes(self) -> float:
        return self.nbytes + self.logged_bytes

    # ---------------------------------------------------------------- integrity
    def compute_checksum(self) -> int:
        """CRC over the restore-relevant fields.

        The simulation carries no real payload bytes, so the checksum covers
        the metadata that determines what a restore would reconstruct: rank,
        wave, image size, and the attached log (byte count and message count).
        A corrupted replica is modelled by flipping the *stored* checksum, so
        verification fails exactly as a payload CRC mismatch would.
        """
        tag = (f"{self.rank}:{self.wave}:{self.nbytes!r}:"
               f"{self.logged_bytes!r}:{len(self.logged_messages)}")
        return zlib.crc32(tag.encode("ascii"))

    def seal(self) -> None:
        """Mark the record complete and freeze its checksum."""
        self.checksum = self.compute_checksum()
        self.sealed = True

    def verify(self) -> bool:
        """True when the record is sealed and its checksum still matches."""
        return self.sealed and self.checksum == self.compute_checksum()

    def corrupt(self) -> None:
        """Damage the stored record in place (chaos injection).

        The record stays sealed — corruption is silent until a restore
        verifies the checksum, exactly like latent media corruption.
        """
        base = self.compute_checksum()
        self.checksum = base ^ 0xFFFFFFFF

    def replica(self) -> "CheckpointImage":
        """An independent stored copy for one server.

        Each server must hold its own record so per-replica state
        (``stored_at``, ``sealed``, corruption) never leaks across servers
        or back into the sender's in-memory image.  The snapshot object is
        shared — it is immutable application state.
        """
        return CheckpointImage(
            rank=self.rank,
            wave=self.wave,
            nbytes=self.nbytes,
            snapshot=self.snapshot,
            logged_messages=list(self.logged_messages),
            logged_bytes=self.logged_bytes,
            stored_at=self.stored_at,
            checksum=self.checksum,
            sealed=self.sealed,
        )
