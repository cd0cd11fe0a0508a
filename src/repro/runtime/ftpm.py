"""The fault-tolerant process manager (FTPM, Sec. 4.2) — Pcl's environment.

MPICH2's stock MPD daemons are fault tolerant but the process managers are
not, and MPD cannot drive the checkpoint servers; the paper therefore builds
a simpler environment: an ``mpiexec`` program plus modified process managers.
It launches the checkpoint servers first, then the MPI processes through
parallel, bounded-concurrency ssh; monitors them; and keeps the distributed
database of business cards, last-wave numbers and image locations.

Unlike the dispatcher, the FTPM was "designed to scale to large platforms":
it poll()s rather than select()s, so there is no 1024-descriptor wall, and
the paper runs it up to 1024 processes.
"""

from __future__ import annotations

from typing import List

from repro.ft.recovery import InstantLauncher
from repro.runtime.database import ProcessDatabase
from repro.runtime.dispatcher import ScaleLimitError
from repro.runtime.ssh import SshSpawner

__all__ = ["FTPM"]

#: practical per-mpiexec process cap (memory/bookkeeping, not select())
FTPM_MAX_PROCESSES = 10_000


class FTPM(InstantLauncher):
    """MPICH2-Pcl launcher: parallel ssh + process database."""

    def __init__(self, ssh: SshSpawner = None,
                 failure_cleanup_seconds: float = 1.0) -> None:
        self.ssh = ssh if ssh is not None else SshSpawner(concurrency=32)
        self.failure_cleanup_seconds = failure_cleanup_seconds
        self.database = ProcessDatabase()

    def max_processes(self) -> int:
        return FTPM_MAX_PROCESSES

    def validate(self, n_ranks: int) -> None:
        if n_ranks > FTPM_MAX_PROCESSES:
            raise ScaleLimitError(
                f"FTPM: {n_ranks} processes exceed the mpiexec cap "
                f"of {FTPM_MAX_PROCESSES}"
            )

    def spawn_delays(self, n_ranks: int) -> List[float]:
        delays = self.ssh.delays(n_ranks)
        # every spawned process publishes its business card
        self.database.publish(n_ranks)
        return delays

    def respawn_lead_time(self) -> float:
        self.database.unpublish_all()
        return self.failure_cleanup_seconds
