"""The fault-tolerant process manager (FTPM, Sec. 4.2) — Pcl's environment.

MPICH2's stock MPD daemons are fault tolerant but the process managers are
not, and MPD cannot drive the checkpoint servers; the paper therefore builds
a simpler environment: an ``mpiexec`` program plus modified process managers.
It launches the checkpoint servers first, then the MPI processes through
parallel, bounded-concurrency ssh; and monitors them.  The distributed
database it also keeps (business cards, last-wave numbers, image locations)
changes no simulated time, so it is not modelled.

Unlike the dispatcher, the FTPM was "designed to scale to large platforms":
it poll()s rather than select()s, so there is no 1024-descriptor wall, and
the paper runs it up to 1024 processes.
"""

from __future__ import annotations

from repro.runtime.dispatcher import ScaleLimitError
from repro.runtime.ssh import SshLauncher, SshSpawner

__all__ = ["FTPM"]

#: practical per-mpiexec process cap (memory/bookkeeping, not select())
FTPM_MAX_PROCESSES = 10_000


class FTPM(SshLauncher):
    """MPICH2-Pcl launcher: parallel ssh, no ``select()`` wall."""

    def __init__(self, ssh: SshSpawner = None,
                 failure_cleanup_seconds: float = 1.0) -> None:
        super().__init__(ssh if ssh is not None else SshSpawner(concurrency=32),
                         failure_cleanup_seconds)

    def validate(self, n_ranks: int) -> None:
        if n_ranks > FTPM_MAX_PROCESSES:
            raise ScaleLimitError(
                f"FTPM: {n_ranks} processes exceed the mpiexec cap "
                f"of {FTPM_MAX_PROCESSES}"
            )
