"""ssh-based remote process spawning cost model.

Both runtimes launch remote processes with ssh (Sec. 4).  The MPICH-V
dispatcher issues its ssh commands one after another; the FTPM does them "in
parallel, and the number of concurrent ssh connections is bounded by a
parameter".  The model charges a fixed per-spawn cost (connection setup +
fork/exec of the remote binary) and schedules spawns in bounded-width waves.
"""

from __future__ import annotations

from typing import List

from repro.ft.recovery import InstantLauncher

__all__ = ["SshLauncher", "SshSpawner", "DEFAULT_SPAWN_SECONDS"]

#: ssh handshake + remote fork/exec on 2006-era machines
DEFAULT_SPAWN_SECONDS = 0.25


class SshSpawner:
    """Computes per-process start delays for a (re)launch."""

    def __init__(self, concurrency: int = 1,
                 per_spawn: float = DEFAULT_SPAWN_SECONDS) -> None:
        if concurrency < 1:
            raise ValueError("ssh concurrency must be >= 1")
        if per_spawn < 0:
            raise ValueError("per-spawn cost cannot be negative")
        self.concurrency = concurrency
        self.per_spawn = per_spawn

    def delays(self, n: int) -> List[float]:
        """Start delay of each of ``n`` processes (spawn i completes after
        ``ceil((i+1)/concurrency) * per_spawn`` seconds)."""
        return [
            ((i // self.concurrency) + 1) * self.per_spawn for i in range(n)
        ]


class SshLauncher(InstantLauncher):
    """What both runtimes share: processes start over ``ssh``, and a
    respawn waits for the failure cleanup first."""

    def __init__(self, ssh: SshSpawner,
                 failure_cleanup_seconds: float) -> None:
        self.ssh = ssh
        self.failure_cleanup_seconds = failure_cleanup_seconds

    def spawn_delays(self, n_ranks: int) -> List[float]:
        return self.ssh.delays(n_ranks)

    def respawn_lead_time(self) -> float:
        """Signal every survivor to exit, reap, rebuild the machine list."""
        return self.failure_cleanup_seconds
