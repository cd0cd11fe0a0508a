"""The MPICH-V dispatcher (Sec. 4.1) — Vcl's launch/monitor environment.

The dispatcher starts the servers, then the MPI processes over *sequential*
ssh, monitors every process through dedicated sockets, and assumes a failure
on any unexpected socket closure.

The scalability-limiting detail the paper calls out (Sec. 5.4): the
dispatcher multiplexes all of its sockets with ``select()``, whose fd set is
capped at 1024 on Linux, and each node costs up to **3** sockets (alive
messages, stdin, stdout).  "This precludes tests with more than 300
processes" — :meth:`Dispatcher.validate` enforces exactly that bound, which
is why the paper's large-scale (grid) experiments run Pcl only.
"""

from __future__ import annotations

from typing import Dict

from repro.runtime.ssh import SshLauncher, SshSpawner

__all__ = ["Dispatcher", "ScaleLimitError", "SELECT_FD_LIMIT", "SOCKETS_PER_PROCESS"]

#: Linux FD_SETSIZE: a file-descriptor set holds at most 1024/8 bytes
SELECT_FD_LIMIT = 1024

#: sockets the dispatcher opens per MPI process (alive + stdin + stdout)
SOCKETS_PER_PROCESS = 3

#: descriptors the dispatcher burns on itself (listeners, servers, logs)
RESERVED_FDS = 16


class ScaleLimitError(RuntimeError):
    """The runtime environment cannot manage this many processes."""


class Dispatcher(SshLauncher):
    """MPICH-V launcher with the select() scalability wall."""

    def __init__(self, ssh: SshSpawner = None,
                 failure_cleanup_seconds: float = 1.0,
                 enforce_fd_limit: bool = True) -> None:
        super().__init__(ssh if ssh is not None else SshSpawner(concurrency=1),
                         failure_cleanup_seconds)
        #: test-only knob for repro.verify: with enforcement off, an
        #: oversubscribed launch proceeds and the fd-budget monitor must
        #: flag the runtime.validated record instead
        self.enforce_fd_limit = enforce_fd_limit

    def max_processes(self) -> int:
        return (SELECT_FD_LIMIT - RESERVED_FDS) // SOCKETS_PER_PROCESS

    def fd_budget(self) -> Dict[str, int]:
        """Budget facts consumed by the fd-budget invariant monitor."""
        return {
            "fd_limit": SELECT_FD_LIMIT,
            "sockets_per_process": SOCKETS_PER_PROCESS,
            "reserved_fds": RESERVED_FDS,
            "max_processes": self.max_processes(),
        }

    def validate(self, n_ranks: int) -> None:
        limit = self.max_processes()
        if n_ranks > limit and self.enforce_fd_limit:
            raise ScaleLimitError(
                f"MPICH-V dispatcher: {n_ranks} processes need "
                f"{n_ranks * SOCKETS_PER_PROCESS} sockets, but select() "
                f"multiplexing caps the dispatcher at ~{limit} processes"
            )
