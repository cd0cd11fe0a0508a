"""Runtime environments: launching, monitoring and restarting jobs.

* :class:`~repro.runtime.dispatcher.Dispatcher` — MPICH-V's dispatcher with
  sequential ssh and the ``select()`` scale wall (~300 processes).
* :class:`~repro.runtime.ftpm.FTPM` — the fault-tolerant process manager
  built for MPICH2-Pcl: parallel bounded ssh, no ``select()`` wall.
* :class:`~repro.runtime.ssh.SshSpawner` — remote spawn cost model.
* :func:`~repro.runtime.launch.build_run` — one-call deployment from a
  :class:`~repro.runtime.launch.DeploymentSpec`.
"""

from repro.runtime.dispatcher import (
    Dispatcher,
    ScaleLimitError,
    SELECT_FD_LIMIT,
    SOCKETS_PER_PROCESS,
)
from repro.runtime.ftpm import FTPM
from repro.runtime.launch import CHANNELS, DeploymentSpec, build_run
from repro.runtime.ssh import SshSpawner

__all__ = [
    "CHANNELS",
    "DeploymentSpec",
    "Dispatcher",
    "FTPM",
    "ScaleLimitError",
    "SELECT_FD_LIMIT",
    "SOCKETS_PER_PROCESS",
    "SshSpawner",
    "build_run",
]
