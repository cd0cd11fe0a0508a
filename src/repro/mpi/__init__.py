"""A simulated MPI library: ranks, matching, collectives, channels, jobs.

Public surface:

* :class:`~repro.mpi.job.MPIJob` — build and run a parallel application.
* :class:`~repro.mpi.context.RankContext` — what application code programs
  against (send/recv/isend and wait, bcast/reduce/allreduce, compute,
  checkpointable state).
* :mod:`~repro.mpi.channels` — the three communication substrates from the
  paper (ft-sock, ch_v, Nemesis).
* :data:`~repro.mpi.consts.ANY_SOURCE` / :data:`~repro.mpi.consts.ANY_TAG`.
"""

from repro.mpi.consts import ANY_SOURCE, ANY_TAG, EAGER_THRESHOLD
from repro.mpi.context import RankContext, SKIPPED, Snapshot
from repro.mpi.job import MPIJob
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket, MarkerPacket
from repro.mpi.request import Request
from repro.mpi.channels import (
    BaseChannel,
    ChannelDownError,
    ChVChannel,
    FtSockChannel,
    NemesisChannel,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AppPacket",
    "BaseChannel",
    "ChannelDownError",
    "ChVChannel",
    "EAGER_THRESHOLD",
    "FtSockChannel",
    "MPIJob",
    "MarkerPacket",
    "MatchingEngine",
    "NemesisChannel",
    "RankContext",
    "Request",
    "SKIPPED",
    "Snapshot",
]
