"""Fault tolerance: coordinated checkpointing protocols and rollback recovery.

The protocols share one wave skeleton (:mod:`repro.ft.protocol`) and differ
only in their quiesce strategy; :data:`PROTOCOLS` is the name -> class table
everything else (deployment specs, CLIs, test builders) reads.

* :class:`~repro.ft.vcl.VclProtocol` — non-blocking Chandy–Lamport snapshots
  with daemon-side message logging (MPICH-Vcl, Sec. 3/4.1).
* :class:`~repro.ft.pcl.PclProtocol` — blocking channel-flushing checkpoints
  (MPICH2-Pcl, Sec. 3/4.2).
* :class:`~repro.ft.dcl.DclProtocol` — coordinated message-drain checkpoints
  driven by send/receive counter quiescence (the topological-sort / CVC
  idiom; no logging, no delayed receives).
* :class:`~repro.ft.server.CheckpointServer` — shared image storage machinery
  with per-image checksums, K-way replica assignment and quorum-aware commit.
* :class:`~repro.ft.recovery.FTRun` — the recovery pipeline (detect, agree,
  place, restore, relaunch) under the :data:`RECOVERY_POLICIES`, a table of
  :class:`~repro.ft.recovery.RecoveryPolicy` rows; each survivor policy's
  place step is one module (:mod:`repro.ft.spare`, :mod:`repro.ft.shrink`).
* :class:`~repro.ft.restore.ImageRestorer` — replica-aware image fetch with
  a fixed retry/backoff schedule (:data:`~repro.ft.restore.FETCH_ROUNDS`)
  and graceful degradation
  (:class:`~repro.ft.restore.StorageUnrecoverableError`).
* :class:`~repro.ft.failure.Fault` / :data:`~repro.ft.failure.FAULTS` — the
  one fault vocabulary (task, node and checkpoint-server kills plus silent
  image corruption), scheduled with :meth:`FTRun.schedule`; Poisson task
  failures come from :func:`~repro.ft.failure.random_failures`.
"""

from typing import Callable, Dict, Optional, Type

from repro.ft.dcl import DclEndpoint, DclProtocol, DRAIN_BUDGET
from repro.ft.failure import FAULTS, Fault, random_failures
from repro.ft.image import CheckpointImage, FORK_LATENCY, RUNTIME_IMAGE_OVERHEAD_BYTES
from repro.ft.pcl import PclEndpoint, PclProtocol
from repro.ft.protocol import (
    BaseEndpoint,
    BaseProtocol,
    BlockingEndpoint,
    FTStats,
    LocalImageStore,
    SCHEDULER_ID,
)
from repro.ft.recovery import (FTRun, InstantLauncher, RECOVERY_POLICIES,
                               RecoveryPolicy)
from repro.ft.restore import ImageRestorer, StorageUnrecoverableError
from repro.ft.server import CheckpointServer, assign_replicas
from repro.ft.vcl import VclEndpoint, VclProtocol

#: protocol name -> class: the one place a protocol family is registered
PROTOCOLS: Dict[str, Type[BaseProtocol]] = {
    "pcl": PclProtocol,
    "vcl": VclProtocol,
    "dcl": DclProtocol,
}


def protocol_factory(name: Optional[str], period: float, fork_latency: float,
                     scheduler_node=None) -> Optional[Callable[[object, FTRun], BaseProtocol]]:
    """The per-incarnation ``(job, run) -> protocol`` callable
    :class:`FTRun` takes, for the protocol registered as ``name`` (None: no
    checkpointing, no factory).  ``scheduler_node`` is the machine of a
    protocol that ``needs_scheduler``."""
    if name is None:
        return None
    cls = PROTOCOLS[name]
    extra = {"scheduler_node": scheduler_node} if cls.needs_scheduler else {}

    def factory(job, run):
        return cls(job, replica_map=run.replica_map, period=period,
                   stats=run.stats, local_images=run.local_images,
                   fork_latency=fork_latency, **extra)

    return factory


__all__ = [
    "BaseEndpoint",
    "BaseProtocol",
    "BlockingEndpoint",
    "CheckpointImage",
    "CheckpointServer",
    "DclEndpoint",
    "DclProtocol",
    "DRAIN_BUDGET",
    "FAULTS",
    "Fault",
    "FORK_LATENCY",
    "FTRun",
    "FTStats",
    "ImageRestorer",
    "InstantLauncher",
    "LocalImageStore",
    "PclEndpoint",
    "PclProtocol",
    "PROTOCOLS",
    "RECOVERY_POLICIES",
    "RecoveryPolicy",
    "RUNTIME_IMAGE_OVERHEAD_BYTES",
    "SCHEDULER_ID",
    "StorageUnrecoverableError",
    "VclEndpoint",
    "VclProtocol",
    "assign_replicas",
    "protocol_factory",
    "random_failures",
]
