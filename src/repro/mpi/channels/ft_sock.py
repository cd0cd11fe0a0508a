"""The ft-sock channel: MPICH2's TCP sock channel with checkpoint hooks.

This is the paper's new blocking-checkpoint channel (Sec. 4.2): a derivation
of the existing sock implementation whose only protocol-relevant change is a
hook in the request-posting path that delays posts while a checkpoint wave is
active — which is exactly what the base channel's send gates implement.  Host
overheads are those of a poll+iovec TCP engine and are already folded into
the fabric latency, so the cost-model hooks stay at zero.
"""

from __future__ import annotations

from repro.mpi.channels.base import BaseChannel

__all__ = ["FtSockChannel"]


class FtSockChannel(BaseChannel):
    """TCP sock channel with Pcl gating hooks."""

    channel_name = "ft-sock"
    eager_connect = False

    __slots__ = ()
