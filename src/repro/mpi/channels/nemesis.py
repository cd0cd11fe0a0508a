"""The Nemesis channel: shared-memory intranode, GM internode.

Nemesis (Sec. 4.2) has a *single send queue*, which makes blocking sends for
a checkpoint wave simple: a special **stopper request** is enqueued after the
markers, preventing every subsequent send until it is dequeued.  In this
model that is the channel's *global* send gate — contrast with ft-sock's
per-destination gating.

Reception blocking is per-process despite the single receive queue: packets
arriving from a process whose marker has been seen are copied to a *delayed
receive queue* and handled after the checkpoint; on restart the delayed queue
is discarded (base-channel behaviour, verbatim from the paper).

Intranode the network layer already routes same-node connections over the
node's memory link at shared-memory latency, so the channel itself only
contributes its (tiny) per-message engine cost.
"""

from __future__ import annotations

from repro.mpi.channels.base import BaseChannel

__all__ = ["NemesisChannel"]

#: Nemesis' lock-free queue cost per message (charged as deferred delivery
#: latency on the send side; the receive side is folded into fabric latency)
ENGINE_OVERHEAD_SECONDS = 0.6e-6


class NemesisChannel(BaseChannel):
    """High-performance channel with single-queue send blocking."""

    channel_name = "nemesis"
    eager_connect = False

    __slots__ = ()

    def send_overhead(self, nbytes: float) -> float:
        return 2 * ENGINE_OVERHEAD_SECONDS  # enqueue + dequeue engine costs

    # --- stopper request ---------------------------------------------------
    def freeze_sends(self, dsts) -> None:
        """One send queue: the stopper request blocks every subsequent send
        at once (markers already queued pass through)."""
        self.global_send_gate.close()

    def resume_sends(self) -> None:
        """Discard the stopper; queued sends resume."""
        self.global_send_gate.open()
