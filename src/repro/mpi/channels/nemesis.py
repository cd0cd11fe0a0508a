"""The Nemesis channel: shared-memory intranode, GM internode.

Nemesis (Sec. 4.2) has a *single send queue*, which makes blocking sends for
a checkpoint wave simple: a special **stopper request** is enqueued after the
markers, preventing every subsequent send until it is dequeued.  In this
model that is the channel's one stopper gate, which every held application
send waits on — contrast with ft-sock's per-destination freezing.

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
from repro.sim.primitives import Gate

__all__ = ["NemesisChannel"]

#: Nemesis' lock-free queue cost per message (charged as deferred delivery
#: latency on the send side; the receive side is folded into fabric latency)
ENGINE_OVERHEAD_SECONDS = 0.6e-6


class NemesisChannel(BaseChannel):
    """High-performance channel with single-queue send blocking."""

    channel_name = "nemesis"
    eager_connect = False

    __slots__ = ("stopper",)

    def send_overhead(self, nbytes: float) -> float:
        return 2 * ENGINE_OVERHEAD_SECONDS  # enqueue + dequeue engine costs

    # --- stopper request ---------------------------------------------------
    def freeze_sends(self, dsts) -> None:
        """One send queue: the stopper request blocks every subsequent send
        at once (markers already queued pass through)."""
        if self.stopper is None:
            self.stopper = Gate(self.sim, name=f"g:r{self.rank}")
        self.stopper.close()

    def resume_sends(self) -> None:
        """Discard the stopper; queued sends resume."""
        if self.stopper is not None:
            self.stopper.open()

    def send_open(self, dst: int) -> bool:
        return self.stopper is None or self.stopper.is_open

    def dst_open(self, dst: int) -> "Event":
        """A held send waits for the stopper, whatever its destination."""
        return self.stopper.wait()

    def lift_freezes(self) -> None:
        """Forget the stopper too (at the start, and when a detached wave's
        freezes are lifted): later sends go on, and none waiting for it is
        woken."""
        super().lift_freezes()
        #: the stopper request's gate, from the first wave that froze sends
        self.stopper = None
