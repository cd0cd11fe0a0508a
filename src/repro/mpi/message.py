"""Wire-level packet types.

Everything that crosses a connection between two MPI processes is one of
these packets.  ``AppPacket`` carries application payloads; the rest are
control packets consumed by the channel/protocol layer and never seen by the
application.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Packet",
    "AppPacket",
    "MarkerPacket",
    "CheckpointDonePacket",
    "DrainCountPacket",
    "DrainGoPacket",
    "MARKER_BYTES",
]

#: size of a marker packet on the wire (a header-only packet)
MARKER_BYTES = 64.0


class Packet:
    """Base class for everything sent over a channel connection."""

    __slots__ = ("src",)

    def __init__(self, src: int) -> None:
        self.src = src


class AppPacket(Packet):
    """An application message: MPI envelope plus payload."""

    __slots__ = ("tag", "data", "nbytes", "seq")

    def __init__(self, src: int, tag: int, data: Any, nbytes: float, seq: int) -> None:
        super().__init__(src)
        self.tag = tag
        self.data = data
        self.nbytes = nbytes
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AppPacket src={self.src} tag={self.tag} {self.nbytes:.0f}B #{self.seq}>"


class MarkerPacket(Packet):
    """A Chandy–Lamport / Pcl checkpoint-wave marker."""

    __slots__ = ("wave",)

    def __init__(self, src: int, wave: int) -> None:
        super().__init__(src)
        self.wave = wave

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Marker wave={self.wave} src={self.src}>"


class CheckpointDonePacket(Packet):
    """Pcl: 'my image is stored' notification sent to rank 0."""

    __slots__ = ("wave",)

    def __init__(self, src: int, wave: int) -> None:
        super().__init__(src)
        self.wave = wave


class DrainCountPacket(Packet):
    """Dcl: a rank's cumulative send/receive counters, reported to the
    initiator while the network drains (the CVC quiescence idiom)."""

    __slots__ = ("wave", "sent", "recvd")

    def __init__(self, src: int, wave: int, sent: int, recvd: int) -> None:
        super().__init__(src)
        self.wave = wave
        self.sent = sent
        self.recvd = recvd

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DrainCount wave={self.wave} src={self.src} "
                f"sent={self.sent} recvd={self.recvd}>")


class DrainGoPacket(Packet):
    """Dcl: the initiator's 'network is empty, checkpoint now' order."""

    __slots__ = ("wave",)

    def __init__(self, src: int, wave: int) -> None:
        super().__init__(src)
        self.wave = wave
