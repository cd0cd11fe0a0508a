"""The FTPM's distributed database (Sec. 4.2).

``mpiexec`` maintains a database in which every MPI process publishes its
*business card* (rank -> IP address, hostname, port), the number of the last
successful checkpoint wave, and which checkpoint server holds which local
checkpoint — the restart path needs the location because a process restarted
on a spare node will not find its image on the local disk.

The store itself is an ordinary in-memory map; the modelled cost is the
round trip a lookup takes to ``mpiexec``'s node, charged by the FTPM when it
resolves business cards during connection establishment at restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["BusinessCard", "ProcessDatabase"]


@dataclass(frozen=True)
class BusinessCard:
    """A process's published contact information."""

    rank: int
    hostname: str
    port: int


class ProcessDatabase:
    """mpiexec's view of the job."""

    def __init__(self) -> None:
        #: the ranks whose cards are published: every one of the job
        self._cards = range(0)
        self._image_locations: Dict[int, str] = {}
        self.last_successful_wave = 0
        self.lookups = 0

    # --------------------------------------------------------------- cards
    def publish(self, n_ranks: int) -> None:
        """Every rank of an ``n_ranks`` job publishes its card."""
        self._cards = range(n_ranks)

    def lookup(self, rank: int) -> Optional[BusinessCard]:
        """A published card, derived from the rank when read: host
        ``node-<rank>``, port ``52000 + rank``."""
        self.lookups += 1
        if rank not in self._cards:
            return None
        return BusinessCard(rank, f"node-{rank}", 52000 + rank)

    def unpublish_all(self) -> None:
        self._cards = range(0)

    def __len__(self) -> int:
        return len(self._cards)

    # ------------------------------------------------------------ ckpt info
    def record_wave(self, wave: int) -> None:
        if wave > self.last_successful_wave:
            self.last_successful_wave = wave

    def record_image_location(self, rank: int, server_name: str) -> None:
        self._image_locations[rank] = server_name

    def image_location(self, rank: int) -> Optional[str]:
        self.lookups += 1
        return self._image_locations.get(rank)
