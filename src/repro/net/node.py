"""Compute nodes and their local devices.

A :class:`Node` models one machine of a cluster: a full-duplex NIC (two
directed :class:`~repro.net.link.Link` objects shared by every process slot on
the node — the source of the paper's dual-processor NIC-sharing dips), a
memory link for intranode copies, and a local :class:`Disk` used for
checkpoint images.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.net.fabrics import Fabric
from repro.net.link import Link
from repro.sim.primitives import Resource

__all__ = ["Disk", "Node"]


class Disk:
    """A serialized block device with distinct read/write bandwidths.

    Operations queue FIFO (one transfer at a time), which is how a single
    SATA spindle behaves for the large sequential checkpoint writes the paper
    performs.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        write_bandwidth: float = 55e6,
        read_bandwidth: float = 60e6,
    ) -> None:
        self.sim = sim
        self.name = name
        self.write_bandwidth = float(write_bandwidth)
        self.read_bandwidth = float(read_bandwidth)
        self._arm = Resource(sim, capacity=1, name=f"disk:{name}")
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def write(self, nbytes: float) -> "Process":
        """Spawn a write; yield the returned process to wait for completion."""
        return self.sim.process(self._io(nbytes, self.write_bandwidth, "w"),
                                name=f"disk-write:{self.name}")

    def read(self, nbytes: float) -> "Process":
        """Spawn a read; yield the returned process to wait for completion."""
        return self.sim.process(self._io(nbytes, self.read_bandwidth, "r"),
                                name=f"disk-read:{self.name}")

    def _io(self, nbytes: float, bandwidth: float, kind: str):
        if nbytes < 0:
            raise ValueError(f"negative I/O size {nbytes!r}")
        yield self._arm.acquire()
        try:
            yield self.sim.timeout(nbytes / bandwidth)
            if kind == "w":
                self.bytes_written += nbytes
            else:
                self.bytes_read += nbytes
        finally:
            self._arm.release()


class Node:
    """One machine: NIC, memory link, disk and process slots.

    Parameters
    ----------
    name:
        The node's name, or its index in its cluster: the name is then
        ``<cluster>-<index:03d>``, derived when read.
    n_slots:
        Number of processors; the paper's machines are dual-processor
        (``n_slots=2``) but most experiments deploy one MPI process per node
        until the node count runs out.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: Union[str, int],
        fabric: Fabric,
        cluster: str = "local",
        n_slots: int = 2,
        disk: Optional[Disk] = None,
        memory_bandwidth: float = 1.5e9,
    ) -> None:
        self.sim = sim
        self._name = name
        self.cluster = cluster
        self.fabric = fabric
        self.n_slots = n_slots
        self.nic_tx = Link("tx", fabric.bandwidth, node=self)
        self.nic_rx = Link("rx", fabric.bandwidth, node=self)
        self.mem = Link("mem", memory_bandwidth, node=self)
        #: allocated on first use
        self._disk = disk
        self.alive = True
        #: service machines (checkpoint servers, scheduler, dispatcher) are
        #: excluded from MPI process placement
        self.service = False

    @property
    def name(self) -> str:
        name = self._name
        return name if name.__class__ is str else f"{self.cluster}-{name:03d}"

    @property
    def disk(self) -> Disk:
        if self._disk is None:
            self._disk = Disk(self.sim, self.name)
        return self._disk

    def fail(self) -> None:
        """Mark the node dead.  Connection teardown is done by the network
        layer (see :meth:`repro.net.topology.ClusterNetwork.fail_node`)."""
        self.alive = False

    def restore(self) -> None:
        """Bring the node back (used when restarting on the same machine)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "DOWN"
        return f"<Node {self.name} [{self.cluster}] {state}>"
