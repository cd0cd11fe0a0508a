"""Cluster topologies and endpoint placement.

The paper's cluster experiments use homogeneous dual-processor nodes behind a
non-blocking Gigabit-Ethernet switch, deploying one MPI process per node while
enough machines are available and two per node beyond that (which makes the
two processes share one NIC — the cause of the dip past 144 processes in
Fig. 6).  :meth:`ClusterNetwork.place` implements exactly that policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.net.connection import Connection
from repro.net.fabrics import Fabric, GIGABIT_ETHERNET, SHARED_MEMORY
from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.net.node import Node

__all__ = ["Endpoint", "Cluster", "ClusterNetwork", "MTU_BYTES"]

#: Ethernet MTU used for queueing-delay estimates
MTU_BYTES = 1500.0


@dataclass(frozen=True)
class Endpoint:
    """A process attachment point: a slot on a node."""

    node: Node
    slot: int

    @property
    def name(self) -> str:
        return f"{self.node.name}:{self.slot}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Endpoint {self.name}>"


@dataclass
class Cluster:
    """A named group of nodes plus its WAN uplink (used by grids)."""

    name: str
    nodes: List[Node]
    uplink_tx: Optional[Link] = None
    uplink_rx: Optional[Link] = None


class BaseNetwork:
    """Shared machinery: connection registry, failure plumbing, placement.

    A topology supplies ``all_nodes()``, the machines :meth:`place` fills,
    and ``_path(a, b)``, what a connection between two endpoints runs
    over: ``(links a->b, links b->a, latency, per-flow cap, queue
    bytes)``.
    """

    def __init__(self, sim: "Simulator", shm_fabric: Fabric = SHARED_MEMORY) -> None:
        self.sim = sim
        self.scheduler = FlowScheduler(sim)
        self.shm_fabric = shm_fabric
        self.connections: List[Connection] = []

    # ------------------------------------------------------------- placement
    def place(self, n_procs: int, procs_per_node: Optional[int] = None) -> List[Endpoint]:
        """Assign ``n_procs`` endpoints over the machines.

        With ``procs_per_node=None`` the paper's policy applies: one process
        per node while nodes suffice, otherwise two per node (and so on up to
        the slot count).
        """
        nodes = [n for n in self.all_nodes() if n.alive and not n.service]
        if procs_per_node is None:
            per_node = 1
            while per_node * len(nodes) < n_procs:
                per_node += 1
        else:
            per_node = procs_per_node
        max_slots = max(n.n_slots for n in nodes) if nodes else 0
        if per_node > max_slots:
            raise ValueError(
                f"cannot place {n_procs} processes: {len(nodes)} nodes x "
                f"{max_slots} slots available"
            )
        endpoints: List[Endpoint] = []
        for slot in range(per_node):
            for node in nodes:
                if len(endpoints) >= n_procs:
                    return endpoints
                if slot < node.n_slots:
                    endpoints.append(Endpoint(node, slot))
        if len(endpoints) < n_procs:
            raise ValueError(
                f"cannot place {n_procs} processes on {len(nodes)} nodes"
            )
        return endpoints

    # ------------------------------------------------------------ connecting
    def connect(self, a: Endpoint, b: Endpoint) -> Connection:
        """Open a full-duplex FIFO connection between two endpoints."""
        if not (a.node.alive and b.node.alive):
            raise ConnectionRefusedError(
                f"connect {a.name}->{b.name}: node down"
            )
        links_ab, links_ba, latency, cap, queue_bytes = self._path(a, b)
        connection = Connection(
            self.sim, self.scheduler, links_ab, links_ba, latency, cap=cap,
            a=a, b=b, queue_bytes=queue_bytes,
        )
        self.connections.append(connection)
        return connection

    # --------------------------------------------------------------- failure
    def fail_node(self, node: Node) -> List[Connection]:
        """Kill a node: every connection touching it breaks *now*.

        Returns the connections that were broken, so callers can assert on
        detection behaviour.
        """
        node.fail()
        broken = []
        for connection in self.connections:
            if not connection.broken and node in (
                    connection.end_a.local.node, connection.end_b.local.node):
                connection.break_()
                broken.append(connection)
        alive = [c for c in self.connections if not c.broken]
        if len(alive) != len(self.connections):
            self.connections = alive
        return broken

    def _intra_path(
        self, a: Endpoint, b: Endpoint, fabric: Fabric
    ) -> Tuple[Sequence[Link], Sequence[Link], float, Optional[float], float]:
        if a.node is b.node:
            mem = a.node.mem
            return ([mem], [mem], self.shm_fabric.latency, None,
                    self.shm_fabric.queue_mtus * MTU_BYTES)
        return (
            [a.node.nic_tx, b.node.nic_rx],
            [b.node.nic_tx, a.node.nic_rx],
            fabric.latency,
            fabric.per_flow_cap,
            fabric.queue_mtus * MTU_BYTES,
        )


class ClusterNetwork(BaseNetwork):
    """A single homogeneous cluster behind a non-blocking switch.

    The switch is assumed non-blocking (true of the paper's hardware at these
    scales), so contention only arises at node NICs.
    """

    def __init__(
        self,
        sim: "Simulator",
        n_nodes: int,
        fabric: Fabric = GIGABIT_ETHERNET,
        name: str = "cluster",
        n_slots: int = 2,
        shm_fabric: Fabric = SHARED_MEMORY,
    ) -> None:
        super().__init__(sim, shm_fabric=shm_fabric)
        if n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.fabric = fabric
        self.name = name
        self.nodes = [
            Node(sim, i, fabric, cluster=name, n_slots=n_slots)
            for i in range(n_nodes)
        ]

    def all_nodes(self) -> List[Node]:
        return self.nodes

    def _path(self, a: Endpoint, b: Endpoint):
        return self._intra_path(a, b, self.fabric)
