"""Multi-cluster (grid) topologies.

Models Grid'5000 as the paper used it (Sec. 5.1, 5.4): homogeneous
dual-processor clusters with Gigabit-Ethernet inside, joined by Renater WAN
links that are ~20x slower in per-stream bandwidth and ~100x worse in latency
than the intra-cluster network.

Every cluster gets a full-duplex uplink pair; an inter-cluster flow crosses
``src NIC -> src uplink -> dst uplink -> dst NIC``, so both the WAN pipe and
the endpoints' NICs can be the bottleneck, and concurrent inter-cluster flows
contend on the uplinks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.fabrics import (
    Fabric,
    GIGABIT_ETHERNET,
    GRID5000_WAN,
    SHARED_MEMORY,
)
from repro.net.link import Link
from repro.net.node import Node
from repro.net.topology import BaseNetwork, Cluster, Endpoint

__all__ = ["GridNetwork", "grid5000", "GRID5000_SITES"]


#: the six 2 GHz dual-Opteron Grid'5000 clusters used in the paper (Sec. 5.1)
GRID5000_SITES: Tuple[Tuple[str, int], ...] = (
    ("bordeaux", 48),
    ("lille", 53),
    ("orsay", 216),
    ("rennes", 64),
    ("sophia", 105),
    ("toulouse", 58),
)


class GridNetwork(BaseNetwork):
    """Several clusters joined by a WAN."""

    def __init__(
        self,
        sim: "Simulator",
        sites: Sequence[Tuple[str, int]],
        intra_fabric: Fabric = GIGABIT_ETHERNET,
        wan_fabric: Fabric = GRID5000_WAN,
        n_slots: int = 2,
        shm_fabric: Fabric = SHARED_MEMORY,
    ) -> None:
        super().__init__(sim, shm_fabric=shm_fabric)
        if not sites:
            raise ValueError("a grid needs at least one site")
        self.intra_fabric = intra_fabric
        self.wan_fabric = wan_fabric
        self.clusters: Dict[str, Cluster] = {}
        for site_name, n_nodes in sites:
            nodes = [
                Node(sim, i, intra_fabric, cluster=site_name, n_slots=n_slots)
                for i in range(n_nodes)
            ]
            self.clusters[site_name] = Cluster(
                name=site_name,
                nodes=nodes,
                uplink_tx=Link(f"{site_name}.up.tx", wan_fabric.bandwidth),
                uplink_rx=Link(f"{site_name}.up.rx", wan_fabric.bandwidth),
            )

    def all_nodes(self) -> List[Node]:
        nodes: List[Node] = []
        for cluster in self.clusters.values():
            nodes.extend(cluster.nodes)
        return nodes

    def place(self, n_procs: int, procs_per_node: Optional[int] = None) -> List[Endpoint]:
        """Grid placement fills whole sites before spilling to the next one,
        like reserving machines site by site on Grid'5000."""
        endpoints: List[Endpoint] = []
        per_node = procs_per_node
        if per_node is None:
            total = sum(len(c.nodes) for c in self.clusters.values())
            per_node = 1
            while per_node * total < n_procs:
                per_node += 1
        for cluster in self.clusters.values():
            for node in cluster.nodes:
                if not node.alive or node.service:
                    continue
                for slot in range(min(per_node, node.n_slots)):
                    if len(endpoints) >= n_procs:
                        return endpoints
                    endpoints.append(Endpoint(node, slot))
        if len(endpoints) < n_procs:
            raise ValueError(f"grid too small for {n_procs} processes")
        return endpoints

    def sites_used(self, endpoints: Sequence[Endpoint]) -> List[str]:
        seen: List[str] = []
        for endpoint in endpoints:
            if endpoint.node.cluster not in seen:
                seen.append(endpoint.node.cluster)
        return seen

    def _path(self, a: Endpoint, b: Endpoint):
        if a.node.cluster == b.node.cluster:
            return self._intra_path(a, b, self.intra_fabric)
        src = self.clusters[a.node.cluster]
        dst = self.clusters[b.node.cluster]
        links_ab = [a.node.nic_tx, src.uplink_tx, dst.uplink_rx, b.node.nic_rx]
        links_ba = [b.node.nic_tx, dst.uplink_tx, src.uplink_rx, a.node.nic_rx]
        from repro.net.topology import MTU_BYTES
        return (links_ab, links_ba, self.wan_fabric.latency,
                self.wan_fabric.per_flow_cap,
                self.wan_fabric.queue_mtus * MTU_BYTES)


def grid5000(sim: "Simulator", **kwargs) -> GridNetwork:
    """The paper's Grid'5000 slice: six dual-Opteron clusters, 544 nodes."""
    return GridNetwork(sim, GRID5000_SITES, **kwargs)
