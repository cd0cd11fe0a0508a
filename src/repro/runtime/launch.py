"""High-level deployment: build a fault-tolerant run from a specification.

This is the programmatic equivalent of the paper's job launch: pick a
platform (Gigabit-Ethernet cluster, Myrinet cluster, or the Grid'5000
slice), a channel, a protocol and a checkpoint-server count, and get back a
ready-to-start :class:`~repro.ft.recovery.FTRun`.

The fabric follows the channel on Myrinet hardware, as in Sec. 5.3: the
Nemesis channel drives GM natively while the TCP-based implementations
(Pcl/ft-sock and Vcl/ch_v) run Ethernet emulation on the same Myri2000
cards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.ft import (
    CheckpointServer,
    FTRun,
    InstantLauncher,
    PROTOCOLS,
    RECOVERY_POLICIES,
    protocol_factory,
)
from repro.ft.image import FORK_LATENCY
from repro.mpi.channels import ChVChannel, FtSockChannel, NemesisChannel
from repro.net import (
    ClusterNetwork,
    ETHERNET_OVER_MYRINET,
    GIGABIT_ETHERNET,
    MYRINET_GM,
    grid5000,
)
from repro.net.topology import Endpoint
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.ftpm import FTPM
from repro.sim import Simulator

__all__ = ["DeploymentSpec", "build_run", "CHANNELS"]

CHANNELS = {
    "ft_sock": FtSockChannel,
    "ch_v": ChVChannel,
    "nemesis": NemesisChannel,
}

#: ``DeploymentSpec.launcher`` name -> class ("auto" picks the protocol's)
LAUNCHERS = {
    "dispatcher": Dispatcher,
    "ftpm": FTPM,
    "instant": InstantLauncher,
}


@dataclass
class DeploymentSpec:
    """Everything needed to deploy one fault-tolerant MPI run."""

    n_procs: int
    protocol: Optional[str] = "pcl"  # a repro.ft.PROTOCOLS name | None (no ckpt)
    channel: str = "ft_sock"  # "ft_sock" | "ch_v" | "nemesis"
    network: str = "gige"  # "gige" | "myrinet" | "grid5000"
    n_servers: int = 1
    period: float = 30.0
    image_bytes: Union[float, Callable[[int], float]] = 32e6
    n_compute_nodes: Optional[int] = None
    procs_per_node: Optional[int] = None
    fork_latency: float = FORK_LATENCY
    launcher: str = "auto"  # "auto" | "dispatcher" | "ftpm" | "instant"
    #: survivor-recovery strategy: "restart" kills and respawns every rank
    #: (the paper's model); "spare" keeps survivors alive and promotes
    #: machines from the pre-allocated spare pool; "shrink" renumbers the
    #: survivors and re-decomposes a malleable app
    recovery_policy: str = "restart"
    #: machines pre-allocated (idle) for the "spare" recovery policy
    spares: int = 0
    #: checkpoint storage resilience: each rank streams its image to
    #: ``ckpt_replication`` servers and servers retain the newest
    #: ``ckpt_gc_keep`` committed waves (how restarts retry their fetches
    #: is :data:`repro.ft.restore.FETCH_ROUNDS`' fixed schedule)
    ckpt_replication: int = 1
    ckpt_gc_keep: int = 1

    def __post_init__(self) -> None:
        """Refuse a bad knob here, naming it, rather than deep inside a run."""
        _one_of("protocol", self.protocol, tuple(PROTOCOLS) + (None,))
        _one_of("channel", self.channel, tuple(CHANNELS))
        _one_of("network", self.network, ("gige", "myrinet", "grid5000"))
        _one_of("launcher", self.launcher, ("auto",) + tuple(LAUNCHERS))
        _one_of("recovery_policy", self.recovery_policy,
                tuple(RECOVERY_POLICIES))
        for knob in ("n_procs", "n_servers", "procs_per_node",
                     "n_compute_nodes", "ckpt_gc_keep"):
            value = getattr(self, knob)
            if value is not None and value < 1:
                raise ValueError(f"{knob} must be >= 1, got {value}")
        if not self.period > 0:
            raise ValueError(f"period must be > 0 seconds, got {self.period}")
        if self.fork_latency < 0:
            raise ValueError(
                f"fork_latency must be >= 0 seconds, got {self.fork_latency}")
        if not 1 <= self.ckpt_replication <= self.n_servers:
            raise ValueError(
                f"ckpt_replication must be between 1 and n_servers "
                f"({self.n_servers}), got {self.ckpt_replication}")
        if self.spares < 0:
            raise ValueError(f"spares must be >= 0, got {self.spares}")
        if self.spares > 0 and self.network == "grid5000":
            raise ValueError("spares: spare pools are only modelled on "
                             "cluster networks, not grid5000")


def _one_of(knob: str, value, allowed: Sequence) -> None:
    if value not in allowed:
        raise ValueError(f"{knob} must be one of {allowed}, got {value!r}")


def _fabric_for(spec: DeploymentSpec):
    if spec.network == "myrinet":
        return MYRINET_GM if spec.channel == "nemesis" else ETHERNET_OVER_MYRINET
    return GIGABIT_ETHERNET


def _make_launcher(spec: DeploymentSpec):
    choice = spec.launcher
    if choice == "auto":
        choice = ("instant" if spec.protocol is None
                  else PROTOCOLS[spec.protocol].default_launcher)
    return LAUNCHERS[choice]()


def _primaries_by_site(endpoints: Sequence[Endpoint],
                       servers: Sequence[CheckpointServer]
                       ) -> Dict[int, CheckpointServer]:
    """Prefer a checkpoint server in the rank's own cluster (the grid
    experiments use "a local machine" as each node's server)."""
    by_site: Dict[str, List[CheckpointServer]] = {}
    for server in servers:
        by_site.setdefault(server.node.cluster, []).append(server)
    mapping: Dict[int, CheckpointServer] = {}
    rr_per_site: Dict[str, int] = {}
    for rank, endpoint in enumerate(endpoints):
        site = endpoint.node.cluster
        local = by_site.get(site)
        if local:
            index = rr_per_site.get(site, 0)
            mapping[rank] = local[index % len(local)]
            rr_per_site[site] = index + 1
        else:
            mapping[rank] = servers[rank % len(servers)]
    return mapping


def build_run(
    sim: Simulator,
    spec: DeploymentSpec,
    app_factory: Callable,
    name: str = "run",
    malleable_app_factory: Optional[Callable[[int], Callable]] = None,
) -> FTRun:
    """Assemble network, servers, scheduler, launcher and protocol.

    ``malleable_app_factory`` (size -> app function) enables the "shrink"
    recovery policy: after a failure the survivors re-decompose the app over
    the smaller communicator instead of respawning the dead ranks.
    """
    fabric = _fabric_for(spec)
    want_scheduler = (spec.protocol is not None
                      and PROTOCOLS[spec.protocol].needs_scheduler)
    n_service = spec.n_servers + (1 if want_scheduler else 0)
    spare_nodes = []

    if spec.network == "grid5000":
        net = grid5000(sim, intra_fabric=fabric)
        # Spread the service machines over distinct sites.
        clusters = list(net.clusters.values())
        service_nodes = []
        for i in range(n_service):
            cluster = clusters[i % len(clusters)]
            node = next(n for n in cluster.nodes if not n.service)
            node.service = True
            service_nodes.append(node)
    else:
        per_node = spec.procs_per_node
        if spec.n_compute_nodes is not None:
            n_compute = spec.n_compute_nodes
        elif per_node is not None:
            n_compute = -(-spec.n_procs // per_node)
        else:
            n_compute = spec.n_procs
        net = ClusterNetwork(
            sim, n_nodes=n_compute + spec.spares + n_service, fabric=fabric,
            name=name)
        # Spares sit between the compute block and the service block; they
        # are flagged service so place() skips them until a recovery
        # promotes them into the compute set.
        spare_nodes = net.nodes[n_compute:n_compute + spec.spares]
        for node in spare_nodes:
            node.service = True
        service_nodes = net.nodes[n_compute + spec.spares:]
        for node in service_nodes:
            node.service = True

    endpoints = net.place(spec.n_procs, procs_per_node=spec.procs_per_node)
    servers = [
        CheckpointServer(sim, net, service_nodes[i], name=f"{name}:cs{i}",
                         gc_keep=spec.ckpt_gc_keep)
        for i in range(spec.n_servers)
    ]
    scheduler_node = service_nodes[-1] if want_scheduler else None

    run = FTRun(
        sim, net, endpoints, app_factory, CHANNELS[spec.channel],
        protocol_factory(spec.protocol, spec.period, spec.fork_latency,
                         scheduler_node),
        servers, launcher=_make_launcher(spec),
        image_bytes=spec.image_bytes, name=name,
        replication=spec.ckpt_replication,
        recovery_policy=spec.recovery_policy,
        spare_pool=spare_nodes,
        malleable_app_factory=malleable_app_factory,
    )
    if spec.network == "grid5000":
        run.use_site_primaries(_primaries_by_site(endpoints, servers))
    return run
