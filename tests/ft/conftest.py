"""Builders for fault-tolerance tests: a cluster with compute nodes,
checkpoint servers and (for Vcl) a scheduler machine."""

import operator

import pytest

from repro.ft import PROTOCOLS, CheckpointServer, FTRun, protocol_factory
from repro.mpi import FtSockChannel
from repro.net import ClusterNetwork
from repro.net.topology import Endpoint
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=7)


def build_ft_run(
    sim,
    app_factory,
    size,
    protocol="pcl",
    channel_cls=FtSockChannel,
    n_servers=1,
    period=5.0,
    image_bytes=1e6,
    fork_latency=0.01,
    replication=1,
    gc_keep=1,
    recovery_policy="restart",
    spares=0,
    malleable_app_factory=None,
):
    """Assemble network, servers and an FTRun; returns (run, net).

    ``spares`` pre-allocates a pool for recovery_policy="spare" (nodes
    marked service until promoted).
    """
    needs_scheduler = protocol is not None and PROTOCOLS[protocol].needs_scheduler
    extra = n_servers + (1 if needs_scheduler else 0)
    net = ClusterNetwork(sim, n_nodes=size + extra + spares)
    pool = net.nodes[size:size + spares]
    for node in pool:
        node.service = True
    service_nodes = net.nodes[size + spares:]
    endpoints = [Endpoint(node, 0) for node in net.nodes[:size]]
    servers = [
        CheckpointServer(sim, net, service_nodes[i], name=f"cs{i}",
                         gc_keep=gc_keep)
        for i in range(n_servers)
    ]
    scheduler_node = service_nodes[-1] if needs_scheduler else None

    run = FTRun(
        sim, net, endpoints, app_factory, channel_cls,
        protocol_factory(protocol, period, fork_latency, scheduler_node),
        servers, image_bytes=image_bytes, replication=replication,
        recovery_policy=recovery_policy, spare_pool=pool,
        malleable_app_factory=malleable_app_factory,
    )
    return run, net


def ring_app_factory(iters=20, work=0.05, nbytes=1000):
    """An iterative ring-exchange + allreduce application whose final state
    is checkable: each rank must have received ``iters`` neighbour messages
    and the allreduce of 1 over ``size`` ranks every iteration."""

    def app(ctx):
        for i in range(iters):
            yield from ctx.compute(work)
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            request = ctx.isend(right, tag=7, data=(ctx.rank, i), nbytes=nbytes)
            data = yield from ctx.recv(left, tag=7)
            yield from request.wait()
            ctx.update(lambda s, d=data: s.__setitem__(
                "recvd", s.get("recvd", 0) + 1))
            total = yield from ctx.allreduce(1, operator.add, nbytes=8)
            ctx.update(lambda s, t=total: s.__setitem__("sum", t))

    return app


def assert_ring_result(run, iters):
    """Validate the checkable invariants of :func:`ring_app_factory`."""
    for ctx in run.job.contexts:
        assert ctx.state["recvd"] == iters, f"rank {ctx.rank}: {ctx.state}"
        assert ctx.state["sum"] == run.job.size
