"""Tests of the high-level deployment builder."""

import pytest

from repro.mpi import ChVChannel, FtSockChannel, NemesisChannel
from repro.net import ETHERNET_OVER_MYRINET, GIGABIT_ETHERNET, MYRINET_GM
from repro.net.grid import GridNetwork
from repro.runtime import DeploymentSpec, Dispatcher, FTPM, ScaleLimitError, build_run
from repro.ft import InstantLauncher
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, ring_app_factory


def test_spec_validation():
    with pytest.raises(ValueError):
        DeploymentSpec(4, protocol="magic")
    with pytest.raises(ValueError):
        DeploymentSpec(4, channel="smoke")
    with pytest.raises(ValueError):
        DeploymentSpec(4, network="tokenring")
    with pytest.raises(ValueError):
        DeploymentSpec(4, n_servers=0)


def test_build_pcl_cluster_run_completes():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(4, protocol="pcl", period=1.0, image_bytes=1e6,
                          fork_latency=0.01)
    run = build_run(sim, spec, ring_app_factory(iters=20, work=0.2))
    run.start()
    sim.run_until_complete(run.completed, limit=5000)
    assert run.stats.waves_completed >= 1
    assert_ring_result(run, iters=20)


def test_build_vcl_run_gets_dispatcher_and_scheduler():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(4, protocol="vcl", period=1.0, image_bytes=1e6,
                          fork_latency=0.01)
    run = build_run(sim, spec, ring_app_factory(iters=10, work=0.2))
    assert isinstance(run.launcher, Dispatcher)
    run.start()
    sim.run_until_complete(run.completed, limit=5000)
    assert run.stats.waves_completed >= 1


def test_pcl_gets_ftpm_and_none_gets_instant():
    sim = Simulator(seed=5)
    run = build_run(sim, DeploymentSpec(2, protocol="pcl"), ring_app_factory(2))
    assert isinstance(run.launcher, FTPM)
    run2 = build_run(sim, DeploymentSpec(2, protocol=None), ring_app_factory(2))
    assert isinstance(run2.launcher, InstantLauncher)


def test_vcl_scale_limit_enforced_at_start():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(400, protocol="vcl", n_compute_nodes=200,
                          procs_per_node=2)
    run = build_run(sim, spec, ring_app_factory(iters=1))
    with pytest.raises(ScaleLimitError):
        run.start()


def test_myrinet_fabric_follows_channel():
    sim = Simulator(seed=5)
    run_gm = build_run(sim, DeploymentSpec(2, network="myrinet",
                                           channel="nemesis"),
                       ring_app_factory(2), name="gm")
    assert run_gm.net.fabric is MYRINET_GM
    run_eth = build_run(sim, DeploymentSpec(2, network="myrinet",
                                            channel="ft_sock"),
                        ring_app_factory(2), name="eth")
    assert run_eth.net.fabric is ETHERNET_OVER_MYRINET
    run_gige = build_run(sim, DeploymentSpec(2, network="gige",
                                             channel="nemesis"),
                         ring_app_factory(2), name="g")
    assert run_gige.net.fabric is GIGABIT_ETHERNET


def test_service_nodes_not_used_for_placement():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(4, n_servers=2, protocol="vcl")
    run = build_run(sim, spec, ring_app_factory(2))
    service = {n.name for n in run.net.nodes if n.service}
    assert len(service) == 3  # 2 servers + scheduler
    used = {ep.node.name for ep in run.endpoints}
    assert not (service & used)


def test_dual_processor_placement():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(8, procs_per_node=2, protocol=None)
    run = build_run(sim, spec, ring_app_factory(2))
    assert len({ep.node.name for ep in run.endpoints}) == 4


def test_grid_deployment_spreads_servers_and_prefers_local():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(80, network="grid5000", n_servers=4, protocol="pcl")
    run = build_run(sim, spec, ring_app_factory(2))
    assert isinstance(run.net, GridNetwork)
    server_sites = {s.node.cluster for s in run.servers}
    assert len(server_sites) == 4
    # ranks placed in bordeaux/lille should use a server at their own site
    # when one exists there
    for rank, endpoint in enumerate(run.endpoints):
        server = run.replica_map[rank][0]
        if endpoint.node.cluster in server_sites:
            assert server.node.cluster == endpoint.node.cluster


def test_grid_run_completes():
    sim = Simulator(seed=5)
    spec = DeploymentSpec(6, network="grid5000", n_servers=2, protocol="pcl",
                          period=2.0, image_bytes=1e6, fork_latency=0.01)
    run = build_run(sim, spec, ring_app_factory(iters=10, work=0.3))
    run.start()
    sim.run_until_complete(run.completed, limit=5000)
    assert_ring_result(run, iters=10)
