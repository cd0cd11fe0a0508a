"""Tests of the non-blocking (Vcl) protocol: snapshots, logging, overhead."""

import pytest

from repro.mpi import ChVChannel
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def run_to_completion(sim, run, limit=5000.0):
    run.start()
    return sim.run_until_complete(run.completed, limit=limit)


def test_vcl_completes_with_waves(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="vcl", period=1.0)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2
    assert_ring_result(run, iters=30)


def test_vcl_never_blocks_sends(sim):
    """Vcl must not close any gate or freeze any source."""
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.1), size=4,
                          protocol="vcl", period=0.5)
    run.start()

    def check():
        while not run.completed.triggered:
            for channel in run.job.channels:
                assert all(channel.send_open(dst) for dst in range(4))
                assert not channel._frozen_dsts
                assert not channel._frozen_sources
            yield sim.timeout(0.05)

    sim.process(check())
    sim.run_until_complete(run.completed, limit=5000)
    assert run.stats.blocked_seconds == 0.0


def test_vcl_logs_in_transit_messages():
    """With traffic in flight during the wave, the daemon must log it."""
    sim = Simulator(seed=7)
    # Communication-heavy app: big messages are in transit at any instant.
    run, _ = build_ft_run(
        sim, ring_app_factory(iters=100, work=0.005, nbytes=2_000_000),
        size=4, protocol="vcl", period=0.3, image_bytes=5e6)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2
    assert run.stats.logged_messages > 0
    assert run.stats.logged_bytes > 0


def test_vcl_overhead_smaller_than_pcl_at_high_frequency():
    """The headline comparison: with frequent waves and heavy images, the
    non-blocking protocol's overhead over its own checkpoint-free baseline
    is smaller than the blocking protocol's over *its* baseline (each on
    its real channel, as in the paper)."""
    from repro.mpi import ChVChannel, FtSockChannel

    def measure(protocol, channel_cls):
        app = ring_app_factory(iters=200, work=0.02, nbytes=500_000)
        sim = Simulator(seed=7)
        run, _ = build_ft_run(sim, app, size=4, protocol=protocol,
                              channel_cls=channel_cls, period=0.25,
                              image_bytes=60e6)
        elapsed = run_to_completion(sim, run)
        waves = run.stats.waves_completed
        sim = Simulator(seed=7)
        base_run, _ = build_ft_run(sim, app, size=4, protocol=None,
                                   channel_cls=channel_cls, period=1.0)
        baseline = run_to_completion(sim, base_run)
        return (elapsed - baseline) / max(1, waves), waves

    pcl_per_wave, w_pcl = measure("pcl", FtSockChannel)
    vcl_per_wave, w_vcl = measure("vcl", ChVChannel)
    assert w_pcl >= 1 and w_vcl >= 1
    assert vcl_per_wave < pcl_per_wave


def test_vcl_with_ch_v_channel(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=20, work=0.1), size=4,
                          protocol="vcl", channel_cls=ChVChannel, period=1.0)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 1
    assert_ring_result(run, iters=20)


def test_vcl_single_rank(sim):
    def app(ctx):
        for _ in range(10):
            yield from ctx.compute(0.5)

    run, _ = build_ft_run(sim, app, size=1, protocol="vcl", period=1.0)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2


def test_vcl_images_and_logs_stored(sim):
    run, _ = build_ft_run(
        sim, ring_app_factory(iters=100, work=0.01, nbytes=1_000_000),
        size=4, protocol="vcl", period=0.3, n_servers=2, image_bytes=2e6)
    run_to_completion(sim, run)
    committed = run.committed_wave()
    assert committed >= 1
    images = {}
    for server in run.servers:
        images.update(server.storage.get(committed, {}))
    assert set(images) == {0, 1, 2, 3}


def test_vcl_requires_scheduler_node(sim):
    from repro.ft import VclProtocol
    from repro.mpi import FtSockChannel, MPIJob
    from repro.net import ClusterNetwork

    net = ClusterNetwork(sim, n_nodes=2)
    job = MPIJob(sim, net, net.place(1), lambda c: None, FtSockChannel)
    with pytest.raises(ValueError):
        VclProtocol(job, {0: None}, period=1.0)


def test_vcl_wave_rate_tracks_period():
    """Shorter periods must produce more waves (Fig. 5 bottom panel)."""
    waves = {}
    for period in (0.4, 1.5):
        sim = Simulator(seed=7)
        run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.15),
                              size=4, protocol="vcl", period=period,
                              image_bytes=5e6)
        run_to_completion(sim, run)
        waves[period] = run.stats.waves_completed
    assert waves[0.4] > waves[1.5] >= 1


def test_an_endpoint_keeps_only_the_newest_waves_acked_replicas(sim):
    """Only the current wave's acknowledged replicas are ever read, so a
    long run holds one wave's set per rank, not one per wave."""
    run, _ = build_ft_run(sim, ring_app_factory(iters=220, work=0.05),
                          size=4, protocol="vcl", period=0.3)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 33
    for endpoint in run.protocol.endpoints:
        assert list(endpoint._acked_replicas) == [endpoint.wave]
        assert endpoint._acked_replicas[endpoint.wave] == {0}
