"""Stress: failures injected at awkward instants — during marker exchange,
mid-image-transfer, right after a commit — must all recover correctly."""

import pytest

from repro.ft import Fault
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
@pytest.mark.parametrize("kill_at", [
    1.005,   # during the first wave's marker exchange / snapshot
    1.05,    # during image transfers
    1.35,    # shortly after the wave commits
    2.02,    # inside the second wave
])
def test_recovery_from_mid_wave_failures(protocol, kill_at):
    sim = Simulator(seed=13)
    run, _ = build_ft_run(
        sim, ring_app_factory(iters=25, work=0.2, nbytes=20_000), size=4,
        protocol=protocol, period=1.0, image_bytes=4e6, fork_latency=0.02)
    run.start()
    run.schedule(Fault("task", 2, kill_at))
    sim.run_until_complete(run.completed, limit=10000)
    assert run.stats.failures == 1
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=25)


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_kill_rank_zero(protocol):
    """Rank 0 is special (Pcl initiator); killing it must still recover."""
    sim = Simulator(seed=13)
    run, _ = build_ft_run(sim, ring_app_factory(iters=20, work=0.2), size=4,
                          protocol=protocol, period=1.0, image_bytes=2e6)
    run.start()
    run.schedule(Fault("task", 0, 2.4))
    sim.run_until_complete(run.completed, limit=10000)
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=20)


def test_failure_in_every_rank_one_at_a_time():
    for victim in range(4):
        sim = Simulator(seed=13)
        run, _ = build_ft_run(sim, ring_app_factory(iters=15, work=0.2),
                              size=4, protocol="pcl", period=1.0,
                              image_bytes=2e6)
        run.start()
        run.schedule(Fault("task", victim, 2.2))
        sim.run_until_complete(run.completed, limit=10000)
        assert_ring_result(run, iters=15)


def test_waves_resume_after_restart():
    """The wave counter must keep increasing across the restart."""
    sim = Simulator(seed=13)
    run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()
    run.schedule(Fault("task", 1, 2.6))
    sim.run_until_complete(run.completed, limit=10000)
    waves = [w for w, _s, _e in run.stats.wave_records]
    assert waves == sorted(waves)
    assert len(set(waves)) == len(waves)  # no wave id committed twice
    assert run.stats.waves_completed >= 3


def test_uncommitted_wave_discarded_on_failure():
    """A failure during wave N+1 rolls back to wave N, never to a partial
    N+1 state."""
    sim = Simulator(seed=13)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=50e6)
    run.start()
    # big images: wave 2's transfers take a while; kill in the middle
    run.schedule(Fault("task", 3, 2.3))
    sim.run_until_complete(run.completed, limit=10000)
    assert_ring_result(run, iters=30)
    committed = {w for w, _s, _e in run.stats.wave_records}
    # every committed wave has all four images on the servers at commit time
    assert run.committed_wave() in committed or run.committed_wave() == 0


@pytest.mark.parametrize("protocol,kill_at", [
    ("pcl", 1.1), ("vcl", 1.06), ("dcl", 1.06),
])
def test_node_kill_during_a_queued_burst(protocol, kill_at, monkeypatch):
    """A node dies inside wave 1 while every rank has a burst of flow-sized
    messages queued behind an in-flight one and the images are streaming.
    The pipe pump (callbacks on the kick and on ``flow.done``) must drop the
    queued messages, leave no ``sent`` failure undefused — one would be
    re-raised out of the run — and go idle, and the job must recover."""
    from repro.net.connection import _Pipe

    fan, iters = 4, 300

    def burst_ring(ctx):
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for i in range(iters):
            requests = [ctx.isend(right, tag=9, data=(i, k), nbytes=200_000)
                        for k in range(fan)]
            for _ in range(fan):
                yield from ctx.recv(left, tag=9)
            for request in requests:
                yield from request.wait()
            ctx.update(lambda s: s.__setitem__("iters", s.get("iters", 0) + 1))

    broken_busy = []  # (queued, flow in flight) of every pipe the kill broke
    break_ = _Pipe.break_

    def spy(pipe):
        if not pipe.broken and pipe.sim.now == kill_at:
            broken_busy.append((len(pipe.egress),
                                pipe._current_flow is not None, pipe))
        break_(pipe)

    monkeypatch.setattr(_Pipe, "break_", spy)
    sim = Simulator(seed=13)
    run, _ = build_ft_run(sim, burst_ring, size=4, protocol=protocol,
                          period=1.0, image_bytes=4e6, fork_latency=0.02)
    run.start()
    run.schedule(Fault("node", 2, kill_at))
    sim.run_until_complete(run.completed, limit=10000)
    assert any(queued and in_flight for queued, in_flight, _ in broken_busy)
    assert any(not queued and in_flight for queued, in_flight, _ in broken_busy)
    for _, _, pipe in broken_busy:
        assert not pipe.pumping and not pipe.egress
        assert pipe._current_flow is None
    assert run.stats.failures == 1 and run.stats.restarts == 1
    assert [ctx.state["iters"] for ctx in run.job.contexts] == [iters] * 4
