"""Tests of the blocking (Pcl) protocol: waves, flushing, overhead."""

import pytest

from repro.mpi import NemesisChannel
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def run_to_completion(sim, run, limit=5000.0):
    run.start()
    return sim.run_until_complete(run.completed, limit=limit)


def test_pcl_completes_with_waves(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0)
    elapsed = run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2
    assert_ring_result(run, iters=30)
    assert elapsed > 0


def test_pcl_overhead_grows_with_frequency():
    """Higher checkpoint frequency must cost more time (the Fig. 6 effect).

    Needs a communication-bound application: when iterations are dominated by
    compute, the whole wave hides inside the compute phase — which is also a
    faithful behaviour.
    """
    app = lambda: ring_app_factory(iters=200, work=0.02, nbytes=500_000)
    times = {}
    for period in (0.25, 4.0):
        sim = Simulator(seed=7)
        run, _ = build_ft_run(sim, app(), size=4, protocol="pcl",
                              period=period, image_bytes=20e6)
        times[period] = run_to_completion(sim, run)
        assert run.stats.waves_completed >= 1
    sim = Simulator(seed=7)
    base_run, _ = build_ft_run(sim, app(), size=4, protocol=None, period=1.0)
    base = run_to_completion(sim, base_run)
    assert times[0.25] > times[4.0] > base


def test_pcl_records_blocked_time(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0)
    run_to_completion(sim, run)
    assert run.stats.blocked_seconds > 0.0
    assert run.stats.markers_sent >= run.stats.waves_completed * 4 * 3


def test_pcl_images_stored_and_committed(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, n_servers=2)
    run_to_completion(sim, run)
    waves = run.stats.waves_completed
    assert waves >= 1
    committed = run.committed_wave()
    assert committed == waves
    # each server holds only the newest committed wave (plus any wave that
    # was in flight when the app finished)
    for server in run.servers:
        assert all(w >= committed for w in server.storage)
        images = server.storage.get(committed, {})
        assert images  # round-robin gives every server some ranks
        for image in images.values():
            assert image.nbytes > 0
            assert image.stored_at is not None


def test_pcl_wave_durations_positive(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0)
    run_to_completion(sim, run)
    durations = run.stats.wave_durations()
    assert durations and all(d > 0 for d in durations)


def test_pcl_single_rank_job(sim):
    def app(ctx):
        for _ in range(10):
            yield from ctx.compute(0.5)
            ctx.update(lambda s: s.__setitem__("n", s.get("n", 0) + 1))

    run, _ = build_ft_run(sim, app, size=1, protocol="pcl", period=1.0)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2
    assert run.job.contexts[0].state["n"] == 10


def test_pcl_with_nemesis_stopper(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", channel_cls=NemesisChannel, period=1.0)
    run_to_completion(sim, run)
    assert run.stats.waves_completed >= 2
    assert_ring_result(run, iters=30)


def _late_marker_app(iters=200, big=2e7):
    """Rank 0 streams small messages to rank 1 while rank 2 sends it 20 MB
    ones: rank 2's marker queues behind a big message, so rank 0 has
    checkpointed and sends again while rank 1 still waits for it."""
    def app(ctx):
        if ctx.rank == 0:
            for i in range(iters):
                yield from ctx.compute(0.01)
                yield from ctx.send(1, 1, i, 100)
        elif ctx.rank == 2:
            for i in range(iters // 10):
                yield from ctx.send(1, 2, i, big)
                yield from ctx.compute(0.05)
        else:
            small, large = [], []
            for _ in range(iters):
                small.append((yield from ctx.recv(0, 1)))
            for _ in range(iters // 10):
                large.append((yield from ctx.recv(2, 2)))
            ctx.update(lambda s: s.update(small=small, large=large))
    return app


def test_pcl_no_app_message_crosses_marker_before_checkpoint(sim):
    """Channel-flush invariant: between receiving a peer's marker and the
    local checkpoint, no application packet from that peer may reach
    matching — they must sit in the delayed queue."""
    from repro.mpi.channels.base import BaseChannel

    violations = []
    original = BaseChannel._deliver_app

    def checked(self, packet):
        if packet.src in self._frozen_sources:  # pragma: no cover
            violations.append((self.rank, packet.src))
        original(self, packet)

    BaseChannel._deliver_app = checked
    try:
        run, _ = build_ft_run(sim, _late_marker_app(), size=3,
                              protocol="pcl", period=0.5)
        run_to_completion(sim, run)
    finally:
        BaseChannel._deliver_app = original
    assert violations == []
    # ... and the run put the invariant to the test: some packets did
    # arrive from a frozen source
    assert sim.trace.counters["channel.delayed_packets"] > 0
    assert run.stats.waves_completed >= 2
    state = run.job.contexts[1].state
    assert state == {"small": list(range(200)), "large": list(range(20))}


def test_pcl_more_servers_is_not_slower():
    times = {}
    for n_servers in (1, 4):
        sim = Simulator(seed=7)
        run, _ = build_ft_run(
            sim, ring_app_factory(iters=20, work=0.2, nbytes=20000), size=8,
            protocol="pcl", period=1.0, n_servers=n_servers, image_bytes=40e6)
        times[n_servers] = run_to_completion(sim, run)
    assert times[4] <= times[1]


def test_protocol_rejects_bad_period(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=2), size=2,
                          protocol="pcl", period=1.0)
    from repro.ft import PclProtocol
    from repro.mpi import FtSockChannel, MPIJob
    with pytest.raises(ValueError):
        PclProtocol(run.job or _fake_job(sim, run), run.replica_map, period=0.0)


def _fake_job(sim, run):
    from repro.mpi import FtSockChannel, MPIJob
    return MPIJob(sim, run.net, run.endpoints, lambda c: None, FtSockChannel)
