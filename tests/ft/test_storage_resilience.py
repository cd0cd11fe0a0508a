"""Resilient checkpoint storage: replication, integrity, retry, fallback.

The timeline at this scale (size 4, period 0.6, 2e5-byte images): wave 1
commits at t≈0.62, wave 2 at t≈1.24, the failure-free run completes at
t≈1.55 — kills are scheduled around those points.
"""

import pytest

from repro.ft import Fault, StorageUnrecoverableError
from repro.ft.restore import (BACKOFF_BASE, BACKOFF_FACTOR, FETCH_ROUNDS,
                              JITTER)
from repro.sim import Simulator, Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory

ITERS = 30


def _build(sim, protocol="pcl", **kwargs):
    kwargs.setdefault("size", 4)
    kwargs.setdefault("n_servers", 2)
    kwargs.setdefault("period", 0.6)
    kwargs.setdefault("image_bytes", 2e5)
    return build_ft_run(sim, ring_app_factory(iters=ITERS), protocol=protocol,
                        **kwargs)


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_replicated_upload_seals_a_copy_on_every_replica(protocol):
    sim = Simulator(seed=7)
    run, _ = _build(sim, protocol=protocol, replication=2)
    run.start()
    sim.run_until_complete(run.completed, limit=1e5)
    assert_ring_result(run, ITERS)
    wave = max(server.committed_wave for server in run.servers)
    assert wave >= 2
    for server in run.servers:
        assert server.committed_wave == wave
        for rank in range(4):
            image = server.storage[wave][rank]
            assert image.sealed and image.verify()
    # replicas are independent copies, not aliases of one object
    first, second = (s.storage[wave][0] for s in run.servers)
    assert first is not second
    assert run.stats.fetch_retries == 0


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_single_server_kill_with_replication_recovers(protocol):
    sim = Simulator(seed=7)
    run, _ = _build(sim, protocol=protocol, replication=2)
    run.start()
    run.schedule(Fault("server_kill", 0, 0.7))   # after wave 1 commits
    run.schedule(Fault("node", 1, 0.8))     # victim's local images die with it
    sim.run_until_complete(run.completed, limit=1e5)
    assert run.stats.restarts == 1
    assert run.stats.wave_fallbacks == 0
    assert_ring_result(run, ITERS)


def test_corrupt_replica_falls_back_to_an_older_committed_wave():
    sim = Simulator(seed=7)
    run, _ = _build(sim, n_servers=1, replication=1, gc_keep=2)
    run.start()
    # wave 2 committed at ~1.24; its only copy of rank 1 goes bad before
    # the node kill forces rank 1 to restore remotely
    run.schedule(Fault("image_corrupt", 0, 1.3, rank=1))
    run.schedule(Fault("node", 1, 1.35))
    sim.run_until_complete(run.completed, limit=1e5)
    assert run.stats.restarts == 1
    assert run.stats.fetch_retries > 0
    assert run.stats.wave_fallbacks >= 1
    assert_ring_result(run, ITERS)


def test_sole_server_kill_raises_clean_unrecoverable():
    sim = Simulator(seed=7)
    run, _ = _build(sim, n_servers=1, replication=1)
    run.start()
    run.schedule(Fault("server_kill", 0, 0.7))
    run.schedule(Fault("node", 1, 0.8))
    with pytest.raises(StorageUnrecoverableError, match="no complete replica"):
        sim.run_until_complete(run.completed, limit=1e5)


def test_corrupt_sole_replica_raises_clean_unrecoverable():
    sim = Simulator(seed=7)
    run, _ = _build(sim, n_servers=1, replication=1)
    run.start()
    run.schedule(Fault("image_corrupt", 0, 0.7, rank=1))
    run.schedule(Fault("node", 1, 0.8))
    with pytest.raises(StorageUnrecoverableError, match="no complete replica"):
        sim.run_until_complete(run.completed, limit=1e5)


def test_fetch_retries_back_off_deterministically():
    """Two identical runs take identical backoff delays (seeded streams),
    FETCH_ROUNDS sweeps each growing by BACKOFF_FACTOR within the jitter."""
    delays = []
    for _ in range(2):
        sim = Simulator(seed=7, trace=Tracer(categories=["ft.fetch_backoff"]))
        run, _ = _build(sim, n_servers=1, replication=1)
        run.start()
        run.schedule(Fault("image_corrupt", 0, 0.7, rank=1))
        run.schedule(Fault("node", 1, 0.8))
        with pytest.raises(StorageUnrecoverableError):
            sim.run_until_complete(run.completed, limit=1e5)
        assert run.stats.fetch_retries > 0
        delays.append([(r.get("rank"), r.get("round"), r.get("delay"))
                       for r in sim.trace.select("ft.fetch_backoff")])
    assert delays[0] == delays[1]
    assert {round_no for _, round_no, _ in delays[0]} \
        == set(range(FETCH_ROUNDS - 1))
    for _, round_no, delay in delays[0]:
        low = BACKOFF_BASE * BACKOFF_FACTOR ** round_no
        assert low <= delay <= low * (1 + JITTER)


@pytest.mark.parametrize("protocol", ["pcl", "vcl", "dcl"])
@pytest.mark.parametrize("replication", [1, 2])
def test_upload_with_no_live_server_writes_no_local_image(protocol,
                                                          replication):
    """Every server of the replica set dies between waves 1 and 2: the
    wave-2 uploads fail before their local disk write starts, at K=1 (a
    quorum of one) as at K=2, and the run completes on wave 1."""
    sim = Simulator(seed=7, trace=Tracer(categories=["ft.image_stored"]))
    run, _ = _build(sim, protocol=protocol, n_servers=replication,
                    replication=replication)
    run.start()
    for server in range(replication):
        run.schedule(Fault("server_kill", server, 0.7))
    sim.run_until_complete(run.completed, limit=1e5)
    assert_ring_result(run, ITERS)
    assert {server.committed_wave for server in run.servers} == {1}
    stored = [0] * 4
    for record in sim.trace.select("ft.image_stored"):
        stored[record.get("rank")] += 1
    assert stored == [1] * 4
    for rank, endpoint in enumerate(run.endpoints):
        assert endpoint.node.disk.bytes_written == 2e5 * stored[rank]
