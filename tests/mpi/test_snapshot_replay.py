"""Tests of the restartable-operation machinery: snapshots, replay, and the
CompletedSet encoding."""

import operator

import pytest

from repro.mpi import FtSockChannel, MPIJob, SKIPPED
from repro.mpi.context import CompletedSet
from repro.net import ClusterNetwork
from repro.sim import Simulator

from tests.mpi.conftest import make_job, run_job


# ----------------------------------------------------------- CompletedSet
def test_completed_set_prefix_compaction():
    cs = CompletedSet()
    for i in range(5):
        cs.add(i)
    assert cs.watermark == 5 and not cs.extras
    assert 4 in cs and 5 not in cs


def test_completed_set_out_of_order():
    cs = CompletedSet()
    cs.add(2)
    cs.add(0)
    assert cs.watermark == 1 and 2 in cs and 1 not in cs
    cs.add(1)
    assert cs.watermark == 3 and not cs.extras


def test_completed_set_idempotent():
    cs = CompletedSet()
    cs.add(0)
    cs.add(0)
    assert cs.watermark == 1
    assert len(cs) == 1


def test_completed_set_copy_independent():
    cs = CompletedSet()
    cs.add(0)
    c2 = cs.copy()
    c2.add(1)
    assert 1 in c2 and 1 not in cs


# ------------------------------------------------------------ replay basics
def _run_twice_with_restart(app_factory, size, snapshot_at, total_limit=500.0,
                            seed=3):
    """Run a job, snapshot every rank at ``snapshot_at`` (simulating an
    instantaneous coordinated checkpoint in a quiet network), kill it, and
    rerun a fresh job from the snapshots.  Returns the restarted job."""
    sim = Simulator(seed=seed)
    net = ClusterNetwork(sim, n_nodes=size)
    endpoints = net.place(size)
    job = MPIJob(sim, net, endpoints, app_factory, FtSockChannel, name="first")
    job.start()
    sim.run(until=snapshot_at)
    snapshots = [ctx.take_snapshot(wave=1) for ctx in job.contexts]
    job.kill()
    sim.run(until=snapshot_at + 0.001)

    job2 = MPIJob(sim, net, endpoints, app_factory, FtSockChannel, name="second")
    job2.start(snapshots=snapshots)
    sim.run_until_complete(job2.completed, limit=total_limit)
    return job2


def test_replay_skips_completed_compute():
    """A restarted rank must not redo compute it completed pre-snapshot."""
    def app(ctx):
        for i in range(10):
            yield from ctx.compute(1.0)
            ctx.update(lambda s, i=i: s.__setitem__("iters", i + 1))

    job2 = _run_twice_with_restart(app, size=1, snapshot_at=4.5)
    # snapshot at 4.5: 4 iterations complete; restart redoes 6.
    assert job2.contexts[0].state["iters"] == 10


def test_update_not_reapplied_on_replay():
    """State mutations committed pre-snapshot must not double-apply."""
    def app(ctx):
        for _ in range(6):
            yield from ctx.compute(1.0)
            ctx.update(lambda s: s.__setitem__("acc", s.get("acc", 0) + 1))

    job2 = _run_twice_with_restart(app, size=1, snapshot_at=3.5)
    assert job2.contexts[0].state["acc"] == 6


def test_replay_consistent_across_ranks():
    """Sends completed pre-snapshot are not re-sent; the matching state
    snapshot carries undelivered messages across the restart."""
    def app(ctx):
        # Rank 0 sends 5 messages spread over time; rank 1 receives them late.
        if ctx.rank == 0:
            for i in range(5):
                yield from ctx.compute(1.0)
                yield from ctx.send(1, tag=1, data=i, nbytes=64)
        else:
            yield from ctx.compute(20.0)
            for i in range(5):
                data = yield from ctx.recv(0, tag=1)
                # update is called unconditionally: during replay it is a
                # completed op and skips itself (the rule: never make op
                # initiation conditional on replay-visible values).
                ctx.update(lambda s, d=data: s.__setitem__(
                    "got", s.get("got", []) + [d]))

    # Snapshot at t=3.5: rank 0 has sent msgs 0,1,2 (completed at 1,2,3);
    # they sit in rank 1's unexpected queue and must survive the restart.
    job2 = _run_twice_with_restart(app, size=2, snapshot_at=3.5)
    assert job2.contexts[1].state["got"] == [0, 1, 2, 3, 4]


def test_a_restored_completed_receive_replays_skipped():
    """A receive that completed before the snapshot replays as
    :data:`SKIPPED` (``recv_status`` as ``(SKIPPED, None)``): a blocking
    receive commits and consumes its value in one pop, so a snapshot keeps
    no value for it.  The live ``update`` after it shows what replay
    handed the application."""
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=1, data="payload", nbytes=8)
            yield from ctx.send(1, tag=2, data="status", nbytes=8)
            return
        data = yield from ctx.recv(0, tag=1)
        value = yield from ctx.recv_status(0, tag=2)
        yield from ctx.compute(10.0)
        ctx.update(lambda s, d=data, v=value: s.update(data=d, value=v))

    job2 = _run_twice_with_restart(app, size=2, snapshot_at=5.0)
    state = job2.contexts[1].state
    assert state["data"] is SKIPPED
    assert state["value"] == (SKIPPED, None)


def test_collectives_replay():
    """A job restarted mid-collective-sequence still produces correct
    reductions for the post-snapshot part."""
    def app(ctx):
        for i in range(6):
            yield from ctx.compute(1.0)
            total = yield from ctx.allreduce(1, operator.add, nbytes=8)
            ctx.update(lambda s, t=total, i=i: s.__setitem__(f"sum{i}", t))

    job2 = _run_twice_with_restart(app, size=4, snapshot_at=3.5)
    for ctx in job2.contexts:
        # Every post-restart iteration must have the correct total.
        assert ctx.state["sum5"] == 4
        assert ctx.state["sum0"] == 4  # pre-snapshot iteration, from state


def test_snapshot_includes_unexpected_bytes_in_image():
    sim = Simulator(seed=1)

    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, tag=1, data="x", nbytes=1000)
            yield from ctx.compute(2.0)
        else:
            yield from ctx.compute(2.0)

    job, _ = make_job(sim, app, size=2, image_bytes=5000.0)
    job.start()
    sim.run(until=1.0)
    snap = job.contexts[1].take_snapshot(wave=1)
    # image = base + buffered unexpected message (1000 payload + 32 header)
    assert snap.image_bytes == pytest.approx(5000.0 + 1032.0)
    job.kill()
    sim.run()


def test_restore_on_used_context_rejected():
    sim = Simulator()

    def app(ctx):
        yield from ctx.compute(1.0)

    job, _ = make_job(sim, app, size=1)
    run_job(sim, job)
    snap = job.contexts[0].take_snapshot(wave=1)
    with pytest.raises(RuntimeError):
        job.contexts[0].restore_snapshot(snap)


def test_snapshot_state_deep_copied():
    sim = Simulator()

    def app(ctx):
        ctx.update(lambda s: s.__setitem__("list", [1, 2]))
        yield from ctx.compute(1.0)
        ctx.update(lambda s: s["list"].append(3))

    job, _ = make_job(sim, app, size=1)
    job.start()
    sim.run(until=0.5)
    snap = job.contexts[0].take_snapshot(wave=1)
    sim.run()
    assert job.contexts[0].state["list"] == [1, 2, 3]
    assert snap.state["list"] == [1, 2]
