"""Survivor-based recovery: failure-set agreement, spare promotion and
shrink-to-survivors, including the graceful-degradation paths.

The paper's recovery model is a full job restart (Sec. 4.1); these tests
cover the ULFM-style alternative layered on top of it — survivors agree on
the failed set, then either promote pre-allocated spares (only the
replacements stream images) or renumber and re-decompose a malleable
application over the shrunken communicator.  Every path that cannot
proceed must degrade to the paper's full restart, never hang
(docs/RECOVERY.md).
"""

import math
import operator

import pytest

from repro.ft import Fault
from repro.sim import Simulator
from repro.sim.trace import Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def malleable_ring_factory(iters=30, work=0.2, nbytes=1000):
    """Size-parameterised ring app: re-decomposable after a shrink.

    Tracks ``iteration`` in context state (the shrink resume point is the
    minimum iteration any committed image reached) and honours the
    ``resume_iteration`` seed a shrink restart plants in fresh state.
    """

    def make(size):
        def app(ctx):
            start = int(ctx.state.get("resume_iteration",
                                      ctx.state.get("iteration", 0)))
            for i in range(start, iters):
                yield from ctx.compute(work)
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                request = ctx.isend(right, tag=7, data=(ctx.rank, i),
                                    nbytes=nbytes)
                yield from ctx.recv(left, tag=7)
                yield from request.wait()
                ctx.update(lambda s, it=i: s.__setitem__("iteration", it + 1))
                total = yield from ctx.allreduce(1, operator.add, nbytes=8)
                ctx.update(lambda s, t=total: s.__setitem__("sum", t))

        return app

    return make


def run_survivor(protocol="pcl", policy="spare", spares=2, kills=(),
                 seed=7, size=4, iters=30, work=0.3, trace=False,
                 malleable=False, limit=10000):
    sim = Simulator(seed=seed,
                    trace=Tracer(enabled=True) if trace else None)
    factory = malleable_ring_factory(iters=iters, work=work)
    run, net = build_ft_run(
        sim,
        factory(size) if malleable else ring_app_factory(iters=iters,
                                                         work=work),
        size=size, protocol=protocol, period=1.0, image_bytes=2e6,
        recovery_policy=policy, spares=spares,
        malleable_app_factory=factory if malleable else None)
    run.start()
    for kind, rank, at in kills:
        if kind == "node":
            run.schedule(Fault("node", rank, at))
        else:
            run.schedule(Fault("task", rank, at))
    elapsed = sim.run_until_complete(run.completed, limit=limit)
    return sim, run, elapsed


# ------------------------------------------------------------------- spare
@pytest.mark.parametrize("protocol", ["pcl", "vcl", "dcl"])
def test_spare_promotion_replaces_the_dead_machine(protocol):
    sim, run, _ = run_survivor(protocol, kills=[("node", 1, 2.6)])
    assert run.stats.restarts == 1
    assert run.stats.spares_promoted == 1
    assert run.stats.policy_degradations == 0
    assert_ring_result(run, iters=30)
    # rank 1 now lives on a former pool node, hosting an MPI rank
    assert all(ep.node.alive for ep in run.endpoints)
    assert not run.endpoints[1].node.service


def test_spare_task_kill_needs_no_promotion():
    """A task kill leaves the machine alive: the survivor path restores in
    place without consuming a spare."""
    sim, run, _ = run_survivor(kills=[("task", 1, 2.6)])
    assert run.stats.restarts == 1
    assert run.stats.spares_promoted == 0
    assert run.stats.policy_degradations == 0
    assert_ring_result(run, iters=30)


def test_spare_coalesces_a_failure_burst_into_one_recovery():
    """Two node kills inside the suspicion window agree as one failed set
    and recover in a single pass — two spares promoted, one restart."""
    sim, run, _ = run_survivor(
        spares=3, kills=[("node", 1, 2.6), ("node", 2, 2.6001)])
    assert run.stats.restarts == 1
    assert run.stats.spares_promoted == 2
    assert_ring_result(run, iters=30)


def test_spare_survives_kill_during_recovery():
    """A cascading node kill landing while images stream back forces a
    re-promote + re-restore loop, not a hang or a crash."""
    sim, run, _ = run_survivor(
        spares=3, kills=[("node", 1, 2.6), ("node", 2, 2.605)])
    assert run.stats.spares_promoted >= 2
    assert run.stats.policy_degradations == 0
    assert_ring_result(run, iters=30)


def test_node_kill_follows_a_promoted_rank_to_its_spare():
    """A node fault resolves its machine through the *current* placement:
    killing rank 1 again mid-restore takes down the spare it was just
    promoted onto — not its already-dead first machine — and the recovery
    loop promotes once more."""
    sim, run, _ = run_survivor(spares=3, trace=True,
                               kills=[("node", 1, 2.6), ("node", 1, 2.62)])
    machines = [record.get("node") for record in sim.trace.select("ft.failure")
                if record.get("kind") == "node"]
    assert len(machines) == 2 and machines[0] != machines[1]
    assert run.stats.spares_promoted == 2
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)


def test_spare_pool_exhaustion_degrades_to_full_restart():
    sim, run, _ = run_survivor(
        spares=1, kills=[("node", 1, 2.6), ("node", 2, 2.6001)])
    assert run.stats.policy_degradations == 1
    assert_ring_result(run, iters=30)  # still 4 ranks, still correct


def test_spare_with_empty_pool_degrades_immediately():
    sim, run, _ = run_survivor(spares=0, kills=[("node", 1, 2.6)])
    assert run.stats.spares_promoted == 0
    assert run.stats.policy_degradations == 1
    assert_ring_result(run, iters=30)


# ------------------------------------------------------------------ shrink
@pytest.mark.parametrize("protocol", ["pcl", "vcl", "dcl"])
def test_shrink_renumbers_survivors_and_redecomposes(protocol):
    sim, run, _ = run_survivor(protocol, policy="shrink", spares=0,
                               malleable=True, kills=[("node", 1, 2.6)])
    assert run.stats.shrinks == 1
    assert run.stats.policy_degradations == 0
    assert len(run.endpoints) == 3
    assert run.job.size == 3
    for ctx in run.job.contexts:
        assert ctx.state["iteration"] == 30, (ctx.rank, ctx.state)
        assert ctx.state["sum"] == 3


def test_shrink_double_fault_drops_both_ranks():
    sim, run, _ = run_survivor(
        policy="shrink", spares=0, malleable=True,
        kills=[("node", 1, 2.6), ("node", 2, 2.6001)])
    assert run.stats.shrinks == 1
    assert run.job.size == 2
    for ctx in run.job.contexts:
        assert ctx.state["sum"] == 2


def test_shrink_non_malleable_app_degrades_to_full_restart():
    sim, run, _ = run_survivor(policy="shrink", spares=0, malleable=False,
                               kills=[("node", 1, 2.6)])
    assert run.stats.shrinks == 0
    assert run.stats.policy_degradations == 1
    assert run.job.size == 4
    assert_ring_result(run, iters=30)


# ------------------------------------------- agreement + phase accounting
def test_membership_commits_precede_recovery_and_name_one_failed_set():
    sim, run, _ = run_survivor(trace=True, kills=[("node", 1, 2.6)])
    commits = [r for r in sim.trace.records
               if r.category == "ft.membership_commit"]
    begins = [r for r in sim.trace.records
              if r.category == "ft.recovery_begin"]
    assert len(begins) == 1
    begin = begins[0]
    failed = tuple(begin.get("failed"))
    assert failed == (1,)
    committers = {r.get("rank") for r in commits
                  if r.get("ballot") == begin.get("ballot")}
    assert committers == {0, 2, 3}  # every survivor, no dead voter
    assert all(tuple(r.get("failed")) == failed for r in commits)
    assert max(r.time for r in commits) <= begin.time


@pytest.mark.parametrize("policy,spares,malleable",
                         [("spare", 2, False), ("shrink", 0, True)])
def test_recovery_phases_tile_the_recovery_time(policy, spares, malleable):
    sim, run, _ = run_survivor(policy=policy, spares=spares, trace=True,
                               malleable=malleable,
                               kills=[("node", 1, 2.6)])
    phases = [r for r in sim.trace.records
              if r.category == "ft.recovery_phase"]
    assert {r.get("phase") for r in phases} == \
        {"detect", "agree", "promote", "restore"}
    total = sum(r.get("duration") for r in phases)
    assert math.isclose(total, run.stats.recovery_seconds, abs_tol=1e-9)


def test_survivor_recovery_is_deterministic():
    t1 = run_survivor(seed=11, kills=[("node", 1, 2.6)])[2]
    t2 = run_survivor(seed=11, kills=[("node", 1, 2.6)])[2]
    assert t1 == t2


def test_invalid_recovery_policy_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_ft_run(sim, ring_app_factory(), size=2, protocol="pcl",
                     recovery_policy="bogus")
