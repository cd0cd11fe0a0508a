"""Failure injection and rollback-recovery, end to end, both protocols."""

import pytest

from repro.sim import Simulator, Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def run_with_failure(protocol, kill_rank=2, kill_at=2.6, iters=30, work=0.2,
                     seed=7, size=4, kill_kind="task", restart_policy="same-node",
                     spare_nodes=0, period=1.0, nbytes=1000, trace=None):
    sim = Simulator(seed=seed, trace=trace)
    run, net = build_ft_run(
        sim, ring_app_factory(iters=iters, work=work, nbytes=nbytes), size=size,
        protocol=protocol, period=period, image_bytes=2e6,
        restart_policy=restart_policy, spare_nodes=spare_nodes)
    run.start()
    if kill_kind == "task":
        run.schedule_task_kill(kill_rank, kill_at)
    else:
        run.schedule_node_kill(kill_rank, kill_at)
    elapsed = sim.run_until_complete(run.completed, limit=10000)
    return sim, run, elapsed


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_recovery_completes_and_is_correct(protocol):
    sim, run, elapsed = run_with_failure(protocol)
    assert run.stats.failures == 1
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_failure_costs_time(protocol):
    _, _, with_failure = run_with_failure(protocol)
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol=protocol, period=1.0, image_bytes=2e6)
    run.start()
    clean = sim.run_until_complete(run.completed, limit=10000)
    assert with_failure > clean


@pytest.mark.parametrize("protocol", ["pcl", "vcl"])
def test_failure_before_first_wave_restarts_from_scratch(protocol):
    sim, run, _ = run_with_failure(
        protocol, kill_at=0.4, trace=Tracer(categories=["ft.restarted"]))
    assert run.stats.restarts == 1
    # nothing was committed yet: the restart restored no wave
    assert [r.get("wave") for r in sim.trace.select("ft.restarted")] == [0]
    assert_ring_result(run, iters=30)


def test_restart_uses_local_images_on_task_kill():
    """Task kill leaves local disks intact: every rank restores locally."""
    sim, run, _ = run_with_failure("pcl")
    assert sim.trace["ft.restore_local"] >= run.job.size
    assert sim.trace["ft.restore_remote"] == 0


def test_node_failure_with_spare_recovery():
    sim, run, _ = run_with_failure(
        "pcl", kill_kind="node", restart_policy="spare", spare_nodes=2)
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)
    # the dead machine is no longer hosting any endpoint
    dead = [ep for ep in run.endpoints if not ep.node.alive]
    assert not dead


def test_node_failure_same_node_policy_reboots():
    sim, run, _ = run_with_failure("pcl", kill_kind="node",
                                   restart_policy="same-node")
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)


def test_vcl_logged_messages_replayed():
    """Make in-transit traffic certain at wave time, fail afterwards, and
    check the run still completes correctly — the logged messages must be
    replayed or the ring would deadlock."""
    sim, run, _ = run_with_failure(
        "vcl", iters=120, work=0.01, nbytes=1_500_000, period=0.3,
        kill_at=1.9, kill_rank=1)
    assert run.stats.logged_messages > 0
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=120)


def test_two_failures_two_recoveries():
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()
    run.schedule_task_kill(1, 2.6)
    run.schedule_task_kill(3, 6.3)
    sim.run_until_complete(run.completed, limit=10000)
    assert run.stats.failures == 2
    assert run.stats.restarts == 2
    assert_ring_result(run, iters=40)


def test_recovery_rolls_back_to_committed_wave_only():
    """Progress between the last committed wave and the failure is lost."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()

    observed = {}

    def spy():
        # run until just before the kill, note the committed wave
        yield sim.timeout(2.55)
        observed["wave_at_kill"] = run.committed_wave()

    sim.process(spy())
    run.schedule_task_kill(2, 2.6)
    sim.run_until_complete(run.completed, limit=10000)
    assert observed["wave_at_kill"] >= 1
    # restart happened and the run completed correctly
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)


def test_recovery_time_accounted():
    sim, run, _ = run_with_failure("pcl")
    assert run.stats.recovery_seconds > 0.0


def test_max_restarts_guard():
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.max_restarts = 0
    run.start()
    run.schedule_task_kill(1, 1.0)
    with pytest.raises(RuntimeError, match="restarts"):
        sim.run_until_complete(run.completed, limit=10000)


def test_invalid_restart_policy():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_ft_run(sim, ring_app_factory(), size=2, protocol="pcl",
                     restart_policy="bogus")


def test_determinism_across_identical_runs():
    t1 = run_with_failure("pcl", seed=11)[2]
    t2 = run_with_failure("pcl", seed=11)[2]
    assert t1 == t2


@pytest.mark.parametrize("schedule, args, named", [
    ("schedule_task_kill", (2,), "task kill of rank 2"),
    ("schedule_node_kill", (1,), "node kill of rank 1"),
    ("schedule_server_kill", (0,), "server kill of server 0"),
    ("schedule_image_corrupt", (0, 3), "image corruption of rank 3 on server 0"),
])
def test_fault_scheduled_in_the_past_names_the_fault(schedule, args, named):
    """A fault time before ``sim.now`` fails at the FTRun boundary with the
    fault kind, its target and both times — not the kernel's generic
    "cannot schedule into the past"."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()
    sim.run(until=1.5)
    with pytest.raises(ValueError) as error:
        getattr(run, schedule)(*args, at=1.0)
    message = str(error.value)
    assert named in message and "t=1" in message and "t=1.5" in message
