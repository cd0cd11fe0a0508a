"""Failure injection and rollback-recovery, end to end, both protocols."""

import pytest

from repro.ft import Fault
from repro.sim import Simulator, Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def run_with_failure(protocol, kill_rank=2, kill_at=2.6, iters=30, work=0.2,
                     seed=7, size=4, kill_kind="task", period=1.0, nbytes=1000,
                     trace=None, **policy):
    sim = Simulator(seed=seed, trace=trace)
    run, net = build_ft_run(
        sim, ring_app_factory(iters=iters, work=work, nbytes=nbytes), size=size,
        protocol=protocol, period=period, image_bytes=2e6, **policy)
    run.start()
    run.schedule(Fault(kill_kind, kill_rank, kill_at))
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
        "pcl", kill_kind="node", recovery_policy="spare", spares=2)
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)
    # the dead machine is no longer hosting any endpoint
    dead = [ep for ep in run.endpoints if not ep.node.alive]
    assert not dead


def test_node_failure_same_node_policy_reboots():
    """The paper's restart keeps every rank on its machine: the dead node
    reboots, without its local images."""
    sim, run, _ = run_with_failure("pcl", kill_kind="node")
    placement = [ep.node.name for ep in run.endpoints]
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)
    assert [ep.node.name for ep in run.endpoints] == placement
    assert all(ep.node.alive for ep in run.endpoints)
    assert sim.trace["ft.restore_remote"] >= 1


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
    run.schedule(Fault("task", 1, 2.6))
    run.schedule(Fault("task", 3, 6.3))
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
    run.schedule(Fault("task", 2, 2.6))
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
    run.schedule(Fault("task", 1, 1.0))
    with pytest.raises(RuntimeError, match="restarts"):
        sim.run_until_complete(run.completed, limit=10000)


def test_invalid_recovery_policy():
    sim = Simulator()
    with pytest.raises(ValueError, match="recovery policy 'bogus'"):
        build_ft_run(sim, ring_app_factory(), size=2, protocol="pcl",
                     recovery_policy="bogus")


def test_determinism_across_identical_runs():
    t1 = run_with_failure("pcl", seed=11)[2]
    t2 = run_with_failure("pcl", seed=11)[2]
    assert t1 == t2


@pytest.mark.parametrize("fault, named", [
    (Fault("task", 2, 1.0), "task-r2@1"),
    (Fault("node", 1, 1.0), "node-r1@1"),
    (Fault("server_kill", 0, 1.0), "server_kill-cs0@1"),
    (Fault("image_corrupt", 0, 1.0, rank=3), "image_corrupt-cs0@1"),
])
def test_fault_scheduled_in_the_past_names_the_fault(fault, named):
    """A fault time before ``sim.now`` fails at the FTRun boundary with the
    fault kind, its target and both times — not the kernel's generic
    "cannot schedule into the past"."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()
    sim.run(until=1.5)
    with pytest.raises(ValueError) as error:
        run.schedule(fault)
    message = str(error.value)
    assert named in message and "t=1.5" in message


@pytest.mark.parametrize("fault, named", [
    (Fault("task", 4, 2.0), "task fault target 4 outside job of 4"),
    (Fault("node", 9, 2.0), "node fault target 9 outside job of 4"),
    (Fault("server_kill", 1, 2.0), "server_kill fault target 1 outside 1"),
    (Fault("image_corrupt", 0, 2.0, rank=4), "image_corrupt fault rank=4"),
])
def test_fault_outside_the_deployment_fails_at_schedule(fault, named):
    """A victim the deployment does not have is refused when scheduled,
    not silently skipped when it fires."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(), size=4, protocol="pcl")
    run.start()
    with pytest.raises(ValueError, match=named):
        run.schedule(fault)
