"""Grid-scale failure/recovery: rollback across WAN-separated sites."""

import pytest

from repro.apps import BT
from repro.ft import Fault
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator


def test_grid_recovery_with_remote_image_fetch():
    """Kill a whole node on the grid: it reboots without its local image,
    so its rank's image must be fetched from the (possibly remote)
    checkpoint server."""
    sim = Simulator(seed=17)
    bench = BT(klass="A", scale=0.08)
    spec = DeploymentSpec(
        n_procs=16, protocol="pcl", network="grid5000", n_servers=2,
        period=2.0, image_bytes=bench.image_bytes(16) * 0.08,
        fork_latency=0.01,
    )
    run = build_run(sim, spec, bench.make_app(16), name="gridfail")
    run.start()
    run.schedule(Fault("node", 5, 6.0))
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.restarts == 1
    # the victim's machine lost its local image: at least one remote restore
    assert sim.trace["ft.restore_remote"] >= 1
    for ctx in run.job.contexts:
        assert ctx.state["iteration"] == bench.iterations()


def test_grid_task_kill_restores_locally():
    sim = Simulator(seed=17)
    bench = BT(klass="A", scale=0.08)
    spec = DeploymentSpec(
        n_procs=16, protocol="pcl", network="grid5000", n_servers=2,
        period=2.0, image_bytes=bench.image_bytes(16) * 0.08,
        fork_latency=0.01,
    )
    run = build_run(sim, spec, bench.make_app(16), name="gridtask")
    run.start()
    run.schedule(Fault("task", 3, 6.0))
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.restarts == 1
    assert sim.trace["ft.restore_local"] >= 16  # every rank had a local copy
    assert sim.trace["ft.restore_remote"] == 0


def test_wan_crossing_job_completes_with_checkpoints():
    """A deployment spanning two sites checkpoints across the WAN."""
    sim = Simulator(seed=18)
    bench = BT(klass="A", scale=0.05)
    spec = DeploymentSpec(
        n_procs=64, protocol="pcl", network="grid5000", n_servers=4,
        period=3.0, image_bytes=1e6, fork_latency=0.01,
    )
    run = build_run(sim, spec, bench.make_app(64), name="wan")
    sites = {ep.node.cluster for ep in run.endpoints}
    assert len(sites) >= 2  # genuinely spans the WAN
    run.start()
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.waves_completed >= 1
