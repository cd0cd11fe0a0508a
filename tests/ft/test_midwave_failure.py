"""Kill a rank *precisely* between its marker/snapshot and the wave's image
completion, and assert the rollback targets the last *completed* wave.

Unlike the fixed-instant kills in test_failure_timing.py, these tests arm
the failure from the trace stream itself: the moment the target wave's
marker/fork record appears, a kill is scheduled one millisecond later —
guaranteed mid-wave regardless of timing drift, because the checkpoint
image (1 MB) takes several milliseconds of fork plus transfer to complete.
"""

from repro.ft import Fault
from repro.mpi import SKIPPED
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory
from tests.ft.test_vcl_replay_order import seq_stream_app


class MidWaveKiller:
    """Kills a rank shortly after the target wave's entry record, and keeps
    a transcript of restart records for the rollback assertion."""

    def __init__(self, sim, run, entry_category, target_wave, delta=0.001):
        self.sim = sim
        self.run = run
        self.entry_category = entry_category
        self.target_wave = target_wave
        self.delta = delta
        self.fired = False
        self.committed_at_kill = None
        self.restart_waves = []
        sim.trace.subscribe(self, [entry_category, "ft.restarted"])

    def __call__(self, record):
        if record.category == "ft.restarted":
            self.restart_waves.append(record.get("wave"))
            return
        if self.fired or record.get("wave") != self.target_wave:
            return
        self.fired = True
        self.committed_at_kill = self.run.committed_wave()
        victim = record.get("rank")
        self.run.schedule(Fault("task", victim, self.sim.now + self.delta))


def test_pcl_kill_between_marker_and_image_completion():
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.05), size=3,
                          protocol="pcl", period=0.3, image_bytes=1e6,
                          fork_latency=0.01)
    killer = MidWaveKiller(sim, run, "ft.enter_wave", target_wave=2)
    run.start()
    sim.run_until_complete(run.completed, limit=1e5)

    assert killer.fired, "wave 2 never started — kill never armed"
    assert killer.committed_at_kill == 1  # wave 1 was the last completed one
    assert run.stats.restarts == 1
    # the rollback must target the last completed wave, not the partial one
    assert killer.restart_waves == [1]
    assert_ring_result(run, iters=30)


def test_vcl_kill_between_snapshot_and_image_completion():
    sim = Simulator(seed=31)
    run, _ = build_ft_run(sim, seq_stream_app(n_msgs=60, nbytes=800_000,
                                              work=0.01),
                          size=2, protocol="vcl", period=0.12,
                          image_bytes=1e6, fork_latency=0.005)
    killer = MidWaveKiller(sim, run, "ft.local_checkpoint", target_wave=2)
    run.start()
    sim.run_until_complete(run.completed, limit=1e5)

    assert killer.fired, "wave 2 never started — kill never armed"
    assert killer.committed_at_kill == 1
    assert run.stats.restarts == 1
    assert killer.restart_waves == [1]
    # stream integrity across the rollback: in order, no loss, no dupes
    values = [v for v in run.job.contexts[1].state["seen"] if v is not SKIPPED]
    assert values == sorted(values)
    assert len(values) == len(set(values))
    assert values[-1] == 59


def test_pcl_kill_during_first_wave_rolls_back_to_scratch():
    """A failure inside wave 1 (nothing committed yet) restarts from wave 0,
    i.e. from the beginning."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.05), size=3,
                          protocol="pcl", period=0.3, image_bytes=1e6,
                          fork_latency=0.01)
    killer = MidWaveKiller(sim, run, "ft.enter_wave", target_wave=1)
    run.start()
    sim.run_until_complete(run.completed, limit=1e5)

    assert killer.fired
    assert killer.committed_at_kill == 0
    assert killer.restart_waves == [0]
    assert_ring_result(run, iters=30)
