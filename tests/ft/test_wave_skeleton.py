"""The two FT seams are sufficient: a protocol is only its quiesce strategy,
and every recovery policy shares one restart path.

(a) structural: no registered protocol re-states the wave skeleton, and
    ``repro.ft`` never asks which channel class it is talking to;
(b) a toy quiesce strategy written here, against nothing but the seam and
    ``build_ft_run``, commits waves and survives a kill;
(c) ``restart`` and a degraded ``shrink`` are the same restart, observed
    from outside.
"""

import inspect
import pathlib

import repro.ft
from repro.ft import PROTOCOLS, BaseEndpoint, BaseProtocol, Fault
from repro.mpi.message import MarkerPacket
from repro.sim import Simulator, Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory

SKELETON = ("install", "_drive", "on_rank_done", "_begin_wave", "_record_wave")
ENDPOINT_SKELETON = ("_fan_out", "_checkpoint", "_store_and_notify",
                     "_store_image")


def test_protocols_state_only_their_cut():
    for name, cls in PROTOCOLS.items():
        assert cls.protocol_name == name
        restated = [m for m in SKELETON if m in vars(cls)]
        assert not restated, f"{name} re-states the wave skeleton: {restated}"
        endpoint = cls.endpoint_cls
        assert issubclass(endpoint, BaseEndpoint) and endpoint is not BaseEndpoint
        restated = [m for m in ENDPOINT_SKELETON if m in vars(endpoint)]
        assert not restated, f"{name} endpoint re-states: {restated}"


def test_ft_layer_never_names_a_channel_class():
    """The send freeze is a channel capability (freeze_sends/resume_sends),
    not an isinstance check on the Nemesis device."""
    for path in pathlib.Path(repro.ft.__file__).parent.glob("*.py"):
        assert "NemesisChannel" not in path.read_text(), path.name


# ---- (b) a toy strategy: "snapshot at once".  Consistent only because the
# app below never communicates, so any cut is a consistent cut.
class SnapEndpoint(BaseEndpoint):
    def enter_wave(self, wave):
        if wave <= self.wave:
            return
        self.wave = wave
        self.protocol.note_phase("enter", wave)
        if self.rank == 0:
            self._fan_out(range(1, self.job.size), MarkerPacket, wave)
        self._checkpoint()


class SnapProtocol(BaseProtocol):
    protocol_name = "snap"
    endpoint_cls = SnapEndpoint


SILENT_ITERS = 25


def silent_app(ctx):
    for i in range(SILENT_ITERS):
        yield from ctx.compute(0.2)
        ctx.update(lambda s, it=i: s.__setitem__("iteration", it + 1))


def test_toy_strategy_commits_waves_and_survives_a_kill(monkeypatch):
    toy_lines = sum(len(inspect.getsource(cls).splitlines())
                    for cls in (SnapEndpoint, SnapProtocol))
    assert toy_lines <= 40
    monkeypatch.setitem(PROTOCOLS, "snap", SnapProtocol)
    sim = Simulator(seed=7, trace=Tracer(categories=["ft.restarted"]))
    run, _ = build_ft_run(sim, silent_app, size=4, protocol="snap",
                          period=1.0, image_bytes=2e6)
    run.start()
    run.schedule(Fault("task", 2, 2.6))
    sim.run_until_complete(run.completed, limit=10000)
    assert run.stats.waves_completed >= 2
    assert run.stats.restarts == 1
    restored = [r.get("wave") for r in sim.trace.select("ft.restarted")]
    assert len(restored) == 1 and restored[0] >= 2  # rolled back to a toy wave
    assert sim.trace["ft.restore_local"] == 4
    assert [ctx.state["iteration"] for ctx in run.job.contexts] == [SILENT_ITERS] * 4


# ---- (c) one restart path
def _restart_observed(policy):
    sim = Simulator(seed=7, trace=Tracer(
        categories=["ft.restarted", "ft.recovery_degraded"]))
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.3), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6,
                          recovery_policy=policy)
    run.start()
    run.schedule(Fault("task", 2, 2.6))
    sim.run_until_complete(run.completed, limit=10000)
    assert_ring_result(run, iters=30)
    return sim, run


def test_restart_and_degraded_shrink_are_the_same_restart():
    sim_r, restart = _restart_observed("restart")
    sim_s, shrink = _restart_observed("shrink")  # ring app is not malleable
    assert restart.stats.policy_degradations == 0
    assert [r.get("reason") for r in sim_s.trace.select("ft.recovery_degraded")] \
        == ["app-not-malleable"]
    waves_r = [r.get("wave") for r in sim_r.trace.select("ft.restarted")]
    waves_s = [r.get("wave") for r in sim_s.trace.select("ft.restarted")]
    assert waves_r == waves_s and waves_r[0] >= 1
    assert restart.stats.restarts == shrink.stats.restarts == 1
    assert restart.job.size == shrink.job.size == 4
    assert [ctx.state for ctx in restart.job.contexts] \
        == [ctx.state for ctx in shrink.job.contexts]
