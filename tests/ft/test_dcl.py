"""The message-drain (Dcl) protocol: waves, quiescence, recovery, breaks.

Dcl is the third protocol family: coordinated like Pcl, but instead of
flushing channels with markers-then-gates alone it counts — the initiator
broadcasts a drain request, every rank freezes application sends and
reports (sent, received) totals, and only when the totals match (the
network is provably empty) does anyone fork an image.  No message logging,
no delayed receive queue: the images alone are the consistent cut.
"""

import pytest

from repro.ft import DclProtocol, DRAIN_BUDGET, Fault
from repro.mpi import NemesisChannel
from repro.sim import Simulator, Tracer
from repro.verify import InvariantViolation, MonitorBus, all_monitors

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def test_dcl_completes_waves_and_preserves_results(sim):
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", period=0.8)
    run.start()
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.waves_completed >= 2
    assert_ring_result(run, 60)


def test_dcl_drain_records_and_phase_tiling():
    """Every wave emits drain open/quiesced records, and the wave-phase
    timers — including the new ``drain`` phase — tile the wave exactly."""
    tracer = Tracer(enabled=True, categories=(
        "ft.drain_open", "ft.drain_quiesced", "ft.wave_phase",
        "ft.wave_completed"))
    sim = Simulator(seed=7, trace=tracer)
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", period=0.8)
    run.start()
    sim.run_until_complete(run.completed, limit=1e6)
    waves = run.stats.waves_completed
    assert waves >= 2

    quiesced = [r for r in tracer.records
                if r.category == "ft.drain_quiesced"]
    assert len(quiesced) == waves
    for record in quiesced:
        # quiescence means the totals matched, within the drain budget
        assert record.get("sent") == record.get("recvd")
        assert 0.0 <= record.get("elapsed") <= DRAIN_BUDGET

    opens = [r for r in tracer.records if r.category == "ft.drain_open"]
    assert {r.get("rank") for r in opens} == {0, 1, 2, 3}

    phases = {}
    for record in tracer.records:
        if record.category == "ft.wave_phase":
            phases.setdefault(record.get("wave"), []).append(record)
    for wave, start, end in run.stats.wave_records:
        names = [r.get("phase") for r in phases[wave]]
        assert names == ["markers", "drain", "flush", "stream", "commit"]
        total = sum(r.get("duration") for r in phases[wave])
        assert total == pytest.approx(end - start)


@pytest.mark.parametrize("kill,at", [("task", 1.0), ("node", 1.0),
                                     ("task", 1.7)])
def test_dcl_recovers_from_kills(sim, kill, at):
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", period=0.8)
    run.start()
    if kill == "task":
        run.schedule(Fault("task", 1, at))
    else:
        run.schedule(Fault("node", 1, at))
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.restarts == 1
    assert_ring_result(run, 60)


def test_dcl_on_nemesis_recovers(sim):
    """The drain stopper path: Nemesis freezes sends with its stopper."""
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", channel_cls=NemesisChannel,
                          period=0.8)
    run.start()
    run.schedule(Fault("task", 1, 1.0))
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.restarts == 1
    assert_ring_result(run, 60)


def test_dcl_with_replicated_storage(sim):
    """K=2 replication: a server death after commit must not strand the
    restart — the surviving replica serves the image."""
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", period=0.8, n_servers=2,
                          replication=2)
    run.start()
    run.schedule(Fault("server_kill", 0, 1.3))
    run.schedule(Fault("node", 1, 1.6))
    sim.run_until_complete(run.completed, limit=1e6)
    assert run.stats.restarts == 1
    assert_ring_result(run, 60)


@pytest.mark.unmonitored  # the test attaches its own bus for the break
def test_dcl_without_drain_gating_is_caught(monkeypatch):
    """Remove the send freeze: ranks keep committing payloads while
    'draining', so stale counter reports can declare a false quiescence —
    exactly what the dcl monitors exist to catch."""
    monkeypatch.setattr(DclProtocol, "drain_gating_enabled", False)
    sim = Simulator(seed=7)
    bus = MonitorBus(all_monitors(), raise_on_violation=True)
    bus.attach(sim)
    run, _ = build_ft_run(sim, ring_app_factory(iters=60), size=4,
                          protocol="dcl", period=0.8)
    run.start()
    with pytest.raises(InvariantViolation) as err:
        sim.run_until_complete(run.completed, limit=1e6)
        bus.finish()
    assert err.value.monitor in ("dcl-network-empty", "dcl-drain-liveness")
    assert err.value.window  # the violation carries its event context
